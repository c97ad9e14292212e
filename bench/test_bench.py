"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# suite case counts of `verify --max-len 1` on the default pool
TINY_VERIFY_CASES = {
    "homset_formulas": 98,
    "epic_monic": 42,
    "iso": 42,
    "two_of_three": 2072,
    "monoidal_laws": 1353,
    "weakdiv": 2683,
    "adjunction": 48,
}


def tiny(name, seed=3, expected=None):
    if name == "verify-default":
        return workloads.VerifyDefault(seed, ("--max-len", "1"), expected or TINY_VERIFY_CASES)
    return workloads.WORKLOADS[name](seed, count=14, expected=expected)


def units(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_spec_names_its_workloads_and_metrics():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert "setup_s" in units(SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics_are_emitted_with_units(name):
    with run.SpeedProbe().running() as probe:
        result = run.drive(tiny(name), 0.0)
    assert result.failed == 0 and result.checks > 0
    metrics, named = run.end_to_end(name, result, 0.5, probe, result.spans[0])
    assert {k: u for k, (_, u) in metrics.items()} == units(SPEC["end_to_end"])
    assert all(v > 0 for v, _ in metrics.values())
    assert named["ops_failed_ratio"] == (0.0, "ratio")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_per_layer_metrics_are_emitted_with_units(name):
    workload = tiny(name)
    reference = run.drive(workload, 0.0)
    workloads.clear_library_caches()
    tracer = Tracer()
    with tracer.active():
        traced = run.drive(workload, None, count=len(reference.latencies), tracer=tracer)
    assert traced.failed == 0
    metrics = tracer.metrics(sum(traced.latencies), sum(reference.latencies))
    assert {k: m["unit"] for k, m in metrics.items()} == units(SPEC["per_layer"])
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_verify_traced_spans_cover_every_suite():
    workload = tiny("verify-default")
    tracer = Tracer()
    with tracer.active():
        assert workload.run(0, tracer)[3] == 0
    spans = tracer.durations()
    assert {f"oracle.suite.{s}" for s in TINY_VERIFY_CASES} | {"oracle.universe_build"} <= set(spans)


def test_wrong_case_count_is_a_failed_operation():
    expected = dict(TINY_VERIFY_CASES, iso=TINY_VERIFY_CASES["iso"] + 1)
    result = run.drive(tiny("verify-default", expected=expected), 0.0)
    assert (result.checks, result.failed) == (7, 1)


@pytest.mark.parametrize(
    "name, expected",
    [("query-stream", {"blocks": ["0" * 16]}), ("hom-enum", {"requests": ["0" * 16] * 14})],
)
def test_wrong_digest_fails_operations_instead_of_crashing(name, expected):
    result = run.drive(tiny(name, expected=expected), 0.0)
    assert result.checks == 14 and result.failed == 14


def test_inputs_depend_only_on_the_seed():
    for name in ("query-stream", "hom-enum"):
        assert tiny(name, seed=5).inputs == tiny(name, seed=5).inputs
        assert tiny(name, seed=5).inputs != tiny(name, seed=6).inputs


def test_hom_requests_stay_inside_the_guard_and_the_size_cap():
    for xs, ys, planted, size in tiny("hom-enum").inputs:
        assert 2 <= len(xs) <= 4 and len(xs) ** len(ys) <= workloads.HOM_ENUMERATION_GUARD
        assert size <= workloads.HOM_SIZE_CAP
        assert planted is None or size >= 1


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hom-enum", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
