"""The installed entry point, ``python -m factorcat``, run in subprocesses.

Besides a smoke test of the module entry point, this holds the regression
tests for requests that once ran without bound: each runs under a timeout,
so a regression fails instead of hanging the suite.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def python(*argv, timeout=60, **run_kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        env=env, capture_output=True, text=True, timeout=timeout, **run_kwargs,
    )


def factorcat(*argv, **run_kwargs):
    return python("-m", "factorcat", *argv, **run_kwargs)


def test_verify_json_through_the_module_entry_point():
    proc = factorcat("verify", "--suite", "adjunction", "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)[0]["suite"] == "adjunction"


def test_graph_guard_through_the_module_entry_point():
    proc = factorcat("graph", "--monoid", "zx", "--pool", "[1,2,3,5,6,7]", "--max-len", "4")
    assert proc.returncode == 3, proc.stderr


def test_graph_with_a_huge_length_cap_is_a_guard_error():
    proc = factorcat("graph", "--monoid", "zx", "--pool", "[1,2]", "--max-len", "300000", timeout=10)
    assert proc.returncode == 3, proc.stderr


def test_verify_with_a_huge_length_cap_is_a_guard_error():
    proc = factorcat("verify", "--pool", "[1,2]", "--max-len", "300000", timeout=10)
    assert proc.returncode == 3, proc.stderr


def test_graph_over_an_empty_pool_ignores_the_length_cap():
    proc = factorcat("graph", "--monoid", "zx", "--pool", "[]", "--max-len", "100000000", timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == factorcat("graph", "--monoid", "zx", "--pool", "[]", "--max-len", "3").stdout


def test_verify_over_an_empty_pool_ignores_the_length_cap():
    proc = factorcat("verify", "--pool", "[]", "--max-len", "100000000", timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == factorcat("verify", "--pool", "[]", "--max-len", "3").stdout


def test_interval_decode_of_a_huge_exponent_is_a_guard_error():
    proc = factorcat("factorizations", "--monoid", "interval", '"1e-999999999"', timeout=10)
    assert proc.returncode == 3, proc.stderr


def test_a_large_pool_reaches_the_object_guard_quickly():
    # 12,000 distinct rationals: the pool's dedupe before the guard must be linear
    pool = json.dumps([f"1/{k}" for k in range(1, 12_001)])
    proc = factorcat("graph", "--monoid", "interval", "--pool", pool, "--max-len", "1", timeout=10)
    assert proc.returncode == 3, proc.stderr


def _cap_address_space(megabytes=256):
    limit = megabytes * 2**20  # by default: a universe built past the guard needs far more
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("argv", [
    ("verify", "--pool", "[1,-1]", "--max-len", "5"),  # 4,234,971 candidate maps
    ("verify", "--pool", "[1,-1]", "--max-len", "6"),  # 249,295,003
    ("graph", "--monoid", "zx", "--pool", "[1,-1]", "--max-len", "6"),  # 127 nodes
], ids=["verify-len5", "verify-len6", "graph-len6"])
def test_a_universe_past_the_candidate_guard_is_refused_in_bounded_memory(argv):
    proc = factorcat(*argv, timeout=20, preexec_fn=_cap_address_space)
    assert proc.returncode == 3, proc.stderr
    assert "candidate maps" in proc.stderr


@pytest.mark.parametrize("codomain_len", [6, 7], ids=["10^6-maps", "10^7-maps"])
def test_a_hom_set_past_the_result_guard_is_refused_in_bounded_memory(codomain_len):
    # over units every candidate is a map, and both requests pass the 10^7 candidate guard
    ones = lambda k: json.dumps([1] * k)
    proc = factorcat("hom", "--monoid", "zx", ones(10), ones(codomain_len),
                     timeout=20, preexec_fn=_cap_address_space)
    assert proc.returncode == 3, proc.stderr
    assert "more than 10^5 maps" in proc.stderr


def test_a_universe_with_a_hom_set_past_the_result_guard_is_refused_in_bounded_memory():
    # 1,419,768 candidate maps pass the candidate guard, and over a unit every
    # candidate is a map: (1)^7 -> (1)^6 has 7^6 = 117,649 of them.  Built
    # whole before a guard refuses, the universe peaks near 245 MB resident
    proc = factorcat("verify", "--pool", "[1]", "--max-len", "7",
                     timeout=20, preexec_fn=lambda: _cap_address_space(128))
    assert proc.returncode == 3, proc.stderr
    assert "more than 10^5 maps" in proc.stderr


HOM_SETS_INTO_LONG_TUPLES = """
from factorcat import ZX, FactorTuple, hom_index_tuples
one = FactorTuple(ZX, (1,))
for k in range(40):
    codomain = FactorTuple(ZX, (1,) * (100_000 + k))
    assert hom_index_tuples(one, codomain) == ((1,) * (100_000 + k),)
print(hom_index_tuples.cache_info().currsize)
"""


def test_hom_sets_of_large_shape_are_not_kept():
    # each hom set is one map of 10^5 entries; kept with its codomain as the
    # cache key, forty of them need about 60 MB more than one does
    proc = python("-c", HOM_SETS_INTO_LONG_TUPLES, timeout=20,
                  preexec_fn=lambda: _cap_address_space(64))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]
