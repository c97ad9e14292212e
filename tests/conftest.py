"""Fixtures shared across test modules, and the benchmark's cold start
(``clear_library_caches``), so a test starts cold the way a benchmarked
verify does."""

import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import clear_library_caches  # noqa: E402


@dataclass(frozen=True)
class ColdVerify:
    """One cold run of every suite on the default universe."""

    reports: list
    elapsed: float  # seconds, wall clock
    hom_memo: tuple  # the oracle's hom-set memo's cache_info() right after the run


@pytest.fixture(scope="session")
def cold_default_verify():
    """The default verify, run once per session from empty caches, for the
    tests that check its outcome, its time budget and its hom-memo misses.
    It asks for one suite per call, so every suite runs in this process and
    the memo counts the misses of all seven."""
    from factorcat import SUITES, UniverseSpec, run_suite
    from factorcat.oracle import _homs

    u = UniverseSpec()
    clear_library_caches()
    start = time.perf_counter()
    reports = [report for name in SUITES for report in run_suite(u, [name])]
    elapsed = time.perf_counter() - start
    return ColdVerify(reports, elapsed, _homs.cache_info())
