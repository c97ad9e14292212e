"""Fixtures shared across test modules."""

import sys
import time
from dataclasses import dataclass

import pytest


def sweep_library_caches():
    """Empty every functools cache of the library through its cache_clear,
    the way a benchmarked verify starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "factorcat" or name.startswith("factorcat."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@dataclass(frozen=True)
class ColdVerify:
    """One cold run of every suite on the default universe."""

    reports: list
    elapsed: float  # seconds, wall clock
    hom_cache: tuple  # hom_index_tuples.cache_info() right after the run


@pytest.fixture(scope="session")
def cold_default_verify():
    """The default verify, run once per session from empty caches, for the
    tests that check its outcome, its time budget and its hom-cache misses."""
    from factorcat import UniverseSpec, hom_index_tuples, run_suite

    sweep_library_caches()
    start = time.perf_counter()
    reports = run_suite(UniverseSpec())
    elapsed = time.perf_counter() - start
    return ColdVerify(reports, elapsed, hom_index_tuples.cache_info())
