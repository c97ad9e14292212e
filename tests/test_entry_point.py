"""The installed entry point, ``python -m factorcat``, run in subprocesses.

Besides a smoke test of the module entry point, this holds the regression
tests for requests that once ran without bound: each runs under a timeout,
so a regression fails instead of hanging the suite.  One more test pins the
pytest warning filter that turns the library's deprecations into errors.
"""

import json
import os
import resource
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def python(*argv, timeout=60, **run_kwargs):
    return subprocess.run(
        [sys.executable, *argv],
        env=_env(), capture_output=True, text=True, timeout=timeout, **run_kwargs,
    )


def factorcat(*argv, **run_kwargs):
    return python("-m", "factorcat", *argv, **run_kwargs)


def test_verify_json_through_the_module_entry_point():
    proc = factorcat("verify", "--suite", "adjunction", "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)[0]["suite"] == "adjunction"


@pytest.mark.parametrize("category", [DeprecationWarning, PendingDeprecationWarning])
def test_a_deprecation_from_the_library_fails_the_tests(category):
    # pyproject.toml's filterwarnings errors on these when a factorcat module
    # issues them, and only then
    def warn_from(module):
        exec("import warnings; warnings.warn('old API', C)", {"__name__": module, "C": category})

    for module in ("factorcat", "factorcat.category"):
        with pytest.raises(category):
            warn_from(module)
    with warnings.catch_warnings(record=True) as caught:  # keeps the filters
        warn_from("factorcatalog")
    assert [w.category for w in caught] == [category]


# makes a law raise AttributeError, lets run_suite fork on one CPU too, runs
# main and prints the number of children forked
RAISING_LAW = """
import os, sys
from dataclasses import replace
from factorcat import oracle
from factorcat.cli import main

def raises(*args):
    raise AttributeError("miswired")

law = sys.argv[1]
oracle.LAWS[law] = replace(oracle.LAWS[law], predicate=raises)
forks, fork = [], os.fork
os.fork = lambda: forks.append(fork()) or forks[-1]
os.sched_getaffinity = lambda pid: {0, 1}
code = main(sys.argv[2:])
print(len(forks))
sys.exit(code)
"""


@pytest.mark.parametrize("law, argv, forks", [
    ("adjunction_roundtrip", ["--suite", "adjunction"], 0),  # raised in this process
    ("iso_agreement", ["--pool", "[1,2]", "--max-len", "2"], int(hasattr(os, "fork"))),  # the child's
])
def test_an_internal_fault_exits_70_without_a_traceback(law, argv, forks):
    proc = python("-c", RAISING_LAW, law, "verify", *argv)
    assert (proc.returncode, proc.stderr) == (70, "error: internal: AttributeError: miswired\n")
    assert proc.stdout == f"{forks}\n"


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
from factorcat import ZX, FactorTuple, empty_tuple, hom_index_tuples
one = FactorTuple(ZX, (1,))
for k in range(40):
    codomain = FactorTuple(ZX, (1,) * (100_000 + k))
    assert hom_index_tuples(one, codomain) == ((1,) * (100_000 + k),)
o = empty_tuple(ZX)
assert hom_index_tuples(o, FactorTuple(ZX, (2,) * 10**5)) == ()
assert hom_index_tuples(o, o) == ((),)
"""


def test_hom_sets_of_large_shape_are_not_kept():
    # each hom set is one map of 10^5 entries; kept with its codomain, forty
    # of them would need about 60 MB more than one does.  Out of (), a search
    # would first keep the suffix products of (2)^(10^5), about 625 MB
    proc = python("-c", HOM_SETS_INTO_LONG_TUPLES, timeout=20,
                  preexec_fn=lambda: _cap_address_space(64))
    assert proc.returncode == 0, proc.stderr


# -- every subcommand at the edge of the element and size bounds ---------------

def _limit_child(megabytes=256, cpu_seconds=5):
    def limit():
        _cap_address_space(megabytes)
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_seconds, cpu_seconds))
    return limit


def _free_a(domain, codomain, values):
    return json.dumps({"monoid": "free:a", "domain": domain, "codomain": codomain, "map": values})


def _one_into(monoid, element):
    return json.dumps({"monoid": monoid, "domain": ["1"] if monoid.startswith("free") else [1],
                       "codomain": [element], "map": [1]})


BIG = "a^9999"  # the free degree of the repros; FREE_DECODE_BOUND admits 10^4 copies
AT_BOUND = "a^10000"
IDENTITY_200 = _free_a([BIG] * 200, [BIG] * 200, list(range(1, 201)))
ZX_AT_BOUND = 2**31  # PRIMALITY_BOUND, the largest |a| trial division accepts
INTERVAL_AT_BOUND = "1e-10000"  # INTERVAL_EXPONENT_BOUND
# its 10,001-digit denominator prints unless str() has a smaller digit limit (3.10.7 on)
STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
UNPRINTABLE = 3 if 0 < STR_DIGITS <= 10_000 else 0

# (argv, exit code); each case runs under _limit_child's 256 MB and 5 s of CPU
GUARD_EDGE_CASES = {
    # a verify costs its universe, whatever the degree: these 15 objects take
    # as long with a^2, so this case alone gets more CPU time
    "free-verify-repro": (("verify", "--monoid", "free:a", "--pool", '["a^999","a"]',
                           "--max-len", "3"), 0),
    # free monoids: 10^4 copies, 10^5 divisor classes, degree 256
    "free-hom-repro": (("hom", "--monoid", "free:a", json.dumps([BIG] * 2), json.dumps([BIG] * 8)), 0),
    "free-hom-at-bound": (("hom", "--monoid", "free:a", json.dumps([AT_BOUND]),
                           json.dumps([AT_BOUND] * 3)), 0),
    "free-hom-past-bound": (("hom", "--monoid", "free:a", '["a^10001"]', '["a"]'), 3),
    "free-verify-iso-repro": (("verify", "--monoid", "free:a", "--pool", json.dumps([BIG, "a"]),
                               "--max-len", "3", "--suite", "iso"), 0),
    "free-divisors-repro": (("divisors", _one_into("free:a", BIG)), 0),
    "free-divisors-at-class-guard": (("divisors", _one_into("free:ab", "a^249*b^399")), 0),  # 250 * 400
    "free-divisors-past-class-guard": (("divisors", _one_into("free:ab", "a^250*b^399")), 3),
    "free-chain-repro": (("chain", _one_into("free:a", BIG)), 0),
    "free-check-iso-repro": (("check", "--iso", IDENTITY_200), 0),
    "free-check-weq-at-bound": (("check", "--weq", _free_a([AT_BOUND], [AT_BOUND], [1])), 0),
    "free-check-wirr-at-bound": (("check", "--wirr", _one_into("free:a", AT_BOUND)), 1),
    "free-check-wprime-at-bound": (("check", "--wprime", _one_into("free:a", AT_BOUND)), 1),
    "free-check-epic-at-bound": (("check", "--epic", _free_a([AT_BOUND], [BIG, "a"], [1, 1])), 1),
    "free-classify-monic-at-bound": (("classify", "--monic",
                                      _free_a([AT_BOUND], [BIG, "a"], [1, 1])), 0),
    "free-decompose-at-bound": (("decompose", _free_a(["1", "a"], [AT_BOUND, "a"], [1, 2])), 0),
    "free-tensor-at-bound": (("tensor", _one_into("free:a", AT_BOUND), _one_into("free:a", BIG)), 0),
    "free-weakdiv-at-bound": (("weakdiv", _one_into("free:a", BIG), _one_into("free:a", AT_BOUND)), 0),
    "free-weakdiv-false-at-bound": (("weakdiv", _one_into("free:a", AT_BOUND),
                                     _one_into("free:a", BIG)), 1),
    "free-compose-at-bound": (("compose", _free_a([AT_BOUND], [AT_BOUND], [1]),
                               _one_into("free:a", AT_BOUND)), 0),
    "free-factorizations-at-degree-bound": (("factorizations", "--monoid", "free:ab", '"a^255*b"'), 0),
    "free-factorizations-past-degree-bound": (("factorizations", "--monoid", "free:ab", '"a^256*b"'), 3),
    "free-factorizations-at-bound": (("factorizations", "--monoid", "free:a", json.dumps(AT_BOUND)), 3),
    "free-graph-at-bound": (("graph", "--monoid", "free:a", "--pool", json.dumps([AT_BOUND, "a"]),
                             "--max-len", "3"), 0),
    # the unit interval: decimal exponent 10^4
    "interval-hom-at-bound": (("hom", "--monoid", "interval", json.dumps([INTERVAL_AT_BOUND] * 2),
                               json.dumps([INTERVAL_AT_BOUND] * 16)), 0),
    "interval-hom-json-at-bound": (("hom", "--monoid", "interval", json.dumps([INTERVAL_AT_BOUND]),
                                    json.dumps([INTERVAL_AT_BOUND]), "--json"), UNPRINTABLE),
    "interval-hom-past-bound": (("hom", "--monoid", "interval", '["1e-10001"]', '["1/2"]'), 3),
    "interval-verify-at-bound": (("verify", "--monoid", "interval", "--pool",
                                  json.dumps([INTERVAL_AT_BOUND, "1/2"]), "--max-len", "2"), 0),
    "interval-graph-at-bound": (("graph", "--monoid", "interval", "--pool",
                                 json.dumps([INTERVAL_AT_BOUND, "1/2"]), "--max-len", "2"), UNPRINTABLE),
    # the integers: |a| = 2^31, 10^6 for the divisor recursion, 10^7 hom candidates
    "zx-check-wirr-at-bound": (("check", "--wirr", _one_into("zx", ZX_AT_BOUND - 1)), 0),
    "zx-check-wprime-at-bound": (("check", "--wprime", _one_into("zx", ZX_AT_BOUND)), 1),
    "zx-check-wirr-past-bound": (("check", "--wirr", _one_into("zx", ZX_AT_BOUND + 1)), 3),
    "zx-divisors-at-bound": (("divisors", _one_into("zx", ZX_AT_BOUND)), 0),
    "zx-divisors-past-bound": (("divisors", _one_into("zx", ZX_AT_BOUND + 1)), 3),
    "zx-chain-at-bound": (("chain", _one_into("zx", ZX_AT_BOUND)), 0),
    "zx-chain-past-bound": (("chain", _one_into("zx", ZX_AT_BOUND + 1)), 3),
    "zx-factorizations-at-bound": (("factorizations", "--monoid", "zx", str(10**6)), 0),
    "zx-factorizations-past-bound": (("factorizations", "--monoid", "zx", str(10**6 + 1)), 3),
    "zx-hom-at-candidate-guard": (("hom", "--monoid", "zx", json.dumps([2] * 10),
                                   json.dumps([3] * 7)), 0),  # 10^7, each branch cut at once
    "zx-hom-past-candidate-guard": (("hom", "--monoid", "zx", json.dumps([2] * 10),
                                     json.dumps([3] * 8)), 3),
    # 0^60000 candidates; a search would first keep its suffix products, about 700 MB
    "zx-hom-out-of-the-empty-tuple": (("hom", "--monoid", "zx", "[]",
                                       "[" + ",".join(["9"] * 60_000) + "]"), 0),
    "zx-graph-past-candidate-guard": (("graph", "--monoid", "zx", "--pool", "[1,2,3]",
                                       "--max-len", "4"), 3),  # 2,045,947 candidate maps
    # two 4,001-digit entries parse; their product, the witness, has 8,001 digits to print
    "zx-check-weq-past-digit-limit": (("check", "--weq", json.dumps(
        {"monoid": "zx", "domain": [1], "codomain": [10**4000] * 2, "map": [1, 1]})),
        3 if 0 < STR_DIGITS <= 8000 else 1),
    # 7 does not divide that product: the refusal names the index, whatever the product's digits
    "zx-check-weq-invalid-past-digit-limit": (("check", "--weq", json.dumps(
        {"monoid": "zx", "domain": [7], "codomain": [10**4000] * 2, "map": [1, 1]})), 2),
}


CPU_SECONDS = {"free-verify-repro": 30}
TIMEOUT = 60  # wall seconds per case, from its start


class _Sweep:
    """Runs the selected guard-edge cases JOBS at a time, in collection order,
    each in its own limited child writing to temporary files; ``result``
    waits for one case and returns its CompletedProcess."""

    JOBS = 2

    def __init__(self, cases):
        self.pending = list(cases)
        self.running = {}  # case -> (Popen, stdout file, stderr file, deadline)
        self.done = {}  # case -> CompletedProcess, or the TimeoutExpired to raise

    def result(self, case):
        if case in self.pending:  # asked for out of order: start it next
            self.pending.remove(case)
            self.pending.insert(0, case)
        while case not in self.done:
            while self.pending and len(self.running) < self.JOBS:
                self._start(self.pending.pop(0))
            time.sleep(0.01)
            self._reap()
        outcome = self.done.pop(case)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def _start(self, case):
        argv = [sys.executable, "-m", "factorcat", *GUARD_EDGE_CASES[case][0]]
        out, err = tempfile.TemporaryFile(), tempfile.TemporaryFile()
        proc = subprocess.Popen(argv, env=_env(), stdout=out, stderr=err,
                                preexec_fn=_limit_child(cpu_seconds=CPU_SECONDS.get(case, 5)))
        self.running[case] = proc, out, err, time.monotonic() + TIMEOUT

    def _reap(self):
        for case, (proc, out, err, deadline) in list(self.running.items()):
            if proc.poll() is not None:
                out.seek(0)
                err.seek(0)
                self.done[case] = subprocess.CompletedProcess(
                    proc.args, proc.returncode, out.read().decode(errors="replace"),
                    err.read().decode(errors="replace"))
            elif time.monotonic() > deadline:
                proc.kill()
                proc.wait()
                self.done[case] = subprocess.TimeoutExpired(proc.args, TIMEOUT)
            else:
                continue
            out.close()
            err.close()
            del self.running[case]

    def close(self):
        for proc, out, err, _ in self.running.values():
            proc.kill()
            proc.wait()
            out.close()
            err.close()
        self.running.clear()


@pytest.fixture(scope="session")
def guard_edge_sweep(request):
    """The guard-edge cases of the test items that use this fixture, run two at a time."""
    cases = [item.callspec.params["case"] for item in request.session.items
             if "guard_edge_sweep" in getattr(item, "fixturenames", ())]
    sweep = _Sweep(cases)
    yield sweep
    sweep.close()


@pytest.mark.parametrize("case", GUARD_EDGE_CASES)
def test_every_subcommand_at_the_edge_of_a_bound_answers_or_refuses(case, guard_edge_sweep):
    proc = guard_edge_sweep.result(case)
    assert proc.returncode == GUARD_EDGE_CASES[case][1], proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
