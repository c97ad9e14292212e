"""Verification suites: bounded-universe law checks, determinism, and the
self-test that a corrupted operation is caught with a usable counterexample."""

import errno
import gc
import hashlib
import json
import os
import random
import signal
import threading
import time
import weakref
import zlib
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest

import factorcat.category as category
import factorcat.oracle as oracle
from factorcat import (
    CapabilityError,
    FactorTuple,
    GuardError,
    INTERVAL,
    IndexFunction,
    InvalidMorphismError,
    Morphism,
    NAT,
    SUITES,
    UniverseSpec,
    ZX,
    all_passed,
    atomic_chain,
    braiding,
    compose,
    decode_morphism,
    decompose_eip,
    empty_tuple,
    encode_morphism,
    free_monoid,
    hom_index_tuples,
    hom_set,
    identity_morphism,
    inverse,
    is_weak_equivalence,
    is_weakly_irreducible,
    is_weakly_irreducible_tuple,
    ore_square,
    recheck,
    right_cancel_witness,
    run_suite,
    tensor_morphisms,
    tensor_objects,
    ufd_wedge,
    underlying_function,
    universe_morphisms,
    universe_objects,
    weak_div_diagram,
    weakly_divides,
)
from factorcat.oracle import UNIVERSE_RUN_GUARD, universe_homs

from conftest import clear_library_caches
from sampling import sample_extension, sample_morphism

SMALL = UniverseSpec(pool=(-1, 1, 2, 6), max_len=2, exhaustive_limit=40_000, sample_size=4_000)
DEGENERATE = UniverseSpec(pool=(1,), max_len=2)
LENGTH_4 = UniverseSpec(pool=(2,), max_len=4)  # the only universe here with tuples past length 3
INTERVAL_UNIVERSE = UniverseSpec(
    monoid=INTERVAL, pool=(Fraction(1), Fraction(1, 2)), max_len=2
)

# Per-suite case counts on the universes below; a change to how the suites
# enumerate or sample cases shows up here.  The free and naturals universes
# are isomorphic (a and b play 2 and 3), so their counts agree.
SAME_SHAPE_COUNTS = {
    "homset_formulas": 210, "epic_monic": 678, "iso": 678, "two_of_three": 6058,
    "monoidal_laws": 24205, "weakdiv": 4878, "adjunction": 88,
}
CASE_COUNTS = {
    "small": {
        "homset_formulas": 210, "epic_monic": 1118, "iso": 1118, "two_of_three": 14876,
        "monoidal_laws": 28425, "weakdiv": 7318, "adjunction": 88,
    },
    "degenerate": {
        "homset_formulas": 12, "epic_monic": 22, "iso": 22, "two_of_three": 2058,
        "monoidal_laws": 263, "weakdiv": 2264, "adjunction": 4,
    },
    "length_4": {
        "homset_formulas": 20, "epic_monic": 186, "iso": 186, "two_of_three": 4510,
        "monoidal_laws": 11489, "weakdiv": 11035, "adjunction": 6,
    },
    "interval": {"homset_formulas": 49, "monoidal_laws": 4898, "adjunction": 16},
    "free_ab": SAME_SHAPE_COUNTS,
    "nat": SAME_SHAPE_COUNTS,
}


def run_passing(u, counts):
    """Run every compatible suite, assert each passes, and pin its cases."""
    reports = run_suite(u)
    for r in reports:
        assert r.passed, (r.suite, r.failures[:2])
    assert {r.suite: r.cases for r in reports} == counts
    return reports


def check(report, law, *args):
    """Run one case of the named law on the report."""
    report.run([((law,), [args])])


def test_universe_enumeration_is_deterministic():
    objs = universe_objects(SMALL)
    assert objs[0].entries == ()
    assert len(objs) == 1 + 4 + 16
    assert universe_objects(SMALL) == objs


def test_all_suites_pass_on_small_universe():
    reports = run_passing(SMALL, CASE_COUNTS["small"])
    assert [r.suite for r in reports] == list(SUITES)


def test_all_suites_pass_on_degenerate_universe():
    # one pool element each: a unit up to length 2, and a non-unit up to length 4
    run_passing(DEGENERATE, CASE_COUNTS["degenerate"])
    run_passing(LENGTH_4, CASE_COUNTS["length_4"])


def test_all_suites_pass_on_free_monoid_universe():
    from factorcat import free_monoid

    free = free_monoid("ab")
    u = UniverseSpec(
        monoid=free,
        pool=((), ("a",), ("b",), ("a", "b")),
        max_len=2,
        exhaustive_limit=20_000,
        sample_size=2_000,
    )
    run_passing(u, CASE_COUNTS["free_ab"])


def test_all_suites_pass_on_naturals_universe():
    from factorcat import NAT

    u = UniverseSpec(
        monoid=NAT,
        pool=(1, 2, 3, 6),
        max_len=2,
        exhaustive_limit=20_000,
        sample_size=2_000,
    )
    run_passing(u, CASE_COUNTS["nat"])


def test_interval_universe_runs_compatible_suites():
    reports = run_passing(INTERVAL_UNIVERSE, CASE_COUNTS["interval"])
    names = [r.suite for r in reports]
    assert "homset_formulas" in names and "adjunction" in names
    assert "epic_monic" not in names and "iso" not in names
    assert all_passed(reports)


# SHA-256 of every failure payload, in order, when each law is forced to
# fail on a fixed fifth of its cases (see the test below)
FORCED_FAILURES_DIGEST = "b367be25154ca9547581c76b083fcc7b25be684adb287c8c2d4be85b0a65375c"


def test_forced_failures_keep_their_cases_and_order(monkeypatch):
    # a case fails when the CRC of its law name and wire payload is 0 mod 5,
    # so the failure payloads pin which cases each suite runs and in what
    # order, whatever the in-memory form of the elements
    ran = set()
    universe = {}
    for name, law in oracle.LAWS.items():
        def predicate(*args, name=name, law=law):
            ran.add(name)
            wire = json.dumps(law.encode(universe["monoid"], args))
            return law.predicate(*args) and zlib.crc32((name + wire).encode()) % 5 != 0

        monkeypatch.setitem(oracle.LAWS, name, replace(law, predicate=predicate))
    monkeypatch.setattr(oracle.SuiteReport, "MAX_STORED", 10**6)
    monkeypatch.setattr(oracle, "_can_fork", lambda: False)  # ran counts the laws run in this process
    free_ab = replace(FREE_AB_UNIVERSE, exhaustive_limit=20_000, sample_size=2_000)
    runs = []
    for key, u in (("small", SMALL), ("degenerate", DEGENERATE),
                   ("interval", INTERVAL_UNIVERSE), ("free_ab", free_ab)):
        universe["monoid"] = u.monoid
        reports = run_suite(u)
        assert {r.suite: r.cases for r in reports} == CASE_COUNTS[key]
        runs += [[r.suite, r.cases, r.failures] for r in reports]
    assert ran == set(oracle.LAWS)  # no registered law goes unchecked
    assert hashlib.sha256(json.dumps(runs).encode()).hexdigest() == FORCED_FAILURES_DIGEST


def test_singleton_target_counts_are_exact_beyond_divisibility(monkeypatch):
    # an enumerator that drops the last map of every hom set from two or more
    # entries into a 1-tuple must fail the count on interval too
    enumerate_homs = oracle.hom_index_tuples

    def dropping(domain, codomain):
        maps = enumerate_homs(domain, codomain)
        return maps[:-1] if len(codomain) == 1 and len(domain) >= 2 else maps

    monkeypatch.setattr(oracle, "hom_index_tuples", dropping)
    [report] = run_suite(INTERVAL_UNIVERSE, ["homset_formulas"])
    assert report.failures
    assert {f["law"] for f in report.failures} == {"hom_count_singleton_target"}


def test_divisibility_suite_on_interval_raises():
    with pytest.raises(CapabilityError):
        run_suite(INTERVAL_UNIVERSE, ["epic_monic"])


def test_unknown_suite_name():
    with pytest.raises(ValueError):
        run_suite(SMALL, ["bogus"])


@pytest.mark.parametrize("spec, names, message", [
    (ZX, None, "suites run on a UniverseSpec, not NonzeroIntegers"),
    ({"pool": [1]}, ["iso"], "suites run on a UniverseSpec, not dict"),
    (SMALL, 5, "suite names are an iterable of str, not int"),
    (SMALL, "iso", "suite names are an iterable of str, not str"),
    (SMALL, [["x"]], "unknown suite ['x']"),
    (SMALL, ["iso", 3], "unknown suite 3"),
], ids=["monoid", "dict", "int", "str", "list", "int_name"])
def test_run_suite_refuses_malformed_input_before_any_work(monkeypatch, spec, names, message):
    monkeypatch.setattr(oracle, "_run", lambda *args: pytest.fail("a suite ran"))
    with pytest.raises(ValueError) as info:
        run_suite(spec, names)
    assert str(info.value) == message


def test_empty_name_list_is_a_pass():
    reports = run_suite(SMALL, [])
    assert reports == [] and all_passed(reports)


def test_reports_are_deterministic():
    a = run_suite(SMALL, ["two_of_three", "weakdiv"])
    b = run_suite(SMALL, ["two_of_three", "weakdiv"])
    assert [(r.suite, r.cases, r.failures) for r in a] == [
        (r.suite, r.cases, r.failures) for r in b
    ]


def test_seed_changes_sampled_streams():
    # sampled suites see different cases under a different seed, same verdict
    other = UniverseSpec(
        pool=SMALL.pool,
        max_len=SMALL.max_len,
        seed=99,
        exhaustive_limit=SMALL.exhaustive_limit,
        sample_size=SMALL.sample_size,
    )
    for u in (SMALL, other):
        assert run_suite(u, ["weakdiv"])[0].passed


def test_corrupted_compose_is_caught_with_counterexample():
    true_compose = oracle.compose

    def corrupt(g, f):
        # pretend any round trip cancels to the identity
        if f.domain == g.codomain and f.codomain == g.domain:
            return identity_morphism(f.domain)
        return true_compose(g, f)

    u = UniverseSpec(pool=(1, 2), max_len=2)
    oracle.compose = corrupt
    try:
        report = run_suite(u, ["iso"])[0]
        assert not report.passed
        failure = report.failures[0]
        assert failure["law"] == "iso_agreement"
        # the serialized counterexample re-runs and reproduces the failure
        assert recheck(failure)
    finally:
        oracle.compose = true_compose
    assert not recheck(failure)
    assert run_suite(u, ["iso"])[0].passed


def test_corrupted_epic_predicate_is_caught():
    true_is_epic = oracle.is_epic
    oracle.is_epic = lambda m: not true_is_epic(m)
    try:
        u = UniverseSpec(pool=(1, 2), max_len=2)
        report = run_suite(u, ["epic_monic"])[0]
        assert not report.passed
        assert report.failures[0]["law"] == "epic_agreement"
        assert recheck(report.failures[0])
    finally:
        oracle.is_epic = true_is_epic
    assert not recheck(report.failures[0])


def test_a_monic_fault_past_length_3_is_caught_past_length_3(monkeypatch):
    # the mutant miscounts only a domain longer than 3, so the default
    # universe (length 3) passes it; LENGTH_4 has such domains
    monkeypatch.setattr(oracle, "is_monic", lambda m: len(set(m.values)) == len(m.domain) - (len(m.domain) > 3))
    assert run_suite(SMALL, ["epic_monic"])[0].passed
    report = run_suite(LENGTH_4, ["epic_monic"])[0]
    assert report.failed_by_law == {"monic_agreement": 24}
    assert all(recheck(f) for f in report.failures)
    monkeypatch.undo()
    assert not any(recheck(f) for f in report.failures)


def _braiding_off_by_one(s, t):
    # the mutant range(0, n + 1) for range(1, n + 1): one value too many, and a 0
    xs, ys = s.entries, t.entries
    n, m = len(xs), len(ys)
    return category._trusted_morphism(
        category._trusted_tuple(s.monoid, xs + ys),
        category._trusted_tuple(s.monoid, ys + xs),
        tuple(range(n + 1, n + m + 1)) + tuple(range(0, n + 1)),
    )


def test_a_predicate_that_raises_is_a_counterexample(monkeypatch, capsys):
    from factorcat.cli import main

    monkeypatch.setattr(oracle, "braiding", _braiding_off_by_one)
    argv = ["verify", "--suite", "monoidal_laws", "--pool", "[1,2]", "--max-len", "2"]
    assert main(argv) == 1
    assert "counterexample: " in capsys.readouterr().out
    assert main(argv + ["--json"]) == 1
    failures = json.loads(capsys.readouterr().out)[0]["failures"]
    assert failures and all(recheck(f) for f in failures)
    # past the first 50 failures, braiding_naturality indexes with the 0 and raises
    monkeypatch.setattr(oracle.SuiteReport, "MAX_STORED", 10**6)
    report = run_suite(UniverseSpec(pool=(1, 2), max_len=2), ["monoidal_laws"])[0]
    raised = [f for f in report.failures if "raised" in f]
    assert raised and {(f["law"], f["raised"]) for f in raised} == {("braiding_naturality", "IndexError")}
    assert all(recheck(f) for f in raised)
    monkeypatch.undo()
    assert not any(recheck(f) for f in raised)
    assert run_suite(UniverseSpec(pool=(1, 2), max_len=2), ["monoidal_laws"])[0].passed


def test_a_guard_inside_a_predicate_is_still_a_refusal(monkeypatch):
    def refuse(m):
        raise GuardError("refused")

    t = FactorTuple(ZX, (2,))
    failure = {"law": "iso_agreement", "monoid": "zx", "morphism": encode_morphism(identity_morphism(t))}
    monkeypatch.setattr(oracle, "is_isomorphism", refuse)
    with pytest.raises(GuardError):
        check(oracle.SuiteReport("iso", "zx"), "iso_agreement", identity_morphism(t))
    with pytest.raises(GuardError):
        recheck(failure)


PROBE_UNIVERSE = UniverseSpec(pool=(1, 2, 6), max_len=2)


def _clear_probe_caches():
    oracle._epic_probe.cache_clear()
    oracle._monic_probe.cache_clear()


def test_probe_memo_never_hides_a_broken_fast_path(monkeypatch):
    # each fast path is wrong only on a part of the morphism its probe's key
    # leaves out, so morphisms sharing a key get different verdicts
    true_epic, true_monic = oracle.is_epic, oracle.is_monic
    monkeypatch.setattr(oracle, "is_epic", lambda m: true_epic(m) != (6 in m.domain))
    monkeypatch.setattr(oracle, "is_monic", lambda m: true_monic(m) != (6 in m.codomain))
    monkeypatch.setattr(oracle.SuiteReport, "MAX_STORED", 10**6)
    u = PROBE_UNIVERSE
    _clear_probe_caches()
    try:
        report = run_suite(u, ["epic_monic"])[0]
        expected, verdicts = [], {}
        for m in universe_morphisms(u):
            for law, probe, key, fast in (
                ("epic_agreement", oracle._epic_probe, m.codomain, oracle.is_epic),
                ("monic_agreement", oracle._monic_probe, m.domain, oracle.is_monic),
            ):
                ok = probe.__wrapped__(key, m.values) == fast(m)
                verdicts.setdefault((law, key, m.values), set()).add(ok)
                if not ok:
                    expected.append({"law": law, "monoid": "zx", "morphism": encode_morphism(m)})
    finally:
        _clear_probe_caches()
    assert report.failures == expected
    assert {f["law"] for f in expected} == {"epic_agreement", "monic_agreement"}
    for law in ("epic_agreement", "monic_agreement"):  # a key with both verdicts
        assert any(k[0] == law and v == {True, False} for k, v in verdicts.items())


def test_probe_caches_hold_each_distinct_input_once():
    u = PROBE_UNIVERSE
    morphisms = universe_morphisms(u)
    distinct = {
        oracle._epic_probe: {(m.codomain, m.values) for m in morphisms},
        oracle._monic_probe: {(m.domain, m.values) for m in morphisms},
    }
    _clear_probe_caches()
    assert run_suite(u, ["epic_monic"])[0].passed
    for probe, keys in distinct.items():
        info = probe.cache_info()
        assert info.maxsize == oracle.PROBE_CACHE_SIZE
        assert info.currsize == len(keys) < len(morphisms)
        assert info.misses == info.currsize  # no eviction
    clear_library_caches()  # reaches both probes
    assert [probe.cache_info().currsize for probe in distinct] == [0, 0]


# law -> payload keys besides "law" and "monoid"
PAYLOAD_KEYS = {
    "hom_count_from_empty": {"tuple"},
    "hom_count_into_empty": {"tuple"},
    "hom_count_interval_into_empty": {"tuple"},
    "hom_count_singleton_source": {"element", "tuple"},
    "hom_count_singleton_target": {"element", "tuple"},
    "epic_agreement": {"morphism"},
    "monic_agreement": {"morphism"},
    "iso_agreement": {"morphism"},
    "inverse_roundtrip": {"morphism"},
    "two_of_three": {"f", "g"},
    "iso_in_w": {"morphism"},
    "chain_membership": {"steps"},
    "tensor_unit_object": {"tuple"},
    "tensor_length": {"x", "y"},
    "braiding_involution": {"x", "y"},
    "braiding_iso": {"x", "y"},
    "tensor_assoc_objects": {"x", "y", "z"},
    "hexagon": {"x", "y", "z"},
    "tensor_unit_morphism": {"morphism"},
    "braiding_naturality": {"f", "g"},
    "bifunctoriality": {"f", "h", "g", "k"},
    "weakdiv_agreement": {"f", "g"},
    "weakdiv_diagram": {"f", "g"},
    "weakdiv_reflexive": {"f"},
    "weakdiv_weq_minimal": {"f"},
    "weakdiv_transitive": {"f", "g", "h"},
    "adjunction_count": {"element", "tuple"},
    "adjunction_roundtrip": {"element"},
}


def _passing_payload(law):
    """A payload on which the law holds; g, h and k compose after f."""
    from factorcat import FactorTuple, encode_morphism, encode_tuple

    m = Morphism(FactorTuple(ZX, (2,)), FactorTuple(ZX, (6,)), [1])
    six = identity_morphism(FactorTuple(ZX, (6,)))
    values = {
        "tuple": encode_tuple(FactorTuple(ZX, (2, 3))),
        "element": 2,
        "morphism": encode_morphism(m),
        "steps": [encode_morphism(m), encode_morphism(six)],
        "f": encode_morphism(m),
        **{key: encode_morphism(six) for key in "ghk"},
        "x": [2, 3],
        "y": [6],
        "z": [],
    }
    payload = {"law": law, "monoid": "zx"}
    payload.update((key, values[key]) for key in sorted(PAYLOAD_KEYS[law]))
    if law == "hom_count_interval_into_empty":
        payload.update(monoid="interval", tuple=["1/2", "1/1"])
    return payload


def test_recheck_covers_passing_payloads():
    assert len(PAYLOAD_KEYS) == 28
    assert set(oracle.LAWS) == set(PAYLOAD_KEYS)
    for law, keys in PAYLOAD_KEYS.items():
        payload = _passing_payload(law)
        assert not recheck(payload), law
        for key in keys:  # every pinned key is needed to re-run the law
            partial = {k: v for k, v in payload.items() if k != key}
            with pytest.raises(ValueError, match=f"lacks the key '{key}'"):
                recheck(partial)


def _identity_on(monoid, *entries) -> dict:
    return encode_morphism(identity_morphism(FactorTuple(monoid, entries)))


_TWO, _THREE = _identity_on(ZX, 2), _identity_on(ZX, 3)  # (2) -> (2) and (3) -> (3) do not compose


@pytest.mark.parametrize(
    "payload, message",
    [({}, "payload lacks the key 'law'"),
     ({"law": "iso_agreement", "monoid": "zx"}, "iso_agreement payload lacks the key 'morphism'"),
     ({"law": "no_such_law", "monoid": "zx"}, "unknown law 'no_such_law'"),
     ({"law": ["iso_agreement"], "monoid": "zx"}, r"unknown law \['iso_agreement'\]"),
     ("law", "a payload is a mapping, not str"), ([], "a payload is a mapping, not list"),
     # cases no suite yields: a morphism over another monoid, a chain that is
     # not a non-empty list, morphisms that do not compose where the law composes them
     ({"law": "weakdiv_agreement", "monoid": "zx", "f": _TWO, "g": _identity_on(NAT, 2)},
      "morphism is over 'nat' but 'zx' was requested"),
     ({"law": "iso_agreement", "monoid": "nat", "morphism": _TWO},
      "morphism is over 'zx' but 'nat' was requested"),
     ({"law": "two_of_three", "monoid": "zx", "f": _TWO, "g": _THREE},
      "two_of_three payload: f then g do not compose"),
     ({"law": "bifunctoriality", "monoid": "zx", "f": _TWO, "h": _THREE, "g": _TWO, "k": _TWO},
      "bifunctoriality payload: f then h do not compose"),
     ({"law": "bifunctoriality", "monoid": "zx", "f": _TWO, "h": _TWO, "g": _TWO, "k": _THREE},
      "bifunctoriality payload: g then k do not compose"),
     ({"law": "chain_membership", "monoid": "zx", "steps": []},
      r"expected a non-empty JSON array of morphisms, got \[\]"),
     ({"law": "chain_membership", "monoid": "zx", "steps": 5},
      "expected a non-empty JSON array of morphisms, got 5"),
     ({"law": "chain_membership", "monoid": "zx", "steps": _TWO},
      "expected a non-empty JSON array of morphisms"),
     ({"law": "chain_membership", "monoid": "zx", "steps": [_TWO, _TWO, _THREE]},
      "chain_membership payload: steps do not compose")],
)
def test_recheck_refuses_a_malformed_payload(payload, message):
    with pytest.raises(ValueError, match=message):
        recheck(payload)


def test_failure_payloads_come_from_the_registry(monkeypatch):
    # force each law to fail on its decoded passing case: the reported
    # payload carries exactly the pinned keys and round-trips through recheck
    from dataclasses import replace

    from factorcat import monoid_by_name

    for name, keys in PAYLOAD_KEYS.items():
        law = oracle.LAWS[name]
        payload = _passing_payload(name)
        args = law.decode(monoid_by_name(payload["monoid"]), payload)
        monkeypatch.setitem(oracle.LAWS, name, replace(law, predicate=lambda *a: False))
        report = oracle.SuiteReport("forced", payload["monoid"])
        check(report, name, *args)
        monkeypatch.setitem(oracle.LAWS, name, law)
        assert report.failures == [payload]
        assert set(payload) - {"law", "monoid"} == keys


def test_bad_square_is_a_weakdiv_diagram_counterexample(monkeypatch):
    from factorcat import InvalidMorphismError

    def bad_square(f, g):
        raise InvalidMorphismError("square does not close")

    monkeypatch.setattr(oracle, "weak_div_diagram", bad_square)
    report = run_suite(UniverseSpec(pool=(1, 2), max_len=1), ["weakdiv"])[0]
    assert {f["law"] for f in report.failures} == {"weakdiv_diagram"}


def _mu_over_the_codomain(f, g):
    # the mutant a * prod(cod g) for a * prod(dom g) as mu's element: a leg
    # built without checks that breaks its order constraint
    d = weak_div_diagram(f, g)
    return replace(d, mu=category._from_element(f.monoid.op(d.a, g.codomain.product()), d.mu.codomain))


def test_an_invalid_leg_is_a_weakdiv_diagram_counterexample(monkeypatch, capsys):
    from factorcat.cli import main

    monkeypatch.setattr(oracle, "weak_div_diagram", _mu_over_the_codomain)
    assert main(["verify", "--suite", "weakdiv", "--pool", "[1,2]", "--max-len", "2", "--json"]) == 1
    failures = json.loads(capsys.readouterr().out)[0]["failures"]
    assert failures and {f["law"] for f in failures} == {"weakdiv_diagram"}
    assert all(recheck(f) for f in failures)
    monkeypatch.undo()
    assert not any(recheck(f) for f in failures)


def test_programming_error_in_weak_div_diagram_propagates(monkeypatch):
    def broken(f, g):
        raise TypeError("broken")

    monkeypatch.setattr(oracle, "weak_div_diagram", broken)
    with pytest.raises(TypeError):
        run_suite(UniverseSpec(pool=(1, 2), max_len=1), ["weakdiv"])


def test_suite_case_counts_scale_with_universe():
    small = run_suite(DEGENERATE, ["epic_monic"])[0]
    bigger = run_suite(SMALL, ["epic_monic"])[0]
    assert bigger.cases > small.cases


def test_single_noninvertible_pool():
    # pool {2}: no tuple with entries maps to the empty tuple
    u = UniverseSpec(pool=(2,), max_len=2)
    assert run_suite(u, ["homset_formulas"])[0].passed
    from factorcat import FactorTuple, empty_tuple, hom_set

    assert len(hom_set(FactorTuple(ZX, (2, 2)), empty_tuple(ZX))) == 0


def test_two_prime_pool():
    u = UniverseSpec(pool=(2, 3), max_len=2)
    for r in run_suite(u, ["homset_formulas", "epic_monic", "iso"]):
        assert r.passed


def test_membership_depends_only_on_the_witness():
    # group universe morphisms by total witness: membership in W is constant
    # on each group and equals invertibility of the witness
    from factorcat import is_weak_equivalence, total_witness

    groups = {}
    for m in universe_morphisms(SMALL):
        groups.setdefault(total_witness(m), []).append(m)
    for r, members in groups.items():
        verdicts = {is_weak_equivalence(m) for m in members}
        assert verdicts == {ZX.is_invertible(r)}


def test_cancellation_quantified_over_extended_universe():
    # small-scale version of the epic/monic oracle with the cancellation
    # search quantified over every universe tuple plus its unit extension,
    # not just the canonical probe
    from factorcat import (
        FactorTuple,
        embed,
        hom_index_tuples,
        is_epic,
        is_monic,
        tensor_objects,
    )

    u = UniverseSpec(pool=(1, 2, 6), max_len=2)
    objs = list(universe_objects(u))
    one = embed(ZX, 1)
    targets = objs + [tensor_objects(t, one) for t in objs]
    for m in oracle.universe_morphisms(u):
        post_collision = False
        for t in targets:
            seen = set()
            for gv in hom_index_tuples(m.codomain, t):
                c = tuple(m.values[x - 1] for x in gv)
                if c in seen:
                    post_collision = True
                    break
                seen.add(c)
            if post_collision:
                break
        assert is_epic(m) == (not post_collision)

        pre_collision = False
        for s in targets:
            seen = set()
            for gv in hom_index_tuples(s, m.domain):
                c = tuple(gv[x - 1] for x in m.values)
                if c in seen:
                    pre_collision = True
                    break
                seen.add(c)
            if pre_collision:
                break
        assert is_monic(m) == (not pre_collision)


def test_morphism_sampler_produces_valid_variety():
    import random

    rng = random.Random(3)
    kinds = set()
    for _ in range(120):
        m = sample_morphism(rng)
        assert m.monoid == ZX  # construction validates the order constraint
        from factorcat import is_weak_equivalence, total_witness, zeta_mor

        assert abs(total_witness(m)) <= 10_000
        kinds.add(zeta_mor(m) == 0)
    assert kinds == {True, False}  # both weak equivalences and proper morphisms


def test_extension_sampler_composes():
    import random

    from factorcat import compose

    rng = random.Random(5)
    f = sample_morphism(rng)
    g = sample_extension(rng, f.codomain)
    compose(g, f)  # must be composable and valid


def test_universe_pool_validation():
    with pytest.raises(ValueError):
        UniverseSpec(pool=(0, 1))
    dedup = UniverseSpec(pool=(2, 2, 3))
    assert dedup.pool == (2, 3)


@pytest.mark.parametrize(
    "field, value",
    [("max_len", 2.5), ("max_len", "3"), ("max_len", True), ("exhaustive_limit", 1e6),
     ("exhaustive_limit", None), ("sample_size", 2.5), ("sample_size", False)],
)
def test_universe_numeric_fields_must_be_integers(field, value):
    with pytest.raises(ValueError, match=field):
        UniverseSpec(**{field: value})


@pytest.mark.parametrize(
    "field, value, message",
    [("monoid", "zx", "a universe's monoid must be a Monoid, got str"),
     ("monoid", None, "a universe's monoid must be a Monoid, got NoneType"),
     ("pool", 5, "universe pool is not iterable: int")],
)
def test_universe_monoid_and_pool_are_checked_as_caller_data(field, value, message):
    with pytest.raises(ValueError, match=message):
        UniverseSpec(**{field: value})


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("max_len", -1, "universe max_len must be non-negative, got -1"),
        ("exhaustive_limit", 0, "universe limits must be positive"),
        ("sample_size", 0, "universe limits must be positive"),
        ("exhaustive_limit", UNIVERSE_RUN_GUARD, None),
        ("sample_size", UNIVERSE_RUN_GUARD, None),
        ("exhaustive_limit", UNIVERSE_RUN_GUARD + 1,
         "universe exhaustive_limit is 1000001; the guard is 1000000"),
        ("sample_size", UNIVERSE_RUN_GUARD + 1, "universe sample_size is 1000001; the guard is 1000000"),
        # either knob of the spec whose weakdiv suite would walk 160,991^2 pairs, about a day
        ("exhaustive_limit", 10**12, "universe exhaustive_limit is 1000000000000; the guard is 1000000"),
        ("sample_size", 10**9, "universe sample_size is 1000000000; the guard is 1000000"),
    ],
)
def test_universe_bounds_must_be_in_range(field, value, message):
    start = time.perf_counter()
    if message is None:  # at the bound: accepted
        assert getattr(UniverseSpec(**{field: value}), field) == value
    else:
        with pytest.raises(GuardError if value > UNIVERSE_RUN_GUARD else ValueError, match=message):
            UniverseSpec(**{field: value})
    assert time.perf_counter() - start < 1


def test_universe_object_guard():
    with pytest.raises(GuardError):
        universe_objects(UniverseSpec(max_len=5))


def test_universe_morphisms_cover_worked_counts():
    morphs = universe_morphisms(SMALL)
    from factorcat import FactorTuple

    pair = [m for m in morphs if m.domain == FactorTuple(ZX, (1, 2)) and m.codomain == FactorTuple(ZX, (1, 2))]
    assert len(pair) == 2


# -- closure: the operations that skip re-checking build valid morphisms --------
#
# Identities, composition, inverses, hom enumeration, tensor, braiding, the
# decomposition and chain steps, the weak divisibility square, the Ore square,
# the right-cancellation witness and the UFD wedge build their outputs without
# the checks in __post_init__, because validity holds there by theorem.  These
# tests rebuild every such output through the public, checking constructors
# instead.

FREE_AB_UNIVERSE = UniverseSpec(
    monoid=free_monoid("ab"), pool=((), ("a",), ("b",), ("a", "b")), max_len=2
)
NAT_UNIVERSE = UniverseSpec(monoid=NAT, pool=(1, 2, 3, 6), max_len=2)
CLOSURE_UNIVERSES = {
    "small": SMALL,
    "degenerate": DEGENERATE,
    "interval": INTERVAL_UNIVERSE,
    "free_ab": FREE_AB_UNIVERSE,
    "nat": NAT_UNIVERSE,
}


@pytest.mark.parametrize(
    "u", [*CLOSURE_UNIVERSES.values(), UniverseSpec()], ids=[*CLOSURE_UNIVERSES, "default"]
)
def test_morphisms_share_one_map_object_per_distinct_map(u):
    clear_library_caches()
    morphs = universe_morphisms(replace(u))  # a fresh spec builds its tables cold
    assert len({id(m.values) for m in morphs}) == len({m.values for m in morphs})


def rebuilt(m):
    """m rebuilt through FactorTuple and Morphism, sharing no object
    with m."""
    return Morphism(
        FactorTuple(m.monoid, m.domain.entries),
        FactorTuple(m.monoid, m.codomain.entries),
        m.values,
    )


def assert_valid(m):
    """m equals its rebuild through FactorTuple and Morphism.

    Morphism equality leaves out the codomain's monoid, which agrees on
    valid morphisms; since m is the morphism under test, it is compared here
    as well, and so is the map read back through the underlying functor."""
    assert type(m) is Morphism and type(m.values) is tuple, str(m)
    assert type(m.domain) is FactorTuple and type(m.codomain) is FactorTuple, str(m)
    r = rebuilt(m)
    assert r == m, str(m)
    assert underlying_function(r) == underlying_function(m), str(m)
    assert r.codomain.monoid == m.codomain.monoid, str(m)


def assert_steps_valid(m):
    d = decompose_eip(m)
    for step in (d.epsilon, d.delta, d.phi, *atomic_chain(m).steps):
        assert_valid(step)


@pytest.mark.parametrize("u", CLOSURE_UNIVERSES.values(), ids=CLOSURE_UNIVERSES.keys())
def test_closed_operations_build_valid_morphisms(u):
    objs = universe_objects(u)
    for s in objs:
        assert_valid(identity_morphism(s))
        for t in objs:
            assert tensor_objects(s, t) == FactorTuple(u.monoid, s.entries + t.entries)
            assert_valid(braiding(s, t))
            for m in hom_set(s, t):
                assert_valid(m)
    morphs = universe_morphisms(u)
    by_domain = {}
    for m in morphs:
        assert_valid(m)
        by_domain.setdefault(m.domain, []).append(m)
    for f in morphs:
        for g in by_domain.get(f.codomain, ()):
            assert_valid(compose(g, f))
    rng = random.Random(0)
    for _ in range(2000):
        assert_valid(tensor_morphisms(rng.choice(morphs), rng.choice(morphs)))
    if u.monoid.is_divisibility:
        for m in morphs:
            g = inverse(m)
            if g is not None:
                assert_valid(g)
            if len(m.domain) and len(m.codomain):
                assert_steps_valid(m)


@pytest.mark.parametrize("u", CLOSURE_UNIVERSES.values(), ids=CLOSURE_UNIVERSES.keys())
def test_the_tensor_unit_returns_the_other_operand_itself(u):
    # for the universe's own id_(), both operands are units: the first is returned
    unit = identity_morphism(empty_tuple(u.monoid))
    for f in universe_morphisms(u):
        assert tensor_morphisms(f, unit) is f, str(f)
        assert tensor_morphisms(unit, f) is (f if f.domain.entries else unit), str(f)


DIVISIBILITY_UNIVERSES = {k: u for k, u in CLOSURE_UNIVERSES.items() if u.monoid.is_divisibility}


@pytest.mark.parametrize("u", DIVISIBILITY_UNIVERSES.values(), ids=DIVISIBILITY_UNIVERSES.keys())
def test_constructions_by_theorem_build_valid_morphisms(u):
    morphs = universe_morphisms(u)
    weqs = [m for m in morphs if is_weak_equivalence(m)]
    by_codomain, parallel = {}, {}
    for m in morphs:
        by_codomain.setdefault(m.codomain, []).append(m)
        parallel.setdefault((m.domain, m.codomain), []).append(m)
    rng = random.Random(0)
    for _ in range(1500):
        f, g = rng.choice(morphs), rng.choice(morphs)
        if weakly_divides(f, g):
            d = weak_div_diagram(f, g)
            for leg in (d.mu, d.alpha, d.beta, d.eta, d.left, d.right):
                assert_valid(leg)
            assert is_weak_equivalence(d.mu) and is_weak_equivalence(d.eta)
    for f in weqs:
        for g in by_codomain[f.codomain]:
            f_prime, g_prime = ore_square(f, g)
            assert_valid(f_prime)
            assert_valid(g_prime)
            assert is_weak_equivalence(f_prime)
            assert compose(f, g_prime) == compose(g, f_prime)
    for g in weqs:
        for f in by_codomain.get(g.domain, ()):
            for f2 in parallel[f.domain, f.codomain]:
                if compose(g, f) == compose(g, f2):
                    h = right_cancel_witness(f, f2, g)
                    assert_valid(h)
                    assert is_weak_equivalence(h) and compose(f, h) == compose(f2, h)
    for group in by_codomain.values():
        sources = [m for m in group if is_weakly_irreducible_tuple(m.domain)]
        for f in sources:
            for g in sources:
                out = ufd_wedge(f, g)
                if isinstance(out, Morphism):
                    assert_valid(out)
                    assert (out.domain, out.codomain) == (f.domain, g.domain)
                    assert is_weak_equivalence(out)
                    continue
                for leg in (out.from_left, out.from_right, out.to_target):
                    assert_valid(leg)
                assert (out.from_left.domain, out.from_right.domain) == (f.domain, g.domain)
                assert out.from_left.codomain == out.from_right.codomain == out.apex
                assert (out.to_target.domain, out.to_target.codomain) == (out.apex, f.codomain)
                assert is_weakly_irreducible(out.from_left) and is_weakly_irreducible(out.from_right)


@pytest.mark.parametrize("u", CLOSURE_UNIVERSES.values(), ids=CLOSURE_UNIVERSES.keys())
def test_underlying_function_is_a_functor(u):
    # contravariant on index sets: the map of g o f is the map of f after
    # the map of g, and identities go to identity maps
    for t in universe_objects(u):
        assert underlying_function(identity_morphism(t)) == IndexFunction.identity(len(t))
    morphs = universe_morphisms(u)
    by_domain = {}
    for m in morphs:
        by_domain.setdefault(m.domain, []).append(m)
    for f in morphs:
        fv = underlying_function(f).values
        for g in by_domain.get(f.codomain, ()):
            composite = underlying_function(compose(g, f)).values
            assert composite == tuple(fv[v - 1] for v in underlying_function(g).values)


# universes whose codomain-first build is checked against the enumerator too
BUILD_UNIVERSES = {
    **CLOSURE_UNIVERSES,
    "default": UniverseSpec(),
    "signed_units": UniverseSpec(pool=(1, -1), max_len=3),
    "units": UniverseSpec(pool=(1,), max_len=4),
    "empty_pool": UniverseSpec(pool=(), max_len=3),
}


@pytest.mark.parametrize("u", BUILD_UNIVERSES.values(), ids=BUILD_UNIVERSES.keys())
def test_product_prefilter_keeps_every_non_empty_hom_set(u):
    # the codomain-first build never calls the enumerator; the enumerator's
    # walk over every pair must give the same table in the same order
    objs = universe_objects(u)
    unfiltered = {(a, b): hom_index_tuples(a, b) for a in objs for b in objs}
    unfiltered = {pair: fns for pair, fns in unfiltered.items() if fns}
    assert list(universe_homs(u).items()) == list(unfiltered.items())
    assert universe_morphisms(u) == tuple(m for a, b in unfiltered for m in hom_set(a, b))


@pytest.mark.parametrize("u", BUILD_UNIVERSES.values(), ids=BUILD_UNIVERSES.keys())
def test_a_cold_build_does_not_call_the_enumerator(monkeypatch, u):
    def refuse(domain, codomain):
        raise AssertionError("the build called the enumerator")

    monkeypatch.setattr(oracle, "hom_index_tuples", refuse)
    monkeypatch.setattr(category, "hom_index_tuples", refuse)
    fresh = replace(u)  # a fresh spec builds its tables cold
    assert universe_morphisms(fresh) and universe_homs(fresh)


def test_the_build_refuses_a_hom_set_past_the_result_guard(monkeypatch):
    # (1)^3 -> (1)^3 is the largest hom set of the unit universe, with 3^3 maps
    u, ones = UniverseSpec(pool=(1,), max_len=3), FactorTuple(ZX, (1, 1, 1))
    monkeypatch.setattr(oracle, "HOM_RESULT_GUARD", 27)
    assert len(universe_homs(replace(u))[ones, ones]) == 27
    monkeypatch.setattr(oracle, "HOM_RESULT_GUARD", 26)
    with pytest.raises(GuardError, match=r"hom set over 3\^3 candidates"):
        universe_morphisms(replace(u))


def test_a_cold_default_verify_misses_the_hom_memo_at_most_3876_times(cold_default_verify):
    # one-sided: a change that needs fewer enumerations lowers the bound; the
    # session fixture swept the caches and ran the default verify
    assert all_passed(cold_default_verify.reports)
    assert cold_default_verify.hom_memo.misses <= 3876


def test_a_forked_parents_share_leaves_the_hom_memo_empty():
    # this process's share of a forked verify checks the counting laws, which
    # call the enumerator directly, so it keeps no hom set
    u, share = UniverseSpec(), [n for n in SUITES if n not in oracle.FORKED_SUITES]
    assert share == ["homset_formulas", "monoidal_laws", "weakdiv", "adjunction"]
    clear_library_caches()
    assert all_passed([oracle._run(u, n) for n in share])
    assert oracle._homs.cache_info().currsize == 0


def test_epic_monic_enumerates_each_distinct_hom_set_once(monkeypatch):
    # the enumerator keeps nothing, and the memo keeps every hom set the two
    # probes ask for, whatever its shape: from (1,1,1,1,1) to (1,1,1,1) there
    # are 5^4 candidate maps
    assert not hasattr(hom_index_tuples, "cache_info")
    u, one, calls = UniverseSpec(pool=(1, 2), max_len=4), FactorTuple(ZX, (1,)), []
    distinct = set()
    for m in universe_morphisms(u):
        distinct.add((m.codomain, tensor_objects(m.codomain, one)))  # the epic probe's
        distinct.add((tensor_objects(m.domain, one), m.domain))  # the monic probe's
    monkeypatch.setattr(oracle, "hom_index_tuples",
                        lambda a, b: calls.append((a, b)) or hom_index_tuples(a, b))
    clear_library_caches()
    assert run_suite(u, ["epic_monic"])[0].passed
    info = oracle._homs.cache_info()
    assert info.misses == info.currsize == len(calls) == len(set(calls)) == len(distinct) == 62
    assert set(calls) == distinct


def iso_by_unfiltered_search(m):
    id_dom, id_cod = identity_morphism(m.domain), identity_morphism(m.codomain)
    return any(
        compose(g, m) == id_dom and compose(m, g) == id_cod
        for g in hom_set(m.codomain, m.domain)
    )


@pytest.mark.parametrize("u", CLOSURE_UNIVERSES.values(), ids=CLOSURE_UNIVERSES.keys())
def test_iso_bruteforce_prefilter_agrees_with_the_unfiltered_search(u):
    for m in universe_morphisms(u):
        assert oracle._iso_by_bruteforce(m) == iso_by_unfiltered_search(m), str(m)


def test_universe_tables_live_as_long_as_their_spec():
    u = UniverseSpec(pool=(1, 2), max_len=2, seed=5)
    assert all_passed(run_suite(u))
    alive = weakref.ref(u)
    del u
    gc.collect()
    assert alive() is None


def test_universe_tables_do_not_depend_on_the_seed():
    a, b = SMALL, replace(SMALL, seed=SMALL.seed + 1)
    assert universe_objects(a) == universe_objects(b)
    assert universe_homs(a) == universe_homs(b)
    assert universe_morphisms(a) == universe_morphisms(b)
    assert universe_morphisms(a) is not universe_morphisms(b)


@pytest.mark.parametrize("monoid", [ZX, NAT], ids=["zx", "nat"])
def test_decomposition_and_chain_steps_are_valid_on_samples(monoid):
    rng = random.Random(11)
    for _ in range(300):
        assert_steps_valid(sample_morphism(rng, monoid))


def test_public_constructors_still_check():
    with pytest.raises(ValueError):
        FactorTuple(ZX, (0,))
    with pytest.raises(InvalidMorphismError):
        Morphism(FactorTuple(ZX, (2,)), FactorTuple(ZX, (3,)), (1,))
    for bad_map in ([1], [2], [0, 1]):
        with pytest.raises(InvalidMorphismError):
            decode_morphism({"monoid": "zx", "domain": [2], "codomain": [3], "map": bad_map})


# -- equality and hashing of the value types ---------------------------------
# FactorTuple and Morphism compare and hash field by field by hand; these
# tests hold them to a field-wise reference on the universes above.


def reference_tuple_eq(s, t):
    return s.monoid.name == t.monoid.name and s.entries == t.entries


def reference_morphism_eq(f, g):
    return (
        reference_tuple_eq(f.domain, g.domain)
        and reference_tuple_eq(f.codomain, g.codomain)
        and underlying_function(f) == underlying_function(g)
    )


@pytest.mark.parametrize("u", CLOSURE_UNIVERSES.values(), ids=CLOSURE_UNIVERSES.keys())
def test_equality_and_hash_agree_with_fieldwise_reference(u):
    rng = random.Random(5)
    objs = universe_objects(u)
    morphs = universe_morphisms(u)
    tuple_pairs = [(s, t) for s in objs for t in objs]
    tuple_pairs += [(t, FactorTuple(u.monoid, t.entries)) for t in objs]
    for s, t in tuple_pairs:
        assert (s == t) == reference_tuple_eq(s, t)
        assert (s != t) != (s == t)
        if s == t:
            assert hash(s) == hash(t)
    morphism_pairs = [(rng.choice(morphs), rng.choice(morphs)) for _ in range(3000)]
    morphism_pairs += [(f, g) for f in morphs[:60] for g in morphs[:60]]
    morphism_pairs += [(m, rebuilt(m)) for m in rng.sample(morphs, min(300, len(morphs)))]
    for f, g in morphism_pairs:
        assert (f == g) == reference_morphism_eq(f, g)
        assert (f != g) != (f == g)
        if f == g:
            assert hash(f) == hash(g)
    assert len(set(morphs)) == len(morphs)
    assert len(set(objs)) == len(objs)


def test_equal_entries_over_different_monoids_are_unequal():
    assert FactorTuple(ZX, (2, 3)) != FactorTuple(NAT, (2, 3))
    f = Morphism(FactorTuple(ZX, (2,)), FactorTuple(ZX, (6,)), [1])
    g = Morphism(FactorTuple(NAT, (2,)), FactorTuple(NAT, (6,)), [1])
    assert f != g
    assert FactorTuple(ZX, (2,)) != (2,) and f != underlying_function(f)


def test_value_types_are_frozen_and_slotted():
    t = FactorTuple(ZX, (2, 3))
    m = identity_morphism(t)
    homs = hom_set(t, FactorTuple(ZX, (3, 5, 4, 1)))
    d = decompose_eip(homs[0])
    built = [
        m, compose(m, m), tensor_morphisms(m, homs[0]), braiding(t, t), *homs,
        d.epsilon, d.delta, d.phi, *atomic_chain(homs[0]).steps,
    ]
    for out in built:
        for obj, field_name in ((out.domain, "entries"), (out, "values"), (out, "domain")):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, field_name, None)
            assert not hasattr(obj, "__dict__")


# -- the fast paths of the hot constructions against their reference forms ----

def _sampled_pairs(items, count=2000):
    rng = random.Random(0)
    return [(rng.choice(items), rng.choice(items)) for _ in range(count)]


@pytest.mark.parametrize("u", CLOSURE_UNIVERSES.values(), ids=CLOSURE_UNIVERSES.keys())
def test_weak_equivalence_agrees_with_the_quotient_witnesses(u):
    from factorcat import quotient_witnesses

    monoid = u.monoid
    for m in universe_morphisms(u):
        if not monoid.is_divisibility:
            for predicate in (is_weak_equivalence, quotient_witnesses):
                with pytest.raises(CapabilityError):
                    predicate(m)
            continue
        witnesses = quotient_witnesses(m).per_index
        assert is_weak_equivalence(m) == all(monoid.is_invertible(r) for r in witnesses), str(m)


@pytest.mark.parametrize("u", DIVISIBILITY_UNIVERSES.values(), ids=DIVISIBILITY_UNIVERSES.keys())
def test_the_total_witness_is_the_product_ratio_and_the_product_of_the_ratios(u):
    from factorcat import quotient_witnesses, total_witness

    monoid = u.monoid
    for m in universe_morphisms(u):
        r = total_witness(m)
        assert monoid.op(r, m.domain.product()) == m.codomain.product(), str(m)
        if m.codomain.entries:
            assert monoid.product(quotient_witnesses(m).per_index) == r, str(m)


@pytest.mark.parametrize("u", CLOSURE_UNIVERSES.values(), ids=CLOSURE_UNIVERSES.keys())
def test_isomorphism_agrees_with_the_inverse_search(u):
    from factorcat import is_isomorphism

    for m in universe_morphisms(u):
        if not u.monoid.is_divisibility:
            with pytest.raises(CapabilityError):
                is_isomorphism(m)
            continue
        assert is_isomorphism(m) == oracle._iso_by_bruteforce(m), str(m)


def reference_tensor(f, g):
    n = len(f.domain)
    return (f.domain.entries + g.domain.entries, f.codomain.entries + g.codomain.entries,
            f.values + tuple(v + n for v in g.values))


def reference_swap(n, m):
    return tuple(n + k for k in range(1, m + 1)) + tuple(range(1, n + 1))


def assert_tuples_built_over(out, monoid):
    # one builder call makes both tuples: each must be a real FactorTuple over the inputs' monoid
    for t in (out.domain, out.codomain):
        assert type(t) is FactorTuple and t.monoid is monoid


@pytest.mark.parametrize("u", CLOSURE_UNIVERSES.values(), ids=CLOSURE_UNIVERSES.keys())
def test_tensor_and_braid_maps_follow_their_closed_formulas(u):
    morphs = universe_morphisms(u)
    unit = identity_morphism(FactorTuple(u.monoid, ()))  # the empty domain: a shift by zero
    pairs = _sampled_pairs(morphs) + [(unit, m) for m in morphs] + [(m, unit) for m in morphs]
    for f, g in pairs:
        out = tensor_morphisms(f, g)
        assert (out.domain.entries, out.codomain.entries, out.values) == reference_tensor(f, g)
        assert_tuples_built_over(out, f.domain.monoid)
    objs = universe_objects(u)
    for s in objs:
        for t in objs:
            out = braiding(s, t)
            assert_tuples_built_over(out, s.monoid)
            assert out.domain.entries == s.entries + t.entries
            assert out.codomain.entries == t.entries + s.entries
            assert out.values == reference_swap(len(s), len(t))


def test_braid_maps_are_shared_only_within_the_shape_bound():
    bound = category.BRAID_SHAPE_BOUND
    shared = {}
    for n in range(bound + 1):
        for m in range(bound + 1 - n):
            first = braiding(FactorTuple(ZX, (2,) * n), FactorTuple(ZX, (3,) * m)).values
            second = braiding(FactorTuple(ZX, (5,) * n), FactorTuple(ZX, (7,) * m)).values
            assert first is second == reference_swap(n, m)  # one map per shape, whatever the entries
            shared[n, m] = first
    clear_library_caches()  # a cold start keeps the shared maps
    assert all(braiding(FactorTuple(ZX, (2,) * n), FactorTuple(ZX, (3,) * m)).values is v
               for (n, m), v in shared.items())
    for n, m in ((bound - 2, 3), (0, bound + 1), (bound + 1, 0), (bound, bound)):
        s, t = FactorTuple(ZX, (1,) * n), FactorTuple(ZX, (2,) * m)
        first, second = braiding(s, t).values, braiding(s, t).values
        assert first == second == reference_swap(n, m) and first is not second


def test_identity_maps_are_shared_only_within_the_bound():
    # the identity on t is the braiding of t with (): the (n, 0) shapes of the braid table
    bound = category.BRAID_SHAPE_BOUND
    unit = empty_tuple(ZX)
    for n in range(bound + 1):
        t, other = FactorTuple(ZX, (2,) * n), FactorTuple(ZX, (3,) * n)
        shared = identity_morphism(t).values
        assert shared is identity_morphism(other).values is braiding(t, unit).values
        assert shared == tuple(range(1, n + 1)) == reference_swap(n, 0)
    past = FactorTuple(ZX, (2,) * (bound + 1))
    first, second = identity_morphism(past).values, identity_morphism(past).values
    braided = braiding(past, unit).values
    assert first == second == braided == tuple(range(1, bound + 2))
    assert first is not second and first is not braided


@pytest.mark.parametrize("u", CLOSURE_UNIVERSES.values(), ids=CLOSURE_UNIVERSES.keys())
def test_product_is_the_fold_of_op(u):
    from functools import reduce

    monoid = u.monoid
    for t in universe_objects(u):
        folded = reduce(monoid.op, t.entries, monoid.identity())
        assert monoid.product(t.entries) == folded
        assert monoid.product(iter(t.entries)) == folded  # any iterable, consumed once
        assert t.product() == folded


# -- verify still catches faults in the fast paths ------------------------------

MUTANT_UNIVERSE = UniverseSpec(pool=(1, 2), max_len=2)


def _assert_caught_and_reproduced(monkeypatch):
    report = run_suite(MUTANT_UNIVERSE, ["monoidal_laws"])[0]
    assert report.failures
    assert all(recheck(f) for f in report.failures)
    monkeypatch.undo()
    assert not any(recheck(f) for f in report.failures)
    return report


def test_an_off_by_one_tensor_shift_fails_the_monoidal_laws(monkeypatch):
    def shifted_one_too_far(f, g):
        n = len(f.domain.entries)
        return category._trusted_morphism(
            category._trusted_tuple(f.monoid, f.domain.entries + g.domain.entries),
            category._trusted_tuple(f.monoid, f.codomain.entries + g.codomain.entries),
            f.values + (tuple(map((n + 1).__add__, g.values)) if n else g.values),
        )

    monkeypatch.setattr(oracle, "tensor_morphisms", shifted_one_too_far)
    report = _assert_caught_and_reproduced(monkeypatch)
    assert "hexagon" in {f["law"] for f in report.failures}


def _patch_tensor_to_return_the_unit(monkeypatch):
    true_tensor = oracle.tensor_morphisms

    def returns_the_unit(f, g):
        if f.domain.monoid is not g.domain.monoid:
            category.require_same_monoid(f.domain, g.domain, "tensor")
        if not g.domain.entries:
            return g
        if not f.domain.entries:
            return f
        return true_tensor(f, g)

    monkeypatch.setattr(oracle, "tensor_morphisms", returns_the_unit)


def test_a_unit_branch_that_returns_the_unit_fails_the_monoidal_laws(monkeypatch):
    _patch_tensor_to_return_the_unit(monkeypatch)
    # hexagon fails first; store every failure so the unit law's are kept too
    monkeypatch.setattr(oracle.SuiteReport, "MAX_STORED", 1000)
    report = _assert_caught_and_reproduced(monkeypatch)
    assert "tensor_unit_morphism" in {f["law"] for f in report.failures}


def test_every_failing_case_is_counted_per_law_past_the_stored_payloads(monkeypatch, capsys):
    from factorcat.cli import main

    _patch_tensor_to_return_the_unit(monkeypatch)
    report = run_suite(MUTANT_UNIVERSE, ["monoidal_laws"])[0]
    assert report.failed_by_law == {"hexagon": 90, "braiding_naturality": 100, "tensor_unit_morphism": 50}
    # only the first MAX_STORED failures keep a payload, and hexagon's come first
    assert len(report.failures) == oracle.SuiteReport.MAX_STORED
    assert {f["law"] for f in report.failures} == {"hexagon"}
    assert main(["verify", "--suite", "monoidal_laws", "--pool", "[1,2]", "--max-len", "2"]) == 1
    assert f"monoidal_laws: {report.cases} cases, FAIL (240 counterexamples)\n" in capsys.readouterr().out


def test_unequal_associates_are_still_asked_by_is_isomorphism(monkeypatch):
    # equal matched entries skip are_associates; -1 against 1 must not
    from factorcat.monoids import NonzeroIntegers

    monkeypatch.setattr(NonzeroIntegers, "are_associates", lambda self, a, b: a == b)
    report = run_suite(SMALL, ["iso"])[0]
    assert {f["law"] for f in report.failures} == {"iso_agreement"}
    minus_one_to_one = {"monoid": "zx", "domain": [-1], "codomain": [1], "map": [1]}
    assert minus_one_to_one in [f["morphism"] for f in report.failures]
    assert all(recheck(f) for f in report.failures)
    monkeypatch.undo()
    assert not any(recheck(f) for f in report.failures)


def test_a_cold_monoidal_run_builds_and_asks_no_more_than_measured(monkeypatch):
    # one-sided: a change that builds fewer tensors or braidings, or asks
    # fewer associates, lowers the bounds
    import factorcat.monoidal as monoidal
    from factorcat.monoids import NonzeroIntegers

    calls = {"arrow": 0, "associates": 0}
    true_arrow, true_associates = monoidal._trusted_arrow, NonzeroIntegers.are_associates

    def arrow(*args):
        calls["arrow"] += 1
        return true_arrow(*args)

    def associates(self, a, b):
        calls["associates"] += 1
        return true_associates(self, a, b)

    monkeypatch.setattr(monoidal, "_trusted_arrow", arrow)
    monkeypatch.setattr(NonzeroIntegers, "are_associates", associates)
    clear_library_caches()
    report = run_suite(replace(MUTANT_UNIVERSE), ["monoidal_laws"])[0]
    assert report.passed
    assert calls["arrow"] <= 12972
    assert calls["associates"] <= 0


def test_a_swapped_entry_in_a_shared_braid_map_fails_the_monoidal_laws(monkeypatch):
    import factorcat.monoidal as monoidal

    table = [list(row) for row in monoidal._SWAPS]
    v = table[1][2]
    table[1][2] = (v[1], v[0]) + v[2:]
    monkeypatch.setattr(monoidal, "_SWAPS", table)
    report = _assert_caught_and_reproduced(monkeypatch)
    assert {f["law"] for f in report.failures} >= {"braiding_involution", "braiding_iso"}


# -- the case loop --------------------------------------------------------------

def test_cases_past_the_stored_failures_are_still_counted(monkeypatch):
    calls = {"false": 0, "raise": 0}

    def false(t):
        calls["false"] += 1
        return False

    def raises(x, y):
        calls["raise"] += 1
        raise ValueError("bad case")

    monkeypatch.setitem(oracle.LAWS, "tensor_unit_object",
                        replace(oracle.LAWS["tensor_unit_object"], predicate=false))
    monkeypatch.setitem(oracle.LAWS, "tensor_length",
                        replace(oracle.LAWS["tensor_length"], predicate=raises))
    monkeypatch.setattr(oracle.SuiteReport, "MAX_STORED", 2)
    [report] = run_suite(DEGENERATE, ["monoidal_laws"])
    objs = universe_objects(DEGENERATE)
    assert calls == {"false": len(objs), "raise": len(objs) ** 2}  # 3 and 9: past the 2 stored
    assert report.cases == CASE_COUNTS["degenerate"]["monoidal_laws"]
    assert [f["law"] for f in report.failures] == ["tensor_unit_object"] * 2
    assert not any("raised" in f for f in report.failures)  # the raises came too late to store
    monkeypatch.setattr(oracle.SuiteReport, "MAX_STORED", 50)
    [report] = run_suite(DEGENERATE, ["monoidal_laws"])
    assert report.cases == CASE_COUNTS["degenerate"]["monoidal_laws"]
    assert [f.get("raised") for f in report.failures] == [None] * 3 + ["ValueError"] * 9


def test_one_checked_case_counts_once():
    report = oracle.SuiteReport("iso", "zx")
    m = identity_morphism(FactorTuple(ZX, (2,)))
    check(report, "iso_agreement", m)
    check(report, "inverse_roundtrip", m)
    assert report.cases == 2 and report.passed


# -- the universe as blocks -----------------------------------------------------


def _grouped_by_domain(morphs) -> dict:
    """The morphisms out of each domain, as tuples, in first-seen order."""
    out = {}
    for m in morphs:
        out.setdefault(m.domain, []).append(m)
    return {a: tuple(row) for a, row in out.items()}


def test_the_blocks_read_like_the_tuple_of_morphisms():
    # every suite reads the blocks; universe_morphisms lists them as one tuple
    blocks, by_dom, pairs = oracle._by_domain(SMALL)
    listed = universe_morphisms(SMALL)
    listed_by_dom = _grouped_by_domain(listed)
    assert len(blocks) == len(listed) == 559
    assert tuple(blocks) == listed
    assert list(by_dom) == list(listed_by_dom) == list(universe_objects(SMALL))
    assert all(row[0] == listed_by_dom[a][0] and row[len(row) - 1] == listed_by_dom[a][-1]
               for a, row in by_dom.items())
    assert all(tuple(row) == listed_by_dom[a] for a, row in by_dom.items())
    # g composes after f for each morphism g out of f's codomain
    assert pairs == sum(len(listed_by_dom[m.codomain]) for m in listed)


@pytest.mark.parametrize("u", [SMALL, UniverseSpec()], ids=["small", "default"])
def test_every_in_range_block_read_matches_the_tuples(u):
    # the samplers read a block table by an int in range, row starts and ends included
    blocks, by_dom, _ = oracle._by_domain(u)
    listed = universe_morphisms(u)
    listed_by_dom = _grouped_by_domain(listed)
    a = max(by_dom, key=lambda t: len(by_dom[t]))
    for rows, tup in ((blocks, listed), (by_dom[a], listed_by_dom[a])):
        n = len(tup)
        rng = random.Random(25)
        edges = [0, n - 1, *rows._starts[:-1], *(s - 1 for s in rows._starts[1:])]
        picks = [rng.randrange(n) for _ in range(300)] + edges
        assert [rows[i] for i in picks] == [tup[i] for i in picks]


# -- seeded draws ------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, "0:monoidal_laws"])
@pytest.mark.parametrize(
    "size", [1, 2, 3, 7, 8, 9, 255, 256, 257, 259, 160_991, 2**31, 2**31 + 1, 2**64 + 3])
def test_a_draw_makes_the_calls_randrange_makes(size, seed):
    # the universe sizes (objects, morphisms) and the edges of each bit length
    rng, reference = random.Random(seed), random.Random(seed)
    draw = oracle._below(rng, size)
    assert [draw() for _ in range(300)] == [reference.randrange(size) for _ in range(300)]
    assert rng.getstate() == reference.getstate()


def test_a_draw_from_nothing_raises_before_drawing():
    # getrandbits(0) is always 0, so a rejection loop over it would never end
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError):
        random.Random(0).randrange(0)
    with pytest.raises(ValueError):
        oracle._below(rng, 0)
    assert rng.getstate() == state


def test_the_samplers_draw_what_randrange_draws():
    # the walks and k-tuples of the blocks against the same draws by randrange
    u = replace(SMALL)
    table = oracle._by_domain(u)
    assert type(table[0]) is oracle._MorphismRows
    listed = universe_morphisms(u)
    listed_by_dom = _grouped_by_domain(listed)
    rng, reference = random.Random(5), random.Random(5)
    walks = []
    for _ in range(300):
        steps = [listed[reference.randrange(len(listed))]]
        for _ in range(2):
            outs = listed_by_dom[steps[-1].codomain]
            steps.append(outs[reference.randrange(len(outs))])
        walks.append(steps)
    assert list(oracle._walks(u, rng, 3, 300)) == walks
    triples = [tuple(listed[reference.randrange(len(listed))] for _ in range(3)) for _ in range(300)]
    assert list(oracle._draws(table[0], 3, rng, 300)) == triples
    assert rng.getstate() == reference.getstate()


# -- verify on two processes ----------------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform has no os.fork")


def _count_forks(monkeypatch) -> list:
    """Let run_suite fork on what looks like two CPUs; returns the list
    the child pids are appended to."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", counted)
    return forks


def _assert_no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_a_forked_run_reports_what_an_in_process_run_does(monkeypatch):
    # suites fail on both sides: the child's cases, payloads, per-law counts
    # and order come back through the pipe as the in-process run has them
    _patch_tensor_to_return_the_unit(monkeypatch)
    true_iso = oracle.is_isomorphism
    monkeypatch.setattr(oracle, "is_isomorphism", lambda m: true_iso(m) != (2 in m.domain))
    names = ["weakdiv", "iso", "monoidal_laws", "homset_formulas", "iso", "adjunction"]
    in_process = [run_suite(replace(MUTANT_UNIVERSE), n) for n in (None, names)]
    forks = _count_forks(monkeypatch)
    read, run = [], oracle._run
    monkeypatch.setattr(oracle, "_run", lambda u, name: read.append(name) or run(u, name))
    forked = [run_suite(replace(MUTANT_UNIVERSE), n) for n in (None, names)]
    assert len(forks) == 2
    assert read == [n for n in [*SUITES, *names] if n not in oracle.FORKED_SUITES]  # this process's shares
    assert [[r.suite for r in reports] for reports in forked] == [list(SUITES), names]
    assert forked[0][2].failed_by_law and forked[0][4].failed_by_law  # iso in the child, monoidal_laws here
    as_data = [[vars(r) for r in reports] for reports in forked]
    assert as_data == [[vars(r) for r in reports] for reports in in_process]
    assert json.dumps(as_data) == json.dumps([[vars(r) for r in reports] for reports in in_process])
    _assert_no_child_is_left()


@needs_fork
def test_a_forked_run_leaves_the_tuples_unbuilt_and_universe_morphisms_a_tuple(monkeypatch):
    # the blocks stay inside the run: outside it, universe_morphisms builds and returns the tuple
    forks = _count_forks(monkeypatch)
    u, v = replace(MUTANT_UNIVERSE), replace(MUTANT_UNIVERSE)
    before = universe_morphisms(v)
    assert type(before) is tuple
    assert all_passed(run_suite(u)) and all_passed(run_suite(v)) and len(forks) == 2
    built = {"_" + table.__name__ for table in (universe_objects, oracle._by_domain)}
    assert {key for key in vars(u) if key.startswith("_")} == built  # _per_spec's keys
    assert universe_morphisms(v) is before and type(universe_morphisms(u)) is tuple
    assert universe_morphisms(u) == before


def test_a_run_in_one_process_keeps_only_the_blocks(monkeypatch):
    # every suite reads the blocks in one process too, so no tuple of morphisms is built
    monkeypatch.setattr(oracle, "_can_fork", lambda: False)
    u = replace(MUTANT_UNIVERSE)
    assert all_passed(run_suite(u))
    built = {"_" + table.__name__ for table in (universe_objects, oracle._by_domain)}
    assert {key for key in vars(u) if key.startswith("_")} == built  # _per_spec's keys


@pytest.mark.parametrize(
    "setting", ["one CPU", "no fork", "a second thread", "no morphisms read here"])
def test_verify_runs_in_process_where_it_cannot_fork_or_the_fork_cannot_pay(monkeypatch, setting):
    forks = _count_forks(monkeypatch)
    u, names = replace(MUTANT_UNIVERSE), list(SUITES)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if setting == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif setting == "no fork":
        monkeypatch.delattr(os, "fork")
    elif setting == "a second thread":
        thread.start()
    else:  # the child's share is all that reads the morphisms
        names = ["homset_formulas", "iso", "adjunction", "epic_monic"]
    try:
        reports = run_suite(u, names)
    finally:
        stop.set()
        if thread.is_alive():
            thread.join()
    assert forks == [] and [r.suite for r in reports] == names and all_passed(reports)


def _raising(error: type, *args):
    def raises(*_):
        raise error(*args)
    return raises


def _raising_once(function, error: type, *args):
    calls = []

    def once(*given):
        calls.append(given)
        if len(calls) == 1:
            raise error(*args)
        return function(*given)
    return once


def _outcome(run) -> object:
    """What run() returns, as data, or the type and message of what it raises."""
    try:
        return [vars(r) for r in run()]
    except BaseException as exc:  # KeyboardInterrupt too: a row below raises it
        return type(exc), str(exc)


_HERE = [n for n in SUITES if n not in oracle.FORKED_SUITES]  # a forked run's share here


@needs_fork
@pytest.mark.parametrize("failure, share, rerun", [
    ("nothing", _HERE, False),
    ("a TypeError here", _HERE[:3], True),
    ("a KeyboardInterrupt here", _HERE[:3], False),
    ("the build raises", [], True),
    ("the pipe raises", [], True),
    ("the fork raises", [], True),
    ("the child exits non-zero", _HERE, True),
    ("the child's output does not parse", _HERE, True),
])
def test_any_failure_of_a_forked_run_reaps_the_child_and_runs_every_suite_here(
        monkeypatch, failure, share, rerun):
    # share: the suites this process runs before the failure; rerun:
    # whether every suite then runs here, as in a run in one process
    if failure.endswith("here"):  # a fault of the code, which a run in one process meets too
        error = TypeError if failure == "a TypeError here" else KeyboardInterrupt
        monkeypatch.setitem(oracle.LAWS, "weakdiv_reflexive", replace(
            oracle.LAWS["weakdiv_reflexive"], predicate=_raising(error, "miswired")))
    ran, run = [], oracle._run  # the suites run in this process
    monkeypatch.setattr(oracle, "_run", lambda u, name: ran.append(name) or run(u, name))
    with monkeypatch.context() as one_process:
        one_process.setattr(oracle, "_can_fork", lambda: False)
        expected = _outcome(lambda: run_suite(replace(MUTANT_UNIVERSE)))
    in_process, ran[:] = ran[:], []
    forks = _count_forks(monkeypatch)
    if failure == "the build raises":
        monkeypatch.setattr(oracle, "_by_domain", _raising_once(oracle._by_domain, MemoryError))
    elif failure == "the pipe raises":
        monkeypatch.setattr(os, "pipe", _raising(OSError, errno.EMFILE, "Too many open files"))
    elif failure == "the fork raises":
        monkeypatch.setattr(os, "fork", _raising(BlockingIOError, errno.EAGAIN, "no process to spare"))
    elif failure == "the child exits non-zero":
        exit_ = os._exit
        monkeypatch.setattr(os, "_exit", lambda status: exit_(status or 1))  # only the child exits
    elif failure == "the child's output does not parse":
        monkeypatch.setattr(json, "dump", lambda value, out: out.write("[{"))  # only the child dumps
    kills, kill = [], os.kill
    monkeypatch.setattr(os, "kill", lambda pid, sig: kills.append((pid, sig)) or kill(pid, sig))
    u, fds = replace(MUTANT_UNIVERSE), len(os.listdir("/dev/fd"))
    assert _outcome(lambda: run_suite(u)) == expected
    assert ran == share + (in_process if rerun else [])
    assert len(forks) == bool(share)
    assert kills == ([(forks[0], signal.SIGKILL)] if failure.endswith("here") else [])
    _assert_no_child_is_left()
    assert len(os.listdir("/dev/fd")) == fds
    assert type(universe_morphisms(u)) is tuple


@needs_fork
@pytest.mark.parametrize("error, code, message", [
    (TypeError, 70, "error: internal: TypeError: miswired\n"), (GuardError, 3, "error: miswired\n"),
], ids=["TypeError-70", "GuardError-3"])
def test_an_error_in_the_forked_share_keeps_its_type_and_exit_code(monkeypatch, capsys, error, code, message):
    from factorcat.cli import main

    def raises(*args):
        raise error("miswired")

    monkeypatch.setitem(oracle.LAWS, "iso_agreement",
                        replace(oracle.LAWS["iso_agreement"], predicate=raises))
    argv = ["verify", "--pool", "[1,2]", "--max-len", "2"]
    in_process = main(argv), capsys.readouterr()
    forks = _count_forks(monkeypatch)
    forked = main(argv), capsys.readouterr()
    assert len(forks) == 1 and forked == in_process
    assert in_process[0] == code and in_process[1].err == message
    _assert_no_child_is_left()


@needs_fork
def test_a_raise_in_this_process_kills_and_reaps_the_child(monkeypatch):
    def stalls(m):
        time.sleep(10)  # 51 morphisms: the child would run for minutes unless killed
        return True

    def raises(*args):
        raise TypeError("miswired")

    monkeypatch.setitem(oracle.LAWS, "epic_agreement",
                        replace(oracle.LAWS["epic_agreement"], predicate=stalls))
    monkeypatch.setitem(oracle.LAWS, "hom_count_from_empty",  # homset_formulas, the first suite here
                        replace(oracle.LAWS["hom_count_from_empty"], predicate=raises))
    kills, kill = [], os.kill
    monkeypatch.setattr(os, "kill", lambda pid, sig: kills.append((pid, sig)) or kill(pid, sig))
    forks = _count_forks(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(TypeError, match="miswired"):
        run_suite(replace(MUTANT_UNIVERSE))
    assert time.perf_counter() - start < 5
    assert kills == [(forks[0], signal.SIGKILL)]
    _assert_no_child_is_left()


@needs_fork
@pytest.mark.parametrize("names, first", [(["weakdiv", "iso"], GuardError), (["iso", "weakdiv"], TypeError)])
def test_when_both_processes_raise_the_first_error_in_list_order_is_raised(monkeypatch, names, first):
    def raises(error):
        def predicate(*args):
            raise error("miswired")
        return predicate

    monkeypatch.setitem(oracle.LAWS, "weakdiv_reflexive",
                        replace(oracle.LAWS["weakdiv_reflexive"], predicate=raises(GuardError)))
    monkeypatch.setitem(oracle.LAWS, "iso_agreement",
                        replace(oracle.LAWS["iso_agreement"], predicate=raises(TypeError)))
    with pytest.raises(first):
        run_suite(replace(MUTANT_UNIVERSE), names)
    forks = _count_forks(monkeypatch)
    with pytest.raises(first):
        run_suite(replace(MUTANT_UNIVERSE), names)
    assert len(forks) == 1
    _assert_no_child_is_left()


@needs_fork
def test_a_build_that_raises_runs_every_suite_here_so_an_earlier_suite_raises_first(monkeypatch):
    def raises(*args):
        raise TypeError("miswired")

    monkeypatch.setattr(oracle, "HOM_RESULT_GUARD", 2)  # the build trips its guard
    monkeypatch.setitem(oracle.LAWS, "hom_count_from_empty",
                        replace(oracle.LAWS["hom_count_from_empty"], predicate=raises))
    names = ["homset_formulas", "iso", "weakdiv"]
    forks = _count_forks(monkeypatch)
    with pytest.raises(TypeError, match="miswired"):
        run_suite(replace(MUTANT_UNIVERSE), names)
    monkeypatch.setitem(oracle.LAWS, "hom_count_from_empty", replace(
        oracle.LAWS["hom_count_from_empty"], predicate=lambda *args: True))
    with pytest.raises(GuardError):
        run_suite(replace(MUTANT_UNIVERSE), names)
    assert forks == []
