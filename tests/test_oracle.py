"""Verification suites: bounded-universe law checks, determinism, and the
self-test that a corrupted operation is caught with a usable counterexample."""

import gc
import hashlib
import json
import random
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
    validate_morphism,
    weak_div_diagram,
    weakly_divides,
)
from factorcat.oracle import universe_homs

from conftest import sweep_library_caches

SMALL = UniverseSpec(pool=(-1, 1, 2, 6), max_len=2, exhaustive_limit=40_000, sample_size=4_000)
DEGENERATE = UniverseSpec(pool=(1,), max_len=2)
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


def test_universe_enumeration_is_deterministic():
    objs = universe_objects(SMALL)
    assert objs[0].entries == ()
    assert len(objs) == 1 + 4 + 16
    assert universe_objects(SMALL) == objs


def test_all_suites_pass_on_small_universe():
    reports = run_passing(SMALL, CASE_COUNTS["small"])
    assert [r.suite for r in reports] == list(SUITES)


def test_all_suites_pass_on_degenerate_universe():
    run_passing(DEGENERATE, CASE_COUNTS["degenerate"])


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
    import factorcat.monoidal as monoidal
    from factorcat.cli import main

    monkeypatch.setattr(monoidal, "braiding", _braiding_off_by_one)
    monkeypatch.setattr(oracle, "braiding", _braiding_off_by_one)
    argv = ["verify", "--suite", "monoidal_laws", "--pool", "[1,2]", "--max-len", "2"]
    assert main(argv) == 1
    assert "counterexample: " in capsys.readouterr().out
    assert main(argv + ["--json"]) == 1
    failures = json.loads(capsys.readouterr().out)[0]["failures"]
    assert failures and all(recheck(f) for f in failures)
    # past the first 50 failures, braiding_is_natural indexes with the 0 and raises
    monkeypatch.setattr(oracle.SuiteReport, "MAX_STORED", 10**6)
    report = run_suite(UniverseSpec(pool=(1, 2), max_len=2), ["monoidal_laws"])[0]
    raised = [f for f in report.failures if "raised" in f]
    assert raised and {(f["law"], f["raised"]) for f in raised} == {("braiding_naturality", "IndexError")}
    assert all(recheck(f) for f in raised)
    monkeypatch.undo()
    assert not any(recheck(f) for f in raised)
    assert run_suite(UniverseSpec(pool=(1, 2), max_len=2), ["monoidal_laws"])[0].passed


def test_a_guard_inside_a_predicate_is_still_a_refusal(monkeypatch):
    from factorcat import GuardError

    def refuse(m):
        raise GuardError("refused")

    t = FactorTuple(ZX, (2,))
    failure = {"law": "iso_agreement", "monoid": "zx", "morphism": encode_morphism(identity_morphism(t))}
    monkeypatch.setattr(oracle, "is_isomorphism", refuse)
    with pytest.raises(GuardError):
        oracle.SuiteReport("iso", "zx").check("iso_agreement", identity_morphism(t))
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
    sweep_library_caches()  # reaches both probes
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
    from factorcat import FactorTuple, encode_morphism, encode_tuple, validate_morphism

    m = validate_morphism(FactorTuple(ZX, (2,)), FactorTuple(ZX, (6,)), [1])
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
            with pytest.raises(KeyError):
                recheck(partial)


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
        report.check(name, *args)
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
        m = oracle.sample_morphism(rng)
        assert m.monoid == ZX  # construction validates the order constraint
        from factorcat import is_weak_equivalence, total_witness, zeta_mor

        assert abs(total_witness(m)) <= 10_000
        kinds.add(zeta_mor(m) == 0)
    assert kinds == {True, False}  # both weak equivalences and proper morphisms


def test_extension_sampler_composes():
    import random

    from factorcat import compose

    rng = random.Random(5)
    f = oracle.sample_morphism(rng)
    g = oracle.sample_extension(rng, f.codomain)
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


def test_universe_object_guard():
    from factorcat import GuardError

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
    sweep_library_caches()
    morphs = universe_morphisms(replace(u))  # a fresh spec builds its tables cold
    assert len({id(m.values) for m in morphs}) == len({m.values for m in morphs})


def test_shared_map_cache_is_bounded_and_swept():
    shared = category._shared
    assert shared.cache_info().maxsize == category.SHARED_CACHE_SIZE
    maps = hom_index_tuples.__wrapped__(FactorTuple(ZX, (2, 3)), FactorTuple(ZX, (6, 6)))
    assert maps == ((1, 2), (2, 1)) and shared.cache_info().currsize >= 3
    sweep_library_caches()
    assert shared.cache_info().currsize == 0


def rebuilt(m):
    """m rebuilt through FactorTuple and validate_morphism, sharing no
    object with m."""
    return validate_morphism(
        FactorTuple(m.monoid, m.domain.entries),
        FactorTuple(m.monoid, m.codomain.entries),
        m.values,
    )


def assert_valid(m):
    """m equals its rebuild through FactorTuple and validate_morphism.

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
def test_a_cold_build_does_not_call_the_enumerator(u):
    sweep_library_caches()
    before = hom_index_tuples.cache_info()
    fresh = replace(u)  # a fresh spec builds its tables cold
    assert universe_morphisms(fresh) and universe_homs(fresh)
    assert hom_index_tuples.cache_info() == before


def test_the_build_refuses_a_hom_set_past_the_result_guard(monkeypatch):
    # (1)^3 -> (1)^3 is the largest hom set of the unit universe, with 3^3 maps
    from factorcat import GuardError

    u, ones = UniverseSpec(pool=(1,), max_len=3), FactorTuple(ZX, (1, 1, 1))
    monkeypatch.setattr(oracle, "HOM_RESULT_GUARD", 27)
    assert len(universe_homs(replace(u))[ones, ones]) == 27
    monkeypatch.setattr(oracle, "HOM_RESULT_GUARD", 26)
    with pytest.raises(GuardError, match=r"hom set over 3\^3 candidates"):
        universe_morphisms(replace(u))


def test_a_cold_default_verify_misses_the_hom_cache_at_most_7239_times(cold_default_verify):
    # one-sided: a change that needs fewer enumerations lowers the bound; the
    # session fixture swept the caches and ran the default verify
    assert all_passed(cold_default_verify.reports)
    assert cold_default_verify.hom_cache.misses <= 7239


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
        assert_steps_valid(oracle.sample_morphism(rng, monoid))


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
    f = validate_morphism(FactorTuple(ZX, (2,)), FactorTuple(ZX, (6,)), [1])
    g = validate_morphism(FactorTuple(NAT, (2,)), FactorTuple(NAT, (6,)), [1])
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


@pytest.mark.parametrize("u", CLOSURE_UNIVERSES.values(), ids=CLOSURE_UNIVERSES.keys())
def test_tensor_and_braid_maps_follow_their_closed_formulas(u):
    morphs = universe_morphisms(u)
    unit = identity_morphism(FactorTuple(u.monoid, ()))  # the empty domain: a shift by zero
    pairs = _sampled_pairs(morphs) + [(unit, m) for m in morphs] + [(m, unit) for m in morphs]
    for f, g in pairs:
        out = tensor_morphisms(f, g)
        assert (out.domain.entries, out.codomain.entries, out.values) == reference_tensor(f, g)
    objs = universe_objects(u)
    for s in objs:
        for t in objs:
            out = braiding(s, t)
            assert out.domain.entries == s.entries + t.entries
            assert out.codomain.entries == t.entries + s.entries
            assert out.values == reference_swap(len(s), len(t))


def test_braid_maps_are_shared_only_within_the_shape_bound():
    import factorcat.monoidal as monoidal

    bound = monoidal.BRAID_SHAPE_BOUND
    cache = monoidal._swap_map
    sweep_library_caches()
    at = FactorTuple(ZX, (1,) * (bound - 3)), FactorTuple(ZX, (2, 3, 5))
    assert braiding(*at).values is braiding(*at).values == reference_swap(bound - 3, 3)
    assert cache.cache_info().currsize == 1
    past = FactorTuple(ZX, (1,) * (bound - 2)), FactorTuple(ZX, (2, 3, 5))
    first, second = braiding(*past).values, braiding(*past).values
    assert first == second == reference_swap(bound - 2, 3) and first is not second
    assert cache.cache_info().currsize == 1  # the shape past the bound was not cached
    assert cache.cache_info().maxsize >= (bound + 1) * (bound + 2) // 2  # every shape within it fits
    sweep_library_caches()
    assert cache.cache_info().currsize == 0


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
    import factorcat.monoidal as monoidal

    def shifted_one_too_far(f, g):
        n = len(f.domain.entries)
        return category._trusted_morphism(
            category._trusted_tuple(f.monoid, f.domain.entries + g.domain.entries),
            category._trusted_tuple(f.monoid, f.codomain.entries + g.codomain.entries),
            f.values + (tuple(map((n + 1).__add__, g.values)) if n else g.values),
        )

    monkeypatch.setattr(monoidal, "tensor_morphisms", shifted_one_too_far)
    monkeypatch.setattr(oracle, "tensor_morphisms", shifted_one_too_far)
    report = _assert_caught_and_reproduced(monkeypatch)
    assert "hexagon" in {f["law"] for f in report.failures}


def test_a_swapped_entry_in_a_shared_braid_map_fails_the_monoidal_laws(monkeypatch):
    import factorcat.monoidal as monoidal

    true_swap = monoidal._swap_map

    def swapped(n, m):
        v = true_swap(n, m)
        return (v[1], v[0]) + v[2:] if (n, m) == (1, 2) else v

    monkeypatch.setattr(monoidal, "_swap_map", swapped)
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
    report.check("iso_agreement", m)
    report.check("inverse_roundtrip", m)
    assert report.cases == 2 and report.passed
