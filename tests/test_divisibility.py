"""Weak divisibility, classification by witnesses, atomic chains, length
functions, and the factorization-property probes."""

import random
import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from factorcat import (
    CapabilityError,
    FactorTuple,
    GuardError,
    INTERVAL,
    InvalidInputError,
    InvalidMorphismError,
    Morphism,
    NAT,
    WedgeDiagram,
    ZX,
    atomic_chain,
    braiding,
    chain_stabilizes,
    compose,
    empty_tuple,
    enumerate_irreducible_factorizations,
    free_monoid,
    identity_morphism,
    is_epic,
    is_isomorphism,
    is_monic,
    is_weak_equivalence,
    is_weakly_irreducible,
    is_weakly_irreducible_tuple,
    is_weakly_prime,
    is_weakly_prime_tuple,
    quotient_witnesses,
    tensor_morphisms,
    tensor_objects,
    total_witness,
    ufd_wedge,
    weak_div_diagram,
    weakly_associate,
    weakly_divides,
    zeta_elt,
    zeta_mor,
    zeta_obj,
)
from factorcat.monoids import FreeCommutative

from builders import UNPRINTABLE, needs_digit_limit, zm, zt
from sampling import sample_extension, sample_morphism

FREE = free_monoid("ab")


F_2_6 = lambda: zm([2], [6], [1])
G_5_105 = lambda: zm([5], [105], [1])


def free_elements(monoid, max_degree):
    """Every element of the free monoid with at most max_degree generator copies."""
    for k in range(max_degree + 1):
        yield from combinations_with_replacement(monoid.generators, k)


class TestWeakDivisibility:
    def test_worked_example(self):
        assert weakly_divides(F_2_6(), G_5_105())
        assert not weakly_divides(G_5_105(), F_2_6())

    def test_weak_equivalences_divide_everything(self):
        weq = zm([210], [2, 3, 5, 7], [1, 1, 1, 1])
        for g in (F_2_6(), G_5_105(), identity_morphism(zt(7))):
            assert weakly_divides(weq, g)

    def test_dividing_a_weak_equivalence_forces_membership(self):
        for f in (F_2_6(), zm([210], [2, 3, 5, 7], [1, 1, 1, 1])):
            divides_identity = weakly_divides(f, identity_morphism(zt(11)))
            assert divides_identity == is_weak_equivalence(f)

    def test_preorder_reflexive_transitive(self):
        ms = [F_2_6(), G_5_105(), zm([1], [4], [1]), identity_morphism(zt(3))]
        for f in ms:
            assert weakly_divides(f, f)
        for f in ms:
            for g in ms:
                for h in ms:
                    if weakly_divides(f, g) and weakly_divides(g, h):
                        assert weakly_divides(f, h)

    def test_product_criterion_agreement(self):
        ms = [F_2_6(), G_5_105(), zm([6, 1, 35], [2, 7, 33, 65], [1, 3, 1, 3])]
        for f in ms:
            for g in ms:
                lhs = ZX.op(g.domain.product(), f.codomain.product())
                rhs = ZX.op(f.domain.product(), g.codomain.product())
                assert weakly_divides(f, g) == ZX.leq(lhs, rhs)


class TestWeakDivDiagram:
    def test_worked_square(self):
        diag = weak_div_diagram(F_2_6(), G_5_105())
        assert diag.a == 2 and diag.b == 5
        assert diag.mu.domain == zt(10)
        assert diag.mu.codomain == zt(2, 5)
        assert diag.alpha.codomain == zt(5, 2)
        assert diag.eta.domain == zt(30)
        assert diag.eta.codomain == zt(5, 6)
        assert diag.beta.codomain == zt(2, 105)
        assert is_weak_equivalence(diag.mu) and is_weak_equivalence(diag.eta)

    def test_degenerate_square(self):
        f = F_2_6()
        diag = weak_div_diagram(f, f)
        assert diag.a == diag.b == 2

    def test_weq_divisor_square(self):
        weq = zm([6], [2, 3], [1, 1])
        diag = weak_div_diagram(weq, G_5_105())
        assert is_weak_equivalence(diag.mu) and is_weak_equivalence(diag.eta)

    def test_rejected_when_not_dividing(self):
        with pytest.raises(ValueError):
            weak_div_diagram(G_5_105(), F_2_6())


class TestWeaklyAssociate:
    def test_sign_twins(self):
        assert weakly_associate(F_2_6(), zm([10], [-30], [1]))

    def test_distinct_witnesses(self):
        assert not weakly_associate(F_2_6(), G_5_105())

    def test_reflexive(self):
        assert weakly_associate(G_5_105(), G_5_105())


class TestWeaklyIrreduciblePrime:
    def test_worked_example(self):
        m = F_2_6()
        assert is_weakly_irreducible(m) and is_weakly_prime(m)
        assert total_witness(m) == 3

    def test_composite_witness_is_neither(self):
        m = zm([1], [4], [1])
        assert not is_weakly_irreducible(m) and not is_weakly_prime(m)

    def test_weak_equivalences_are_neither(self):
        for m in (zm([210], [2, 3, 5, 7], [1, 1, 1, 1]), identity_morphism(zt(5))):
            assert not is_weakly_irreducible(m)
            assert not is_weakly_prime(m)

    def test_prime_implies_irreducible_sampled(self):
        rng = random.Random(7)
        for _ in range(50):
            m = sample_morphism(rng)
            if is_weakly_prime(m):
                assert is_weakly_irreducible(m)

    def test_tuples(self):
        assert is_weakly_irreducible_tuple(zt(3, -1))
        assert is_weakly_prime_tuple(zt(3, -1))
        assert not is_weakly_irreducible_tuple(zt(2, 3))
        assert not is_weakly_irreducible_tuple(empty_tuple(ZX))
        assert not is_weakly_prime_tuple(empty_tuple(ZX))

    @pytest.mark.parametrize("classify", [is_weakly_irreducible_tuple, is_weakly_prime_tuple])
    def test_tuples_over_the_interval_are_a_capability_refusal(self, classify):
        # (1) -> (1/2) is no morphism, as 1 is not below 1/2: the refusal comes first
        half = Fraction(1, 2)
        for entries in ((half,), (1,), (), (1, half)):
            with pytest.raises(CapabilityError) as exc:
                classify(FactorTuple(INTERVAL, entries))
            assert str(exc.value) == f"{classify.__name__} is only available over divisibility monoids"


class TestAtomicChain:
    def test_divisibility_step_count(self):
        chain = atomic_chain(zm([1], [60], [1]))
        assert chain.irr_count == 4
        assert chain.composed() == zm([1], [60], [1])

    def test_weak_equivalence_single_step(self):
        m = zm([210], [2, 3, 5, 7], [1, 1, 1, 1])
        chain = atomic_chain(m)
        assert chain.steps == (m,)
        assert chain.tags == ("weak_equivalence",)
        assert chain.irr_count == 0

    def test_worked_mixed_chain(self):
        m = zm([6, 1, 35], [2, 7, 33, 65], [1, 3, 1, 3])
        chain = atomic_chain(m)
        assert chain.irr_count == 2  # 143 = 11 * 13
        assert chain.composed() == m

    def test_tags_verify_step_by_step(self):
        m = zm([6, -1, 35], [2, 7, 33, 65], [1, 3, 1, 3])
        chain = atomic_chain(m)
        for tag, step in zip(chain.tags, chain.steps):
            if tag == "weak_equivalence":
                assert is_weak_equivalence(step)
            else:
                assert is_weakly_irreducible(step)
        assert chain.composed() == m
        assert chain.irr_count == zeta_mor(m)

    def test_empty_tuple_rejected(self):
        with pytest.raises(ValueError):
            atomic_chain(Morphism(zt(1), empty_tuple(ZX), []))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_sampled_chains_recompose(self, seed):
        rng = random.Random(seed)
        m = sample_morphism(rng)
        chain = atomic_chain(m)
        assert chain.composed() == m
        assert chain.irr_count == zeta_mor(m)


class TestZeta:
    def test_element_counts(self):
        assert zeta_elt(ZX, 60) == 4
        assert zeta_elt(ZX, 1) == 0
        assert zeta_elt(ZX, -1) == 0
        assert zeta_obj(zt(6, 35)) == 4

    def test_classification_thresholds(self):
        assert zeta_mor(zm([210], [2, 3, 5, 7], [1, 1, 1, 1])) == 0
        assert zeta_mor(F_2_6()) == 1
        assert zeta_mor(zm([1], [4], [1])) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_additive_under_composition(self, seed):
        rng = random.Random(seed)
        f = sample_morphism(rng)
        g = sample_extension(rng, f.codomain)
        assert zeta_mor(compose(g, f)) == zeta_mor(g) + zeta_mor(f)

    def test_tensor_additivity(self):
        from factorcat import tensor_objects

        assert zeta_obj(tensor_objects(zt(6), zt(35))) == zeta_obj(zt(6)) + zeta_obj(zt(35))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_monotone_along_morphisms(self, seed):
        rng = random.Random(seed)
        m = sample_morphism(rng)
        zd, zc = zeta_obj(m.domain), zeta_obj(m.codomain)
        assert zd <= zc
        assert (zd == zc) == is_weak_equivalence(m)


class TestDivisorClasses:
    def test_twelve_has_six_classes(self):
        m = zm([1], [12], [1])
        assert ZX.divisor_class_representatives(12) == [1, 2, 3, 4, 6, 12]
        from factorcat import weak_divisor_classes

        assert weak_divisor_classes(m) == [1, 2, 3, 4, 6, 12]

    def test_unit_witness(self):
        assert ZX.divisor_class_representatives(1) == [1]
        assert ZX.divisor_class_representatives(-1) == [1]

    def test_prime_witness(self):
        assert ZX.divisor_class_representatives(13) == [1, 13]

    def test_integer_guard(self):
        with pytest.raises(GuardError):
            ZX.divisor_class_representatives(-(10**21))
        assert ZX.divisor_class_representatives(2**31) == [2**k for k in range(32)]

    def test_free_guard(self):
        ten = free_monoid("abcdefghij")
        with pytest.raises(GuardError):  # 7**10 classes
            ten.divisor_class_representatives(ten.validate(ten.generators * 6))
        assert len(ten.divisor_class_representatives(ten.validate(ten.generators))) == 2**10

    def test_free_multiset_classes(self):
        reps = FREE.divisor_class_representatives(FREE.validate(("a", "a", "b")))
        assert reps == [FREE.validate(names) for names in (
            (),
            ("a",),
            ("b",),
            ("a", "a"),
            ("a", "b"),
            ("a", "a", "b"),
        )]

    def test_integers_match_a_plain_scan(self):
        for monoid, witnesses in ((ZX, range(-2000, 2001)), (NAT, range(1, 2001))):
            for r in witnesses:
                if r == 0:
                    continue
                n = abs(r)
                expected = [d for d in range(1, n + 1) if n % d == 0]
                assert monoid.divisor_class_representatives(r) == expected, (monoid, r)

    def test_free_matches_sub_multisets(self):
        abc = free_monoid("abc")
        for r in free_elements(abc, 6):
            subs = {c for k in range(len(r) + 1) for c in combinations(r, k)}
            expected = [abc.validate(s) for s in sorted(subs, key=lambda s: (len(s), s))]
            assert abc.divisor_class_representatives(abc.validate(r)) == expected, r


class TestChainStabilization:
    def test_worked_chain(self):
        chain = [
            zm([4], [8], [1]),
            zm([2], [4], [1]),
            zm([2], [2], [1]),
            zm([2], [2], [1]),
        ]
        assert chain_stabilizes(chain) == 3

    def test_all_identities(self):
        chain = [identity_morphism(zt(5))] * 4
        assert chain_stabilizes(chain) == 1

    def test_strictly_descending_prefix(self):
        chain = [
            zm([8], [16], [1]),
            zm([4], [8], [1]),
            zm([2], [4], [1]),
        ]
        assert chain_stabilizes(chain) is None

    def test_non_composable_rejected(self):
        with pytest.raises(InvalidMorphismError):
            chain_stabilizes([zm([2], [4], [1]), zm([3], [6], [1])])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chain_stabilizes([])


class TestFactorizationEnumeration:
    def test_twelve(self):
        out = enumerate_irreducible_factorizations(ZX, 12)
        assert out.classes == ((2, 2, 3),)
        assert not out.truncated

    def test_irreducible(self):
        assert enumerate_irreducible_factorizations(ZX, 7).classes == ((7,),)

    def test_unit_has_empty_factorization(self):
        assert enumerate_irreducible_factorizations(ZX, -1).classes == ((),)

    def test_free_multiset(self):
        out = enumerate_irreducible_factorizations(FREE, ("a", "a", "b"))
        assert out.classes == (tuple(FREE.validate((g,)) for g in "aab"),)

    def test_truncation_flag(self):
        out = enumerate_irreducible_factorizations(ZX, 12, max_count=0)
        assert out.truncated and out.classes == ()

    @pytest.mark.parametrize("cap, shown", [
        (-1, "-1"), pytest.param(-10**5000, UNPRINTABLE, marks=needs_digit_limit, id="past-the-digit-limit")])
    def test_negative_cap_rejected(self, cap, shown):
        with pytest.raises(InvalidInputError) as info:
            enumerate_irreducible_factorizations(ZX, 12, max_count=cap)
        assert str(info.value) == f"max_count must be non-negative, got {shown}"

    @pytest.mark.parametrize("cap", ["3", True, 2.0, None])
    def test_a_cap_that_is_not_an_int_is_rejected(self, cap):
        with pytest.raises(ValueError, match="max_count must be an integer"):
            enumerate_irreducible_factorizations(ZX, 12, max_count=cap)

    def test_guard(self):
        with pytest.raises(GuardError):
            enumerate_irreducible_factorizations(ZX, 10**6 + 1)

    def test_free_degree_guard(self):
        at_bound = ("a",) * 255 + ("b",)
        out = enumerate_irreducible_factorizations(FREE, at_bound)
        assert out.classes == (tuple(FREE.validate((g,)) for g in at_bound),)
        with pytest.raises(GuardError):
            enumerate_irreducible_factorizations(FREE, at_bound + ("b",))

    def test_free_many_generators_single_class(self):
        # 15 generators of multiplicity 2 once meant 3^15 search nodes
        letters = "abcdefghijklmno"
        words = free_monoid(letters)
        out = enumerate_irreducible_factorizations(words, tuple(sorted(letters * 2)))
        assert len(out.classes) == 1 and not out.truncated

    def test_capability_gate(self):
        from factorcat import INTERVAL
        from fractions import Fraction

        with pytest.raises(CapabilityError):
            enumerate_irreducible_factorizations(INTERVAL, Fraction(1, 2))

    def test_integers_give_the_trial_division_class(self):
        for n in range(2, 1001):
            factors, rest, d = [], n, 2
            while rest > 1:
                while rest % d == 0:
                    factors.append(d)
                    rest //= d
                d += 1
            out = enumerate_irreducible_factorizations(ZX, n)
            assert out.classes == (tuple(factors),) and not out.truncated, n

    def test_free_gives_the_generator_class(self):
        abc = free_monoid("abc")
        for a in free_elements(abc, 6):
            out = enumerate_irreducible_factorizations(abc, a)
            assert out.classes == (tuple(abc.validate((g,)) for g in a),) and not out.truncated, a

    def test_ufd_uniqueness_sampled(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(2, 4000) * rng.choice((1, -1))
            out = enumerate_irreducible_factorizations(ZX, n)
            assert len(out.classes) == 1
            unit, canonical = ZX.factor_irreducibles(n)
            assert out.classes[0] == canonical


class TestUfdWedge:
    def test_worked_wedge(self):
        f = zm([2], [36], [1])
        g = zm([3], [36], [1])
        out = ufd_wedge(f, g)
        assert isinstance(out, WedgeDiagram)
        assert out.apex == zt(6)
        assert is_weakly_irreducible(out.from_left)
        assert is_weakly_irreducible(out.from_right)
        assert out.to_target.codomain == zt(36)

    def test_associate_cores_give_weak_equivalence(self):
        f = zm([2], [6], [1])
        g = zm([-2], [6], [1])
        out = ufd_wedge(f, g)
        assert isinstance(out, Morphism)
        assert out.domain == zt(2) and out.codomain == zt(-2)
        assert is_weak_equivalence(out)

    def test_tight_target(self):
        out = ufd_wedge(zm([2], [6], [1]), zm([3], [6], [1]))
        assert isinstance(out, WedgeDiagram)
        assert out.apex == zt(6)
        assert out.to_target.domain == zt(6) and out.to_target.codomain == zt(6)

    def test_unit_padded_sources(self):
        f = zm([1, 2], [36], [2])
        g = zm([3, -1], [36], [1])
        out = ufd_wedge(f, g)
        assert isinstance(out, WedgeDiagram)
        assert out.apex == zt(6)
        assert out.from_left == Morphism(f.domain, zt(6), [2])
        assert out.from_right == Morphism(g.domain, zt(6), [1])
        assert out.to_target == Morphism(zt(6), zt(36), [1])

    def test_cores_past_index_zero_on_both_sides(self):
        f = zm([1, 2], [36], [2])
        g = zm([-1, 1, 3], [36], [3])
        out = ufd_wedge(f, g)
        assert isinstance(out, WedgeDiagram)
        assert out.apex == zt(6)
        assert out.from_left == Morphism(f.domain, zt(6), [2])
        assert out.from_right == Morphism(g.domain, zt(6), [3])
        assert out.to_target == Morphism(zt(6), zt(36), [1])

    def test_associate_cores_past_index_zero_route_through_the_core(self):
        f = zm([1, 2], [6], [2])
        g = zm([-1, 1, -2], [6], [3])
        out = ufd_wedge(f, g)
        assert out == Morphism(f.domain, g.domain, [2, 2, 2])
        assert is_weak_equivalence(out)
        back = ufd_wedge(g, f)
        assert back == Morphism(g.domain, f.domain, [3, 3])
        assert is_weak_equivalence(back)

    def test_rejects_reducible_sources(self):
        with pytest.raises(ValueError):
            ufd_wedge(zm([4], [36], [1]), zm([3], [36], [1]))

    def test_rejects_mismatched_targets(self):
        with pytest.raises(InvalidMorphismError):
            ufd_wedge(zm([2], [36], [1]), zm([3], [9], [1]))

    def test_free_monoid_wedge(self):
        ft = lambda *es: FactorTuple(FREE, es)
        target = ft(("a",), ("b",))
        f = Morphism(ft(("a",)), target, [1, 1])
        g = Morphism(ft(("b",)), target, [1, 1])
        out = ufd_wedge(f, g)
        assert isinstance(out, WedgeDiagram)
        assert out.apex.entries == (FREE.validate(("a", "b")),)


def test_capability_refusals_have_one_message_form_each():
    half = Fraction(1, 2)
    divisibility_only = {
        "exact_divide": (half, half),
        "is_irreducible": (half,),
        "is_prime": (half,),
        "factor_irreducibles": (half,),
        "are_associates": (half, half),
        "fresh_non_divisor": (half,),
        "divisor_class_representatives": (half,),
    }
    for name, args in divisibility_only.items():
        with pytest.raises(CapabilityError) as exc:
            getattr(INTERVAL, name)(*args)
        assert str(exc.value) == f"{name} is only available over divisibility monoids"
    ufd_form = re.compile(r"^\S.* is only available over UFD monoids$")
    with pytest.raises(CapabilityError) as exc:
        INTERVAL.irreducible_factorizations(half)
    assert ufd_form.match(str(exc.value))
    with pytest.raises(CapabilityError) as exc:
        enumerate_irreducible_factorizations(INTERVAL, half)
    assert ufd_form.match(str(exc.value))
    m = identity_morphism(FactorTuple(INTERVAL, (half,)))
    with pytest.raises(CapabilityError) as exc:
        ufd_wedge(m, m)
    assert ufd_form.match(str(exc.value))


# Each function whose capability or same-monoid guard is tested inline, not
# by a call: (operands, what its capability refusal names, what its
# monoid-mismatch refusal names); None where it has no such refusal
INLINE_GUARDS = {
    is_epic: ("morphism", "is_epic", None),
    is_monic: ("morphism", "is_monic", None),
    is_isomorphism: ("morphism", "is_isomorphism", None),
    is_weak_equivalence: ("morphism", "is_weak_equivalence", None),
    quotient_witnesses: ("morphism", "quotient_witnesses", None),
    total_witness: ("morphism", "quotient_witnesses", None),  # the name it has always refused with
    tensor_objects: ("tuples", None, "tensor"),
    tensor_morphisms: ("morphisms", None, "tensor"),
    braiding: ("tuples", None, "braiding"),
    weakly_divides: ("morphisms", "quotient_witnesses", "weak divisibility"),
}


def _operand(kind, monoid, entries):
    t = FactorTuple(monoid, entries)
    return t if kind == "tuples" else identity_morphism(t)


@pytest.mark.parametrize("fn", INLINE_GUARDS, ids=lambda fn: fn.__name__)
def test_inline_guards_refuse_and_accept_as_before(fn):
    kind, capability, mismatch = INLINE_GUARDS[fn]
    half = Fraction(1, 2)
    one, other = FreeCommutative("ab"), FreeCommutative("ab")
    assert one == other and one is not other
    if kind == "morphism":
        interval_args = (identity_morphism(FactorTuple(INTERVAL, (half,))),)
        # public construction accepts tuples over equal monoid instances
        mixed = Morphism(FactorTuple(one, [("a",)]), FactorTuple(other, [("a",), ("b",)]), (1, 1))
        single = Morphism(FactorTuple(one, [("a",)]), FactorTuple(one, [("a",), ("b",)]), (1, 1))
        assert fn(mixed) == fn(single)
    else:
        interval_args = (_operand(kind, INTERVAL, (half,)),) * 2
        entries = [("a",), ("b",)]
        mixed = fn(_operand(kind, one, entries), _operand(kind, other, entries))
        assert mixed == fn(_operand(kind, one, entries), _operand(kind, one, entries))
        with pytest.raises(InvalidMorphismError) as exc:
            fn(_operand(kind, ZX, (2,)), _operand(kind, NAT, (2,)))
        assert str(exc.value) == f"{mismatch} needs both arguments over the same monoid"
    if capability is None:
        fn(*interval_args)  # no divisibility needed
        return
    with pytest.raises(CapabilityError) as exc:
        fn(*interval_args)
    assert str(exc.value) == f"{capability} is only available over divisibility monoids"
