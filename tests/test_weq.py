"""Quotient witnesses, weak equivalences, the canonical decomposition, and
the right-fraction constructions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from factorcat import (
    CapabilityError,
    FactorTuple,
    INTERVAL,
    InvalidMorphismError,
    Morphism,
    PROPER,
    WEAK_EQUIVALENCE,
    ZX,
    classify_by_delta,
    compose,
    decompose_eip,
    empty_tuple,
    free_monoid,
    hom_set,
    identity_morphism,
    is_isomorphism,
    is_weak_equivalence,
    ore_square,
    quotient_witnesses,
    right_cancel_witness,
    total_witness,
)

from builders import zm, zt
from sampling import sample_extension, sample_morphism

OMEGA = empty_tuple(ZX)


class TestWitnesses:
    def test_worked_witnesses(self):
        m = zm([6, 1, 35], [2, 7, 33, 65], [1, 3, 1, 3])
        w = quotient_witnesses(m)
        assert w.per_index == (11, 1, 13)
        assert w.total == 143

    def test_identity_witnesses(self):
        m = identity_morphism(zt(2, 3))
        w = quotient_witnesses(m)
        assert w.per_index == (1, 1) and w.total == 1

    def test_empty_codomain_witness_is_inverse_of_product(self):
        m = Morphism(zt(1, -1), OMEGA, [])
        w = quotient_witnesses(m)
        assert w.per_index == () and w.total == -1

    def test_per_index_reassembles(self):
        m = zm([6, 35], [2, 3, 5, 7], [1, 1, 2, 2])
        w = quotient_witnesses(m)
        assert ZX.op(w.total, m.domain.product()) == m.codomain.product()

    def test_capability_gate(self):
        t = FactorTuple(INTERVAL, (Fraction(1, 2),))
        with pytest.raises(CapabilityError):
            quotient_witnesses(Morphism(t, t, [1]))


class TestWeakEquivalence:
    def test_factorization_morphism_in_w(self):
        assert is_weak_equivalence(zm([210], [2, 3, 5, 7], [1, 1, 1, 1]))

    def test_divisibility_morphism_not_in_w(self):
        m = zm([2], [6], [1])
        assert not is_weak_equivalence(m)
        assert total_witness(m) == 3

    def test_drop_unit_morphism_in_w(self):
        assert is_weak_equivalence(zm([6, 1, 1], [6], [1]))

    def test_empty_codomain_always_in_w(self):
        assert is_weak_equivalence(Morphism(zt(1, -1), OMEGA, []))

    def test_total_witness_characterizes_membership(self):
        # sampled check: r invertible <=> in W, across morphisms sharing r
        sources = [zm([2], [6], [1]), zm([1], [3], [1]), zm([2], [-6], [1])]
        for m in sources:
            assert is_weak_equivalence(m) == ZX.is_invertible(total_witness(m))

    def test_two_of_three_sampled(self):
        fs = [
            zm([210], [2, 3, 5, 7], [1, 1, 1, 1]),
            zm([2], [6], [1]),
            identity_morphism(zt(6)),
        ]
        pairs = [
            (zm([2], [6], [1]), zm([6], [6, 1], [1, 1])),
            (zm([210], [6, 35], [1, 1]), zm([6, 35], [2, 3, 5, 7], [1, 1, 2, 2])),
        ]
        for f, g in pairs:
            wf, wg, wgf = (
                is_weak_equivalence(f),
                is_weak_equivalence(g),
                is_weak_equivalence(compose(g, f)),
            )
            assert wgf == (wf and wg)
        for f in fs:
            if is_isomorphism(f):
                assert is_weak_equivalence(f)

    def test_product_functor_sends_w_to_isomorphisms(self):
        for m in (
            zm([210], [2, 3, 5, 7], [1, 1, 1, 1]),
            zm([6, 1, 1], [6], [1]),
            zm([2, 3], [-2, 3], [1, 2]),
        ):
            assert is_weak_equivalence(m)
            a, b = m.domain.product(), m.codomain.product()
            assert ZX.leq(a, b) and ZX.leq(b, a)


class TestDecomposition:
    def test_worked_decomposition(self):
        m = zm([6, 1, 35], [2, 7, 33, 65], [1, 3, 1, 3])
        d = decompose_eip(m)
        assert d.epsilon.values == (1, 3)
        assert d.epsilon.codomain == zt(6, 35)
        assert d.delta.codomain == zt(66, 455)
        assert d.delta.values == (1, 2)
        assert d.phi.values == (1, 2, 1, 2)
        assert d.ratios == (11, 13)
        assert d.dropped_unit == 1
        assert d.composed() == m

    def test_identity_decomposition(self):
        m = identity_morphism(zt(6, 35))
        d = decompose_eip(m)
        assert d.epsilon == d.delta == d.phi == m
        assert d.ratios == (1, 1)

    def test_divisibility_morphism_decomposition(self):
        m = zm([2], [6], [1])
        d = decompose_eip(m)
        assert d.epsilon == identity_morphism(zt(2))
        assert d.delta == m
        assert d.phi == identity_morphism(zt(6))

    def test_dropped_unit_folds_into_witness(self):
        # the dropped unit sits inside the domain, then at its end
        for m in (zm([6, -1, 35], [2, 7, 33, 65], [1, 3, 1, 3]), zm([6, -1], [12], [1])):
            d = decompose_eip(m)
            assert d.dropped_unit == -1
            r = total_witness(m)
            assert r == ZX.product((d.dropped_unit, *d.ratios))

    def test_empty_tuples_rejected(self):
        with pytest.raises(ValueError):
            decompose_eip(Morphism(zt(1), OMEGA, []))

    def test_roundtrip_over_bounded_universe(self):
        pool = [zt(*es) for es in ((1,), (2,), (6,), (1, 2), (2, 3), (6, 1))]
        for a in pool:
            for b in pool:
                for m in hom_set(a, b):
                    d = decompose_eip(m)
                    assert d.composed() == m


class TestClassification:
    def test_worked_proper(self):
        assert classify_by_delta(zm([6, 1, 35], [2, 7, 33, 65], [1, 3, 1, 3])) == PROPER

    def test_factorization_is_weq(self):
        assert classify_by_delta(zm([210], [2, 3, 5, 7], [1, 1, 1, 1])) == WEAK_EQUIVALENCE

    def test_mixed_example_is_proper(self):
        assert classify_by_delta(zm([2, 3, 1, 1], [2, 7, 3, 5], [1, 1, 2, 2])) == PROPER

    def test_agrees_with_is_weak_equivalence(self):
        pool = [zt(*es) for es in ((1,), (2,), (6,), (1, 2), (2, 3))]
        for a in pool:
            for b in pool:
                for m in hom_set(a, b):
                    assert (classify_by_delta(m) == WEAK_EQUIVALENCE) == is_weak_equivalence(m)


class TestFractions:
    def test_worked_ore_square(self):
        f = zm([210], [2, 3, 5, 7], [1, 1, 1, 1])
        g = zm([10, 21], [2, 3, 5, 7], [1, 2, 1, 2])
        f_prime, g_prime = ore_square(f, g)
        assert f_prime.domain == zt(210) and f_prime.codomain == zt(10, 21)
        assert g_prime.domain == zt(210) and g_prime.codomain == zt(210)
        assert is_weak_equivalence(f_prime)
        assert compose(f, g_prime) == compose(g, f_prime)

    def test_identity_ore_square(self):
        f = g = identity_morphism(zt(6))
        f_prime, g_prime = ore_square(f, g)
        assert f_prime == g_prime
        assert compose(f, g_prime) == compose(g, f_prime)

    def test_small_ore_square(self):
        f = zm([6], [2, 3], [1, 1])
        g = zm([2], [2, 3], [1, 1])
        f_prime, g_prime = ore_square(f, g)
        assert f_prime.domain == zt(2) and f_prime.codomain == zt(2)
        assert g_prime.domain == zt(2) and g_prime.codomain == zt(6)

    def test_ore_requires_weak_equivalence(self):
        with pytest.raises(ValueError):
            ore_square(zm([2], [6], [1]), zm([3], [6], [1]))

    def test_ore_requires_a_shared_codomain(self):
        with pytest.raises(InvalidMorphismError, match="the cospan legs must share a codomain"):
            ore_square(identity_morphism(zt(6)), zm([2], [2], [1]))

    def test_right_cancel_witness(self):
        f = zm([1, 2], [1, 2], [1, 2])
        f2 = zm([1, 2], [1, 2], [2, 2])
        g = zm([1, 2], [2], [2])
        assert compose(g, f) == compose(g, f2)
        h = right_cancel_witness(f, f2, g)
        assert h.domain == zt(2) and h.codomain == zt(1, 2)
        assert is_weak_equivalence(h)
        assert compose(f, h) == compose(f2, h)

    def test_right_cancel_parallel_trivial(self):
        f = zm([30], [2, 3, 5], [1, 1, 1])
        h = right_cancel_witness(f, f, identity_morphism(f.codomain))
        assert h.domain == zt(30)

    def test_right_cancel_rejects_unequal_composites(self):
        f = zm([1, 2], [1, 2], [1, 2])
        f2 = zm([1, 2], [1, 2], [2, 2])
        with pytest.raises(ValueError):
            right_cancel_witness(f, f2, identity_morphism(zt(1, 2)))

    def test_right_cancel_rejects_non_parallel_maps(self):
        f = zm([2], [6], [1])
        g = identity_morphism(zt(6))
        for f2 in (zm([3], [6], [1]), zm([2], [2], [1])):  # another domain, another codomain
            with pytest.raises(InvalidMorphismError, match="the first two morphisms must be parallel"):
                right_cancel_witness(f, f2, g)

    def test_right_cancel_rejects_non_weq(self):
        f = zm([2], [6], [1])
        with pytest.raises(ValueError):
            right_cancel_witness(f, f, zm([6], [12], [1]))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_sampled_witness_defining_equation(seed):
    rng = random.Random(seed)
    m = sample_morphism(rng)
    w = quotient_witnesses(m)
    for i, r_i in enumerate(w.per_index):
        fiber = ZX.product(
            y for pos, y in enumerate(m.codomain.entries) if m.values[pos] == i + 1
        )
        assert ZX.op(r_i, m.domain.entries[i]) == fiber
    assert ZX.op(w.total, m.domain.product()) == m.codomain.product()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_sampled_two_of_three(seed):
    rng = random.Random(seed)
    f = sample_morphism(rng)
    g = sample_extension(rng, f.codomain)
    assert is_weak_equivalence(compose(g, f)) == (
        is_weak_equivalence(f) and is_weak_equivalence(g)
    )


def test_free_monoid_witnesses():
    free = free_monoid("ab")
    ft = lambda *es: FactorTuple(free, es)
    m = Morphism(ft(("a",)), ft(("a",), ("b",)), [1, 1])
    assert total_witness(m) == free.validate(("b",))
    assert not is_weak_equivalence(m)
    drop = Morphism(ft(("a",), ()), ft(("a",)), [1])
    assert is_weak_equivalence(drop)
