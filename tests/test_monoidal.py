"""Tensor product and braiding laws.  The involution, hexagon, naturality
and bifunctoriality checks run the oracle's own law predicates."""

import pytest

from factorcat import (
    FactorTuple,
    InvalidMorphismError,
    NAT,
    ZX,
    braiding,
    compose,
    empty_tuple,
    hom_set,
    identity_morphism,
    is_isomorphism,
    tensor_morphisms,
    tensor_objects,
    validate_morphism,
)
from factorcat.oracle import LAWS

OMEGA = empty_tuple(ZX)


def zt(*entries):
    return FactorTuple(ZX, entries)


def zm(dom, cod, values):
    return validate_morphism(zt(*dom), zt(*cod), values)


def small_objects():
    pool = (1, 2, 6)
    out = [OMEGA]
    out += [zt(a) for a in pool]
    out += [zt(a, b) for a in pool for b in pool]
    return out


def test_tensor_objects_concatenates():
    assert tensor_objects(zt(2, 3), zt(5)) == zt(2, 3, 5)
    assert tensor_objects(zt(2, 3), OMEGA) == zt(2, 3)
    assert tensor_objects(OMEGA, zt(2, 3)) == zt(2, 3)
    assert tensor_objects(OMEGA, OMEGA) == OMEGA


def test_tensor_monoid_mismatch():
    with pytest.raises(ValueError):
        tensor_objects(zt(2), FactorTuple(NAT, (2,)))


def test_the_monoid_guard_runs_before_the_unit_return():
    # a unit operand over another monoid is refused, not returned
    f, nat_unit = identity_morphism(zt(2)), identity_morphism(empty_tuple(NAT))
    for args in ((f, nat_unit), (nat_unit, f), (identity_morphism(OMEGA), nat_unit)):
        with pytest.raises(InvalidMorphismError) as exc:
            tensor_morphisms(*args)
        assert str(exc.value) == "tensor needs both arguments over the same monoid"


def test_tensor_morphisms_worked_example():
    f = zm([2], [6], [1])
    g = zm([5], [105], [1])
    out = tensor_morphisms(f, g)
    assert out.domain == zt(2, 5)
    assert out.codomain == zt(6, 105)
    assert out.values == (1, 2)


def test_tensor_unit_is_strict():
    f = zm([6, 35], [2, 3, 5, 7], [1, 1, 2, 2])
    id_o = identity_morphism(OMEGA)
    assert tensor_morphisms(f, id_o) == f
    assert tensor_morphisms(id_o, f) == f


def test_tensor_of_identities():
    x, y = zt(2, 3), zt(5)
    assert tensor_morphisms(identity_morphism(x), identity_morphism(y)) == identity_morphism(
        tensor_objects(x, y)
    )


def test_braiding_worked_example():
    b = braiding(zt(2), zt(3, 5))
    assert b.domain == zt(2, 3, 5)
    assert b.codomain == zt(3, 5, 2)
    assert b.values == (2, 3, 1)
    assert is_isomorphism(b)


def test_braiding_with_empty_is_identity():
    t = zt(2, 3)
    assert braiding(OMEGA, t) == identity_morphism(t)
    assert braiding(t, OMEGA) == identity_morphism(t)


def test_braiding_involution():
    s, t = zt(2, 3), zt(5, 1)
    assert compose(braiding(t, s), braiding(s, t)) == identity_morphism(tensor_objects(s, t))


def test_strict_associativity_exhaustive_small():
    objs = small_objects()
    for x in objs:
        for y in objs:
            for z in objs:
                assert tensor_objects(tensor_objects(x, y), z) == tensor_objects(
                    x, tensor_objects(y, z)
                )


def test_length_additivity():
    objs = small_objects()
    for x in objs:
        for y in objs:
            assert len(tensor_objects(x, y)) == len(x) + len(y)


def test_bifunctoriality_on_sampled_composites():
    objs = [OMEGA, zt(1), zt(2), zt(6), zt(1, 2), zt(2, 3)]
    arrows = [m for a in objs for b in objs for m in hom_set(a, b)]
    by_dom = {}
    for m in arrows:
        by_dom.setdefault(m.domain, []).append(m)
    composable = [(f, h) for f in arrows for h in by_dom.get(f.codomain, [])]
    for f, h in composable[:60]:
        for g, k in composable[:: max(1, len(composable) // 40)]:
            assert LAWS["bifunctoriality"].predicate(f, h, g, k)


def test_braiding_naturality_sampled():
    fs = [
        zm([2], [6], [1]),
        zm([6, 35], [2, 3, 5, 7], [1, 1, 2, 2]),
        zm([6, 1, 1], [6], [1]),
        identity_morphism(OMEGA),
        zm([1, 2], [1, 2], [2, 2]),
    ]
    for f in fs:
        for g in fs:
            assert LAWS["braiding_naturality"].predicate(f, g)


def test_hexagon_sampled():
    objs = small_objects()
    for x in objs[:6]:
        for y in objs[:6]:
            for z in objs[:6]:
                assert LAWS["hexagon"].predicate(x, y, z)


def test_involution_helper_matches_direct_check():
    involution = LAWS["braiding_involution"].predicate
    assert involution(zt(2), zt(3, 5))
    assert involution(OMEGA, OMEGA)
