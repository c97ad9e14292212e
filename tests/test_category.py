"""Morphism validation, composition, hom-set enumeration, and classification."""

import ast
import gc
import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from factorcat import (
    CapabilityError,
    FactorTuple,
    GuardError,
    IndexFunction,
    INTERVAL,
    InvalidMorphismError,
    MonoidHom,
    Morphism,
    NAT,
    ZX,
    compose,
    embed,
    empty_tuple,
    free_monoid,
    hom_index_tuples,
    hom_set,
    identity_morphism,
    inverse,
    is_epic,
    is_initial,
    is_isomorphism,
    is_monic,
    map_morphism,
    map_tuple,
    refute_terminal,
    underlying_function,
)
import factorcat.category as category
from factorcat.category import HOM_RESULT_GUARD
from factorcat.monoids import FreeCommutative, Monoid

from builders import UNPRINTABLE, needs_digit_limit, zm, zt

FREE = free_monoid("ab")


OMEGA = empty_tuple(ZX)


class TestValidation:
    def test_worked_factorization_morphism(self):
        m = zm([6, 35], [2, 3, 5, 7], [1, 1, 2, 2])
        assert m.values == (1, 1, 2, 2)

    def test_unit_must_divide_empty_product(self):
        with pytest.raises(InvalidMorphismError, match="index 2"):
            zm([6, 2, 1], [6], [1])

    def test_a_fiber_product_too_long_to_print_still_names_the_index(self):
        # its 8,001 digits are past str()'s default limit: the message must not refuse
        big = 10**4000
        with pytest.raises(InvalidMorphismError, match="order constraint fails at domain index 1"):
            zm([7], [big, big], [1, 1])

    @needs_digit_limit
    def test_a_map_value_too_long_to_print_is_still_refused_by_name(self):
        for make in (lambda v: zm([2], [6], [v]), lambda v: IndexFunction(1, 1, (v,))):
            with pytest.raises(InvalidMorphismError) as info:
                make(10**5000)
            assert str(info.value) == f"value {UNPRINTABLE} outside the 1-based range [1]"

    def test_a_map_from_any_iterable_of_ints_is_accepted(self):
        # not a list or tuple of exact ints: the value-by-value checks accept it
        assert zm([2, 3], [2, 3], range(1, 3)).values == (1, 2)
        assert IndexFunction(2, 1, (v for v in [1, 1])).values == (1, 1)

    def test_a_morphism_between_non_tuples_is_refused(self):
        with pytest.raises(InvalidMorphismError, match="are FactorTuples, not list"):
            Morphism([2], zt(6), (1,))
        with pytest.raises(InvalidMorphismError, match="are FactorTuples, not NoneType"):
            Morphism(zt(2), None, (1,))

    @pytest.mark.parametrize("enumerate_homs", [hom_index_tuples, hom_set])
    def test_a_hom_set_between_non_tuples_is_refused_as_a_morphism_is(self, enumerate_homs):
        for domain, codomain, shown in [(1, 2, "int"), ([2], zt(6), "list"), (zt(2), None, "NoneType")]:
            with pytest.raises(InvalidMorphismError) as info:
                enumerate_homs(domain, codomain)
            assert str(info.value) == f"a morphism's domain and codomain are FactorTuples, not {shown}"

    def test_a_tuple_needs_a_monoid_and_iterable_entries(self):
        with pytest.raises(ValueError, match="a tuple's monoid must be a Monoid, got str"):
            FactorTuple("zx", (1,))
        with pytest.raises(ValueError, match="tuple entries are not iterable: NoneType"):
            FactorTuple(ZX, None)
        assert FactorTuple(ZX, iter([2, 3])).entries == (2, 3)

    def test_empty_to_empty_identity(self):
        m = Morphism(OMEGA, OMEGA, [])
        assert m == identity_morphism(OMEGA)

    def test_size_mismatch(self):
        with pytest.raises(InvalidMorphismError):
            zm([2], [6], [1, 1])
        with pytest.raises(InvalidMorphismError):
            zm([2], [6], [2])

    def test_an_index_function_is_not_a_map(self):
        with pytest.raises(InvalidMorphismError, match="are not a sequence"):
            Morphism(zt(2, 3), zt(6), IndexFunction(1, 2, (1,)))

    def test_bool_values_rejected(self):
        with pytest.raises(InvalidMorphismError):
            Morphism(zt(2), zt(6), [True])
        with pytest.raises(InvalidMorphismError):
            IndexFunction(1, 1, (True,))

    def test_non_iterable_map_rejected(self):
        with pytest.raises(InvalidMorphismError):
            IndexFunction(1, 1, 5)
        with pytest.raises(InvalidMorphismError):
            Morphism(zt(2), zt(6), 5)

    def test_string_size_rejected(self):
        with pytest.raises(InvalidMorphismError, match="size"):
            IndexFunction("1", 1, (1,))
        with pytest.raises(InvalidMorphismError, match="size"):
            IndexFunction(1, "1", (1,))

    def test_bool_size_rejected(self):
        with pytest.raises(InvalidMorphismError, match="size"):
            IndexFunction(True, 1, (1,))
        with pytest.raises(InvalidMorphismError, match="size"):
            Morphism(zt(2), zt(6), IndexFunction(1, True, (1,)))

    def test_float_size_rejected(self):
        with pytest.raises(InvalidMorphismError, match="size"):
            IndexFunction(1.0, 1, (1,))
        with pytest.raises(InvalidMorphismError, match="size"):
            IndexFunction(1, 1.0, (1,))

    def test_monoid_mismatch(self):
        with pytest.raises(InvalidMorphismError):
            Morphism(zt(2), FactorTuple(NAT, (6,)), (1,))

    def test_negative_index_set_size_rejected(self):
        with pytest.raises(InvalidMorphismError, match="index set sizes must be non-negative"):
            IndexFunction(-1, 1, ())

    def test_index_function_into_empty_unrepresentable(self):
        with pytest.raises(InvalidMorphismError):
            IndexFunction(2, 0, (1, 1))


class TestComposition:
    def test_identity_laws(self):
        f = zm([6, 35], [2, 3, 5, 7], [1, 1, 2, 2])
        assert compose(identity_morphism(f.codomain), f) == f
        assert compose(f, identity_morphism(f.domain)) == f

    def test_worked_composite(self):
        eps = zm([6, 1, 35], [6, 35], [1, 3])
        phi = zm([6, 35], [2, 7, 33, 65], [1, 2, 1, 2])
        assert compose(phi, eps).values == (1, 3, 1, 3)

    def test_triangle_collapse_from_one_tuple(self):
        # morphisms out of a 1-tuple into a fixed target are unique
        g = zm([210], [6, 35], [1, 1])
        h = zm([6, 35], [2, 3, 5, 7], [1, 1, 2, 2])
        direct = zm([210], [2, 3, 5, 7], [1, 1, 1, 1])
        assert compose(h, g) == direct

    def test_object_mismatch(self):
        with pytest.raises(InvalidMorphismError):
            compose(zm([2], [6], [1]), zm([2], [4], [1]))
        nat = FactorTuple(NAT, (6,))
        with pytest.raises(InvalidMorphismError):  # equal entries over another monoid
            compose(Morphism(nat, nat, (1,)), zm([6], [6], [1]))
        assert compose(zm([6], [6], [1]), zm([6], [6], [1])) == zm([6], [6], [1])  # equal, not identical
        ab, ba = FreeCommutative("ab"), FreeCommutative("ba")  # equal, not identical monoids
        f, g = identity_morphism(FactorTuple(ab, ((1, 0),))), identity_morphism(FactorTuple(ba, ((1, 0),)))
        assert ab is not ba and compose(g, f) == f

    def test_interval_composite_into_empty_is_unique(self):
        # there is at most one arrow into the empty tuple, so any composite
        # landing there equals the direct one
        it = lambda *es: FactorTuple(INTERVAL, tuple(Fraction(*e) for e in es))
        target = empty_tuple(INTERVAL)
        f = Morphism(it((1, 2), (1, 3)), target, [])
        g = Morphism(it((1, 6),), it((1, 2), (1, 3)), [1, 1])
        direct = Morphism(it((1, 6),), target, [])
        assert compose(f, g) == direct

    def test_identity_morphism_shapes(self):
        assert identity_morphism(zt(2, 3)).values == (1, 2)
        assert identity_morphism(OMEGA).values == ()
        assert identity_morphism(zt(5)).values == (1,)

    def test_sampled_chain_associativity(self):
        import random

        from sampling import sample_extension, sample_morphism

        rng = random.Random(13)
        for _ in range(40):
            f = sample_morphism(rng, witness_bound=500)
            g = sample_extension(rng, f.codomain, witness_bound=500)
            h = sample_extension(rng, g.codomain, witness_bound=500)
            assert compose(h, compose(g, f)) == compose(compose(h, g), f)

    def test_closure_and_associativity_over_small_pool(self):
        pool = [zt(e) for e in (1, 2)] + [zt(1, 2), zt(2, 2), OMEGA]
        arrows = [m for a in pool for b in pool for m in hom_set(a, b)]
        by_dom = {}
        for m in arrows:
            by_dom.setdefault(m.domain, []).append(m)
        pairs = [(f, g) for f in arrows for g in by_dom.get(f.codomain, [])]
        for f, g in pairs:
            gf = compose(g, f)  # construction re-validates: closure
            for h in by_dom.get(g.codomain, []):
                assert compose(h, gf) == compose(compose(h, g), f)


class TestHomSets:
    def test_worked_counts(self):
        assert len(hom_set(zt(6, 35), zt(2, 3, 5, 7))) == 1
        assert len(hom_set(zt(1, 2), zt(1, 2))) == 2
        assert len(hom_set(zt(1, 1), zt(3, 3, 3))) == 8
        assert len(hom_set(zt(2, 2), zt(3, 3))) == 0

    def test_lexicographic_order(self):
        maps = [m.values for m in hom_set(zt(1, 1), zt(3, 3))]
        assert maps == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_empty_tuple_rows(self):
        assert len(hom_set(OMEGA, OMEGA)) == 1
        assert len(hom_set(OMEGA, zt(2))) == 0
        assert len(hom_set(zt(2), OMEGA)) == 0
        assert len(hom_set(zt(1, -1), OMEGA)) == 1

    def test_interval_always_maps_to_empty(self):
        t = FactorTuple(INTERVAL, (Fraction(1, 2), Fraction(2, 3)))
        assert len(hom_set(t, empty_tuple(INTERVAL))) == 1

    def test_enumeration_guard(self):
        with pytest.raises(GuardError):
            hom_index_tuples(zt(*([1] * 2)), zt(*([1] * 25)))

    def test_result_guard_admits_its_bound_and_refuses_one_more(self):
        # over units every candidate is a map: ten 1s <- five 1s has exactly 10^5
        assert len(hom_index_tuples(zt(*[1] * 10), zt(*[1] * 5))) == HOM_RESULT_GUARD == 10**5
        with pytest.raises(GuardError, match="more than 10\\^5 maps"):
            hom_index_tuples(zt(*[1] * 10), zt(*[1] * 6))

    def test_result_guard_is_read_at_call_time_and_leaves_no_cycle(self, monkeypatch):
        monkeypatch.setattr(category, "HOM_RESULT_GUARD", 3)
        assert len(hom_index_tuples(zt(1, 1, 1), zt(1))) == 3
        gc.collect()
        gc.disable()
        try:
            try:
                hom_index_tuples(zt(2, 1), zt(2, 1, 1))  # 4 maps
            except GuardError:
                pass
            else:
                pytest.fail("a fourth map passed a guard of 3")
            assert gc.collect() == 0
        finally:
            gc.enable()


def brute_hom_maps(domain, codomain):
    """Pruneless reference enumeration: try all N^M maps directly."""
    from itertools import product as iter_product

    monoid = domain.monoid
    n, m = len(domain), len(codomain)
    if n == 0:
        return [()] if m == 0 else []
    out = []
    for values in iter_product(range(1, n + 1), repeat=m):
        fibers = [monoid.identity()] * n
        for pos, target in enumerate(values):
            fibers[target - 1] = monoid.op(fibers[target - 1], codomain.entries[pos])
        if all(monoid.leq(x, fibers[i]) for i, x in enumerate(domain.entries)):
            out.append(values)
    return out


class TestEnumerationAgainstBruteForce:
    def test_integer_universe(self):
        from itertools import product as iter_product

        pool = (-1, 1, 2, 6)
        objs = [OMEGA] + [
            zt(*combo) for k in (1, 2) for combo in iter_product(pool, repeat=k)
        ]
        for a in objs:
            for b in objs:
                assert list(hom_index_tuples(a, b)) == brute_hom_maps(a, b)

    def test_interval_universe(self):
        from itertools import product as iter_product

        pool = (Fraction(1), Fraction(1, 2), Fraction(2, 3))
        objs = [empty_tuple(INTERVAL)] + [
            FactorTuple(INTERVAL, combo)
            for k in (1, 2)
            for combo in iter_product(pool, repeat=k)
        ]
        for a in objs:
            for b in objs:
                assert list(hom_index_tuples(a, b)) == brute_hom_maps(a, b)

    def test_free_universe(self):
        from itertools import product as iter_product

        pool = ((), ("a",), ("a", "b"))
        objs = [empty_tuple(FREE)] + [
            FactorTuple(FREE, combo)
            for k in (1, 2)
            for combo in iter_product(pool, repeat=k)
        ]
        for a in objs:
            for b in objs:
                assert list(hom_index_tuples(a, b)) == brute_hom_maps(a, b)


class TestEpicMonicIso:
    def test_drop_unit_morphism_is_epic_not_monic(self):
        m = zm([6, 1, 1], [6], [1])
        assert is_epic(m) and not is_monic(m)

    def test_factorization_morphism_is_monic_not_epic(self):
        m = zm([6, 35], [2, 3, 5, 7], [1, 1, 2, 2])
        assert is_monic(m) and not is_epic(m)

    def test_divisibility_morphism_epic_monic_not_iso(self):
        m = zm([2], [6], [1])
        assert is_epic(m) and is_monic(m) and not is_isomorphism(m)

    def test_sign_permutation_iso(self):
        m = zm([2, 3], [-3, -2], [2, 1])
        assert is_isomorphism(m)
        inv = inverse(m)
        assert inv is not None
        assert compose(inv, m) == identity_morphism(m.domain)
        assert compose(m, inv) == identity_morphism(m.codomain)

    def test_identity_is_its_own_inverse(self):
        m = identity_morphism(zt(2, 3))
        assert is_isomorphism(m)
        assert inverse(m) == m

    def test_non_iso_has_no_inverse(self):
        assert inverse(zm([2], [6], [1])) is None

    def test_capability_gate(self):
        t = FactorTuple(INTERVAL, (Fraction(1, 2),))
        m = Morphism(t, t, [1])
        for probe in (is_epic, is_monic, is_isomorphism):
            with pytest.raises(CapabilityError):
                probe(m)


class TestInitialTerminal:
    def test_unit_one_tuples_are_initial(self):
        assert is_initial(zt(1)) and is_initial(zt(-1))
        assert not is_initial(zt(2))

    def test_longer_unit_tuples_are_not_initial(self):
        assert not is_initial(zt(1, 1))
        # two distinct morphisms out of (1,1) refute uniqueness
        assert len(hom_set(zt(1, 1), zt(5))) == 2

    def test_refute_terminal_integer_witness(self):
        witness = refute_terminal(zt(6))
        assert witness.entries == (7,)
        assert len(hom_set(witness, zt(6))) == 0

    def test_refute_terminal_of_empty(self):
        witness = refute_terminal(OMEGA)
        assert witness.entries == (2,)
        assert len(hom_set(witness, OMEGA)) == 0

    def test_refute_terminal_guard(self):
        with pytest.raises(GuardError):
            refute_terminal(zt(10**24))
        assert refute_terminal(zt(2**31)).entries == (2**31 + 11,)

    def test_refute_terminal_free(self):
        t = FactorTuple(FREE, (("a",),))
        witness = refute_terminal(t)
        assert witness.entries == (FREE.validate(("a", "a")),)
        assert len(hom_set(witness, t)) == 0

    def test_capability_gate(self):
        with pytest.raises(CapabilityError):
            is_initial(FactorTuple(INTERVAL, (Fraction(1),)))


class TestFunctors:
    def test_underlying_function(self):
        m = zm([6, 35], [2, 3, 5, 7], [1, 1, 2, 2])
        assert underlying_function(m).values == (1, 1, 2, 2)
        ident = identity_morphism(zt(5, 6))
        assert underlying_function(ident) == IndexFunction.identity(2)
        from_one = zm([30], [2, 3, 5], [1, 1, 1])
        assert underlying_function(from_one).values == (1, 1, 1)

    def test_product_functor(self):
        assert zt(6, 35).product() == 210
        assert OMEGA.product() == 1
        assert zt(2, 3, 5, 7).product() == 210

    def test_embed_functor(self):
        assert embed(ZX, 6).entries == (6,)
        assert embed(ZX, 6).product() == 6  # product after embed is the identity

    def test_singleton_hom_cardinality(self):
        # |hom((y), t)| is 1 exactly when y divides the product
        assert len(hom_set(embed(ZX, 6), zt(2, 3))) == 1
        assert len(hom_set(embed(ZX, 4), zt(2, 3))) == 0

    def test_map_along_free_to_integers(self):
        hom = MonoidHom.primes_for_generators(FREE, {"a": 2, "b": 3})
        src = Morphism(
            FactorTuple(FREE, (("a",),)), FactorTuple(FREE, (("a",), ("b",))), [1, 1]
        )
        image = map_morphism(hom, src)
        assert image.domain.entries == (2,)
        assert image.codomain.entries == (2, 3)
        assert image.values == (1, 1)

    def test_map_along_inclusion(self):
        hom = MonoidHom.naturals_into_integers()
        src = Morphism(FactorTuple(NAT, (2,)), FactorTuple(NAT, (6,)), [1])
        image = map_morphism(hom, src)
        assert image.monoid == ZX and image.values == (1,)

    def test_map_validates_each_image_once(self, monkeypatch):
        src = Morphism(FactorTuple(NAT, (2, 3)), FactorTuple(NAT, (2, 3, 1)), [1, 2, 2])
        expected = zm([2, 3], [2, 3, 1], [1, 2, 2])
        calls = []
        validate = type(ZX).validate
        monkeypatch.setattr(type(ZX), "validate", lambda self, a: calls.append(a) or validate(self, a))
        assert map_morphism(MonoidHom.naturals_into_integers(), src) == expected
        assert calls == [2, 3, 2, 3, 1]  # once per image entry, in zx

    def test_map_skips_the_source_check_of_a_valid_tuple(self, monkeypatch):
        src = Morphism(FactorTuple(NAT, (2, 3)), FactorTuple(NAT, (2, 3, 5)), [1, 2, 2])
        expected = zm([2, 3], [2, 3, 5], [1, 2, 2])
        calls = {"nat": 0, "zx": 0}

        def counting(monoid):
            validate = type(monoid).validate

            def counted(self, a):
                calls[monoid.name] += 1
                return validate(self, a)
            return counted

        for monoid in (NAT, ZX):
            monkeypatch.setattr(type(monoid), "validate", counting(monoid))
        hom = MonoidHom.naturals_into_integers()
        assert map_morphism(hom, src) == expected
        assert calls == {"nat": 0, "zx": 5}
        with pytest.raises(ValueError):
            hom(0)  # a raw value is still checked in the source

    def test_identity_hom_is_identity(self):
        hom = MonoidHom.identity(ZX)
        m = zm([2], [6], [1])
        assert map_morphism(hom, m) == m
        assert map_tuple(hom, zt(2, 3)) == zt(2, 3)

    def test_map_tuple_rejects_a_tuple_over_another_monoid(self):
        with pytest.raises(ValueError, match="tuple lives in nat, not zx"):
            map_tuple(MonoidHom.identity(ZX), FactorTuple(NAT, (2,)))

    def test_hom_repr_names_the_map(self):
        assert repr(MonoidHom.identity(ZX)) == "MonoidHom(id[zx])"
        assert repr(MonoidHom.naturals_into_integers()) == "MonoidHom(nat->zx)"

    def test_unsupported_assignment_rejected(self):
        with pytest.raises(ValueError):
            MonoidHom.primes_for_generators(FREE, {"a": 2, "b": 4})
        with pytest.raises(ValueError):
            MonoidHom.primes_for_generators(FREE, {"a": 2})
        with pytest.raises(ValueError):
            MonoidHom.primes_for_generators(ZX, {"a": 2})


def test_every_cache_on_caller_data_is_bounded():
    import factorcat

    offenders = []
    for path in sorted(Path(factorcat.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            for deco in node.decorator_list:
                func = deco.func if isinstance(deco, ast.Call) else deco
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name not in ("lru_cache", "cache"):
                    continue
                sizes = []  # a bare or empty lru_cache has the finite default of 128
                if isinstance(deco, ast.Call):
                    sizes = deco.args[:1] + [k.value for k in deco.keywords if k.arg == "maxsize"]
                if name == "cache" or any(
                        isinstance(v, ast.Constant) and v.value is None for v in sizes):
                    offenders.append(f"{path.name}:{node.lineno} {node.name}")
    assert offenders == []


def test_a_cold_enumeration_is_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        assert hom_index_tuples(zt(2, 3), zt(3, 5, 4, 1))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "monoid, grid",
    [(ZX, [x for x in range(-12, 13) if x]), (NAT, range(1, 13))],
    ids=["zx", "nat"],
)
def test_integer_fiber_feasible_is_leq_of_the_full_product(monoid, grid):
    for x, partial, rest in itertools.product(grid, repeat=3):
        expected = monoid.leq(x, monoid.op(partial, rest))
        assert monoid.fiber_feasible(x, partial, rest) == expected, (x, partial, rest)


class Additive(Monoid):
    """The non-negative integers under addition with the usual order; it
    keeps the base fiber_feasible, which prunes nothing."""

    name = "additive"

    def validate(self, a):
        if isinstance(a, bool) or not isinstance(a, int) or a < 0:
            raise ValueError(f"{self.name}: expected a non-negative int, got {a!r}")
        return a

    def identity(self):
        return 0

    def op(self, a, b):
        return a + b

    def leq(self, a, b):
        return a <= b


def test_default_fiber_feasible_enumerates_exactly_the_valid_maps():
    monoid = Additive()
    tuples = [
        FactorTuple(monoid, entries)
        for k in range(4) for entries in itertools.product((0, 1, 3), repeat=k)
    ]
    for dom in tuples:
        n = len(dom)
        for cod in tuples:
            expected = []
            for values in itertools.product(range(1, n + 1), repeat=len(cod)):
                fibers = [0] * n
                for y, v in zip(cod.entries, values):
                    fibers[v - 1] += y
                if all(x <= f for x, f in zip(dom.entries, fibers)):
                    expected.append(values)
            assert hom_index_tuples(dom, cod) == tuple(expected), (dom, cod)
