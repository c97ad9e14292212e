"""Element algebra of the four shipped monoid instances."""

import ast
import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import factorcat.monoids as monoids
import factorcat.oracle as oracle
from factorcat import (
    CapabilityError,
    GuardError,
    INTERVAL,
    InvalidInputError,
    NAT,
    PRIMALITY_BOUND,
    ZX,
    compose,
    decode_morphism,
    free_monoid,
    identity_morphism,
    monoid_by_name,
)
from factorcat.monoids import FREE_DECODE_BOUND, INTERVAL_EXPONENT_BOUND

from builders import UNPRINTABLE, needs_digit_limit

FREE = free_monoid("ab")


def free(*names):
    """The element of FREE holding the given generator copies."""
    return FREE.validate(names)


nonzero_ints = st.integers(-200, 200).filter(lambda n: n != 0)
positive_ints = st.integers(1, 200)
unit_fractions = st.fractions(min_value=Fraction(1, 64), max_value=1)
multisets = st.lists(st.sampled_from(("a", "b")), max_size=5).map(FREE.validate)
# exponent vectors of any degree the wire format admits, split between a and b
large_elements = st.integers(0, FREE_DECODE_BOUND).flatmap(
    lambda degree: st.integers(0, degree).map(lambda k: (k, degree - k))
)


def test_identities():
    assert ZX.identity() == 1
    assert INTERVAL.identity() == Fraction(1, 1)
    assert FREE.identity() == free()


def test_op_examples():
    assert ZX.op(6, 35) == 210
    assert INTERVAL.op(Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 6)
    assert FREE.op(free("a"), free("a", "b")) == free("a", "a", "b")


def test_leq_examples():
    assert ZX.leq(2, 6) and not ZX.leq(5, 2)
    assert INTERVAL.leq(Fraction(1, 2), Fraction(1))
    assert FREE.leq(free("a"), free("a", "b"))


def test_invertibility():
    assert ZX.is_invertible(-1) and not ZX.is_invertible(6)
    assert not INTERVAL.is_invertible(Fraction(1, 2))
    assert INTERVAL.is_invertible(Fraction(1))
    assert FREE.is_invertible(free()) and not FREE.is_invertible(free("a"))
    assert NAT.is_invertible(1) and not NAT.is_invertible(2)


def test_exact_divide_examples():
    assert ZX.exact_divide(6, 66) == 11
    assert ZX.exact_divide(5, 2) is None
    assert FREE.exact_divide(free("a"), free("a", "b")) == free("b")
    with pytest.raises(CapabilityError):
        INTERVAL.exact_divide(Fraction(1, 2), Fraction(1, 4))


def test_irreducible_and_prime_examples():
    assert ZX.is_irreducible(3) and ZX.is_irreducible(-7)
    assert not ZX.is_irreducible(6) and not ZX.is_irreducible(1)
    assert ZX.is_prime(5) and not ZX.is_prime(4)
    assert FREE.is_irreducible(free("a")) and FREE.is_prime(free("b"))
    assert not FREE.is_irreducible(free("a", "b"))
    with pytest.raises(CapabilityError):
        INTERVAL.is_irreducible(Fraction(1, 2))


def test_factor_examples():
    assert ZX.factor_irreducibles(60) == (1, (2, 2, 3, 5))
    assert ZX.factor_irreducibles(-6) == (-1, (2, 3))
    assert ZX.factor_irreducibles(1) == (1, ())
    assert NAT.factor_irreducibles(12) == (1, (2, 2, 3))
    assert FREE.factor_irreducibles(free("a", "a", "b")) == (
        free(), (free("a"), free("a"), free("b"))
    )


def test_associates():
    assert ZX.are_associates(6, -6)
    assert not ZX.are_associates(2, 6)
    assert FREE.are_associates(free("a"), free("a"))
    assert not NAT.are_associates(2, 6)


def test_primality_bound_guard():
    big = PRIMALITY_BOUND + 1
    with pytest.raises(GuardError):
        ZX.is_irreducible(big)
    with pytest.raises(GuardError):
        ZX.factor_irreducibles(big)


def test_validation_rejects_bad_elements():
    with pytest.raises(ValueError):
        ZX.validate(0)
    with pytest.raises(ValueError):
        ZX.validate(2.5)
    with pytest.raises(ValueError):
        NAT.validate(-3)
    with pytest.raises(ValueError):
        INTERVAL.validate(Fraction(3, 2))
    with pytest.raises(ValueError):
        INTERVAL.validate(Fraction(0))
    with pytest.raises(ValueError):
        free("c")


@needs_digit_limit
def test_a_caller_int_too_long_to_print_is_still_refused_by_name():
    big, note = 10**5000, UNPRINTABLE
    for call, error, message in [
            (lambda: NAT.validate(-big), ValueError, f"nat: expected a positive int, got {note}"),
            (lambda: ZX.validate([big]), ValueError, f"zx: expected a nonzero int, got {note}"),
            (lambda: INTERVAL.validate(big), ValueError, f"interval: {note} is outside (0, 1]"),
            (lambda: ZX.is_prime(big), GuardError, f"zx: |{note}| exceeds the trial-division bound 2**31"),
            (lambda: INTERVAL.validate([big]), ValueError, f"interval: expected a rational, got {note}"),
            (lambda: INTERVAL.decode([big]), ValueError, f"interval: expected 'p/q', got {note}"),
            (lambda: FREE.validate([big]), ValueError,
             f"free:a,b: expected an iterable of generator names, got {note}"),
            (lambda: FREE.decode(big), ValueError, f"free:a,b: expected a string, got {note}"),
            (lambda: free_monoid([big]), ValueError, f"bad generator name {note}"),
            (lambda: monoid_by_name(big), ValueError, f"monoid name must be a string, got {note}")]:
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message
    # printable values keep their messages
    with pytest.raises(ValueError, match=re.escape("interval: 3/2 is outside (0, 1]")):
        INTERVAL.validate(Fraction(3, 2))


def test_interval_refuses_bools_and_floats():
    for a in (True, 0.5):
        with pytest.raises(ValueError, match=re.escape(f"interval: expected a rational, got {a!r}")):
            INTERVAL.validate(a)
        with pytest.raises(ValueError, match=re.escape(f"interval: expected 'p/q', got {a!r}")):
            INTERVAL.decode(a)


def test_free_decode_refuses_a_bad_exponent_or_a_non_string():
    for part in ("a^0", "a^x"):
        with pytest.raises(ValueError, match=re.escape(f"free:a,b: bad exponent in {part!r}")):
            FREE.decode(part)
    with pytest.raises(ValueError, match="free:a,b: expected a string, got 5"):
        FREE.decode(5)


def test_a_monoid_without_its_own_decode_decodes_through_validate():
    class Evens(monoids.Monoid):
        name = "evens"

        def validate(self, a):
            if isinstance(a, bool) or not isinstance(a, int) or a % 2:
                raise ValueError(f"evens: expected an even int, got {a!r}")
            return a

    assert Evens().decode(4) == 4
    with pytest.raises(ValueError, match="evens: expected an even int, got 3"):
        Evens().decode(3)
    # the integer monoids keep the default: their wire value is the element
    for monoid in (ZX, NAT):
        assert type(monoid).decode is monoids.Monoid.decode
        assert monoid.decode(6) == 6
        with pytest.raises(ValueError, match=f"{monoid.name}: expected a "):
            monoid.decode("6")


def test_free_monoids_are_shared_per_alphabet():
    assert free_monoid(["b", "a"]) is free_monoid("ab")


@pytest.mark.parametrize("build, alphabet, message", [
    (free_monoid, "", "free monoid needs at least one generator"),
    (free_monoid, "a,1", "bad generator name '1'"),
    # checked before sorting: an int would not iterate, and names of mixed types would not sort
    (free_monoid, ["a", 1], "bad generator name 1"),
    (free_monoid, 5, "free monoid generators are not iterable: 5"),
    (free_monoid, [["a"]], r"bad generator name \['a'\]"),
    (monoids.FreeCommutative, None, "free monoid generators are not iterable: None"),
    (monoids.FreeCommutative, ("a", ("b",)), r"bad generator name \('b',\)"),
])
def test_free_monoid_alphabets_must_be_non_empty_identifiers(build, alphabet, message):
    with pytest.raises(InvalidInputError, match=message):
        build(alphabet)


def test_monoid_repr_names_the_monoid():
    assert repr(ZX) == "Monoid('zx')"
    assert repr(FREE) == "Monoid('free:a,b')"


def test_monoid_registry():
    assert monoid_by_name("zx") is ZX
    assert monoid_by_name("nat") is NAT
    assert monoid_by_name("interval") is INTERVAL
    assert monoid_by_name("free:a,b") == FREE
    assert monoid_by_name("free:ab") == FREE
    with pytest.raises(ValueError):
        monoid_by_name("bogus")


def test_multicharacter_generators():
    words = free_monoid("alpha,beta")
    assert words.generators == ("alpha", "beta")
    e = words.validate(["beta", "alpha", "alpha"])
    assert e == (2, 1)
    assert words.encode(e) == "alpha^2*beta"
    assert words.decode("alpha^2*beta") == e
    assert monoid_by_name("free:alpha,beta") == words


def test_element_wire_formats():
    assert ZX.decode(ZX.encode(-7)) == -7
    assert INTERVAL.encode(Fraction(1)) == "1/1"
    assert INTERVAL.decode("2/4") == Fraction(1, 2)
    assert FREE.encode(free("a", "a", "b")) == "a^2*b"
    assert FREE.decode("a^2*b") == free("a", "a", "b")
    assert FREE.encode(free()) == "1"
    assert FREE.decode("1") == free()
    with pytest.raises(ValueError):
        INTERVAL.decode("3/2")
    with pytest.raises(ValueError):
        ZX.decode("7")


def test_free_decode_bounds_the_element_size():
    assert sum(FREE.decode("a^5000*b^5000")) == FREE_DECODE_BOUND
    for text in ("a^5000*b^5001", "a^3000000", "a*" * FREE_DECODE_BOUND + "b"):
        with pytest.raises(GuardError):
            FREE.decode(text)


def test_interval_decode_bounds_the_decimal_exponent():
    assert INTERVAL.decode("1/2") == INTERVAL.decode("0.5") == Fraction(1, 2)
    assert INTERVAL.decode("1e-3") == Fraction(1, 1000)
    at_bound = INTERVAL.decode(f"1e-{INTERVAL_EXPONENT_BOUND}")
    assert at_bound == Fraction(1, 10**INTERVAL_EXPONENT_BOUND)
    over = INTERVAL_EXPONENT_BOUND + 1
    for text in (f"1e-{over}", f"1E{over}", f"0.5e+{over}", f"1e-{over:_}"):
        with pytest.raises(GuardError):
            INTERVAL.decode(text)
    with pytest.raises(ValueError):
        INTERVAL.decode("1e-x")


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() <= 10_000,
                    reason="str() prints a 10,001-digit int when it has no smaller digit limit")
def test_interval_elements_past_the_printable_digits_are_refused_on_encoding():
    # the exponent bound admits 10^-10000, whose p/q form str() will not print
    at_bound = INTERVAL.decode(f"1e-{INTERVAL_EXPONENT_BOUND}")
    with pytest.raises(GuardError, match="digits to print"):
        INTERVAL.encode(at_bound)
    assert INTERVAL.decode(INTERVAL.encode(INTERVAL.decode("1e-4000"))) == Fraction(1, 10**4000)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="str() has no digit limit before 3.10.7")
@pytest.mark.parametrize("monoid", [ZX, NAT], ids=["zx", "nat"])
def test_integers_past_the_printable_digits_are_refused_on_encoding(monoid):
    limit = sys.get_int_max_str_digits()
    try:
        for digits in (640, 4300):  # the least limit str() accepts, and the default
            sys.set_int_max_str_digits(digits)
            for a in (10**digits - 1, 2**2126 - 1, 7):
                assert monoid.encode(a) == a and len(str(a)) <= digits
            with pytest.raises(GuardError, match=f"over {digits} digits to print"):
                monoid.encode(10**digits)
            if monoid is ZX:
                assert monoid.encode(-(10**digits - 1)) == -(10**digits - 1)  # the sign is no digit
                with pytest.raises(GuardError):
                    monoid.encode(-(10**digits))
        sys.set_int_max_str_digits(0)  # no limit: everything prints
        assert monoid.encode(10**5000) == 10**5000
    finally:
        sys.set_int_max_str_digits(limit)


def test_free_decode_rejects_an_unknown_generator_before_the_size_bound():
    for text in ("z^20000", "a*z^20000", "a^5000*z^5001"):
        with pytest.raises(ValueError, match="unknown generator 'z'"):
            FREE.decode(text)


def test_monoid_name_must_be_a_string():
    for name in (1, None, ["zx"]):
        with pytest.raises(ValueError):
            monoid_by_name(name)


def test_monoid_keyed_caches_stay_bounded_and_rebuilt_alphabets_still_work():
    wire = {"monoid": "free:ab", "domain": ["a"], "codomain": ["a", "b"], "map": [1, 1]}
    before = decode_morphism(wire)
    for i in range(3000):  # alphabets from caller JSON, each new
        m = decode_morphism(dict(wire, monoid=f"free:a,b,g{i}")).monoid
        oracle._unit_constants(m)
    for cache in (monoids._free_cached, oracle._unit_constants):
        info = cache.cache_info()
        assert info.maxsize == monoids.MONOID_CACHE_SIZE
        assert info.currsize <= monoids.MONOID_CACHE_SIZE
    after = decode_morphism(wire)
    assert after.monoid is not before.monoid  # free:ab was evicted and rebuilt
    assert after == before and hash(after) == hash(before)
    assert after.domain == before.domain and after.codomain == before.codomain
    assert compose(identity_morphism(after.codomain), before) == before
    assert compose(after, identity_morphism(before.domain)) == after


# -- algebraic laws, sampled ---------------------------------------------


@given(nonzero_ints, nonzero_ints, nonzero_ints)
def test_zx_monoid_laws(a, b, c):
    assert ZX.op(a, b) == ZX.op(b, a)
    assert ZX.op(ZX.op(a, b), c) == ZX.op(a, ZX.op(b, c))
    assert ZX.op(ZX.identity(), a) == a
    # cancellativity
    if ZX.op(a, b) == ZX.op(a, c):
        assert b == c


@given(nonzero_ints, nonzero_ints, nonzero_ints)
def test_zx_order_laws(a, b, c):
    assert ZX.leq(a, a)
    if ZX.leq(a, b) and ZX.leq(b, c):
        assert ZX.leq(a, c)
    if ZX.leq(a, b):
        assert ZX.leq(ZX.op(a, c), ZX.op(b, c))


@given(nonzero_ints, nonzero_ints)
def test_zx_exact_divide_roundtrip(a, q):
    assert ZX.exact_divide(a, ZX.op(a, q)) == q


@given(unit_fractions, unit_fractions, unit_fractions)
def test_interval_order_laws(a, b, c):
    assert INTERVAL.leq(a, a)
    if INTERVAL.leq(a, b) and INTERVAL.leq(b, c):
        assert INTERVAL.leq(a, c)
    if INTERVAL.leq(a, b):
        assert INTERVAL.leq(INTERVAL.op(a, c), INTERVAL.op(b, c))
    assert INTERVAL.op(a, b) == INTERVAL.op(b, a)


@given(multisets, multisets, multisets)
def test_free_monoid_laws(a, b, c):
    assert FREE.op(a, b) == FREE.op(b, a)
    assert FREE.op(FREE.op(a, b), c) == FREE.op(a, FREE.op(b, c))
    assert FREE.exact_divide(a, FREE.op(a, b)) == b
    if FREE.leq(a, b):
        assert FREE.leq(FREE.op(a, c), FREE.op(b, c))


@given(nonzero_ints)
def test_zx_prime_implies_irreducible(a):
    if ZX.is_prime(a):
        assert ZX.is_irreducible(a)


@given(nonzero_ints)
def test_zx_wire_round_trip(a):
    assert ZX.decode(ZX.encode(a)) == a


@given(unit_fractions)
def test_interval_wire_round_trip(q):
    encoded = INTERVAL.encode(q)
    assert "/" in encoded
    assert INTERVAL.decode(encoded) == q


@given(multisets)
def test_free_wire_round_trip(e):
    assert FREE.decode(FREE.encode(e)) == e


def expand(e):
    """One generator name per copy in e."""
    return [g for g, k in zip(FREE.generators, e) for _ in range(k)]


@given(large_elements, large_elements, large_elements)
def test_free_laws_hold_at_large_degree(a, b, c):
    assert FREE.op(a, b) == FREE.op(b, a)
    assert FREE.op(FREE.op(a, b), c) == FREE.op(a, FREE.op(b, c))
    assert FREE.exact_divide(a, FREE.op(a, b)) == b
    if FREE.leq(a, b):
        assert FREE.leq(FREE.op(a, c), FREE.op(b, c))
    assert FREE.decode(FREE.encode(a)) == a
    # against multisets of names, with a pair that divides and two that may not
    for x, y in ((a, FREE.op(c, a)), (a, b), (b, a)):
        cx, cy = Counter(expand(x)), Counter(expand(y))
        assert FREE.leq(x, y) == (cx <= cy)
        assert FREE.exact_divide(x, y) == (FREE.validate((cy - cx).elements()) if cx <= cy else None)


def test_free_validate_takes_names_or_a_normalized_vector():
    e = free("b", "a", "b")
    assert e == (1, 2) and FREE.validate(e) is e
    assert FREE.validate(["b", "a", "b"]) == FREE.validate(iter("bab")) == e
    for bad in ((1,), (1, 2, 0), (1, -1), (True, 0), (1.0, 0), [1, 2], "ab", 5):
        with pytest.raises(ValueError):
            FREE.validate(bad)


def test_factor_reassembles_exhaustively():
    for a in range(-1000, 1001):
        if a == 0:
            continue
        unit, factors = ZX.factor_irreducibles(a)
        assert unit in (1, -1)
        assert all(ZX.is_irreducible(q) and q > 0 for q in factors)
        assert list(factors) == sorted(factors)
        assert ZX.product((unit, *factors)) == a
        assert (factors == ()) == ZX.is_invertible(a)


def test_only_the_monoids_module_dispatches_on_monoid_types():
    # a new monoid needs edits in monoids.py only: no other module may branch
    # on the concrete class of a monoid
    from factorcat import monoids

    subclasses = {
        name for name, obj in vars(monoids).items()
        if isinstance(obj, type) and issubclass(obj, monoids.Monoid)
    }
    offenders = []
    for path in sorted(Path(monoids.__file__).parent.glob("*.py")):
        if path.name == "monoids.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                continue
            kinds = node.args[1]
            for kind in kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]:
                name = kind.attr if isinstance(kind, ast.Attribute) else getattr(kind, "id", None)
                if name in subclasses:
                    offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []
