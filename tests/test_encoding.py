"""Wire-format round trips for tuples and morphisms."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from factorcat import (
    FactorTuple,
    GuardError,
    INTERVAL,
    InvalidMorphismError,
    Morphism,
    NAT,
    ZX,
    decode_morphism,
    decode_tuple,
    encode_morphism,
    encode_tuple,
    free_monoid,
)
from factorcat.monoids import monoid_by_name

from builders import UNPRINTABLE, needs_digit_limit

FREE = free_monoid("ab")


def test_tuple_round_trip_integers():
    t = FactorTuple(ZX, (6, -35))
    assert encode_tuple(t) == [6, -35]
    assert decode_tuple(ZX, [6, -35]) == t


def test_empty_tuple_is_empty_array():
    t = decode_tuple(ZX, [])
    assert len(t) == 0
    assert encode_tuple(t) == []


def test_tuple_round_trip_rationals():
    t = FactorTuple(INTERVAL, (Fraction(1, 2), Fraction(1)))
    assert encode_tuple(t) == ["1/2", "1/1"]
    assert decode_tuple(INTERVAL, ["1/2", "1/1"]) == t


def test_tuple_round_trip_free():
    t = FactorTuple(FREE, (("a", "a", "b"), ()))
    assert encode_tuple(t) == ["a^2*b", "1"]
    assert decode_tuple(FREE, ["a^2*b", "1"]) == t


def test_morphism_round_trip():
    m = Morphism(FactorTuple(ZX, (6, 35)), FactorTuple(ZX, (2, 3, 5, 7)), [1, 1, 2, 2])
    obj = encode_morphism(m)
    assert obj == {
        "monoid": "zx",
        "domain": [6, 35],
        "codomain": [2, 3, 5, 7],
        "map": [1, 1, 2, 2],
    }
    assert decode_morphism(obj) == m


def test_morphism_key_order_is_stable():
    m = Morphism(FactorTuple(ZX, (2,)), FactorTuple(ZX, (6,)), [1])
    assert list(encode_morphism(m)) == ["monoid", "domain", "codomain", "map"]


def test_decode_rejects_missing_keys():
    with pytest.raises(ValueError):
        decode_morphism({"monoid": "zx", "domain": [2], "map": [1]})


def test_decode_rejects_monoid_mismatch():
    obj = {"monoid": "zx", "domain": [2], "codomain": [6], "map": [1]}
    from factorcat import NAT

    with pytest.raises(ValueError):
        decode_morphism(obj, NAT)


def test_decode_rejects_bad_map():
    obj = {"monoid": "zx", "domain": [2], "codomain": [6], "map": ["1"]}
    with pytest.raises(ValueError):
        decode_morphism(obj)


def test_decode_validates_order_constraint():
    obj = {"monoid": "zx", "domain": [6, 2, 1], "codomain": [6], "map": [1]}
    with pytest.raises(InvalidMorphismError):
        decode_morphism(obj)


def test_decode_free_morphism():
    obj = {
        "monoid": "free:a,b",
        "domain": ["a"],
        "codomain": ["a", "b"],
        "map": [1, 1],
    }
    m = decode_morphism(obj)
    assert m.monoid == FREE
    assert encode_morphism(m) == obj


MONOIDS = [ZX, NAT, INTERVAL, FREE]
WIRE_ENTRIES = {
    "zx": [6, -35, 1, -1],
    "nat": [6, 35, 1, 4],
    "interval": ["1/2", "2/4", 1, "3/7"],
    "free:a,b": ["a^2*b", "b", "b*a", "a"],
}


def _count_calls(monkeypatch, cls, name) -> list:
    """The arguments of every call of cls.name from now on, in order."""
    calls, method = [], getattr(cls, name)
    monkeypatch.setattr(cls, name, lambda self, a: calls.append(a) or method(self, a))
    return calls


@pytest.mark.parametrize("monoid", MONOIDS, ids=lambda m: m.name)
def test_decoding_validates_each_entry_once(monoid, monkeypatch):
    # no entry is checked twice: over zx and nat one decode_all call checks a
    # whole tuple of valid ints and calls no validate; elsewhere each entry
    # reaches validate exactly once
    values = WIRE_ENTRIES[monoid.name]
    obj = {"monoid": monoid.name, "domain": values, "codomain": values,
           "map": list(range(1, len(values) + 1))}  # the identity
    validated = _count_calls(monkeypatch, type(monoid), "validate")
    tuples = _count_calls(monkeypatch, type(monoid), "decode_all")
    m = decode_morphism(obj)
    assert tuples == [values, values]
    if monoid in (ZX, NAT):
        assert validated == []
    else:
        assert len(validated) == len(m.domain) + len(m.codomain) == 2 * len(values)


@pytest.mark.parametrize("monoid, bad", [(ZX, 0), (ZX, True), (NAT, -1), (NAT, 2.0)],
                         ids=["zx-zero", "zx-bool", "nat-negative", "nat-float"])
def test_a_refused_bulk_check_validates_each_entry_at_most_once(monoid, bad, monkeypatch):
    values = WIRE_ENTRIES[monoid.name] + [bad]
    validated = _count_calls(monkeypatch, type(monoid), "validate")
    with pytest.raises(ValueError):
        decode_tuple(monoid, values)
    assert validated == values  # value by value up to the bad one, each once


@pytest.mark.parametrize("monoid", MONOIDS, ids=lambda m: m.name)
def test_decoded_tuple_equals_the_validated_one(monoid):
    values = WIRE_ENTRIES[monoid.name] + [monoid.encode(monoid.identity())]
    t = decode_tuple(monoid, values)
    assert t == FactorTuple(monoid, tuple(monoid.decode(v) for v in values))
    assert type(t.entries) is tuple
    assert [monoid.encode(e) for e in t.entries] == [monoid.encode(monoid.validate(e)) for e in t]


def _obj(**fields):
    obj = {"monoid": "zx", "domain": [2], "codomain": [6], "map": [1]}
    obj.update(fields)
    return obj


IMO = InvalidMorphismError
ORDER = "order constraint fails at domain index"

# (morphism object, exception, its message, exit code of `factorcat decompose`);
# a fault after valid entries must be named as the value-by-value checks name it
MALFORMED = {
    "bool-entry": (_obj(codomain=[True]), ValueError, "zx: expected a nonzero int, got True", 2),
    "float-entry": (_obj(domain=[2.0]), ValueError, "zx: expected a nonzero int, got 2.0", 2),
    "zero-entry": (_obj(codomain=[0]), ValueError, "zx: 0 is not an element", 2),
    "nat-negative-entry": (
        _obj(monoid="nat", domain=[-2]), ValueError, "nat: expected a positive int, got -2", 2),
    "free-unknown-generator": (_obj(monoid="free:a,b", domain=["c"], codomain=["a"]),
                               ValueError, "free:a,b: unknown generator 'c'", 2),
    "interval-huge-exponent": (_obj(monoid="interval", domain=["1e-99999"], codomain=["1/2"]),
                               GuardError, "interval: exponent of '1e-99999' exceeds 10000", 3),
    "entries-not-a-list": (_obj(domain=2), ValueError, "expected a JSON array of elements, got 2", 2),
    "map-not-a-list": (_obj(map=1), ValueError, "morphism map must be a JSON array of 1-based integers", 2),
    "map-an-object": (
        _obj(map={"1": 1}), ValueError, "morphism map must be a JSON array of 1-based integers", 2),
    "map-bool": (_obj(map=[True]), IMO, "value True outside the 1-based range [1]", 2),
    "map-string": (_obj(map=["1"]), IMO, "value '1' outside the 1-based range [1]", 2),
    "map-float": (_obj(map=[1.0]), IMO, "value 1.0 outside the 1-based range [1]", 2),
    "map-out-of-range": (_obj(map=[2]), IMO, "value 2 outside the 1-based range [1]", 2),
    "map-zero": (_obj(map=[0]), IMO, "value 0 outside the 1-based range [1]", 2),
    "map-too-long": (_obj(map=[1, 1]), IMO, "expected 1 values, got 2", 2),
    "map-too-short": (_obj(map=[]), IMO, "expected 1 values, got 0", 2),
    "map-string-and-too-long": (_obj(map=["1", 1]), IMO, "expected 1 values, got 2", 2),
    "order-constraint": (
        _obj(domain=[4]), IMO, f"{ORDER} 1: 4 is not below the fiber product 6", 2),
    "bool-last-codomain-entry": (_obj(codomain=[2, 3, True], map=[1, 1, 1]),
                                 ValueError, "zx: expected a nonzero int, got True", 2),
    "zero-third-domain-entry": (_obj(domain=[2, 3, 0], codomain=[2, 3], map=[1, 2]),
                                ValueError, "zx: 0 is not an element", 2),
    "nat-zero-entry": (_obj(monoid="nat", codomain=[6, 0], map=[1, 1]),
                       ValueError, "nat: expected a positive int, got 0", 2),
    "map-past-the-domain-after-valid-values": (
        _obj(domain=[2, 3], codomain=[2, 3, 5], map=[1, 2, 3]),
        IMO, "value 3 outside the 1-based range [2]", 2),
    "map-negative": (_obj(map=[-1]), IMO, "value -1 outside the 1-based range [1]", 2),
    "map-bool-after-ints": (_obj(domain=[2, 3], codomain=[2, 3, 5], map=[1, 2, True]),
                            IMO, "value True outside the 1-based range [2]", 2),
    "order-constraint-at-index-2": (_obj(domain=[2, 4, 3], codomain=[2, 6, 9], map=[1, 2, 3]),
                                    IMO, f"{ORDER} 2: 4 is not below the fiber product 6", 2),
}


@pytest.mark.parametrize("obj, error, message, code", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_morphisms_are_still_refused(obj, error, message, code, capsys):
    from factorcat.cli import main

    with pytest.raises(error) as info:
        decode_morphism(obj)
    assert str(info.value) == message
    assert main(["decompose", json.dumps(obj)]) == code
    assert capsys.readouterr().err == f"error: {message}\n"


def reference_decode(obj) -> Morphism:
    """decode_morphism on an object with all four keys, checking each entry
    and each map value on its own, in the order the library checks them."""
    monoid = monoid_by_name(obj["monoid"])
    domain, codomain = (decode_tuple_by_entry(monoid, obj[key]) for key in ("domain", "codomain"))
    values, n, m = obj["map"], len(domain.entries), len(codomain.entries)
    if not isinstance(values, list):
        raise ValueError("morphism map must be a JSON array of 1-based integers")
    if m > 0 and n == 0:
        raise IMO("no function from a non-empty index set to the empty one")
    if len(values) != m:
        raise IMO(f"expected {m} values, got {len(values)}")
    for v in values:
        if type(v) is bool or not isinstance(v, int) or not 1 <= v <= n:
            raise IMO(f"value {shown(v)} outside the 1-based range [{n}]")
    for i, x in enumerate(domain.entries, start=1):
        fiber = monoid.product(y for y, v in zip(codomain.entries, values) if v == i)
        if not monoid.leq(x, fiber):
            raise IMO(f"{ORDER} {i}: {shown(x, monoid)} is not below the fiber product "
                      f"{shown(fiber, monoid)}")
    return Morphism(domain, codomain, tuple(values))


def decode_tuple_by_entry(monoid, values) -> FactorTuple:
    if not isinstance(values, list):
        raise ValueError(f"expected a JSON array of elements, got {shown(values)}")
    return FactorTuple(monoid, tuple([monoid.decode(v) for v in values]))


def shown(value, monoid=None) -> str:
    """repr(value), or monoid's encoding of the element value, or why an int
    has more digits than str() prints."""
    try:
        return repr(value) if monoid is None else str(monoid.encode(value))
    except GuardError as exc:
        return f"({exc})"
    except ValueError:
        return UNPRINTABLE


JUNK = st.one_of(st.integers(-40, 40), st.booleans(), st.none(), st.text(max_size=2),
                 st.floats(-3, 3), st.lists(st.integers(1, 3), max_size=2),
                 st.sampled_from([10**5000, -10**5000, "zx", "nat", "free:a"]))


@st.composite
def wire_morphisms(draw):
    """A valid zx or nat wire morphism, then at most one field corrupted: one
    entry replaced, dropped or added, or the whole field replaced."""
    monoid = draw(st.sampled_from([ZX, NAT]))
    low = -30 if monoid is ZX else 1
    codomain = draw(st.lists(st.integers(low, 30).filter(bool), max_size=5))
    n = draw(st.integers(1 if codomain else 0, 4))
    values = [draw(st.integers(1, n)) for _ in codomain]
    domain = []  # each entry a product of some of its fiber, so the morphism is valid
    for i in range(1, n + 1):
        fiber = [y for y, v in zip(codomain, values) if v == i]
        domain.append(monoid.product(y for y in fiber if draw(st.booleans())))
    obj = {"monoid": monoid.name, "domain": domain, "codomain": codomain, "map": values}
    key = draw(st.sampled_from([None, "monoid", "domain", "codomain", "map"]))
    if key is None:
        return obj
    field, how = obj[key], draw(st.sampled_from(["replace", "drop", "add", "whole"]))
    if how == "whole" or not isinstance(field, list) or (how != "add" and not field):
        obj[key] = draw(JUNK)
    elif how == "add":
        field.insert(draw(st.integers(0, len(field))), draw(JUNK))
    else:
        i = draw(st.integers(0, len(field) - 1))
        field[i:i + 1] = [draw(JUNK)] if how == "replace" else []
    return obj


@settings(max_examples=400, deadline=None)
@given(wire_morphisms())
def test_decoding_agrees_with_checking_each_value_on_its_own(obj):
    try:
        expected = reference_decode(obj)
    except Exception as exc:
        with pytest.raises(type(exc)) as info:
            decode_morphism(obj)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
    else:
        m = decode_morphism(obj)
        assert m == expected and type(m.values) is tuple
        assert [type(e) for e in m.domain.entries + m.codomain.entries] == [
            type(e) for e in expected.domain.entries + expected.codomain.entries]


BIG = 10**5000  # past str()'s default limit of 4,300 digits


@needs_digit_limit
def test_a_tuple_too_long_to_print_is_still_refused_by_name():
    with pytest.raises(ValueError) as info:
        decode_tuple(ZX, BIG)
    assert str(info.value) == f"expected a JSON array of elements, got {UNPRINTABLE}"


@needs_digit_limit
def test_a_map_value_too_long_to_print_is_still_refused_by_name():
    with pytest.raises(InvalidMorphismError) as info:
        decode_morphism(_obj(map=[-BIG]))
    assert str(info.value) == f"value {UNPRINTABLE} outside the 1-based range [1]"
