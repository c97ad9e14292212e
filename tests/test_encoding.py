"""Wire-format round trips for tuples and morphisms."""

import json
from fractions import Fraction

import pytest

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


@pytest.mark.parametrize("monoid", MONOIDS, ids=lambda m: m.name)
def test_decoding_validates_each_entry_once(monoid, monkeypatch):
    values = WIRE_ENTRIES[monoid.name]
    obj = {"monoid": monoid.name, "domain": values, "codomain": values,
           "map": list(range(1, len(values) + 1))}  # the identity
    cls = type(monoid)
    calls = []
    validate = cls.validate
    monkeypatch.setattr(cls, "validate", lambda self, a: calls.append(a) or validate(self, a))
    m = decode_morphism(obj)
    assert len(calls) == len(m.domain) + len(m.codomain) == 2 * len(values)


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


# (morphism object, exception, exit code of `factorcat decompose`)
MALFORMED = {
    "bool-entry": (_obj(codomain=[True]), ValueError, 2),
    "float-entry": (_obj(domain=[2.0]), ValueError, 2),
    "zero-entry": (_obj(codomain=[0]), ValueError, 2),
    "nat-negative-entry": (_obj(monoid="nat", domain=[-2]), ValueError, 2),
    "free-unknown-generator": (_obj(monoid="free:a,b", domain=["c"], codomain=["a"]), ValueError, 2),
    "interval-huge-exponent": (
        _obj(monoid="interval", domain=["1e-99999"], codomain=["1/2"]), GuardError, 3),
    "entries-not-a-list": (_obj(domain=2), ValueError, 2),
    "map-not-a-list": (_obj(map=1), ValueError, 2),
    "map-an-object": (_obj(map={"1": 1}), ValueError, 2),
    "map-bool": (_obj(map=[True]), ValueError, 2),
    "map-string": (_obj(map=["1"]), ValueError, 2),
    "map-float": (_obj(map=[1.0]), ValueError, 2),
    "map-out-of-range": (_obj(map=[2]), ValueError, 2),
    "map-zero": (_obj(map=[0]), ValueError, 2),
    "map-too-long": (_obj(map=[1, 1]), ValueError, 2),
    "map-too-short": (_obj(map=[]), ValueError, 2),
    "map-string-and-too-long": (_obj(map=["1", 1]), ValueError, 2),
    "order-constraint": (_obj(domain=[4]), InvalidMorphismError, 2),
}


@pytest.mark.parametrize("obj, error, code", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_morphisms_are_still_refused(obj, error, code, capsys):
    from factorcat.cli import main

    with pytest.raises(error):
        decode_morphism(obj)
    assert main(["decompose", json.dumps(obj)]) == code
    assert capsys.readouterr().err.startswith("error: ")
