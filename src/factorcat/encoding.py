"""JSON wire formats for elements, tuples, and morphisms.

Tuples are JSON arrays of element encodings (integers as numbers, rationals
as "p/q" strings in lowest terms, free-monoid elements as sorted "a^2*b"
strings) and the empty tuple is [].  A morphism is an object with keys
monoid, domain, codomain, and a 1-based map.

Decoding checks each element and each map once.  ``Monoid.decode_all``
parses and validates a whole array, so ``decode_tuple`` builds its tuple
without checking the entries again.  ``decode_morphism`` tests that the map
is an array, then runs ``Morphism(...)``'s check (the map's length and
values, then the order constraint) and builds the morphism unchecked.
"""

from __future__ import annotations

from .category import FactorTuple, Morphism, _checked_morphism, _trusted_morphism, _trusted_tuple
from .monoids import Monoid, _shown, monoid_by_name


def encode_tuple(t: FactorTuple) -> list:
    return [t.monoid.encode(e) for e in t.entries]


def decode_tuple(monoid: Monoid, values) -> FactorTuple:
    if not isinstance(values, list):
        raise ValueError(f"expected a JSON array of elements, got {_shown(values)}")
    return _trusted_tuple(monoid, monoid.decode_all(values))


def encode_morphism(m: Morphism) -> dict:
    return {
        "monoid": m.monoid.name,
        "domain": encode_tuple(m.domain),
        "codomain": encode_tuple(m.codomain),
        "map": list(m.values),
    }


def decode_morphism(obj, monoid: Monoid | None = None) -> Morphism:
    """Parse and validate a morphism object; raises ValueError on malformed
    input and InvalidMorphismError when the map breaks the order constraint."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a morphism object, got {_shown(obj)}")
    for key in ("monoid", "domain", "codomain", "map"):
        if key not in obj:
            raise ValueError(f"morphism object is missing the {key!r} key")
    named = monoid_by_name(obj["monoid"])
    if monoid is not None and named != monoid:
        raise ValueError(
            f"morphism is over {named.name!r} but {monoid.name!r} was requested"
        )
    domain = decode_tuple(named, obj["domain"])
    codomain = decode_tuple(named, obj["codomain"])
    if not isinstance(obj["map"], list):
        raise ValueError("morphism map must be a JSON array of 1-based integers")
    return _trusted_morphism(domain, codomain, _checked_morphism(domain, codomain, obj["map"]))
