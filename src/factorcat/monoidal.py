"""Concatenation tensor product and the symmetric braiding.

The tensor of objects is tuple concatenation, strictly associative with the
empty tuple as a two-sided unit.  On morphisms f: (x)->(w) and g: (y)->(z)
the tensor glues the maps side by side, shifting g's values past the length
of f's domain.  A morphism with an empty domain is id_(), as no map sends a
non-empty [M] into [0], so f (x) id_() and id_() (x) f return f: a verify
tensors many morphisms with a unit operand, while object tensors and
braidings rarely meet the unit and keep one path.
"""

from __future__ import annotations

from .category import (
    BRAID_SHAPE_BOUND,
    FactorTuple,
    Morphism,
    _SWAPS,
    _swap_map,
    _trusted_arrow,
    _trusted_tuple,
    require_same_monoid,
)


def tensor_objects(s: FactorTuple, t: FactorTuple) -> FactorTuple:
    if s.monoid is not t.monoid:
        require_same_monoid(s, t, "tensor")
    return _trusted_tuple(s.monoid, s.entries + t.entries)


def tensor_morphisms(f: Morphism, g: Morphism) -> Morphism:
    fdom, gdom = f.domain, g.domain
    monoid = fdom.monoid
    if monoid is not gdom.monoid:
        require_same_monoid(fdom, gdom, "tensor")
    if not gdom.entries:
        return f
    if not fdom.entries:
        return g
    n = len(fdom.entries)
    xs, ys = fdom.entries + gdom.entries, f.codomain.entries + g.codomain.entries
    return _trusted_arrow(monoid, xs, ys, f.values + tuple(map(n.__add__, g.values)))


def braiding(s: FactorTuple, t: FactorTuple) -> Morphism:
    """The swap isomorphism s (x) t -> t (x) s.

    Its map sends the first len(t) codomain positions past len(s)
    and the remaining ones to the front; swapping twice gives the identity.
    """
    if s.monoid is not t.monoid:
        require_same_monoid(s, t, "braiding")
    xs, ys = s.entries, t.entries
    n, m = len(xs), len(ys)
    values = _SWAPS[n][m] if n + m <= BRAID_SHAPE_BOUND else _swap_map(n, m)
    return _trusted_arrow(s.monoid, xs + ys, ys + xs, values)

