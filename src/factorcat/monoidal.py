"""Concatenation tensor product and the symmetric braiding.

The tensor of objects is tuple concatenation, strictly associative with the
empty tuple as a two-sided unit.  On morphisms f: (x)->(w) and g: (y)->(z)
the tensor glues the maps side by side, shifting g's values past the length
of f's domain; the same formula covers empty tuples with the relevant size
set to zero (a shift by zero, or of an empty map, reuses g's map instead
of copying it).
"""

from __future__ import annotations

from .category import (
    BRAID_SHAPE_BOUND,
    FactorTuple,
    Morphism,
    _swap_map,
    _trusted_arrow,
    _trusted_tuple,
    compose,
    identity_morphism,
    require_same_monoid,
)


def tensor_objects(s: FactorTuple, t: FactorTuple) -> FactorTuple:
    if s.monoid is not t.monoid:
        require_same_monoid(s, t, "tensor")
    return _trusted_tuple(s.monoid, s.entries + t.entries)


def tensor_morphisms(f: Morphism, g: Morphism) -> Morphism:
    fdom, gdom, gv = f.domain, g.domain, g.values
    monoid = fdom.monoid
    if monoid is not gdom.monoid:
        require_same_monoid(fdom, gdom, "tensor")
    n = len(fdom.entries)
    xs, ys = fdom.entries + gdom.entries, f.codomain.entries + g.codomain.entries
    return _trusted_arrow(monoid, xs, ys, f.values + (tuple(map(n.__add__, gv)) if n and gv else gv))


def braiding(s: FactorTuple, t: FactorTuple) -> Morphism:
    """The swap isomorphism s (x) t -> t (x) s.

    Its map sends the first len(t) codomain positions past len(s)
    and the remaining ones to the front; swapping twice gives the identity.
    """
    if s.monoid is not t.monoid:
        require_same_monoid(s, t, "braiding")
    xs, ys = s.entries, t.entries
    n, m = len(xs), len(ys)
    swap = _swap_map if n + m <= BRAID_SHAPE_BOUND else _swap_map.__wrapped__
    return _trusted_arrow(s.monoid, xs + ys, ys + xs, swap(n, m))


# Single-instance law predicates; the verification suites quantify these
# over bounded universes and report counterexamples.

def braiding_involution_holds(s: FactorTuple, t: FactorTuple) -> bool:
    return compose(braiding(t, s), braiding(s, t)) == identity_morphism(tensor_objects(s, t))


def hexagon_holds(x: FactorTuple, y: FactorTuple, z: FactorTuple) -> bool:
    lhs = braiding(x, tensor_objects(y, z))
    rhs = compose(
        tensor_morphisms(identity_morphism(y), braiding(x, z)),
        tensor_morphisms(braiding(x, y), identity_morphism(z)),
    )
    return lhs == rhs


def tensor_respects_composition(h: Morphism, k: Morphism, f: Morphism, g: Morphism) -> bool:
    """(h (x) k) o (f (x) g) == (h o f) (x) (k o g) for composable h o f, k o g."""
    lhs = compose(tensor_morphisms(h, k), tensor_morphisms(f, g))
    rhs = tensor_morphisms(compose(h, f), compose(k, g))
    return lhs == rhs


def braiding_is_natural(f: Morphism, g: Morphism) -> bool:
    lhs = compose(braiding(f.codomain, g.codomain), tensor_morphisms(f, g))
    rhs = compose(tensor_morphisms(g, f), braiding(f.domain, g.domain))
    return lhs == rhs
