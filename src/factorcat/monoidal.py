"""Concatenation tensor product and the symmetric braiding.

The tensor of objects is tuple concatenation, strictly associative with the
empty tuple as a two-sided unit.  On morphisms f: (x)->(w) and g: (y)->(z)
the tensor glues the maps side by side, shifting g's values past the length
of f's domain; the same formula covers empty tuples with the relevant size
set to zero (a shift by zero reuses g's map instead of copying it).

A braiding's map depends only on the two lengths: braidings of at most
BRAID_SHAPE_BOUND entries share one map per shape from a bounded cache
that ``cache_clear`` empties, and longer ones build theirs afresh.
"""

from __future__ import annotations

from functools import lru_cache

from .category import (
    FactorTuple,
    Morphism,
    _trusted_morphism,
    _trusted_tuple,
    compose,
    identity_morphism,
    require_same_monoid,
)

BRAID_SHAPE_BOUND = 2**4  # most entries in all of a braiding whose map is shared


def tensor_objects(s: FactorTuple, t: FactorTuple) -> FactorTuple:
    require_same_monoid(s, t, "tensor")
    return _trusted_tuple(s.monoid, s.entries + t.entries)


def tensor_morphisms(f: Morphism, g: Morphism) -> Morphism:
    fdom, fcod, gdom, gcod = f.domain, f.codomain, g.domain, g.codomain
    require_same_monoid(fdom, gdom, "tensor")
    monoid = fdom.monoid
    n = len(fdom.entries)
    return _trusted_morphism(
        _trusted_tuple(monoid, fdom.entries + gdom.entries),
        _trusted_tuple(monoid, fcod.entries + gcod.entries),
        f.values + (tuple(map(n.__add__, g.values)) if n else g.values),
    )


@lru_cache(maxsize=(BRAID_SHAPE_BOUND + 1) * (BRAID_SHAPE_BOUND + 2) // 2)  # every shape
def _swap_map(n: int, m: int) -> tuple[int, ...]:
    return tuple(range(n + 1, n + m + 1)) + tuple(range(1, n + 1))


def braiding(s: FactorTuple, t: FactorTuple) -> Morphism:
    """The swap isomorphism s (x) t -> t (x) s.

    Its map sends the first len(t) codomain positions past len(s)
    and the remaining ones to the front; swapping twice gives the identity.
    """
    require_same_monoid(s, t, "braiding")
    xs, ys = s.entries, t.entries
    n, m = len(xs), len(ys)
    swap = _swap_map if n + m <= BRAID_SHAPE_BOUND else _swap_map.__wrapped__
    return _trusted_morphism(
        _trusted_tuple(s.monoid, xs + ys), _trusted_tuple(s.monoid, ys + xs), swap(n, m)
    )


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
