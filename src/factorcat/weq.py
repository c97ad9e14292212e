"""Quotient witnesses, weak equivalences, and the canonical decomposition.

Over a divisibility monoid every morphism (x_n) -> (y_m) determines unique
elements r_n with r_n * x_n equal to the n-th fiber product, and a total
witness r = prod r_n with r * prod x = prod y; cancellativity makes both
unique.  A morphism is a weak equivalence when its codomain is the empty
tuple or every r_n is invertible (equivalently, r is invertible).

Every morphism between non-empty tuples factors as drop-units, then a
divisibility step, then a refactoring step; the middle step is an
isomorphism exactly for the weak equivalences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import InvalidMorphismError
from .monoids import Element
from .category import (
    Morphism,
    _from_element,
    _trusted_morphism,
    _trusted_tuple,
    compose,
    fiber_products,
    require_same_monoid,
)

WEAK_EQUIVALENCE = "weak_equivalence"
PROPER = "proper"


@dataclass(frozen=True)
class QuotientWitness:
    """The per-index elements r_n and their product r.

    For a morphism into the empty tuple the per-index part is empty and the
    total is the inverse of the domain product, which is invertible because
    the morphism exists.
    """

    per_index: tuple
    total: Element


def _ratios(m: Morphism) -> Iterator[Element]:
    """The r_n of m, lazily, in domain order; the caller checks the capability."""
    return map(m.domain.monoid.exact_divide, m.domain.entries, fiber_products(m))


def _witnesses(m: Morphism) -> tuple[tuple, Element]:
    """The fields of quotient_witnesses(m), without building the object."""
    monoid = m.domain.monoid
    if not monoid.is_divisibility:
        monoid.require_divisibility("quotient_witnesses")
    if not m.codomain.entries:
        return (), monoid.exact_divide(m.domain.product(), monoid.identity())
    per = tuple(_ratios(m))
    return per, monoid.product(per)


def quotient_witnesses(m: Morphism) -> QuotientWitness:
    return QuotientWitness(*_witnesses(m))


def total_witness(m: Morphism) -> Element:
    """The unique r with r * prod(domain) == prod(codomain).  It stays the
    product of the per-index ratios, not prod(codomain) / prod(domain): that
    division is about 4x faster on tuples of up to 3 entries (270 ns against
    1,140 ns on Python 3.11), but it multiplies and divides whole-tuple
    products, so it was 1.5x slower at 200 entries of 20 bits, 4x at 200 of
    61 bits and 8.9x at 2,000 of 600 bits, and no benchmark workload has
    long tuples to weigh that against."""
    return _witnesses(m)[1]


def is_weak_equivalence(m: Morphism) -> bool:
    """Decided from the ratios, up to the first non-invertible r_n.  Into (),
    every x_n is a unit, so every r_n is one too."""
    monoid = m.domain.monoid
    if not monoid.is_divisibility:
        monoid.require_divisibility("is_weak_equivalence")
    return all(map(monoid.is_invertible, _ratios(m)))


@dataclass(frozen=True)
class EIPDecomposition:
    """Drop-units / divisibility / refactor decomposition of a morphism.

    ``epsilon`` drops the domain entries outside the image (all invertible)
    keeping the rest in order, ``delta`` multiplies coordinate p by the
    ratio a_p, and ``phi`` refactors onto the original codomain.  The
    composite phi o delta o epsilon equals the decomposed morphism, and
    the total witness equals dropped_unit * prod(ratios).
    """

    epsilon: Morphism
    delta: Morphism
    phi: Morphism
    ratios: tuple
    dropped_unit: Element

    def composed(self) -> Morphism:
        return compose(self.phi, compose(self.delta, self.epsilon))


def decompose_eip(m: Morphism) -> EIPDecomposition:
    m.monoid.require_divisibility("decompose_eip")
    if len(m.domain) == 0 or len(m.codomain) == 0:
        raise ValueError("the decomposition needs non-empty domain and codomain")
    monoid = m.monoid
    per_index = tuple(_ratios(m))
    values = m.values
    image = sorted(set(values))  # n_1 < ... < n_P
    p_count = len(image)
    xs = m.domain.entries
    # each step is a morphism by construction: the dropped entries are units
    # (their fibers are empty), r_n * x_n is the fiber product of n, and each
    # kept entry divides its scaled one
    kept = _trusted_tuple(monoid, tuple(xs[n - 1] for n in image))
    epsilon = _trusted_morphism(m.domain, kept, tuple(image))
    position = {n: p for p, n in enumerate(image, start=1)}
    ratios = tuple(per_index[n - 1] for n in image)
    scaled = _trusted_tuple(
        monoid, tuple(monoid.op(ratios[p], kept.entries[p]) for p in range(p_count))
    )
    delta = _trusted_morphism(kept, scaled, tuple(range(1, p_count + 1)))
    phi = _trusted_morphism(scaled, m.codomain, tuple(position[v] for v in values))
    dropped = monoid.product(x for n, x in enumerate(xs, 1) if n not in position)
    return EIPDecomposition(epsilon, delta, phi, ratios, dropped)


def classify_by_delta(m: Morphism) -> str:
    """'weak_equivalence' when every ratio of the middle divisibility step is
    invertible (i.e. the step is an isomorphism), else 'proper'.  Always
    agrees with is_weak_equivalence."""
    d = decompose_eip(m)
    monoid = m.monoid
    if all(monoid.is_invertible(a) for a in d.ratios):
        return WEAK_EQUIVALENCE
    return PROPER


def ore_square(f: Morphism, g: Morphism) -> tuple[Morphism, Morphism]:
    """Complete the cospan f: (x_n)->(y_m) in W, g: (z_p)->(y_m) to a
    commuting square over the 1-tuple (prod z).

    Returns (f', g') with f': (prod z) -> (z_p) a factorization morphism in
    W and g': (prod z) -> (x_n), so that f o g' == g o f'.
    """
    require_same_monoid(f, g, "ore_square")
    if not is_weak_equivalence(f):
        raise ValueError("the first morphism must be a weak equivalence")
    if f.codomain != g.codomain:
        raise InvalidMorphismError("the cospan legs must share a codomain")
    # prod z divides prod y, an associate of prod x since f is in W; both
    # composites are morphisms out of a 1-tuple into (y_m), so they are equal
    apex = g.domain.product()
    return _from_element(apex, g.domain), _from_element(apex, f.domain)


def right_cancel_witness(f: Morphism, f2: Morphism, g: Morphism) -> Morphism:
    """Given parallel f, f2 and a weak equivalence g with g o f == g o f2,
    return the factorization morphism h: (prod x) -> (x_n), which is in W
    and satisfies f o h == f2 o h."""
    if f.domain != f2.domain or f.codomain != f2.codomain:
        raise InvalidMorphismError("the first two morphisms must be parallel")
    if not is_weak_equivalence(g):
        raise ValueError("the cancelling morphism must be a weak equivalence")
    if compose(g, f) != compose(g, f2):
        raise ValueError("the composites with the weak equivalence differ")
    # f o h and f2 o h are parallel morphisms out of a 1-tuple, so they are equal
    return _from_element(f.domain.product(), f.domain)
