"""Weak divisibility, weak irreducibility/primality, and atomic chains.

A morphism f weakly divides g when the total witness of f divides the total
witness of g; this single division is decidable, and the tensored square
exhibiting the relation is produced separately as a checkable witness.
Classification of a morphism as weakly irreducible or weakly prime reduces
to irreducibility or primality of its total witness, and counting
irreducible factors of witnesses yields the additive length functions used
by the factorization-property probes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError, InvalidMorphismError, require_int
from .monoids import Element, Monoid
from .category import (
    FactorTuple,
    Morphism,
    _from_element,
    _trusted_morphism,
    _trusted_tuple,
    compose,
    identity_morphism,
    require_same_monoid,
)
from .monoidal import tensor_objects, tensor_morphisms
from .weq import WEAK_EQUIVALENCE, decompose_eip, is_weak_equivalence, total_witness

WIRR_TAG = "weakly_irreducible"


def weakly_divides(f: Morphism, g: Morphism) -> bool:
    """Whether f weakly divides g: with s, r the total witnesses of f and g,
    decide s | r."""
    monoid = f.domain.monoid
    if monoid is not g.domain.monoid:
        require_same_monoid(f, g, "weak divisibility")
    return monoid.leq(total_witness(f), total_witness(g))


@dataclass(frozen=True)
class WeakDivDiagram:
    """The tensored square exhibiting f weakly dividing g.

    With a = prod(dom f) and b = prod(dom g), mu and eta are factorization
    morphisms in W out of the 1-tuples (a * prod dom g) and
    (b * prod cod f); alpha and beta are the other horizontals, and
    left/right are the tensored verticals (a) (x) g and (b) (x) f.
    """

    a: Element
    b: Element
    mu: Morphism
    alpha: Morphism
    beta: Morphism
    eta: Morphism
    left: Morphism
    right: Morphism


def weak_div_diagram(f: Morphism, g: Morphism) -> WeakDivDiagram:
    if not weakly_divides(f, g):
        raise InvalidInputError("no diagram: f does not weakly divide g")
    monoid = f.monoid
    a = f.domain.product()
    b = g.domain.product()
    a_t = _trusted_tuple(monoid, (a,))
    b_t = _trusted_tuple(monoid, (b,))
    # mu, alpha and eta map their element onto a tuple with that product, so
    # mu and eta have witness 1 and are in W; beta needs b * prod cod f to
    # divide a * prod cod g, that is s * a * b | r * a * b, which is s | r
    top = monoid.op(a, b)
    bottom = monoid.op(b, f.codomain.product())
    mu = _from_element(top, tensor_objects(a_t, g.domain))
    alpha = _from_element(top, tensor_objects(b_t, f.domain))
    beta = _from_element(bottom, tensor_objects(a_t, g.codomain))
    eta = _from_element(bottom, tensor_objects(b_t, f.codomain))
    left = tensor_morphisms(identity_morphism(a_t), g)
    right = tensor_morphisms(identity_morphism(b_t), f)
    return WeakDivDiagram(a, b, mu, alpha, beta, eta, left, right)


def weakly_associate(f: Morphism, g: Morphism) -> bool:
    """Mutual weak divisibility: the total witnesses are associates."""
    require_same_monoid(f, g, "weak association")
    return f.monoid.are_associates(total_witness(f), total_witness(g))


def is_weakly_irreducible(m: Morphism) -> bool:
    """Whether the total witness is irreducible in the monoid."""
    return m.monoid.is_irreducible(total_witness(m))


def is_weakly_prime(m: Morphism) -> bool:
    """Whether the total witness is prime; implies weakly irreducible."""
    return m.monoid.is_prime(total_witness(m))


def is_weakly_irreducible_tuple(t: FactorTuple) -> bool:
    """Classify the morphism (1) -> t; equals irreducibility of prod t,
    and the empty tuple is never weakly irreducible."""
    t.monoid.require_divisibility("is_weakly_irreducible_tuple")  # 1 divides prod t
    return is_weakly_irreducible(_from_element(t.monoid.identity(), t))


def is_weakly_prime_tuple(t: FactorTuple) -> bool:
    t.monoid.require_divisibility("is_weakly_prime_tuple")
    return is_weakly_prime(_from_element(t.monoid.identity(), t))


@dataclass(frozen=True)
class AtomicChain:
    """A decomposition into weak equivalences and weakly irreducible steps.

    The steps compose left to right to the decomposed morphism, each tag
    names the class of its step, and irr_count is the number of weakly
    irreducible steps (the length of the morphism's witness).
    """

    steps: tuple[Morphism, ...]
    tags: tuple[str, ...]
    irr_count: int

    def composed(self) -> Morphism:
        out = self.steps[0]
        for step in self.steps[1:]:
            out = compose(step, out)
        return out


def atomic_chain(m: Morphism) -> AtomicChain:
    """Decompose a morphism between non-empty tuples into weak equivalences
    and weakly irreducible divisibility steps.

    A weak equivalence stays a single step.  Otherwise the chain is the
    drop-units step, one divisibility step per irreducible factor of each
    ratio (coordinates ascending, factors in canonical order), and a final
    weak equivalence that folds the leftover units into the refactoring
    step.  Identity steps at either end are omitted.
    """
    if len(m.domain) == 0 or len(m.codomain) == 0:
        raise InvalidInputError("atomic chains need non-empty domain and codomain")
    if is_weak_equivalence(m):
        return AtomicChain((m,), (WEAK_EQUIVALENCE,), 0)
    monoid = m.monoid
    d = decompose_eip(m)
    steps: list[Morphism] = []
    tags: list[str] = []
    if d.epsilon != identity_morphism(m.domain):
        steps.append(d.epsilon)
        tags.append(WEAK_EQUIVALENCE)
    # every step is a morphism by construction: each one multiplies a single
    # entry by an irreducible factor, and the tail's domain differs from
    # delta's codomain only by the units of the factorizations
    current = d.epsilon.codomain
    ident = tuple(range(1, len(current) + 1))
    for p, ratio in enumerate(d.ratios):
        _, factors = monoid.factor_irreducibles(ratio)
        for q in factors:
            entries = list(current.entries)
            entries[p] = monoid.op(q, entries[p])
            scaled = _trusted_tuple(monoid, tuple(entries))
            steps.append(_trusted_morphism(current, scaled, ident))
            tags.append(WIRR_TAG)
            current = scaled
    tail = _trusted_morphism(current, m.codomain, d.phi.values)
    if tail != identity_morphism(current):
        steps.append(tail)
        tags.append(WEAK_EQUIVALENCE)
    return AtomicChain(tuple(steps), tuple(tags), tags.count(WIRR_TAG))


def zeta_elt(monoid: Monoid, a: Element) -> int:
    """Number of irreducible factors of a; zero exactly on the units."""
    _, factors = monoid.factor_irreducibles(a)
    return len(factors)


def zeta_mor(m: Morphism) -> int:
    """Irreducible-factor count of the total witness.  Additive under
    composition; zero iff weak equivalence, one iff weakly irreducible."""
    return zeta_elt(m.monoid, total_witness(m))


def zeta_obj(t: FactorTuple) -> int:
    """Irreducible-factor count of the tuple product; additive under tensor."""
    return zeta_elt(t.monoid, t.product())


def weak_divisor_classes(m: Morphism) -> list:
    """Representatives of the weak divisors of m up to weak associates,
    i.e. the divisor classes of its total witness."""
    return m.monoid.divisor_class_representatives(total_witness(m))


def chain_stabilizes(chain) -> int | None:
    """First 1-based index from which every later morphism in the chain is a
    weak equivalence, or None if the given finite prefix never stabilizes.

    The chain is oriented with arrows pointing left: entry i maps into the
    domain of entry i-1, so consecutive entries must compose.
    """
    steps = list(chain)
    if not steps:
        raise InvalidInputError("chain must contain at least one morphism")
    for i in range(len(steps) - 1):
        if steps[i].domain != steps[i + 1].codomain:
            raise InvalidMorphismError(f"chain break between entries {i + 1} and {i + 2}")
    index = 1
    for i, step in enumerate(steps, start=1):
        if not is_weak_equivalence(step):
            index = i + 1
    return index if index <= len(steps) else None


@dataclass(frozen=True)
class IrreducibleFactorizations:
    """Factorizations into irreducibles, one per class up to associates and
    reordering, with a flag marking truncation at the requested cap."""

    classes: tuple[tuple, ...]
    truncated: bool


def enumerate_irreducible_factorizations(
    monoid: Monoid, a: Element, max_count: int = 10_000
) -> IrreducibleFactorizations:
    """All factorizations of a into irreducibles, up to associates and
    reordering, by brute-force divisor recursion.

    The search is ``Monoid.irreducible_factorizations``, deliberately
    independent of factor_irreducibles so it can serve as a ground-truth
    oracle; on the shipped instances it always finds exactly one class.
    Units have the single empty factorization.  Integer inputs beyond 10**6
    in absolute value and free-monoid inputs with more than 256 generator
    copies are rejected rather than scanned, and so is a cap that is not a
    non-negative int.
    """
    require_int(max_count, "max_count", 0)
    monoid.require_ufd("factorization enumeration")
    a = monoid.validate(a)
    classes: list[tuple] = []
    truncated = False
    for item in monoid.irreducible_factorizations(a):
        if len(classes) >= max_count:
            truncated = True
            break
        classes.append(item)
    return IrreducibleFactorizations(tuple(classes), truncated)


@dataclass(frozen=True)
class WedgeDiagram:
    """The wedge through the 1-tuple on the product of two non-associate
    irreducible cores: both legs into the apex are weakly irreducible and
    the apex maps on into the shared target."""

    apex: FactorTuple
    from_left: Morphism
    from_right: Morphism
    to_target: Morphism


def ufd_wedge(f: Morphism, g: Morphism):
    """Resolve two weakly irreducible sources over a shared target.

    When the irreducible cores of the source tuples are associates, returns
    the weak equivalence (v_i) -> (w_j) routed through the cores.  Otherwise
    returns the WedgeDiagram on the 1-tuple of the cores' product, which maps
    into the target because, over a UFD, two non-associate irreducibles that
    divide its product divide it together.
    """
    require_same_monoid(f, g, "the wedge construction")
    monoid = f.monoid
    monoid.require_ufd("the wedge construction")
    if f.codomain != g.codomain:
        raise InvalidMorphismError("both morphisms must share a codomain")
    if not is_weakly_irreducible_tuple(f.domain) or not is_weakly_irreducible_tuple(g.domain):
        raise InvalidInputError("both domains must be weakly irreducible tuples")
    v = f.domain.entries
    w = g.domain.entries
    # both products are irreducible: each tuple has exactly one non-unit entry, its core
    i0 = next(i for i, e in enumerate(v) if not monoid.is_invertible(e))
    j0 = next(j for j, e in enumerate(w) if not monoid.is_invertible(e))
    if monoid.are_associates(v[i0], w[j0]):
        return _trusted_morphism(f.domain, g.domain, (i0 + 1,) * len(w))
    to_target = _from_element(monoid.op(v[i0], w[j0]), f.codomain)
    apex = to_target.domain
    from_left = _trusted_morphism(f.domain, apex, (i0 + 1,))
    from_right = _trusted_morphism(g.domain, apex, (j0 + 1,))
    return WedgeDiagram(apex, from_left, from_right, to_target)
