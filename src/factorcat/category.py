"""Objects and morphisms of the factorization category of a monoid.

An object is a finite tuple of monoid elements; the empty tuple is written
() and acts as the unit object.  A morphism (x_1..x_N) -> (y_1..y_M) is its
two tuples and an order-constrained map [M] -> [N], stored as its M values:
for every n, x_n is below the product of the codomain entries mapped to n
(the empty product being the identity).  Note the reversal: the map runs
from codomain positions to domain positions, and composition composes maps
the opposite way round.  ``underlying_function`` returns the map as an
``IndexFunction``, the value of the underlying functor to finite sets.
Maps are immutable tuples and are not interned: equal maps may be distinct
objects, so never compare them by identity.

A braiding's map depends only on the two lengths, and the identity on t is
the braiding of t with ().  Braidings and identities of at most
BRAID_SHAPE_BOUND entries share one map per shape from ``_SWAPS``, a table
built once at import; longer ones build theirs afresh with ``_swap_map``.

Index values are 1-based throughout, matching the wire format.  The hom-set
enumerator keeps nothing between calls; the oracle memoizes what it repeats.

Outputs valid by theorem skip validation through the trusted builders below,
``_trusted_arrow`` building a tensor's or braiding's morphism and both its
tuples in one call.  Hot operations test their guards inline (``is_divisibility``,
and ``is`` on the two monoids) and call ``require_divisibility`` or
``require_same_monoid`` only to refuse or to compare distinct monoid objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Callable, Mapping

from .errors import GuardError, InvalidMorphismError
from .monoids import Element, Monoid, NAT, ZX, _shown, require_monoid

HOM_ENUMERATION_GUARD = 10**7
HOM_RESULT_GUARD = 10**5  # most maps one hom set may hold; far more than a verify meets
BRAID_SHAPE_BOUND = 2**4  # most entries in all of a braiding or identity whose map is shared


@dataclass(frozen=True, slots=True, eq=False)
class FactorTuple:
    """An ordered tuple of monoid elements; length 0 is the unit object.

    Instances are slotted and immutable.  Two tuples are equal when their
    entries are equal and they live over the same monoid, so equal entries
    over ``zx`` and ``nat`` give unequal tuples.  The hash is the hash of
    the entries alone: equal tuples hash equal, and tuples that differ only
    in their monoid merely collide.
    """

    monoid: Monoid
    entries: tuple = ()

    def __post_init__(self):
        require_monoid(self.monoid)
        entries = self.entries
        try:
            entries = iter(entries)
        except TypeError:
            raise ValueError(f"tuple entries are not iterable: {type(entries).__name__}") from None
        validate = self.monoid.validate
        object.__setattr__(self, "entries", tuple([validate(e) for e in entries]))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not FactorTuple:
            return NotImplemented
        return self.entries == other.entries and (
            self.monoid is other.monoid or self.monoid == other.monoid
        )

    def __hash__(self) -> int:
        return hash(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __str__(self) -> str:
        return "(" + ",".join(str(self.monoid.encode(e)) for e in self.entries) + ")"

    def product(self) -> Element:
        """Product of the entries; this is the product functor on objects."""
        return self.monoid.product(self.entries)


def empty_tuple(monoid: Monoid) -> FactorTuple:
    return FactorTuple(monoid, ())


def embed(monoid: Monoid, a: Element) -> FactorTuple:
    """The 1-tuple (a); this is the embedding functor on objects."""
    return FactorTuple(monoid, (a,))


def require_same_monoid(a, b, what: str) -> None:
    """Raise InvalidMorphismError unless a and b (tuples or morphisms) live
    over the same monoid."""
    if a.monoid is not b.monoid and a.monoid != b.monoid:
        raise InvalidMorphismError(f"{what} needs both arguments over the same monoid")


def _require_tuples(domain, codomain) -> None:
    """The one type check of Morphism(...) and hom_index_tuples on their tuples."""
    for part in (domain, codomain):
        if not isinstance(part, FactorTuple):
            raise InvalidMorphismError(
                f"a morphism's domain and codomain are FactorTuples, not {type(part).__name__}")


def _checked_map(dom_size, cod_size, values) -> tuple:
    """The values of a total function [dom_size] -> [cod_size] as a tuple; the one
    check of a map from caller data, run by IndexFunction and _checked_morphism."""
    if (dom_size.__class__ is int and cod_size.__class__ is int and cod_size >= 0
            and (values.__class__ is list or values.__class__ is tuple) and len(values) == dom_size):
        # exact ints in range in one pass; anything else takes the checks below
        for v in values:
            if v.__class__ is not int or not 0 < v <= cod_size:
                break
        else:
            return tuple(values)
    try:
        values = tuple(values)
    except TypeError:
        raise InvalidMorphismError(f"index values {_shown(values)} are not a sequence") from None
    for n in (dom_size, cod_size):
        if isinstance(n, bool) or not isinstance(n, int):
            raise InvalidMorphismError(f"index set size {_shown(n)} is not an integer")
    if dom_size < 0 or cod_size < 0:
        raise InvalidMorphismError("index set sizes must be non-negative")
    if dom_size > 0 and cod_size == 0:
        raise InvalidMorphismError("no function from a non-empty index set to the empty one")
    if len(values) != dom_size:
        raise InvalidMorphismError(f"expected {dom_size} values, got {len(values)}")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int) or not 1 <= v <= cod_size:
            raise InvalidMorphismError(f"value {_shown(v)} outside the 1-based range [{cod_size}]")
    return values


def _checked_morphism(domain: FactorTuple, codomain: FactorTuple, values) -> tuple:
    """The map of a morphism domain -> codomain from caller data as a tuple: the
    map's check, one monoid, then the order constraint fiber by fiber, naming
    the first failing domain index.  Morphism(...) and decoding both run it."""
    xs = domain.entries
    values = _checked_map(len(codomain.entries), len(xs), values)
    require_same_monoid(domain, codomain, "a morphism")
    monoid = domain.monoid
    fibers = monoid.fiber_products(len(xs), codomain.entries, values)
    for i, x in enumerate(xs):
        if not monoid.leq(x, fibers[i]):
            raise InvalidMorphismError(
                f"order constraint fails at domain index {i + 1}: "
                f"{_shown(x, monoid.encode)} is not below the fiber product "
                f"{_shown(fibers[i], monoid.encode)}"
            )
    return values


@dataclass(frozen=True, slots=True)
class IndexFunction:
    """A total function [dom_size] -> [cod_size], stored 1-based.

    dom_size > 0 with cod_size == 0 is unrepresentable: there is no
    function from a non-empty index set into the empty one.  This is the
    view ``underlying_function`` returns; construction checks the map with
    ``_checked_map``, as public Morphism construction does.
    """

    dom_size: int
    cod_size: int
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _checked_map(self.dom_size, self.cod_size, self.values))

    @staticmethod
    def identity(n: int) -> "IndexFunction":
        return IndexFunction(n, n, tuple(range(1, n + 1)))


@dataclass(frozen=True, slots=True, eq=False)
class Morphism:
    """A validated morphism domain -> codomain.

    ``values`` is the 1-based map from codomain positions to domain
    positions, one value per codomain entry.  Every Morphism in existence is
    valid.  ``Morphism(...)`` refuses a domain or codomain that is not a
    FactorTuple, then runs ``_checked_morphism``: the map once, with
    ``_checked_map(len(codomain), len(domain), values)``, then the order
    constraint fiber by fiber, reporting the first failing domain index.
    ``decode_morphism`` runs it on the tuples it decoded.  Internal
    construction goes through ``_trusted_morphism``, which skips the checks,
    and happens only where validity holds by theorem: the category is closed
    under identities, composition, inverses, tensor and braiding; the EIP and
    atomic-chain steps, the legs of the weak divisibility square, the Ore
    square, the right-cancellation witness and the UFD wedge are morphisms
    by construction.  The closure tests in
    tests/test_oracle.py re-validate the output of each such operation.

    Instances are slotted and immutable.  Two morphisms are equal when their
    values, domain entries and codomain entries agree and their domains live
    over the same monoid; on valid morphisms both tuples share one monoid, so
    the codomain's needs no separate comparison.  The hash is the hash of the
    values and the two entry tuples.
    """

    domain: FactorTuple
    codomain: FactorTuple
    values: tuple[int, ...]

    def __post_init__(self):
        _require_tuples(self.domain, self.codomain)
        values = _checked_morphism(self.domain, self.codomain, self.values)
        object.__setattr__(self, "values", values)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Morphism:
            return NotImplemented
        a, b = self.domain, other.domain
        return (
            self.values == other.values
            and a.entries == b.entries
            and self.codomain.entries == other.codomain.entries
            and (a.monoid is b.monoid or a.monoid == b.monoid)
        )

    def __hash__(self) -> int:
        return hash((self.values, self.domain.entries, self.codomain.entries))

    @property
    def monoid(self) -> Monoid:
        return self.domain.monoid

    def __str__(self) -> str:
        return f"{self.domain} -> {self.codomain} via {list(self.values)}"


# -- construction without re-checking ----------------------------------------
# Mirrors of the two constructors that skip __post_init__, for outputs that
# are valid by theorem (see Morphism).  The fields must already be normalized:
# entries and values are tuples.  Caller data goes through the constructors.
#
# A frozen dataclass can only be filled through object.__setattr__, a wrapper
# call that costs several plain slot stores per field, and one verify builds
# millions of these objects.  So each is filled as an unfrozen shell twin and
# then turned into the public class by one __class__ assignment, which CPython
# allows only when the two slot layouts match.  _shell copies the public
# class's __slots__ so that they always do.  Callers only see the public class.


def _shell(cls: type) -> type:
    return type(cls.__name__ + "Shell", (), {"__slots__": cls.__slots__})


_TupleShell, _MorphismShell = _shell(FactorTuple), _shell(Morphism)


def _trusted_tuple(monoid: Monoid, entries: tuple) -> FactorTuple:
    t = _TupleShell()
    t.monoid = monoid
    t.entries = entries
    t.__class__ = FactorTuple
    return t


def _trusted_morphism(domain: FactorTuple, codomain: FactorTuple, values: tuple) -> Morphism:
    m = _MorphismShell()
    m.domain = domain
    m.codomain = codomain
    m.values = values
    m.__class__ = Morphism
    return m


def _trusted_arrow(monoid: Monoid, xs: tuple, ys: tuple, values: tuple) -> Morphism:
    """The morphism (xs) -> (ys) over monoid, both its tuples built fresh, in one call."""
    d, c, m = _TupleShell(), _TupleShell(), _MorphismShell()
    d.monoid = c.monoid = monoid
    d.entries, c.entries = xs, ys
    d.__class__ = c.__class__ = FactorTuple
    m.domain, m.codomain, m.values = d, c, values
    m.__class__ = Morphism
    return m


def _from_element(a: Element, t: FactorTuple) -> Morphism:
    """The unique morphism (a) -> t, which sends every position of t to 1,
    built without checks.  Precondition: a <= prod t, the order constraint of
    its one fiber, and a is a normalized element of t's monoid."""
    return _trusted_morphism(_trusted_tuple(t.monoid, (a,)), t, (1,) * len(t.entries))


def fiber_products(m: Morphism) -> list:
    """For each domain position n, the product of the codomain entries that
    the map sends to n (the identity for an empty fiber)."""
    d = m.domain
    return d.monoid.fiber_products(len(d.entries), m.codomain.entries, m.values)


def _swap_map(n: int, m: int) -> tuple[int, ...]:
    """The map of the braiding of n entries past m; _swap_map(n, 0) is the identity's."""
    return tuple(range(n + 1, n + m + 1)) + tuple(range(1, n + 1))


# _SWAPS[n][m] is the one shared _swap_map(n, m) of each shape with n + m <= BRAID_SHAPE_BOUND
_SWAPS = tuple(tuple(_swap_map(n, m) for m in range(BRAID_SHAPE_BOUND + 1 - n))
               for n in range(BRAID_SHAPE_BOUND + 1))


def identity_morphism(t: FactorTuple) -> Morphism:
    """The identity on t, the braiding of t with (); its map is shared as the braid's is."""
    n = len(t.entries)
    return _trusted_morphism(t, t, _SWAPS[n][0] if n <= BRAID_SHAPE_BOUND else _swap_map(n, 0))


def compose(g: Morphism, f: Morphism) -> Morphism:
    """The composite g after f; f's codomain must equal g's domain.

    On maps this is composition the other way round: the result sends a
    position k of g's codomain to f.values[g.values[k]].
    """
    b, c = f.codomain, g.domain  # FactorTuple equality, read off the fields inline
    if b is not c and (b.entries != c.entries or (b.monoid is not c.monoid and b.monoid != c.monoid)):
        raise InvalidMorphismError(
            "cannot compose: codomain of the first-applied morphism differs "
            "from the domain of the second"
        )
    fv = f.values
    return _trusted_morphism(f.domain, g.codomain, tuple([fv[v - 1] for v in g.values]))


def _too_many_maps(n: int, m: int) -> GuardError:
    """The refusal of a hom set over n^m candidates with more than HOM_RESULT_GUARD maps."""
    return GuardError(f"hom set over {n}^{m} candidates has more than 10^5 maps")


def hom_index_tuples(domain: FactorTuple, codomain: FactorTuple) -> tuple[tuple[int, ...], ...]:
    """All order-constrained index-value tuples domain <- codomain, in
    lexicographic order of the value sequence.

    Enumerates the N^M candidate functions depth-first, pruning a branch as
    soon as some fiber can no longer satisfy its constraint.  Requests with
    N^M above the 10^7 guard are rejected, and so is a hom set of more than
    HOM_RESULT_GUARD maps, as soon as the walk finds one map too many.
    Nothing is kept between calls: a repeated call enumerates again.  Maps
    are not interned: equal maps may be distinct objects, so never compare
    them by identity.
    """
    _require_tuples(domain, codomain)
    require_same_monoid(domain, codomain, "a hom set")
    monoid = domain.monoid
    xs, ys = domain.entries, codomain.entries
    n, m = len(xs), len(ys)
    if n == 0:
        # no functions into the empty index set except from itself
        return ((),) if m == 0 else ()
    if n == 1:
        # the single candidate sends everything to 1; it needs no search
        if not monoid.leq(xs[0], monoid.product(ys)):
            return ()
        return ((1,) * m,)
    if n**m > HOM_ENUMERATION_GUARD:
        raise GuardError(f"hom enumeration over {n}^{m} candidates exceeds the 10^7 guard")
    one = monoid.identity()
    suffix = [one] * (m + 1)
    for pos in range(m - 1, -1, -1):
        suffix[pos] = monoid.op(ys[pos], suffix[pos + 1])
    feasible, leq, op = monoid.fiber_feasible, monoid.leq, monoid.op
    entries = list(enumerate(xs))
    out: list[tuple[int, ...]] = []
    assign: list[int] = []
    fibers = [one] * n

    def walk(pos: int) -> None:
        if pos == m:
            for i, x in entries:
                if not leq(x, fibers[i]):
                    return
            if len(out) == HOM_RESULT_GUARD:
                raise _too_many_maps(n, m)
            out.append(tuple(assign))
            return
        rest = suffix[pos]
        for i, x in entries:
            if not feasible(x, fibers[i], rest):
                return
        y = ys[pos]
        for target in range(n):
            before = fibers[target]
            fibers[target] = op(before, y)
            assign.append(target + 1)
            walk(pos + 1)
            assign.pop()
            fibers[target] = before

    try:
        walk(0)
    finally:
        del walk  # walk holds itself through its cell; drop that cycle here
    return tuple(out)


def hom_set(domain: FactorTuple, codomain: FactorTuple) -> list[Morphism]:
    """All morphisms domain -> codomain, ordered lexicographically by map."""
    return [_trusted_morphism(domain, codomain, v) for v in hom_index_tuples(domain, codomain)]


def is_epic(m: Morphism) -> bool:
    """Epic exactly when the map is injective (divisibility only)."""
    if not m.domain.monoid.is_divisibility:
        m.domain.monoid.require_divisibility("is_epic")
    return len(set(m.values)) == len(m.values)


def is_monic(m: Morphism) -> bool:
    """Monic exactly when the map is surjective (divisibility only)."""
    if not m.domain.monoid.is_divisibility:
        m.domain.monoid.require_divisibility("is_monic")
    return len(set(m.values)) == len(m.domain.entries)


def is_isomorphism(m: Morphism) -> bool:
    """Iso iff the tuples have equal length, the map is a bijection, and
    matched entries are associates, as equal ones are by reflexivity."""
    monoid = m.domain.monoid
    if not monoid.is_divisibility:
        monoid.require_divisibility("is_isomorphism")
    values, xs, ys = m.values, m.domain.entries, m.codomain.entries
    n = len(xs)
    if len(values) != n or len(set(values)) != n:
        return False
    associates = monoid.are_associates
    for y, target in zip(ys, values):
        if (x := xs[target - 1]) != y and not associates(x, y):
            return False
    return True


def inverse(m: Morphism) -> Morphism | None:
    """The inverse morphism when m is an isomorphism, else None."""
    if not is_isomorphism(m):
        return None
    n = len(m.domain)
    inv = [0] * n
    for pos, target in enumerate(m.values, start=1):
        inv[target - 1] = pos
    return _trusted_morphism(m.codomain, m.domain, tuple(inv))


def is_initial(t: FactorTuple) -> bool:
    """Initial objects are exactly the 1-tuples on an invertible element."""
    t.monoid.require_divisibility("is_initial")
    return len(t) == 1 and t.monoid.is_invertible(t.entries[0])


def refute_terminal(t: FactorTuple) -> FactorTuple:
    """A 1-tuple (a) with no morphism (a) -> t, witnessing that t is not
    terminal.  For the integers, a is the smallest prime exceeding |prod t|;
    for free monoids it is one more copy of the first generator than the
    product holds."""
    t.monoid.require_divisibility("refute_terminal")
    witness = t.monoid.fresh_non_divisor(t.product())
    return FactorTuple(t.monoid, (witness,))


def underlying_function(m: Morphism) -> IndexFunction:
    """The map of a morphism as an IndexFunction [len(codomain)] ->
    [len(domain)]: the underlying functor to finite sets, built on demand."""
    return IndexFunction(len(m.codomain.entries), len(m.domain.entries), m.values)


class MonoidHom:
    """An order-respecting monoid homomorphism between shipped instances.

    Supported maps: the identity on any instance, the inclusion of the
    positive integers into the nonzero integers, and free-monoid maps that
    assign a prime integer to each generator.  Applying one to a morphism
    maps both tuples entry-wise and keeps the map.
    """

    def __init__(self, source: Monoid, target: Monoid, elem_map: Callable, label: str):
        self.source = source
        self.target = target
        self._elem_map = elem_map
        self.label = label

    def __repr__(self) -> str:
        return f"MonoidHom({self.label})"

    def __call__(self, a: Element) -> Element:
        return self.target.validate(self._elem_map(self.source.validate(a)))

    @classmethod
    def identity(cls, monoid: Monoid) -> "MonoidHom":
        return cls(monoid, monoid, lambda a: a, f"id[{monoid.name}]")

    @classmethod
    def naturals_into_integers(cls) -> "MonoidHom":
        return cls(NAT, ZX, lambda a: a, "nat->zx")

    @classmethod
    def primes_for_generators(cls, source: Monoid, assignment: Mapping[str, int]) -> "MonoidHom":
        """Free monoid into the integers, sending each generator to a prime."""
        generators = getattr(source, "generators", None)
        if generators is None:
            raise ValueError("primes_for_generators needs a free monoid source")
        for g in generators:
            if g not in assignment:
                raise ValueError(f"no image assigned to generator {g!r}")
            if not ZX.is_prime(assignment[g]):
                raise ValueError(f"image of {g!r} must be a prime integer")

        primes = [assignment[g] for g in generators]  # aligned with each exponent vector
        label = source.name + "->zx[" + ",".join(f"{g}:{assignment[g]}" for g in generators) + "]"
        return cls(source, ZX, lambda a: prod(map(pow, primes, a)), label)


def map_tuple(hom: MonoidHom, t: FactorTuple) -> FactorTuple:
    if t.monoid != hom.source:
        raise ValueError(f"tuple lives in {t.monoid.name}, not {hom.source.name}")
    validate, apply = hom.target.validate, hom._elem_map  # t's entries are valid in the source
    return _trusted_tuple(hom.target, tuple([validate(apply(a)) for a in t.entries]))


def map_morphism(hom: MonoidHom, m: Morphism) -> Morphism:
    """Apply a monoid homomorphism to a morphism; the image is validated in
    the target category on construction."""
    return Morphism(map_tuple(hom, m.domain), map_tuple(hom, m.codomain), m.values)
