"""Brute-force law verification over bounded universes of tuples.

Each suite cross-checks a fast predicate against an independent formulation:
counting formulas against raw hom-set enumeration, the epic/monic
predicates against cancellation probes built by appending a unit entry,
the isomorphism predicate against a brute-force inverse search, weak
divisibility against the product-divisibility criterion, and so on.
Failures are reported in-band with serialized counterexamples that can be
re-run through :func:`recheck`; a case whose predicate raises one of
``CASE_ERRORS`` is a failure too.

Suites are exhaustive while the case count stays within the universe's
limit and fall back to seeded sampling beyond it, so every report is
deterministic for a given UniverseSpec, which builds its objects, hom table
and morphisms on first use and keeps them for its own lifetime.

The morphisms are built codomain first, without the hom-set enumerator: a
codomain and a map fix every fiber product, and the domains with that map
are the tuples of pool elements below them (see ``_by_domain``).  So the
enumerator is checked against an independent construction, and a build
leaves nothing in its cache.  The brute-force inverse search skips a
morphism whose codomain product is not below its domain product, since the
product is a functor and no morphism can then run back.

Each law is one entry of the ``LAWS`` registry: its name, the payload key
and wire kind of each predicate argument, and the predicate.  A suite is a
generator in ``SUITES`` that yields each case as ``(name, args)``, and
:meth:`SuiteReport.run` binds every registered predicate once per suite, so
a passing case costs one call; only a failing case is looked up again, to
be serialized from its entry, and :func:`recheck` decodes the same entry to
re-run it.  To add a law, add a ``_law(name, predicate, key=kind, ...)``
line, keys in the predicate's argument order, and yield its cases from a
suite's generator.  Predicates look up library functions as module globals
at call time, so a test can swap one out and watch the oracle catch it.

The two cancellation probes are memoized on exactly what each reads, the
epic probe on (codomain, values) and the monic probe on (domain, values),
in lru_caches of ``PROBE_CACHE_SIZE`` entries: the default universe has
160,991 morphisms but only 6,175 and 3,633 distinct probe inputs.  The
checked predicates ``is_epic``/``is_monic`` still run on every morphism, as
a cache on the probe's key would hide a fault that depends on the rest of
the morphism.  A test that swaps a global the probes call must clear them.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from itertools import chain, islice, product as iter_product
from typing import Callable, Iterable, Iterator, Mapping

from .errors import CapabilityError, GuardError
from .monoids import MONOID_CACHE_SIZE, ZX, NAT, Monoid, monoid_by_name
from .category import (
    HOM_RESULT_GUARD,
    FactorTuple,
    Morphism,
    compose,
    empty_tuple,
    embed,
    hom_index_tuples,
    hom_set,
    identity_morphism,
    inverse,
    is_epic,
    is_isomorphism,
    is_monic,
    _trusted_morphism,
)
from .monoidal import (
    braiding,
    braiding_involution_holds,
    braiding_is_natural,
    hexagon_holds,
    tensor_morphisms,
    tensor_objects,
    tensor_respects_composition,
)
from .weq import is_weak_equivalence
from .divisibility import weak_div_diagram, weakly_divides
from .encoding import decode_morphism, decode_tuple, encode_morphism, encode_tuple

DEFAULT_POOL = (-1, 1, 2, 3, 5, 6)

UNIVERSE_OBJECT_GUARD = 2000

# candidate index maps over all pairs of objects; the default universe has
# 1,403,215, and every map kept as a morphism costs memory
UNIVERSE_CANDIDATE_GUARD = 2_000_000

# morphisms per sampled composition chain in the two_of_three suite
MAX_CHAIN = 3

# distinct inputs each cancellation probe keeps (see the module docstring)
PROBE_CACHE_SIZE = 2**13

# what a predicate raises on the values of a bad case, so the case fails; any
# other exception (a TypeError from miswired code, a GuardError) propagates
CASE_ERRORS = (ArithmeticError, LookupError, ValueError)


@dataclass(frozen=True)
class UniverseSpec:
    """A bounded universe: a pool of elements, a tuple-length cap, and the
    determinism knobs (seed, exhaustive limit, sample size).  Construction
    counts the tuples into ``object_count`` and stops at the object guard,
    then stops at the candidate guard, counted from the tuple lengths alone.
    The objects and morphisms are built on first use, the morphisms by one
    codomain-first walk over the index maps, and kept on the spec with the
    hom table grouped from them, so they live as long as the spec does."""

    monoid: Monoid = ZX
    pool: tuple = DEFAULT_POOL
    max_len: int = 3
    seed: int = 0
    exhaustive_limit: int = 1_000_000
    sample_size: int = 20_000

    def __post_init__(self):
        pool = dict.fromkeys(map(self.monoid.validate, self.pool))  # keeps first-seen order
        object.__setattr__(self, "pool", tuple(pool))
        for name in ("max_len", "exhaustive_limit", "sample_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"universe {name} must be an integer, got {value!r}")
        if self.max_len < 0:
            raise ValueError("universe bounds must be positive")
        if self.exhaustive_limit < 1 or self.sample_size < 1:
            raise ValueError("universe limits must be positive")
        count, layers = 1, [1]  # layers: the number of objects of each length
        for _ in range(self.max_len if self.pool else 0):
            layers.append(layers[-1] * len(self.pool))
            count += layers[-1]
            if count > UNIVERSE_OBJECT_GUARD:
                raise GuardError(
                    f"universe has at least {count} objects; the guard is {UNIVERSE_OBJECT_GUARD}")
        object.__setattr__(self, "object_count", count)
        candidates = 0  # the maps a -> b are the len(a) ** len(b) index maps
        for i, a in enumerate(layers):
            for j, b in enumerate(layers):
                candidates += a * b * i**j
                if candidates > UNIVERSE_CANDIDATE_GUARD:
                    raise GuardError(
                        f"universe has at least {candidates} candidate maps; "
                        f"the guard is {UNIVERSE_CANDIDATE_GUARD}")


@dataclass
class SuiteReport:
    """Outcome of one suite: cases run and counterexample payloads."""

    suite: str
    monoid: str
    cases: int = 0
    failures: list = field(default_factory=list)

    MAX_STORED = 50

    def run(self, cases: Iterable[tuple[str, tuple]]) -> None:
        """Check each (law name, arguments) case, every predicate bound once.
        A false result or a raise of CASE_ERRORS fails the case; the first
        MAX_STORED failures keep a payload ("raised" names the exception)."""
        predicates = {name: law.predicate for name, law in LAWS.items()}
        count = self.cases
        for count, (law, args) in enumerate(cases, count + 1):
            try:
                if predicates[law](*args):
                    continue
                raised = {}
            except CASE_ERRORS as exc:
                raised = {"raised": type(exc).__name__}
            if len(self.failures) < self.MAX_STORED:
                payload = LAWS[law].encode(monoid_by_name(self.monoid), args)
                self.failures.append({"law": law, "monoid": self.monoid, **payload, **raised})
        self.cases = count

    def check(self, law: str, *args) -> None:
        """Run one case of the named law and record it if it fails."""
        self.run([(law, args)])

    @property
    def passed(self) -> bool:
        return not self.failures


# -- universe enumeration (tables kept on the spec) ---------------------------


def _per_spec(build: Callable[[UniverseSpec], object]):
    """Build the spec's table on first use and keep it in the spec's ``__dict__``."""
    key = "_" + build.__name__

    @wraps(build)
    def table(u: UniverseSpec):
        if key not in u.__dict__:
            u.__dict__[key] = build(u)
        return u.__dict__[key]

    return table


@_per_spec
def universe_objects(u: UniverseSpec) -> tuple[FactorTuple, ...]:
    out = [empty_tuple(u.monoid)]
    for k in range(1, u.max_len + 1 if u.pool else 1):  # no pool: only the empty tuple
        out += [FactorTuple(u.monoid, combo) for combo in iter_product(u.pool, repeat=k)]
    return tuple(out)


@_per_spec
def _by_domain(u: UniverseSpec) -> tuple[dict, int]:
    """Every morphism of the universe grouped by domain, in object order,
    and the number of composable pairs.

    Built codomain first: once a codomain b and a map [len b] -> [n] are
    fixed, so is each fiber product, and the morphisms with that map are the
    domains whose k-th entry is a pool element below the k-th fiber product.
    So for each b, in object order, and each domain length n, the walk runs
    over the n^len(b) maps in lexicographic order, updating the fiber
    products position by position, and appends one morphism per such domain
    to that domain's row.  Each row thus lists its morphisms by codomain,
    then by map, and equal maps share one tuple.

    A hom set of more than HOM_RESULT_GUARD maps raises GuardError, as the
    enumerator's does, as soon as the walk finds one map too many; only the
    passes with n^len(b) above the guard count.  The candidate guard keeps
    every n^len(b) under the enumerator's other guard, 10^7."""
    monoid, pool = u.monoid, u.pool
    leq, op = monoid.leq, monoid.op
    objs = universe_objects(u)
    rows = {t.entries: (t, []) for t in objs}
    below: dict = {}  # fiber product -> the pool elements below it, in pool order
    sources: dict = {}  # fiber products -> the (domain, row) pairs of the domains below them
    maps: dict = {}  # map -> the one tuple kept for it
    incoming = []  # the number of morphisms into each object, in object order
    assign: list[int] = []  # walk also reads b, ys, m, n, fibers and counts, set by the loop below

    def below_of(f) -> list:
        xs = below.get(f)
        if xs is None:
            xs = below[f] = [x for x in pool if leq(x, f)]
        return xs

    def walk(pos: int) -> int:
        """Append the morphisms into b whose map extends assign; return how many."""
        if pos < m:
            y, made = ys[pos], 0
            for target in range(n):
                before = fibers[target]
                fibers[target] = op(before, y)
                assign.append(target + 1)
                made += walk(pos + 1)
                assign.pop()
                fibers[target] = before
            return made
        key = tuple(fibers)
        domains = sources.get(key)
        if domains is None:
            domains = sources[key] = [rows[e] for e in iter_product(*map(below_of, key))]
        if domains:
            if counts is not None:  # a hom set of this pass may pass the result guard
                for a, _ in domains:
                    if counts[a] == HOM_RESULT_GUARD:
                        raise GuardError(f"hom set over {n}^{m} candidates has more than 10^5 maps")
                    counts[a] += 1
            values = tuple(assign)
            values = maps.setdefault(values, values)
            for a, row in domains:
                row.append(_trusted_morphism(a, b, values))
        return len(domains)

    try:
        for b in objs:
            ys, m, made = b.entries, len(b.entries), 0
            for n in range(u.max_len + 1 if pool else 1):
                fibers = [monoid.identity()] * n
                counts = defaultdict(int) if n**m > HOM_RESULT_GUARD else None
                made += walk(0)
            incoming.append(made)
    finally:
        del walk  # walk holds itself through its cell; drop that cycle here
    by_dom = dict(rows.values())
    return by_dom, sum(k * len(by_dom[t]) for k, t in zip(incoming, objs))


@_per_spec
def universe_morphisms(u: UniverseSpec) -> tuple[Morphism, ...]:
    """Every morphism of the universe, by domain, then codomain, then map."""
    return tuple(chain.from_iterable(_by_domain(u)[0].values()))


@_per_spec
def universe_homs(u: UniverseSpec) -> dict:
    """Map (domain, codomain) -> index tuples, for non-empty hom sets only."""
    homs = defaultdict(list)
    for m in universe_morphisms(u):
        homs[m.domain, m.codomain].append(m.values)
    return {pair: tuple(fns) for pair, fns in homs.items()}


def _rng(u: UniverseSpec, suite: str) -> random.Random:
    return random.Random(f"{u.seed}:{suite}")


def _draws(items, k: int, rng: random.Random, count: int):
    """count seeded k-tuples of items, drawn left to right."""
    size = len(items)
    for _ in range(count):
        yield tuple(items[rng.randrange(size)] for _ in range(k))


def _k_tuples(items, k: int, u: UniverseSpec, rng: random.Random):
    """All ordered k-tuples when within the limit, else a seeded sample."""
    if len(items) ** k <= u.exhaustive_limit:
        return iter_product(items, repeat=k)
    return _draws(items, k, rng, u.sample_size)


def _walks(u: UniverseSpec, rng: random.Random, k: int, count: int):
    """count seeded composable chains [f1, ..., fk], drawn step by step."""
    morphs = universe_morphisms(u)
    by_dom = _by_domain(u)[0]
    for _ in range(count):
        steps = [morphs[rng.randrange(len(morphs))]]
        for _ in range(k - 1):
            outs = by_dom[steps[-1].codomain]  # never empty: the identity is there
            steps.append(outs[rng.randrange(len(outs))])
        yield steps


def _composable_pairs(u: UniverseSpec, rng: random.Random):
    """Pairs (f, g) with g composable after f, exhaustive or sampled."""
    by_dom, total = _by_domain(u)
    if total > u.exhaustive_limit:
        return _walks(u, rng, 2, u.sample_size)
    return ((f, g) for f in universe_morphisms(u) for g in by_dom.get(f.codomain, ()))


# -- law predicates ----------------------------------------------------------


def _count_from_empty_ok(monoid: Monoid, t: FactorTuple) -> bool:
    count = len(hom_index_tuples(empty_tuple(monoid), t))
    return count == (1 if len(t) == 0 else 0)


def _count_into_empty_ok(monoid: Monoid, t: FactorTuple) -> bool:
    count = len(hom_index_tuples(t, empty_tuple(monoid)))
    one = monoid.identity()
    return count == (1 if all(monoid.leq(x, one) for x in t.entries) else 0)


def _count_singleton_source_ok(monoid: Monoid, y, t: FactorTuple) -> bool:
    # the adjunction: one morphism (y) -> t exactly when y is below prod t
    count = len(hom_index_tuples(embed(monoid, y), t))
    return count == (1 if monoid.leq(y, t.product()) else 0)


def _count_singleton_target_ok(monoid: Monoid, y, t: FactorTuple) -> bool:
    # a morphism t -> (y) sends y to one pivot p, so x_p <= y and every other
    # entry is below the empty product 1 (over a divisibility monoid: a unit)
    count = len(hom_index_tuples(t, embed(monoid, y)))
    one, xs = monoid.identity(), t.entries
    expected = sum(
        1 for p, x in enumerate(xs)
        if monoid.leq(x, y) and all(monoid.leq(e, one) for i, e in enumerate(xs) if i != p)
    )
    return count == expected


@lru_cache(maxsize=MONOID_CACHE_SIZE)
def _unit_constants(monoid: Monoid) -> tuple[FactorTuple, Morphism]:
    """The 1-tuple (1) and the identity on (), built through the public
    embed, empty_tuple and identity_morphism once per recently used monoid."""
    return embed(monoid, monoid.identity()), identity_morphism(empty_tuple(monoid))


@lru_cache(maxsize=PROBE_CACHE_SIZE)
def _epic_probe(codomain: FactorTuple, values: tuple[int, ...]) -> bool:
    """No distinct post-compositions collide on the probe target obtained by
    appending a unit entry to the codomain."""
    target = tensor_objects(codomain, _unit_constants(codomain.monoid)[0])
    seen = set()
    for gv in hom_index_tuples(codomain, target):
        c = tuple([values[x - 1] for x in gv])
        if c in seen:
            return False
        seen.add(c)
    return True


@lru_cache(maxsize=PROBE_CACHE_SIZE)
def _monic_probe(domain: FactorTuple, values: tuple[int, ...]) -> bool:
    source = tensor_objects(domain, _unit_constants(domain.monoid)[0])
    seen = set()
    for gv in hom_index_tuples(source, domain):
        c = tuple([gv[x - 1] for x in values])
        if c in seen:
            return False
        seen.add(c)
    return True


def _iso_by_bruteforce(m: Morphism) -> bool:
    if not m.monoid.leq(m.codomain.product(), m.domain.product()):
        return False  # the product is a functor, so there is no morphism back
    candidates = hom_set(m.codomain, m.domain)
    if not candidates:  # the usual case; it needs no identities
        return False
    id_dom = identity_morphism(m.domain)
    id_cod = identity_morphism(m.codomain)
    for g in candidates:
        if compose(g, m) == id_dom and compose(m, g) == id_cod:
            return True
    return False


def _inverse_ok(m: Morphism) -> bool:
    g = inverse(m)
    if not is_isomorphism(m):
        return g is None
    return (
        g is not None
        and compose(g, m) == identity_morphism(m.domain)
        and compose(m, g) == identity_morphism(m.codomain)
    )


def _two_of_three_ok(f: Morphism, g: Morphism) -> bool:
    # any two of f, g and g o f in W force the third
    verdicts = (
        is_weak_equivalence(f),
        is_weak_equivalence(g),
        is_weak_equivalence(compose(g, f)),
    )
    return sum(verdicts) != 2


def _chain_membership_ok(steps: list[Morphism]) -> bool:
    composite = steps[0]
    for step in steps[1:]:
        composite = compose(step, composite)
    return is_weak_equivalence(composite) == all(is_weak_equivalence(s) for s in steps)


def _tensor_unit_object_ok(t: FactorTuple) -> bool:
    o = empty_tuple(t.monoid)
    return tensor_objects(t, o) == t == tensor_objects(o, t)


def _tensor_unit_morphism_ok(m: Morphism) -> bool:
    id_o = _unit_constants(m.monoid)[1]
    return tensor_morphisms(m, id_o) == m == tensor_morphisms(id_o, m)


def _weakdiv_agreement_ok(f: Morphism, g: Morphism) -> bool:
    # independent route: prod(dom g) * prod(cod f) divides prod(dom f) * prod(cod g)
    monoid = f.monoid
    lhs = monoid.op(g.domain.product(), f.codomain.product())
    rhs = monoid.op(f.domain.product(), g.codomain.product())
    return weakly_divides(f, g) == monoid.leq(lhs, rhs)


def _weakdiv_diagram_ok(f: Morphism, g: Morphism) -> bool:
    if not weakly_divides(f, g):
        return True
    d = weak_div_diagram(f, g)
    for leg in (d.mu, d.alpha, d.beta, d.eta, d.left, d.right):
        Morphism(leg.domain, leg.codomain, leg.values)  # raises unless the leg is valid
    return (
        d.mu.domain == d.alpha.domain and d.beta.domain == d.eta.domain
        and (d.mu.codomain, d.beta.codomain) == (d.left.domain, d.left.codomain)
        and (d.alpha.codomain, d.eta.codomain) == (d.right.domain, d.right.codomain)
        and is_weak_equivalence(d.mu) and is_weak_equivalence(d.eta)
    )


# -- the law registry ----------------------------------------------------------

# wire kind -> (encode, decode); both take the monoid and a value
_WIRE: dict[str, tuple[Callable, Callable]] = {
    "monoid": (lambda mo, v: mo.name, lambda mo, v: monoid_by_name(v)),
    "element": (lambda mo, v: mo.encode(v), lambda mo, v: mo.decode(v)),
    "tuple": (lambda mo, v: encode_tuple(v), decode_tuple),
    "morphism": (lambda mo, v: encode_morphism(v), lambda mo, v: decode_morphism(v)),
    "morphisms": (
        lambda mo, v: [encode_morphism(m) for m in v],
        lambda mo, v: [decode_morphism(m) for m in v],
    ),
}


@dataclass(frozen=True)
class Law:
    """A law: its name, the (payload key, wire kind) of each predicate
    argument in order, and the predicate, which is True on a passing case."""

    name: str
    args: tuple[tuple[str, str], ...]
    predicate: Callable[..., bool]

    def encode(self, monoid: Monoid, args) -> dict:
        return {key: _WIRE[kind][0](monoid, a) for (key, kind), a in zip(self.args, args)}

    def decode(self, monoid: Monoid, payload: Mapping) -> list:
        return [_WIRE[kind][1](monoid, payload[key]) for key, kind in self.args]


def _law(name: str, predicate: Callable[..., bool], **kinds: str) -> Law:
    return Law(name, tuple(kinds.items()), predicate)


LAWS: dict[str, Law] = {law.name: law for law in (
    # homset_formulas
    _law("hom_count_from_empty", _count_from_empty_ok, monoid="monoid", tuple="tuple"),
    _law("hom_count_into_empty", _count_into_empty_ok, monoid="monoid", tuple="tuple"),
    # over the unit interval every tuple maps to the empty tuple, exactly once
    _law("hom_count_interval_into_empty",
         lambda monoid, t: len(hom_index_tuples(t, empty_tuple(monoid))) == 1,
         monoid="monoid", tuple="tuple"),
    _law("hom_count_singleton_source", _count_singleton_source_ok,
         monoid="monoid", element="element", tuple="tuple"),
    _law("hom_count_singleton_target", _count_singleton_target_ok,
         monoid="monoid", element="element", tuple="tuple"),
    # epic_monic and iso
    _law("epic_agreement", lambda m: _epic_probe(m.codomain, m.values) == is_epic(m),
         morphism="morphism"),
    _law("monic_agreement", lambda m: _monic_probe(m.domain, m.values) == is_monic(m),
         morphism="morphism"),
    _law("iso_agreement", lambda m: is_isomorphism(m) == _iso_by_bruteforce(m),
         morphism="morphism"),
    _law("inverse_roundtrip", _inverse_ok, morphism="morphism"),
    # two_of_three
    _law("two_of_three", _two_of_three_ok, f="morphism", g="morphism"),
    _law("iso_in_w", lambda m: not is_isomorphism(m) or is_weak_equivalence(m),
         morphism="morphism"),
    _law("chain_membership", _chain_membership_ok, steps="morphisms"),
    # monoidal_laws
    _law("tensor_unit_object", _tensor_unit_object_ok, tuple="tuple"),
    _law("tensor_length", lambda x, y: len(tensor_objects(x, y)) == len(x) + len(y),
         x="tuple", y="tuple"),
    _law("braiding_involution", lambda x, y: braiding_involution_holds(x, y),
         x="tuple", y="tuple"),
    _law("braiding_iso", lambda x, y: is_isomorphism(braiding(x, y)), x="tuple", y="tuple"),
    _law("tensor_assoc_objects",
         lambda x, y, z: tensor_objects(tensor_objects(x, y), z)
         == tensor_objects(x, tensor_objects(y, z)),
         x="tuple", y="tuple", z="tuple"),
    _law("hexagon", lambda x, y, z: hexagon_holds(x, y, z), x="tuple", y="tuple", z="tuple"),
    _law("tensor_unit_morphism", _tensor_unit_morphism_ok, morphism="morphism"),
    _law("braiding_naturality", lambda f, g: braiding_is_natural(f, g),
         f="morphism", g="morphism"),
    _law("bifunctoriality", lambda f, h, g, k: tensor_respects_composition(h, k, f, g),
         f="morphism", h="morphism", g="morphism", k="morphism"),
    # weakdiv
    _law("weakdiv_agreement", _weakdiv_agreement_ok, f="morphism", g="morphism"),
    _law("weakdiv_diagram", _weakdiv_diagram_ok, f="morphism", g="morphism"),
    _law("weakdiv_reflexive", lambda f: weakly_divides(f, f), f="morphism"),
    # dividing the identity (a weak equivalence) characterizes the weak equivalences
    _law("weakdiv_weq_minimal",
         lambda f: weakly_divides(f, identity_morphism(f.domain)) == is_weak_equivalence(f),
         f="morphism"),
    _law("weakdiv_transitive",
         lambda f, g, h: not (weakly_divides(f, g) and weakly_divides(g, h))
         or weakly_divides(f, h),
         f="morphism", g="morphism", h="morphism"),
    # adjunction
    _law("adjunction_count", _count_singleton_source_ok,
         monoid="monoid", element="element", tuple="tuple"),
    _law("adjunction_roundtrip", lambda monoid, y: embed(monoid, y).product() == y,
         monoid="monoid", element="element"),
)}


# -- suites ------------------------------------------------------------------


def _homset_formulas(u: UniverseSpec, rng: random.Random):
    """Counting formulas for hom sets in and out of the empty tuple and the
    1-tuples, checked against raw enumeration."""
    monoid = u.monoid
    objs = universe_objects(u)
    for t in objs:
        yield "hom_count_from_empty", (monoid, t)
        yield "hom_count_into_empty", (monoid, t)
        if monoid.name == "interval":
            yield "hom_count_interval_into_empty", (monoid, t)
    for y in u.pool:
        for t in objs:
            yield "hom_count_singleton_source", (monoid, y, t)
            yield "hom_count_singleton_target", (monoid, y, t)


def _epic_monic(u: UniverseSpec, rng: random.Random):
    """Cancellation-based epic/monic decisions, probed on the universe
    extended by one unit entry, against the injective/surjective predicates."""
    for args in zip(universe_morphisms(u)):
        yield "epic_agreement", args
        yield "monic_agreement", args


def _iso(u: UniverseSpec, rng: random.Random):
    """The isomorphism predicate against brute-force two-sided inverse search."""
    for args in zip(universe_morphisms(u)):
        yield "iso_agreement", args
        yield "inverse_roundtrip", args


def _two_of_three(u: UniverseSpec, rng: random.Random):
    """The 2-of-3 property of the weak equivalence class on composable
    pairs, membership of every isomorphism, and membership consistency
    along sampled composition chains of MAX_CHAIN morphisms."""
    for pair in _composable_pairs(u, rng):
        yield "two_of_three", pair
    for args in zip(universe_morphisms(u)):
        yield "iso_in_w", args
    for args in zip(_walks(u, _rng(u, "two_of_three:chains"), MAX_CHAIN, min(u.sample_size, 2000))):
        yield "chain_membership", args


def _monoidal_laws(u: UniverseSpec, rng: random.Random):
    """Strict associativity and units, length additivity, braiding
    involution/isomorphism/naturality, the hexagon, and bifunctoriality."""
    objs = universe_objects(u)
    for args in zip(objs):
        yield "tensor_unit_object", args
    for pair in _k_tuples(objs, 2, u, rng):
        yield "tensor_length", pair
        yield "braiding_involution", pair
        if u.monoid.is_divisibility:
            yield "braiding_iso", pair
    for triple in _k_tuples(objs, 3, u, rng):
        yield "tensor_assoc_objects", triple
        yield "hexagon", triple
    morphs = universe_morphisms(u)
    for args in zip(morphs):
        yield "tensor_unit_morphism", args
    for pair in _k_tuples(morphs, 2, u, rng):
        yield "braiding_naturality", pair
    pairs = zip(_composable_pairs(u, rng), _composable_pairs(u, _rng(u, "monoidal_laws:second")))
    for (f, h), (g, k) in islice(pairs, min(u.sample_size, u.exhaustive_limit)):
        yield "bifunctoriality", (f, h, g, k)


def _weakdiv(u: UniverseSpec, rng: random.Random):
    """Weak divisibility: witness-division against the product-divisibility
    criterion, pre-order laws, minimality of the weak equivalences, and
    well-formedness of the produced squares."""
    morphs = universe_morphisms(u)
    diagram_budget = 200
    for pair in _k_tuples(morphs, 2, u, rng):
        yield "weakdiv_agreement", pair
        if diagram_budget and weakly_divides(*pair):
            diagram_budget -= 1
            yield "weakdiv_diagram", pair
    for args in zip(morphs[:: max(1, len(morphs) // 500)]):
        yield "weakdiv_reflexive", args
        yield "weakdiv_weq_minimal", args
    for triple in _draws(morphs, 3, rng, min(u.sample_size, 2000)):
        yield "weakdiv_transitive", triple


def _adjunction(u: UniverseSpec, rng: random.Random):
    """Adjunction cardinalities: hom from a 1-tuple matches the order
    relation of the underlying monoid, and product-after-embed is the identity."""
    monoid = u.monoid
    objs = universe_objects(u)
    for y in u.pool:
        yield "adjunction_roundtrip", (monoid, y)
        for t in objs:
            yield "adjunction_count", (monoid, y, t)


# name -> (case generator, whether the suite needs a divisibility monoid)
SUITES: dict[str, tuple[Callable[..., Iterator[tuple]], bool]] = {
    "homset_formulas": (_homset_formulas, False),
    "epic_monic": (_epic_monic, True),
    "iso": (_iso, True),
    "two_of_three": (_two_of_three, True),
    "monoidal_laws": (_monoidal_laws, False),
    "weakdiv": (_weakdiv, True),
    "adjunction": (_adjunction, False),
}


def run_suite(u: UniverseSpec, names: Iterable[str] | None = None) -> list[SuiteReport]:
    """Run the named suites (all capability-compatible ones by default) and
    return their reports in order.  Unknown names raise ValueError, and a
    divisibility-only suite on another monoid raises CapabilityError."""
    if names is None:
        names = [n for n, (_, div) in SUITES.items() if u.monoid.is_divisibility or not div]
    names = list(names)
    for n in names:
        if n not in SUITES:
            raise ValueError(f"unknown suite {n!r}")
    reports = []
    for n in names:
        cases, needs_divisibility = SUITES[n]
        if needs_divisibility:
            u.monoid.require_divisibility(f"suite {n!r}")
        rep = SuiteReport(n, u.monoid.name)
        rep.run(cases(u, _rng(u, n)))
        reports.append(rep)
    return reports


def all_passed(reports: Iterable[SuiteReport]) -> bool:
    return all(r.passed for r in reports)


def recheck(failure: Mapping) -> bool:
    """Deserialize a reported counterexample and re-run its law; returns
    True when the failure reproduces, by a false result or by a raise."""
    law = LAWS[failure["law"]]
    args = law.decode(monoid_by_name(failure["monoid"]), failure)
    try:
        return not law.predicate(*args)
    except CASE_ERRORS:
        return True


# -- seeded morphism sampling (used by probes and acceptance checks) ---------

_SAMPLE_PRIMES = (2, 3, 5, 7)
_SAMPLE_ENTRIES = (1, 2, 3, 4, 5, 6, 7, 9, 10)


def _random_fibering(rng: random.Random, monoid: Monoid, xs, witness_bound: int):
    """Random codomain entries and fiber owners for the given domain entries:
    each x_i is multiplied by a random witness and the product refactored."""
    if monoid not in (ZX, NAT):
        raise CapabilityError("sampling is shipped for the integer instances")
    n = len(xs)
    mult = [1] * n
    total = 1
    for _ in range(rng.randint(0, 5)):
        p = rng.choice(_SAMPLE_PRIMES)
        if total * p > witness_bound:
            break
        total *= p
        mult[rng.randrange(n)] *= p
    signed = monoid.is_invertible(-1)
    if signed:
        for i in range(n):
            if rng.random() < 0.3:
                mult[i] = -mult[i]
    entries: list[int] = []
    owners: list[int] = []
    for i in range(n):
        v = mult[i] * xs[i]
        parts = rng.randint(1, 3)
        _, factors = monoid.factor_irreducibles(v)
        vals = [1] * parts
        for q in factors:
            vals[rng.randrange(parts)] *= q
        if v < 0:
            vals[0] = -vals[0]
        if signed and parts > 1 and rng.random() < 0.5:
            i1, i2 = rng.randrange(parts), rng.randrange(parts)
            vals[i1], vals[i2] = -vals[i1], -vals[i2]
        entries.extend(vals)
        owners.extend([i + 1] * parts)
    paired = list(zip(entries, owners))
    rng.shuffle(paired)
    return [e for e, _ in paired], [o for _, o in paired]


def sample_extension(rng: random.Random, t: FactorTuple, witness_bound: int = 10_000) -> Morphism:
    """A random valid morphism out of the given non-empty integer tuple."""
    monoid = t.monoid
    if len(t) == 0:
        raise ValueError("need a non-empty domain")
    entries, owners = _random_fibering(rng, monoid, t.entries, witness_bound)
    codomain = FactorTuple(monoid, tuple(entries))
    return Morphism(t, codomain, tuple(owners))


def sample_morphism(rng: random.Random, monoid: Monoid = ZX, max_len: int = 3,
                    witness_bound: int = 10_000) -> Morphism:
    """A random valid morphism over the integers, mixing divisibility steps,
    refactoring, dropped units, and codomain shuffling."""
    n = rng.randint(1, max_len)
    sign = (lambda: rng.choice((1, -1))) if monoid.is_invertible(-1) else (lambda: 1)
    xs = [sign() * rng.choice(_SAMPLE_ENTRIES) for _ in range(n)]
    entries, owners = _random_fibering(rng, monoid, xs, witness_bound)
    # splice unused unit entries into the domain
    extra = rng.randint(0, 2)
    for _ in range(extra):
        at = rng.randrange(len(xs) + 1)
        xs.insert(at, sign())
        owners = [o + 1 if o > at else o for o in owners]
    domain = FactorTuple(monoid, tuple(xs))
    codomain = FactorTuple(monoid, tuple(entries))
    return Morphism(domain, codomain, tuple(owners))
