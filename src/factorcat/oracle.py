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
deterministic for a given UniverseSpec, which builds its objects and
morphisms on first use and keeps them for its own lifetime.  A sample
draws an index below n as random.Random.randrange(n) does, by
getrandbits(n.bit_length()) again until the result is below n (see
``_below``), so reports depend on the Mersenne Twister's output alone and
not on ``random``'s private ``_randbelow``.

The morphisms are built codomain first, without the hom-set enumerator: a
codomain and a map fix every fiber product, and the domains with that map
are the tuples of pool elements below them (see ``_by_domain``).  So the
enumerator is checked against an independent construction, and a build
never calls it.  Each (codomain, map) that the walk finds a
domain for is kept once, as a block, and each domain's row as an array of
block ids: the default universe's 160,991 morphisms are 8,320 blocks, each
morphism built when it is read (``_MorphismRows``), and every suite reads
them there (``_by_domain``); only :func:`universe_morphisms` builds the
tuple of them all.  The inverse search skips a morphism whose codomain
product is not below its domain product, since the product is a functor
and no morphism can then run back.

:func:`run_suite` runs every suite through one per-suite function, and
where that pays, runs ``FORKED_SUITES`` in a forked child (see ``_forked``).

Each law is one entry of the ``LAWS`` registry: its name, the payload key
and wire kind of each predicate argument, and the predicate.  A suite is a
generator in ``SUITES`` that yields groups ``(law names, population)``, the
laws sharing an iterable of argument tuples.  :meth:`SuiteReport.run` binds
a group's predicates once and runs them argument by argument, in the
group's law order, so a passing case costs one call; only a failing case is
looked up again, to be serialized from its entry, and :func:`recheck`
decodes the same entry to re-run it.  To add a law, add a ``_law(name,
predicate, key=kind, ...)`` line, keys in the predicate's argument order,
and name it in a group.  Predicates look up library functions as module
globals at call time, so a test can swap one out and watch the oracle catch it.

The two cancellation probes are memoized on exactly what each reads, the
epic probe on (codomain, values) and the monic probe on (domain, values),
in lru_caches of ``PROBE_CACHE_SIZE`` entries: a universe has far fewer
distinct probe inputs than morphisms.  The checked predicates
``is_epic``/``is_monic`` still run on every morphism, as a cache on the
probe's key would hide a fault that depends on the rest of the morphism.
The probes and the inverse search, the only checks that ask for a hom set
again, read it through ``_homs``, as large an lru_cache; the counting laws
call the enumerator directly.  A test that swaps a global they call must
clear them.
"""

from __future__ import annotations

import json
import os
import random
import signal
import threading
from array import array
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from itertools import accumulate, chain, islice, product as iter_product, repeat
from typing import Callable, Iterable, Iterator, Mapping

from .errors import GuardError
from .monoids import MONOID_CACHE_SIZE, ZX, Monoid, _shown, monoid_by_name, require_monoid
from .category import (
    HOM_RESULT_GUARD,
    FactorTuple,
    Morphism,
    compose,
    empty_tuple,
    embed,
    hom_index_tuples,
    identity_morphism,
    inverse,
    is_epic,
    is_isomorphism,
    is_monic,
    _too_many_maps,
    _trusted_morphism,
    _trusted_tuple,
)
from .monoidal import braiding, tensor_morphisms, tensor_objects
from .weq import is_weak_equivalence
from .divisibility import weak_div_diagram, weakly_divides
from .encoding import decode_morphism, decode_tuple, encode_morphism, encode_tuple

DEFAULT_POOL = (-1, 1, 2, 3, 5, 6)

UNIVERSE_OBJECT_GUARD = 2000
UNIVERSE_RUN_GUARD = 10**6  # most exhaustive cases or draws a law group may ask for

# candidate index maps over all pairs of objects; every map kept as a
# morphism costs memory
UNIVERSE_CANDIDATE_GUARD = 2_000_000

# morphisms per sampled composition chain in the two_of_three suite
MAX_CHAIN = 3

# entries of each oracle memo: the two probes and _homs (see the module docstring)
PROBE_CACHE_SIZE = 2**13

# what a predicate raises on the values of a bad case, so the case fails; any
# other exception (a TypeError from miswired code, a GuardError) propagates
CASE_ERRORS = (ArithmeticError, LookupError, ValueError)


@dataclass(frozen=True)
class UniverseSpec:
    """A bounded universe: a pool of elements, a tuple-length cap, and the
    determinism knobs (seed, exhaustive limit, sample size).  Construction
    refuses either of the last two above the run guard, counts the tuples
    into ``object_count`` and stops at the object guard, then stops at the
    candidate guard, counted from the tuple lengths alone.
    The objects and morphisms are built on first use, the morphisms by one
    codomain-first walk over the index maps, and kept on the spec as blocks
    grouped by domain, so they live as long as the spec does."""

    monoid: Monoid = ZX
    pool: tuple = DEFAULT_POOL
    max_len: int = 3
    seed: int = 0
    exhaustive_limit: int = 1_000_000
    sample_size: int = 20_000

    def __post_init__(self):
        require_monoid(self.monoid, "universe")
        try:
            pool = iter(self.pool)
        except TypeError:
            raise ValueError(f"universe pool is not iterable: {type(self.pool).__name__}") from None
        pool = dict.fromkeys(map(self.monoid.validate, pool))  # keeps first-seen order
        object.__setattr__(self, "pool", tuple(pool))
        for name in ("max_len", "exhaustive_limit", "sample_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"universe {name} must be an integer, got {value!r}")
        if self.max_len < 0:
            raise ValueError(f"universe max_len must be non-negative, got {self.max_len}")
        if self.exhaustive_limit < 1 or self.sample_size < 1:
            raise ValueError("universe limits must be positive")
        for name in ("exhaustive_limit", "sample_size"):
            if (value := getattr(self, name)) > UNIVERSE_RUN_GUARD:
                raise GuardError(f"universe {name} is {value}; the guard is {UNIVERSE_RUN_GUARD}")
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
    """Outcome of one suite: cases run, failing cases per law, and the
    counterexample payloads of the first MAX_STORED failures."""

    suite: str
    monoid: str
    cases: int = 0
    failures: list = field(default_factory=list)
    failed_by_law: dict = field(default_factory=dict)  # law -> failing cases, every one counted

    MAX_STORED = 50

    def run(self, groups: Iterable[tuple[tuple[str, ...], Iterable[tuple]]]) -> None:
        """Check each (law names, population) group: its laws, each bound once,
        on each argument tuple in turn.  A false result or a raise of
        CASE_ERRORS fails the case, counted in ``failed_by_law``; the first
        MAX_STORED failures keep a payload ("raised" names the exception)."""
        for names, population in groups:
            checks = [(law, LAWS[law].predicate) for law in names]
            size = 0
            for size, args in enumerate(population, 1):
                for law, predicate in checks:
                    try:
                        if predicate(*args):
                            continue
                        raised = {}
                    except CASE_ERRORS as exc:
                        raised = {"raised": type(exc).__name__}
                    self.failed_by_law[law] = self.failed_by_law.get(law, 0) + 1
                    if len(self.failures) < self.MAX_STORED:
                        payload = LAWS[law].encode(monoid_by_name(self.monoid), args)
                        self.failures.append({"law": law, "monoid": self.monoid, **payload, **raised})
            self.cases += size * len(checks)

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
        out += [_trusted_tuple(u.monoid, combo) for combo in iter_product(u.pool, repeat=k)]
    return tuple(out)


class _MorphismRows:
    """Morphisms stored as rows (domain, array of block ids), where block k is
    the (codomain, map) pair ``codomains[k]``, ``maps[k]``.  Each morphism is
    built by ``_trusted_morphism`` when it is read, so the table holds one
    4-byte id per morphism.  The suites read it by an int in range, as every
    drawn index is, or row by row by iteration."""

    def __init__(self, codomains: list, maps: list, rows: list[tuple[FactorTuple, array]]):
        self._codomains, self._maps, self._rows = codomains, maps, rows
        self._starts = list(accumulate((len(row) for _, row in rows), initial=0))

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, i: int) -> Morphism:  # unchecked: 0 <= i < len(self)
        starts = self._starts
        r = bisect_right(starts, i) - 1
        a, row = self._rows[r]
        k = row[i - starts[r]]
        return _trusted_morphism(a, self._codomains[k], self._maps[k])

    def __iter__(self) -> Iterator[Morphism]:
        cods, maps = self._codomains.__getitem__, self._maps.__getitem__
        return chain.from_iterable(
            map(_trusted_morphism, repeat(a, len(row)), map(cods, row), map(maps, row))
            for a, row in self._rows)


@_per_spec
def _by_domain(u: UniverseSpec) -> tuple[_MorphismRows, dict, int]:
    """Every morphism of the universe by domain, in object order; the
    morphisms out of each domain; and the number of composable pairs.

    Built codomain first: once a codomain b and a map [len b] -> [n] are
    fixed, so is each fiber product, and the morphisms with that map are the
    domains whose k-th entry is a pool element below the k-th fiber product.
    So for each b, in object order, and each domain length n, the walk runs
    over the n^len(b) maps in lexicographic order, updating the fiber
    products position by position, and records each (b, map) with a domain
    below it as one block, whose id it appends to each such domain's row.
    Each row thus lists its morphisms by codomain, then by map, and equal
    maps share one tuple.

    A hom set of more than HOM_RESULT_GUARD maps raises GuardError, as the
    enumerator's does, as soon as the walk finds one map too many; only the
    passes with n^len(b) above the guard count.  The candidate guard keeps
    every n^len(b) under the enumerator's other guard, 10^7."""
    monoid, pool = u.monoid, u.pool
    leq, op = monoid.leq, monoid.op
    objs = universe_objects(u)
    rows = {t.entries: (t, array("i")) for t in objs}
    sources: dict = {}  # fiber products -> the (domain, row) pairs of the domains below them
    maps: dict = {}  # map -> the one tuple kept for it
    codomains: list = []  # block id -> its codomain
    block_maps: list = []  # block id -> its map
    incoming = []  # the number of morphisms into each object, in object order
    assign: list[int] = []  # walk also reads b, ys, m, n, fibers and counts, set by the loop below

    def walk(pos: int) -> int:
        """Record the morphisms into b whose map extends assign; return how many."""
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
            below = [[x for x in pool if leq(x, f)] for f in key]  # in pool order
            domains = sources[key] = [rows[e] for e in iter_product(*below)]
        if domains:
            if counts is not None:  # a hom set of this pass may pass the result guard
                for a, _ in domains:
                    if counts[a] == HOM_RESULT_GUARD:
                        raise _too_many_maps(n, m)
                    counts[a] += 1
            values = tuple(assign)
            block = len(codomains)
            codomains.append(b)
            block_maps.append(maps.setdefault(values, values))
            for _, row in domains:
                row.append(block)
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
    by_dom = {a: _MorphismRows(codomains, block_maps, [(a, row)]) for a, row in rows.values()}
    pairs = sum(k * len(by_dom[t]) for k, t in zip(incoming, objs))
    return _MorphismRows(codomains, block_maps, list(rows.values())), by_dom, pairs


@_per_spec
def universe_morphisms(u: UniverseSpec) -> tuple[Morphism, ...]:
    """The tuple of every morphism of the universe, by domain, then
    codomain, then map."""
    return tuple(_by_domain(u)[0])


@_per_spec
def universe_homs(u: UniverseSpec) -> dict:
    """Map (domain, codomain) -> index tuples, for non-empty hom sets only."""
    homs = defaultdict(list)
    for m in universe_morphisms(u):
        homs[m.domain, m.codomain].append(m.values)
    return {pair: tuple(fns) for pair, fns in homs.items()}


def _rng(u: UniverseSpec, suite: str) -> random.Random:
    return random.Random(f"{u.seed}:{suite}")


def _below(rng: random.Random, size: int) -> Callable[[], int]:
    """A function drawing from range(size) by the calls rng.randrange(size)
    makes: getrandbits(size.bit_length()), again while the result is not
    below size.  A size below 1 raises ValueError, as randrange does."""
    if size < 1:
        raise ValueError(f"empty range for a draw of size {size}")
    bits, getrandbits = size.bit_length(), rng.getrandbits

    def draw() -> int:
        r = getrandbits(bits)
        while r >= size:
            r = getrandbits(bits)
        return r

    return draw


def _draws(items, k: int, rng: random.Random, count: int):
    """count seeded k-tuples of items, drawn left to right."""
    read, draw = items.__getitem__, _below(rng, len(items))
    for _ in range(count):
        yield tuple([read(draw()) for _ in range(k)])


def _k_tuples(items, k: int, u: UniverseSpec, rng: random.Random):
    """All ordered k-tuples when within the limit, else a seeded sample."""
    if len(items) ** k <= u.exhaustive_limit:
        return iter_product(items, repeat=k)
    return _draws(items, k, rng, u.sample_size)


def _walks(u: UniverseSpec, rng: random.Random, k: int, count: int):
    """count seeded composable chains [f1, ..., fk] of the universe, drawn step by step."""
    morphs, by_dom, _ = _by_domain(u)
    read, draw = morphs.__getitem__, _below(rng, len(morphs))
    # one draw function per out-degree (never 0: the identity is there)
    below = {n: _below(rng, n) for n in {len(row) for row in by_dom.values()}}
    outs = {a: (row.__getitem__, below[len(row)]) for a, row in by_dom.items()}
    for _ in range(count):
        step = read(draw())
        steps = [step]
        for _ in range(k - 1):
            read_out, draw_out = outs[step.codomain]
            step = read_out(draw_out())
            steps.append(step)
        yield steps


def _composable_pairs(u: UniverseSpec, rng: random.Random):
    """Pairs (f, g) with g composable after f, exhaustive or sampled."""
    morphs, by_dom, total = _by_domain(u)
    if total > u.exhaustive_limit:
        return _walks(u, rng, 2, u.sample_size)
    return ((f, g) for f in morphs for g in by_dom[f.codomain])


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
def _homs(domain: FactorTuple, codomain: FactorTuple) -> tuple[tuple[int, ...], ...]:
    """The hom set's maps from ``hom_index_tuples``, looked up at call time."""
    return hom_index_tuples(domain, codomain)


@lru_cache(maxsize=PROBE_CACHE_SIZE)
def _epic_probe(codomain: FactorTuple, values: tuple[int, ...]) -> bool:
    """No distinct post-compositions collide on the probe target obtained by
    appending a unit entry to the codomain."""
    target = tensor_objects(codomain, _unit_constants(codomain.monoid)[0])
    seen = set()
    for gv in _homs(codomain, target):
        c = tuple([values[x - 1] for x in gv])
        if c in seen:
            return False
        seen.add(c)
    return True


@lru_cache(maxsize=PROBE_CACHE_SIZE)
def _monic_probe(domain: FactorTuple, values: tuple[int, ...]) -> bool:
    source = tensor_objects(domain, _unit_constants(domain.monoid)[0])
    seen = set()
    for gv in _homs(source, domain):
        c = tuple([gv[x - 1] for x in values])
        if c in seen:
            return False
        seen.add(c)
    return True


def _iso_by_bruteforce(m: Morphism) -> bool:
    if not m.domain.monoid.leq(m.codomain.product(), m.domain.product()):
        return False  # the product is a functor, so there is no morphism back
    candidates = _homs(m.codomain, m.domain)
    if not candidates:  # the usual case; it needs no identities
        return False
    id_dom = identity_morphism(m.domain)
    id_cod = identity_morphism(m.codomain)
    for g in map(_trusted_morphism, repeat(m.codomain), repeat(m.domain), candidates):
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
    id_o = _unit_constants(m.domain.monoid)[1]
    return tensor_morphisms(m, id_o) == m == tensor_morphisms(id_o, m)


def _braiding_involution_ok(x: FactorTuple, y: FactorTuple) -> bool:
    return compose(braiding(y, x), braiding(x, y)) == identity_morphism(tensor_objects(x, y))


def _hexagon_ok(x: FactorTuple, y: FactorTuple, z: FactorTuple) -> bool:
    lhs = braiding(x, tensor_objects(y, z))
    return lhs == compose(tensor_morphisms(identity_morphism(y), braiding(x, z)),
                          tensor_morphisms(braiding(x, y), identity_morphism(z)))


def _braiding_natural_ok(f: Morphism, g: Morphism) -> bool:
    lhs = compose(braiding(f.codomain, g.codomain), tensor_morphisms(f, g))
    return lhs == compose(tensor_morphisms(g, f), braiding(f.domain, g.domain))


def _bifunctoriality_ok(f: Morphism, h: Morphism, g: Morphism, k: Morphism) -> bool:
    # (h (x) k) o (f (x) g) == (h o f) (x) (k o g) for composable h o f and k o g
    lhs = compose(tensor_morphisms(h, k), tensor_morphisms(f, g))
    return lhs == tensor_morphisms(compose(h, f), compose(k, g))


def _weakdiv_agreement_ok(f: Morphism, g: Morphism) -> bool:
    # independent route: prod(dom g) * prod(cod f) divides prod(dom f) * prod(cod g)
    monoid = f.domain.monoid
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


def _decode_steps(monoid: Monoid, value) -> list[Morphism]:
    if not isinstance(value, list) or not value:
        raise ValueError(f"expected a non-empty JSON array of morphisms, got {_shown(value)}")
    return [decode_morphism(m, monoid) for m in value]


# wire kind -> (encode, decode); both take the payload's monoid and a value
_WIRE: dict[str, tuple[Callable, Callable]] = {
    "monoid": (lambda mo, v: mo.name, lambda mo, v: monoid_by_name(v)),
    "element": (lambda mo, v: mo.encode(v), lambda mo, v: mo.decode(v)),
    "tuple": (lambda mo, v: encode_tuple(v), decode_tuple),
    "morphism": (lambda mo, v: encode_morphism(v), lambda mo, v: decode_morphism(v, mo)),
    "morphisms": (lambda mo, v: [encode_morphism(m) for m in v], _decode_steps),
}


@dataclass(frozen=True)
class Law:
    """A law: its name, the (payload key, wire kind) of each argument, the
    predicate, True on a passing case, and the key runs whose morphisms compose."""

    name: str
    args: tuple[tuple[str, str], ...]
    predicate: Callable[..., bool]
    composes: tuple[tuple[str, ...], ...] = ()

    def encode(self, monoid: Monoid, args) -> dict:
        return {key: _WIRE[kind][0](monoid, a) for (key, kind), a in zip(self.args, args)}

    def decode(self, monoid: Monoid, payload: Mapping) -> list:
        """The predicate's arguments; ValueError on a case no suite yields."""
        args = {key: _WIRE[kind][1](monoid, payload[key]) for key, kind in self.args}
        for keys in self.composes:  # a list is a run of steps in itself
            steps = [m for key in keys for m in (args[key] if isinstance(args[key], list) else [args[key]])]
            if any(f.codomain != g.domain for f, g in zip(steps, steps[1:])):
                raise ValueError(f"{self.name} payload: {' then '.join(keys)} do not compose")
        return list(args.values())


def _law(name: str, predicate: Callable[..., bool], *, composes=(), **kinds: str) -> Law:
    return Law(name, tuple(kinds.items()), predicate, composes)


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
    _law("two_of_three", _two_of_three_ok, f="morphism", g="morphism", composes=(("f", "g"),)),
    _law("iso_in_w", lambda m: not is_isomorphism(m) or is_weak_equivalence(m),
         morphism="morphism"),
    _law("chain_membership", _chain_membership_ok, steps="morphisms", composes=(("steps",),)),
    # monoidal_laws
    _law("tensor_unit_object", _tensor_unit_object_ok, tuple="tuple"),
    _law("tensor_length", lambda x, y: len(tensor_objects(x, y)) == len(x) + len(y),
         x="tuple", y="tuple"),
    _law("braiding_involution", _braiding_involution_ok, x="tuple", y="tuple"),
    _law("braiding_iso", lambda x, y: is_isomorphism(braiding(x, y)), x="tuple", y="tuple"),
    _law("tensor_assoc_objects",
         lambda x, y, z: tensor_objects(tensor_objects(x, y), z)
         == tensor_objects(x, tensor_objects(y, z)),
         x="tuple", y="tuple", z="tuple"),
    _law("hexagon", _hexagon_ok, x="tuple", y="tuple", z="tuple"),
    _law("tensor_unit_morphism", _tensor_unit_morphism_ok, morphism="morphism"),
    _law("braiding_naturality", _braiding_natural_ok, f="morphism", g="morphism"),
    _law("bifunctoriality", _bifunctoriality_ok,
         f="morphism", h="morphism", g="morphism", k="morphism", composes=(("f", "h"), ("g", "k"))),
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
    empty = ("hom_count_from_empty", "hom_count_into_empty")
    if monoid.name == "interval":
        empty += ("hom_count_interval_into_empty",)
    yield empty, [(monoid, t) for t in objs]
    yield ("hom_count_singleton_source", "hom_count_singleton_target"), [
        (monoid, y, t) for y in u.pool for t in objs]


def _epic_monic(u: UniverseSpec, rng: random.Random):
    """Cancellation-based epic/monic decisions, probed on the universe
    extended by one unit entry, against the injective/surjective predicates."""
    yield ("epic_agreement", "monic_agreement"), zip(_by_domain(u)[0])


def _iso(u: UniverseSpec, rng: random.Random):
    """The isomorphism predicate against brute-force two-sided inverse search."""
    yield ("iso_agreement", "inverse_roundtrip"), zip(_by_domain(u)[0])


def _two_of_three(u: UniverseSpec, rng: random.Random):
    """The 2-of-3 property of the weak equivalence class on composable
    pairs, membership of every isomorphism, and membership consistency
    along sampled composition chains of MAX_CHAIN morphisms."""
    yield ("two_of_three",), _composable_pairs(u, rng)
    yield ("iso_in_w",), zip(_by_domain(u)[0])
    chains = _walks(u, _rng(u, "two_of_three:chains"), MAX_CHAIN, min(u.sample_size, 2000))
    yield ("chain_membership",), zip(chains)


def _monoidal_laws(u: UniverseSpec, rng: random.Random):
    """Strict associativity and units, length additivity, braiding
    involution/isomorphism/naturality, the hexagon, and bifunctoriality."""
    objs = universe_objects(u)
    yield ("tensor_unit_object",), zip(objs)
    pair_laws = ("tensor_length", "braiding_involution")
    if u.monoid.is_divisibility:
        pair_laws += ("braiding_iso",)
    yield pair_laws, _k_tuples(objs, 2, u, rng)
    yield ("tensor_assoc_objects", "hexagon"), _k_tuples(objs, 3, u, rng)
    morphs = _by_domain(u)[0]
    yield ("tensor_unit_morphism",), zip(morphs)
    yield ("braiding_naturality",), _k_tuples(morphs, 2, u, rng)
    pairs = zip(_composable_pairs(u, rng), _composable_pairs(u, _rng(u, "monoidal_laws:second")))
    yield ("bifunctoriality",), (
        (f, h, g, k) for (f, h), (g, k) in islice(pairs, min(u.sample_size, u.exhaustive_limit)))


def _weakdiv(u: UniverseSpec, rng: random.Random):
    """Weak divisibility: witness-division against the product-divisibility
    criterion, pre-order laws, minimality of the weak equivalences, and
    well-formedness of the produced squares."""
    morphs = _by_domain(u)[0]
    pairs = iter(_k_tuples(morphs, 2, u, rng))
    for _ in range(200):  # each of the first 200 dividing pairs also checks its square
        for pair in pairs:
            if weakly_divides(*pair):
                yield ("weakdiv_agreement", "weakdiv_diagram"), (pair,)
                break
            yield ("weakdiv_agreement",), (pair,)
    yield ("weakdiv_agreement",), pairs
    every = range(0, len(morphs), max(1, len(morphs) // 500))
    yield ("weakdiv_reflexive", "weakdiv_weq_minimal"), zip(map(morphs.__getitem__, every))
    yield ("weakdiv_transitive",), _draws(morphs, 3, rng, min(u.sample_size, 2000))


def _adjunction(u: UniverseSpec, rng: random.Random):
    """Adjunction cardinalities: hom from a 1-tuple matches the order
    relation of the underlying monoid, and product-after-embed is the identity."""
    monoid = u.monoid
    objs = universe_objects(u)
    for y in u.pool:
        yield ("adjunction_roundtrip",), [(monoid, y)]
        yield ("adjunction_count",), [(monoid, y, t) for t in objs]


# name -> (group generator, whether the suite needs a divisibility monoid)
SUITES: dict[str, tuple[Callable[..., Iterator[tuple]], bool]] = {
    "homset_formulas": (_homset_formulas, False),
    "epic_monic": (_epic_monic, True),
    "iso": (_iso, True),
    "two_of_three": (_two_of_three, True),
    "monoidal_laws": (_monoidal_laws, False),
    "weakdiv": (_weakdiv, True),
    "adjunction": (_adjunction, False),
}

# the suites a forked child runs (see run_suite), all of them reading the
# morphisms: on the default universe they take less CPU time than the other
# four, so this process sets a verify's time, and a child whose CPU runs
# somewhat slower than this one's does not lengthen it (the two CPUs of a
# shared virtual machine change speed apart; README has the measured ratio)
FORKED_SUITES = ("epic_monic", "iso", "two_of_three")

# the suites that never read the morphisms: with no other suite in its
# share, this process would only wait on the child
_WITHOUT_MORPHISMS = ("homset_formulas", "adjunction")


def _run(u: UniverseSpec, name: str) -> SuiteReport:
    report = SuiteReport(name, u.monoid.name)
    report.run(SUITES[name][0](u, _rng(u, name)))
    return report


def _can_fork() -> bool:
    """Whether a second process can take a share of the suites: fork exists,
    the process may run on two CPUs, and it has no other thread (a fork
    copies only the calling one, and Python 3.12 warns about it)."""
    return (
        hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
        and threading.active_count() == 1
    )


def _forked(u: UniverseSpec, names: list[str], in_child: list[bool]) -> list[SuiteReport] | None:
    """Run the suites flagged ``in_child`` in a forked child and the others
    here; return every report in the order of ``names``.

    The blocks (``_by_domain``) are built before the fork, and both
    processes' suites read them, so the child copies few pages of the
    parent's heap.  The child writes its reports to a pipe as JSON and leaves by
    os._exit, so nothing of the caller's runs in it.  An Exception in the build,
    the pipe, the fork, this process's share or the child's reply kills and
    reaps the child, if there is one, and returns None, so run_suite runs every
    suite here and the reports, and the first error, are those of a run in one
    process.  Any other BaseException kills and reaps it and propagates."""
    theirs = [n for n, child in zip(names, in_child) if child]
    pid = 0  # the child's, until it is reaped
    try:
        _by_domain(u)
        read_end, write_end = os.pipe()
        with open(read_end, encoding="utf-8") as pipe, open(write_end, "w", encoding="utf-8") as out:
            pid = os.fork()
            if pid == 0:
                try:
                    json.dump([vars(_run(u, n)) for n in theirs], out)
                    out.flush()
                    os._exit(0)
                finally:
                    os._exit(1)  # the share raised
            out.close()  # so the read ends once the child's copy closes
            reports = [None if child else _run(u, n) for n, child in zip(names, in_child)]
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        pid = 0
        received = [SuiteReport(**r) for r in json.loads(data)]
        if status or [r.suite for r in received] != theirs:
            raise ChildProcessError(f"the child's share ended with status {status}")
        received = iter(received)
        return [next(received) if child else r for r, child in zip(reports, in_child)]
    except Exception:
        return None  # run_suite runs every suite here, once the child is reaped
    finally:
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_suite(u: UniverseSpec, names: Iterable[str] | None = None) -> list[SuiteReport]:
    """Run the named suites (all capability-compatible ones by default) and
    return their reports in order.  A spec that is not a UniverseSpec, names
    given as one str or not iterable, and unknown names raise ValueError; a
    divisibility-only suite on another monoid raises CapabilityError, before
    any suite runs.

    A forked child may run ``FORKED_SUITES`` (see ``_forked``); the reports
    are those of a run in one process."""
    if not isinstance(u, UniverseSpec):
        raise ValueError(f"suites run on a UniverseSpec, not {type(u).__name__}")
    if names is None:
        names = [n for n, (_, div) in SUITES.items() if u.monoid.is_divisibility or not div]
    elif isinstance(names, str) or not isinstance(names, Iterable):
        raise ValueError(f"suite names are an iterable of str, not {type(names).__name__}")
    names = list(names)
    for n in names:
        if n.__class__ is not str or n not in SUITES:
            raise ValueError(f"unknown suite {_shown(n)}")
    for n in names:
        if SUITES[n][1]:
            u.monoid.require_divisibility(f"suite {n!r}")
    in_child = [n in FORKED_SUITES for n in names]
    here_reads_morphisms = any(n not in FORKED_SUITES + _WITHOUT_MORPHISMS for n in names)
    forked = any(in_child) and here_reads_morphisms and _can_fork() and _forked(u, names, in_child)
    return forked or [_run(u, n) for n in names]


def all_passed(reports: Iterable[SuiteReport]) -> bool:
    return all(r.passed for r in reports)


def recheck(failure: Mapping) -> bool:
    """Deserialize a reported counterexample and re-run its law; returns
    True when the failure reproduces, by a false result or by a raise.  A
    payload that is not a mapping, names no known law, lacks a key its law
    reads or holds a case no suite yields (see ``Law.decode``) raises ValueError."""
    if not isinstance(failure, Mapping):
        raise ValueError(f"a payload is a mapping, not {type(failure).__name__}")
    if "law" not in failure:
        raise ValueError("payload lacks the key 'law'")
    name = failure["law"]
    if not isinstance(name, str) or name not in LAWS:
        raise ValueError(f"unknown law {_shown(name)}")
    law = LAWS[name]
    for key in ("monoid", *(key for key, _ in law.args)):
        if key not in failure:
            raise ValueError(f"{name} payload lacks the key {key!r}")
    args = law.decode(monoid_by_name(failure["monoid"]), failure)
    try:
        return not law.predicate(*args)
    except CASE_ERRORS:
        return True
