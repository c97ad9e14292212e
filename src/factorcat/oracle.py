"""Brute-force law verification over bounded universes of tuples.

Each suite cross-checks a fast predicate against an independent formulation:
counting formulas against raw hom-set enumeration, the epic/monic
predicates against cancellation probes built by appending a unit entry,
the isomorphism predicate against a brute-force inverse search, weak
divisibility against the product-divisibility criterion, and so on.
Failures are reported in-band with serialized counterexamples that can be
re-run through :func:`recheck`.

Suites are exhaustive while the case count stays within the universe's
limit and fall back to seeded sampling beyond it, so every report is
deterministic for a given UniverseSpec, which builds its objects, hom table
and morphisms on first use and keeps them for its own lifetime.

Each law is one entry of the ``LAWS`` registry: its name, the payload key
and wire kind of each predicate argument, and the predicate.  A suite calls
``rep.check(name, *args)``; a failing case is serialized from the entry and
:func:`recheck` decodes the same entry to re-run it.  To add a law, add a
``_law(name, predicate, key=kind, ...)`` line to the registry, with the
keys in the predicate's argument order, and call ``rep.check`` with it from
a suite.  Predicates look up library functions as module globals at call
time, so a test can swap one out and watch the oracle catch it.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from itertools import product as iter_product
from typing import Callable, Iterable, Mapping

from .errors import CapabilityError, GuardError, InvalidMorphismError
from .monoids import ZX, NAT, Monoid, monoid_by_name
from .category import (
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

# morphisms per sampled composition chain in the two_of_three suite
MAX_CHAIN = 3


@dataclass(frozen=True)
class UniverseSpec:
    """A bounded universe: a pool of elements, a tuple-length cap, and the
    determinism knobs (seed, exhaustive limit, sample size).  Construction
    counts the tuples into ``object_count`` and stops at the object guard.
    The objects, hom table and morphisms are built on first use and kept on
    the spec, so they live as long as the spec does."""

    monoid: Monoid = ZX
    pool: tuple = DEFAULT_POOL
    max_len: int = 3
    seed: int = 0
    exhaustive_limit: int = 1_000_000
    sample_size: int = 20_000

    def __post_init__(self):
        pool = dict.fromkeys(map(self.monoid.validate, self.pool))  # keeps first-seen order
        object.__setattr__(self, "pool", tuple(pool))
        if self.max_len < 0:
            raise ValueError("universe bounds must be positive")
        if self.exhaustive_limit < 1 or self.sample_size < 1:
            raise ValueError("universe limits must be positive")
        count = layer = 1
        for _ in range(self.max_len):
            layer *= len(self.pool)
            if not layer:
                break
            count += layer
            if count > UNIVERSE_OBJECT_GUARD:
                raise GuardError(
                    f"universe has at least {count} objects; the guard is {UNIVERSE_OBJECT_GUARD}")
        object.__setattr__(self, "object_count", count)


@dataclass
class SuiteReport:
    """Outcome of one suite: cases run and counterexample payloads."""

    suite: str
    monoid: str
    cases: int = 0
    failures: list = field(default_factory=list)

    MAX_STORED = 50

    def check(self, law: str, *args) -> None:
        """Run one case of the named law and record it if it fails."""
        self.cases += 1
        entry = LAWS[law]
        if not entry.predicate(*args) and len(self.failures) < self.MAX_STORED:
            failure = {"law": law, "monoid": self.monoid}
            failure.update(entry.encode(monoid_by_name(self.monoid), args))
            self.failures.append(failure)

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


def _hom_pairs(u: UniverseSpec):
    """The pairs (a, b) of universe objects that may have a morphism a -> b:
    one forces prod a <= prod b, since the product is a functor."""
    leq = u.monoid.leq
    objs = [(t, t.product()) for t in universe_objects(u)]
    for a, pa in objs:
        for b, pb in objs:
            if leq(pa, pb):
                yield a, b


@_per_spec
def universe_homs(u: UniverseSpec) -> dict:
    """Map (domain, codomain) -> index tuples, for non-empty hom sets only."""
    homs = {}
    for a, b in _hom_pairs(u):
        fns = hom_index_tuples(a, b)
        if fns:
            homs[(a, b)] = fns
    return homs


@_per_spec
def universe_morphisms(u: UniverseSpec) -> tuple[Morphism, ...]:
    return tuple(m for a, b in _hom_pairs(u) for m in hom_set(a, b))


@_per_spec
def _by_domain(u: UniverseSpec) -> tuple[dict, int]:
    """The morphisms grouped by domain, and the number of composable pairs."""
    morphs = universe_morphisms(u)
    by_dom = defaultdict(list)
    for m in morphs:
        by_dom[m.domain].append(m)
    return dict(by_dom), sum(len(by_dom[m.codomain]) for m in morphs)


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


def _composable_pairs(u: UniverseSpec, rng: random.Random):
    """Pairs (f, g) with g composable after f, exhaustive or sampled."""
    morphs = universe_morphisms(u)
    by_dom, total = _by_domain(u)
    if total <= u.exhaustive_limit:
        for f in morphs:
            for g in by_dom.get(f.codomain, ()):
                yield f, g
    else:
        size = len(morphs)
        for _ in range(u.sample_size):
            f = morphs[rng.randrange(size)]
            outs = by_dom[f.codomain]  # never empty: the identity is there
            yield f, outs[rng.randrange(len(outs))]


# -- law predicates ----------------------------------------------------------


def _count_from_empty_ok(monoid: Monoid, t: FactorTuple) -> bool:
    count = len(hom_index_tuples(empty_tuple(monoid), t))
    return count == (1 if len(t) == 0 else 0)


def _count_into_empty_ok(monoid: Monoid, t: FactorTuple) -> bool:
    count = len(hom_index_tuples(t, empty_tuple(monoid)))
    if count > 1:
        return False
    one = monoid.identity()
    expected = 1 if all(monoid.leq(x, one) for x in t.entries) else 0
    return count == expected


def _count_singleton_source_ok(monoid: Monoid, y, t: FactorTuple) -> bool:
    # the adjunction: one morphism (y) -> t exactly when y is below prod t
    count = len(hom_index_tuples(embed(monoid, y), t))
    return count == (1 if monoid.leq(y, t.product()) else 0)


def _count_singleton_target_ok(monoid: Monoid, y, t: FactorTuple) -> bool:
    count = len(hom_index_tuples(t, embed(monoid, y)))
    bound = sum(1 for x in t.entries if monoid.leq(x, y))
    if count > bound:
        return False
    if not monoid.is_divisibility:
        return True
    expected = 0
    for pivot, x in enumerate(t.entries):
        others_invertible = all(
            monoid.is_invertible(e) for i, e in enumerate(t.entries) if i != pivot
        )
        if others_invertible and monoid.leq(x, y):
            expected += 1
    return count == expected


@lru_cache(maxsize=None)
def _unit_constants(monoid: Monoid) -> tuple[FactorTuple, Morphism]:
    """The 1-tuple (1) and the identity on (), built once per monoid
    through the public embed, empty_tuple and identity_morphism."""
    return embed(monoid, monoid.identity()), identity_morphism(empty_tuple(monoid))


def _epic_by_cancellation(m: Morphism) -> bool:
    """No distinct post-compositions collide on the probe target obtained by
    appending a unit entry to the codomain."""
    target = tensor_objects(m.codomain, _unit_constants(m.monoid)[0])
    values = m.values
    seen = set()
    for gv in hom_index_tuples(m.codomain, target):
        c = tuple([values[x - 1] for x in gv])
        if c in seen:
            return False
        seen.add(c)
    return True


def _monic_by_cancellation(m: Morphism) -> bool:
    source = tensor_objects(m.domain, _unit_constants(m.monoid)[0])
    values = m.values
    seen = set()
    for gv in hom_index_tuples(source, m.domain):
        c = tuple([gv[x - 1] for x in values])
        if c in seen:
            return False
        seen.add(c)
    return True


def _iso_by_bruteforce(m: Morphism) -> bool:
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
    try:
        weak_div_diagram(f, g)  # construction validates all six morphisms
    except (InvalidMorphismError, RuntimeError):
        return False
    return True


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
    _law("epic_agreement", lambda m: _epic_by_cancellation(m) == is_epic(m),
         morphism="morphism"),
    _law("monic_agreement", lambda m: _monic_by_cancellation(m) == is_monic(m),
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


def verify_homset_formulas(u: UniverseSpec) -> SuiteReport:
    """Counting formulas for hom sets in and out of the empty tuple and the
    1-tuples, checked against raw enumeration."""
    rep = SuiteReport("homset_formulas", u.monoid.name)
    monoid = u.monoid
    objs = universe_objects(u)
    for t in objs:
        rep.check("hom_count_from_empty", monoid, t)
        rep.check("hom_count_into_empty", monoid, t)
        if monoid.name == "interval":
            rep.check("hom_count_interval_into_empty", monoid, t)
    for y in u.pool:
        for t in objs:
            rep.check("hom_count_singleton_source", monoid, y, t)
            rep.check("hom_count_singleton_target", monoid, y, t)
    return rep


def verify_epic_monic(u: UniverseSpec) -> SuiteReport:
    """Cancellation-based epic/monic decisions, probed on the universe
    extended by one unit entry, against the injective/surjective predicates."""
    rep = SuiteReport("epic_monic", u.monoid.name)
    for m in universe_morphisms(u):
        rep.check("epic_agreement", m)
        rep.check("monic_agreement", m)
    return rep


def verify_iso(u: UniverseSpec) -> SuiteReport:
    """The isomorphism predicate against brute-force two-sided inverse search."""
    rep = SuiteReport("iso", u.monoid.name)
    for m in universe_morphisms(u):
        rep.check("iso_agreement", m)
        rep.check("inverse_roundtrip", m)
    return rep


def verify_two_of_three(u: UniverseSpec) -> SuiteReport:
    """The 2-of-3 property of the weak equivalence class on composable
    pairs, membership of every isomorphism, and membership consistency
    along sampled composition chains of MAX_CHAIN morphisms."""
    rep = SuiteReport("two_of_three", u.monoid.name)
    for f, g in _composable_pairs(u, _rng(u, "two_of_three")):
        rep.check("two_of_three", f, g)
    morphs = universe_morphisms(u)
    for m in morphs:
        rep.check("iso_in_w", m)
    by_dom = _by_domain(u)[0]
    chain_rng = _rng(u, "two_of_three:chains")
    for _ in range(min(u.sample_size, 2000)):
        steps = [morphs[chain_rng.randrange(len(morphs))]]
        for _ in range(MAX_CHAIN - 1):
            outs = by_dom[steps[-1].codomain]
            steps.append(outs[chain_rng.randrange(len(outs))])
        rep.check("chain_membership", steps)
    return rep


def verify_monoidal_laws(u: UniverseSpec) -> SuiteReport:
    """Strict associativity and units, length additivity, braiding
    involution/isomorphism/naturality, the hexagon, and bifunctoriality."""
    rep = SuiteReport("monoidal_laws", u.monoid.name)
    rng = _rng(u, "monoidal_laws")
    objs = universe_objects(u)
    for t in objs:
        rep.check("tensor_unit_object", t)
    for x, y in _k_tuples(objs, 2, u, rng):
        rep.check("tensor_length", x, y)
        rep.check("braiding_involution", x, y)
        if u.monoid.is_divisibility:
            rep.check("braiding_iso", x, y)
    for x, y, z in _k_tuples(objs, 3, u, rng):
        rep.check("tensor_assoc_objects", x, y, z)
        rep.check("hexagon", x, y, z)
    morphs = universe_morphisms(u)
    for m in morphs:
        rep.check("tensor_unit_morphism", m)
    for f, g in _k_tuples(morphs, 2, u, rng):
        rep.check("braiding_naturality", f, g)
    pair_stream = _composable_pairs(u, rng)
    pair_stream_2 = _composable_pairs(u, _rng(u, "monoidal_laws:second"))
    budget = min(u.sample_size, u.exhaustive_limit)
    for _ in range(budget):
        try:
            f, h = next(pair_stream)
            g, k = next(pair_stream_2)
        except StopIteration:
            break
        rep.check("bifunctoriality", f, h, g, k)
    return rep


def verify_weakdiv(u: UniverseSpec) -> SuiteReport:
    """Weak divisibility: witness-division against the product-divisibility
    criterion, pre-order laws, minimality of the weak equivalences, and
    well-formedness of the produced squares."""
    rep = SuiteReport("weakdiv", u.monoid.name)
    rng = _rng(u, "weakdiv")
    morphs = universe_morphisms(u)
    diagram_budget = 200
    for f, g in _k_tuples(morphs, 2, u, rng):
        rep.check("weakdiv_agreement", f, g)
        if diagram_budget and weakly_divides(f, g):
            diagram_budget -= 1
            rep.check("weakdiv_diagram", f, g)
    for f in morphs[:: max(1, len(morphs) // 500)]:
        rep.check("weakdiv_reflexive", f)
        rep.check("weakdiv_weq_minimal", f)
    for f, g, h in _draws(morphs, 3, rng, min(u.sample_size, 2000)):
        rep.check("weakdiv_transitive", f, g, h)
    return rep


def verify_adjunction(u: UniverseSpec) -> SuiteReport:
    """Adjunction cardinalities: hom from a 1-tuple matches the order
    relation of the underlying monoid, and product-after-embed is the identity."""
    rep = SuiteReport("adjunction", u.monoid.name)
    monoid = u.monoid
    objs = universe_objects(u)
    for y in u.pool:
        rep.check("adjunction_roundtrip", monoid, y)
        for t in objs:
            rep.check("adjunction_count", monoid, y, t)
    return rep


SUITES: dict[str, Callable[[UniverseSpec], SuiteReport]] = {
    "homset_formulas": verify_homset_formulas,
    "epic_monic": verify_epic_monic,
    "iso": verify_iso,
    "two_of_three": verify_two_of_three,
    "monoidal_laws": verify_monoidal_laws,
    "weakdiv": verify_weakdiv,
    "adjunction": verify_adjunction,
}

_DIVISIBILITY_ONLY = frozenset({"epic_monic", "iso", "two_of_three", "weakdiv"})


def run_suite(u: UniverseSpec, names: Iterable[str] | None = None) -> list[SuiteReport]:
    """Run the named suites (all capability-compatible ones by default) and
    return their reports in order.  Unknown names raise ValueError, and a
    divisibility-only suite on another monoid raises CapabilityError."""
    if names is None:
        selected = [
            n for n in SUITES
            if u.monoid.is_divisibility or n not in _DIVISIBILITY_ONLY
        ]
    else:
        selected = list(names)
        for n in selected:
            if n not in SUITES:
                raise ValueError(f"unknown suite {n!r}")
    reports = []
    for n in selected:
        if n in _DIVISIBILITY_ONLY:
            u.monoid.require_divisibility(f"suite {n!r}")
        reports.append(SUITES[n](u))
    return reports


def all_passed(reports: Iterable[SuiteReport]) -> bool:
    return all(r.passed for r in reports)


def recheck(failure: Mapping) -> bool:
    """Deserialize a reported counterexample and re-run its law; returns
    True when the failure reproduces."""
    law = LAWS[failure["law"]]
    return not law.predicate(*law.decode(monoid_by_name(failure["monoid"]), failure))


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
