"""The three benchmark workloads: input generation, the timed operation and
the correctness check of each output.

Inputs come from the benchmark's own seeded generators, never from the
library's samplers, so a library change cannot alter them.  Every workload is
a closed loop with one client: operation ``i`` runs input ``i % len(inputs)``
and the next one starts when it returns.  Only the library calls are timed;
the checks run after the clock stops.

A *pass* is one walk over all inputs.  Library caches are cleared before
each pass after the first, so every pass starts cold.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from collections import Counter
from math import gcd, prod
from time import perf_counter

from factorcat import (
    ZX,
    FactorTuple,
    atomic_chain,
    cli,
    compose,
    decode_morphism,
    decompose_eip,
    encode_morphism,
    hom_set,
    is_epic,
    is_isomorphism,
    is_monic,
    is_weak_equivalence,
    is_weakly_irreducible,
    is_weakly_prime,
    tensor_morphisms,
    total_witness,
    weak_div_diagram,
    weak_divisor_classes,
    weakly_divides,
    zeta_mor,
)
from factorcat.category import HOM_ENUMERATION_GUARD

PRIMES = (2, 3, 5, 7, 11, 13)
SIGNS = (1, -1)

# Case counts of the seven suites on the default universe; they do not
# depend on the seed.
VERIFY_CASES = {
    "homset_formulas": 3626,
    "epic_monic": 321982,
    "iso": 321982,
    "two_of_three": 182991,
    "monoidal_laws": 442493,
    "weakdiv": 23204,
    "adjunction": 1560,
}


def clear_library_caches() -> None:
    """Empty every functools cache of the library, through the public
    ``cache_clear`` of each cached function."""
    for name, module in list(sys.modules.items()):
        if name == "factorcat" or name.startswith("factorcat."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- integer helpers, independent of the library -----------------------------


def prime_factors(n: int) -> list[int]:
    n, out, d = abs(n), [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def divisors(n: int) -> list[int]:
    out = [1]
    for p, e in Counter(prime_factors(n)).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def split(rng: random.Random, v: int, parts: int) -> list[int]:
    """Random entries whose product is v."""
    vals = [1] * parts
    for p in prime_factors(v):
        vals[rng.randrange(parts)] *= p
    if v < 0:
        vals[rng.randrange(parts)] *= -1
    if parts > 1 and rng.random() < 0.3:
        i, j = rng.sample(range(parts), 2)
        vals[i], vals[j] = -vals[i], -vals[j]
    return vals


def random_entry(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice(SIGNS) * prod(rng.choice(PRIMES) for _ in range(rng.randint(lo, hi)))


def hom_count(xs: tuple, ys: tuple) -> int:
    """Number of order-constrained maps ys -> positions of xs, by dynamic
    programming over gcd(fiber product, x_i); independent of the enumerator."""
    targets = [abs(x) for x in xs]
    states = {tuple([1] * len(xs)): 1}
    for y in ys:
        nxt: dict = {}
        for state, count in states.items():
            for i, x in enumerate(targets):
                g = list(state)
                g[i] = gcd(state[i] * abs(y), x)
                key = tuple(g)
                nxt[key] = nxt.get(key, 0) + count
        states = nxt
    return states.get(tuple(targets), 0)


# -- morphism generator (plain JSON-ready data) -------------------------------


def extend(rng: random.Random, xs: list[int], budget: int, forced: tuple = ()):
    """Codomain entries, a 1-based map and the total witness of a random
    morphism out of xs whose witness has absolute value at most budget."""
    n = len(xs)
    mult = [1] * n
    total = 1
    for p in forced:
        total *= p
        mult[rng.randrange(n)] *= p
    for _ in range(rng.randint(0, 6)):
        p = rng.choice(PRIMES)
        if total * p > budget:
            break
        total *= p
        mult[rng.randrange(n)] *= p
    for i in range(n):
        if rng.random() < 0.25:
            mult[i] = -mult[i]
    pairs = []
    for i, x in enumerate(xs):
        parts = rng.randint(1, 3)
        pairs += [(v, i + 1) for v in split(rng, mult[i] * x, parts)]
    rng.shuffle(pairs)
    return [v for v, _ in pairs], [o for _, o in pairs], prod(mult)


def morphism(rng: random.Random, budget: int, forced: tuple = ()):
    """A random morphism as (wire object, total witness): a divisibility
    step, a refactoring, dropped units and a shuffled codomain."""
    xs = [random_entry(rng, 0, 2) for _ in range(rng.randint(1, 3))]
    ys, owners, r = extend(rng, xs, budget, forced)
    for _ in range(rng.randint(0, 2)):
        at = rng.randrange(len(xs) + 1)
        unit = rng.choice(SIGNS)
        xs.insert(at, unit)
        owners = [o + 1 if o > at else o for o in owners]
        r *= unit  # the dropped unit u contributes u^-1 == u
    return {"monoid": "zx", "domain": xs, "codomain": ys, "map": owners}, r


# -- verify-default -------------------------------------------------------------


class VerifyDefault:
    """``factorcat verify --json`` on the default universe, universe build
    included.  One operation is one whole verify; its work is the number of
    law cases checked."""

    name = "verify-default"

    def __init__(self, seed: int, extra_args: tuple = (), expected: dict | None = None):
        self.argv = ["verify", "--json", "--seed", str(seed), *extra_args]
        self.expected = dict(VERIFY_CASES if expected is None else expected)
        self.inputs = [self.argv]

    def run(self, i: int, tracer=None):
        """Returns (latency_s, work, checks, failed)."""
        out = io.StringIO()
        patch = tracer.verify_spans(cli) if tracer else contextlib.nullcontext()
        t0 = perf_counter()
        try:
            with patch, contextlib.redirect_stdout(out):
                code = cli.main(self.argv)
        except Exception:  # a crash fails every suite, it does not stop the run
            code = None
        t1 = perf_counter()
        failed = self.check(code, out.getvalue())
        cases = sum(self.expected.values())
        return t1 - t0, cases, len(self.expected), failed

    def check(self, code: int, text: str) -> int:
        """Number of suites that are missing, failing or off their case count."""
        try:
            reports = {r["suite"]: r for r in json.loads(text)}
        except (ValueError, TypeError, KeyError):
            return len(self.expected)
        bad = sum(
            1
            for name, cases in self.expected.items()
            if name not in reports
            or reports[name]["failures"]
            or reports[name]["cases"] != cases
        )
        return bad or int(code != 0)


# -- query-stream -----------------------------------------------------------------

KINDS = ("classify", "decompose", "chain", "weakdiv", "divisors", "compose", "tensor")


def make_query(rng: random.Random, kind: str):
    """A query as (JSON text, expected facts known to the generator)."""
    if kind in ("classify", "decompose", "chain", "divisors"):
        m, r = morphism(rng, 10_000)
        return json.dumps({"kind": kind, "morphism": m}), {"r": r}
    f, s = morphism(rng, 100)
    if kind == "weakdiv":
        forced = tuple(prime_factors(s)) if rng.random() < 0.5 else ()
        g, r = morphism(rng, 100 * abs(s), forced)
        return json.dumps({"kind": kind, "first": f, "second": g}), {"s": s, "r": r}
    if kind == "compose":
        ys, owners, r = extend(rng, list(f["codomain"]), 100)
        g = {"monoid": "zx", "domain": f["codomain"], "codomain": ys, "map": owners}
        return json.dumps({"kind": kind, "first": f, "second": g}), {"s": s, "r": r}
    g, r = morphism(rng, 100)
    return json.dumps({"kind": kind, "first": f, "second": g}), {"s": s, "r": r}


def _encode_classify(res):
    return {k: v for k, v in res.items() if k != "r"} | {"witness_r": ZX.encode(res["r"])}


def _run_classify(m):
    return {
        "iso": is_isomorphism(m), "epic": is_epic(m), "monic": is_monic(m),
        "weq": is_weak_equivalence(m), "wirr": is_weakly_irreducible(m),
        "wprime": is_weakly_prime(m), "r": total_witness(m),
    }


def _check_classify(ms, res, exp):
    r = exp["r"]
    irreducible = len(prime_factors(r)) == 1
    return (res["r"] == r and res["weq"] == (abs(r) == 1)
            and res["wirr"] == irreducible and res["wprime"] == irreducible)


def _encode_decompose(d):
    return {
        "epsilon": encode_morphism(d.epsilon), "delta": encode_morphism(d.delta),
        "phi": encode_morphism(d.phi), "ratios": [ZX.encode(a) for a in d.ratios],
        "dropped_unit": ZX.encode(d.dropped_unit),
    }


def _check_decompose(ms, d, exp):
    return d.composed() == ms[0] and d.dropped_unit * prod(d.ratios) == exp["r"]


def _encode_chain(c):
    return {"steps": [encode_morphism(s) for s in c.steps], "tags": list(c.tags),
            "irr_count": c.irr_count}


def _check_chain(ms, c, exp):
    return (c.composed() == ms[0]
            and c.irr_count == zeta_mor(ms[0]) == len(prime_factors(exp["r"])))


def _run_weakdiv(f, g):
    divides = weakly_divides(f, g)
    return divides, weak_div_diagram(f, g) if divides else None


def _encode_weakdiv(res):
    divides, d = res
    out = {"divides": divides}
    if d is not None:
        out["diagram"] = {k: encode_morphism(getattr(d, k))
                          for k in ("mu", "alpha", "beta", "eta", "left", "right")}
    return out


def _check_weakdiv(ms, res, exp):
    divides = exp["r"] % exp["s"] == 0
    return res[0] == divides and (res[1] is not None) == divides


def _check_product_witness(ms, out, exp):
    return (zeta_mor(out) == zeta_mor(ms[0]) + zeta_mor(ms[1])
            and total_witness(out) == exp["s"] * exp["r"])


# kind -> (library call, encoder, law check)
QUERY_OPS = {
    "classify": (_run_classify, _encode_classify, _check_classify),
    "decompose": (decompose_eip, _encode_decompose, _check_decompose),
    "chain": (atomic_chain, _encode_chain, _check_chain),
    "weakdiv": (_run_weakdiv, _encode_weakdiv, _check_weakdiv),
    "divisors": (
        weak_divisor_classes,
        lambda cs: {"classes": [ZX.encode(c) for c in cs]},
        lambda ms, cs, exp: cs == divisors(exp["r"]),
    ),
    "compose": (lambda f, g: compose(g, f), encode_morphism, _check_product_witness),
    "tensor": (tensor_morphisms, encode_morphism, _check_product_witness),
}

QUERY_BLOCK = 100


class QueryStream:
    """Morphism queries sent as JSON text: decode, one operation of seven
    kinds in fixed rotation, encode.  One operation is one query."""

    name = "query-stream"

    def __init__(self, seed: int, count: int = 10_000, expected: dict | None = None):
        rng = random.Random(f"query-stream:{seed}")
        made = [make_query(rng, KINDS[i % len(KINDS)]) for i in range(count)]
        self.inputs = [text for text, _ in made]
        self.facts = [facts for _, facts in made]
        self.kinds = [KINDS[i % len(KINDS)] for i in range(count)]
        self.expected_blocks = (expected or {}).get("blocks")
        self.first: list = [None] * count  # first-pass output texts
        self.block_failed = 0

    def run(self, i: int, tracer=None):
        k = i % len(self.inputs)
        kind = self.kinds[k]
        call, encode, check = QUERY_OPS[kind]
        t0 = perf_counter()
        try:
            obj = json.loads(self.inputs[k])
            ms = [decode_morphism(obj[key]) for key in ("morphism", "first", "second")
                  if key in obj]
            t1 = perf_counter()
            res = call(*ms)
            t2 = perf_counter()
            text = json.dumps(encode(res))
            t3 = perf_counter()
        except Exception:  # a failed query is counted, not fatal
            return perf_counter() - t0, 1, 1, 1
        if tracer is not None:
            entries = sum(len(m.domain) + len(m.codomain) for m in ms)
            tracer.query_spans(kind, t0, t1, t2, t3, entries)
        return t3 - t0, 1, 1, self.check(k, ms, res, text)

    def check(self, k: int, ms, res, text: str) -> int:
        """Failed queries found by this output: a later pass must repeat the
        first pass exactly; in the first pass the kind's law must hold, and a
        wrong block digest fails the rest of its block."""
        if self.first[k] is not None:
            return int(text != self.first[k])
        self.first[k] = text
        law = QUERY_OPS[self.kinds[k]][2]
        try:
            failed = int(not law(ms, res, self.facts[k]))
        except Exception:
            failed = 1
        self.block_failed += failed
        if (k + 1) % QUERY_BLOCK and k + 1 < len(self.inputs):
            return failed
        texts = self.first[(k // QUERY_BLOCK) * QUERY_BLOCK : k + 1]
        wrong = self.expected_blocks is not None and (
            None in texts or digest("\n".join(texts)) != self.expected_blocks[k // QUERY_BLOCK]
        )
        if wrong:
            failed += len(texts) - self.block_failed
        self.block_failed = 0
        return failed

    def digests(self) -> list[str]:
        """Block digests of the first pass, for recording."""
        return [digest("\n".join(self.first[b : b + QUERY_BLOCK]))
                for b in range(0, len(self.first), QUERY_BLOCK)]


# -- hom-enum -----------------------------------------------------------------------

HOM_SIZE_CAP = 20_000
RANDOM_SIZE_CAP = 64


def _max_codomain(n: int) -> int:
    m = 0
    while n ** (m + 1) <= HOM_ENUMERATION_GUARD:
        m += 1
    return m


def refactor_request(rng: random.Random, n: int, target: int):
    """A domain of n prime powers on distinct primes and a refactoring of it
    with unit entries inserted.  Each prime-power part has one possible
    target and each unit entry has n, so with k units the hom set has
    exactly n**k morphisms; k is the largest with n**k <= target."""
    units, size = 0, 1
    while size * n <= target and n + units < _max_codomain(n):
        units, size = units + 1, size * n
    splits = _max_codomain(n) - n - units  # entries left for splitting p^2 into p, p
    xs = tuple(rng.choice(SIGNS) * p ** rng.randint(1, 2) for p in rng.sample(PRIMES, n))
    pairs = []
    for i, x in enumerate(xs):
        p = prime_factors(x)[0]
        parts = [abs(x)]
        if abs(x) != p and splits and rng.random() < 0.5:
            parts, splits = [p, p], splits - 1
            if rng.random() < 0.3:
                parts = [-p, -p]
        parts[0] *= 1 if x > 0 else -1
        pairs += [(v, i + 1) for v in parts]
    for _ in range(units):
        pairs.insert(rng.randrange(len(pairs) + 1), (rng.choice(SIGNS), rng.randint(1, n)))
    ys = tuple(v for v, _ in pairs)
    return xs, ys, tuple(o for _, o in pairs), hom_count(xs, ys)


def random_request(rng: random.Random, n: int, m: int):
    """A random codomain of length m; its hom set is usually empty."""
    while True:
        xs = tuple(random_entry(rng, 1, 2) for _ in range(n))
        ys = tuple(random_entry(rng, 0, 2) for _ in range(m))
        size = hom_count(xs, ys)
        if size <= RANDOM_SIZE_CAP:
            return xs, ys, None, size


def hom_requests(rng: random.Random, count: int) -> list:
    """Alternating refactorings and random codomains, each tagged with its
    planted map (or None) and hom-set size.  The shapes are fixed so that
    the seed changes entries, not the mix: domains cycle through lengths
    2-4, refactoring targets are log-spaced from 1 to HOM_SIZE_CAP, random
    codomains are 0-6 entries longer than their domain."""
    half = count // 2
    out, seen = [], set()
    for j in range(count):
        n = 2 + (j // 2) % 3
        while True:
            if j % 2 == 0:
                target = round(HOM_SIZE_CAP ** ((j // 2) / max(half - 1, 1)))
                req = refactor_request(rng, n, target)
            else:
                req = random_request(rng, n, n + (j // 6) % 7)
            if req[:2] not in seen:
                break
        seen.add(req[:2])
        out.append(req)
    return out


class HomEnum:
    """Distinct, cold (domain, codomain) pairs passed to ``hom_set``.  One
    operation is one request; its work is the number of morphisms returned."""

    name = "hom-enum"

    def __init__(self, seed: int, count: int = 300, expected: dict | None = None):
        self.inputs = hom_requests(random.Random(f"hom-enum:{seed}"), count)
        self.expected = (expected or {}).get("requests")
        self.first: list = [None] * count  # hash of each first-pass result
        self.seen: list = [None] * count

    def run(self, i: int, tracer=None):
        k = i % len(self.inputs)
        xs, ys, _, _ = self.inputs[k]
        t0 = perf_counter()
        try:
            domain, codomain = FactorTuple(ZX, xs), FactorTuple(ZX, ys)
            ms = hom_set(domain, codomain)
            t1 = perf_counter()
        except Exception:
            return perf_counter() - t0, 0, 1, 1
        if tracer is not None:
            tracer.hom_span(t0, t1, len(ms))
        return t1 - t0, len(ms), 1, int(not self.check(k, domain, codomain, ms))

    def check(self, k: int, domain, codomain, ms) -> bool:
        maps = tuple(m.values for m in ms)
        if self.first[k] is not None:
            return hash(maps) == self.first[k]
        self.first[k] = hash(maps)
        self.seen[k] = digest(repr(maps))
        _, _, planted, size = self.inputs[k]
        return (
            len(maps) == size
            and list(maps) == sorted(set(maps))
            and (planted is None or planted in maps)
            and all(m.domain == domain and m.codomain == codomain for m in ms)
            and (self.expected is None or self.seen[k] == self.expected[k])
        )

    def digests(self) -> list[str]:
        """Request digests of the first pass, for recording."""
        return list(self.seen)


WORKLOADS = {w.name: w for w in (VerifyDefault, QueryStream, HomEnum)}
