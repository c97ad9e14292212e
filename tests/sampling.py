"""Seeded random morphisms over the integer monoids ``zx`` and ``nat``, for
the tests' probes and acceptance checks.

Each draw mixes divisibility steps, refactoring, dropped units and codomain
shuffling.  The draws depend only on the ``random.Random`` passed in, so a
seeded test sees the same morphisms on every run; do not reorder them.
"""

import random

from factorcat import ZX, FactorTuple, Monoid, Morphism

_SAMPLE_PRIMES = (2, 3, 5, 7)
_SAMPLE_ENTRIES = (1, 2, 3, 4, 5, 6, 7, 9, 10)


def _random_fibering(rng: random.Random, monoid: Monoid, xs, witness_bound: int):
    """Random codomain entries and fiber owners for the given domain entries:
    each x_i is multiplied by a random witness and the product refactored."""
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
