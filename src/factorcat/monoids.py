"""Commutative, cancellative, pre-ordered monoids and the shipped instances.

Four instances are provided: the nonzero integers and the positive integers
under the divisibility order, the rational unit interval (0, 1] under the
numeric order, and free commutative monoids over a finite generator alphabet.
Elements are plain Python values (int, Fraction, or a sorted tuple of
generator names); each instance interprets and validates them.  Everything
here is pure and immutable, so instances are safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, prod
from typing import Iterable, Iterator

from .errors import CapabilityError, GuardError

Element = object  # int | Fraction | tuple[str, ...] depending on the instance

PRIMALITY_BOUND = 2**31

# most generator copies a decoded free-monoid element may hold
FREE_DECODE_BOUND = 10**4

# largest decimal exponent, of either sign, in a decoded interval element
INTERVAL_EXPONENT_BOUND = 10**4

# the reference factorization enumerators: largest |n| over the integers, and
# most generator copies over free monoids (that one recurses once per copy)
FACTORIZATION_ENUMERATION_BOUND = 10**6
FACTORIZATION_DEGREE_BOUND = 256

DIVISOR_CLASS_GUARD = 10**5

# entries of each cache keyed on a monoid or an alphabet; monoids are equal
# by name, so one rebuilt after eviction equals the evicted one
MONOID_CACHE_SIZE = 2**8


def _is_prime_int(n: int) -> bool:
    """Deterministic trial division on a non-negative integer."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _trial_factor(n: int) -> list[int]:
    """Prime factors of a positive integer, ascending with multiplicity."""
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def next_prime_above(n: int) -> int:
    c = n + 1
    while not _is_prime_int(c):
        c += 1
    return c


class Monoid:
    """A named multiplicative, commutative, cancellative, pre-ordered monoid.

    Subclasses supply the element algebra; divisibility-only operations
    raise :class:`CapabilityError` unless the instance is pre-ordered by
    divisibility.  ``is_ufd`` marks instances with provably unique
    irreducible factorizations, which gates the wedge construction and the
    factorization enumerator.  Whatever differs between instances lives here.
    """

    name: str = "abstract"
    is_divisibility: bool = False
    is_ufd: bool = False

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Monoid) and self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"Monoid({self.name!r})"

    # -- core algebra --------------------------------------------------

    def validate(self, a: Element) -> Element:
        """Return the normalized element, or raise ValueError."""
        raise NotImplementedError

    def identity(self) -> Element:
        raise NotImplementedError

    def op(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def leq(self, a: Element, b: Element) -> bool:
        raise NotImplementedError

    def is_invertible(self, a: Element) -> bool:
        raise NotImplementedError

    def product(self, elems: Iterable[Element]) -> Element:
        """Fold of ``op``; the empty product is the identity."""
        out = self.identity()
        for a in elems:
            out = self.op(out, a)
        return out

    # -- wire format -----------------------------------------------------

    def encode(self, a: Element):
        raise NotImplementedError

    def decode(self, value) -> Element:
        """Return the validated, normalized element a wire value encodes, or
        raise ValueError; decoded tuples trust this and skip ``validate``."""
        raise NotImplementedError

    # -- divisibility-only operations -------------------------------------

    def require_divisibility(self, what: str) -> None:
        """Raise CapabilityError unless this monoid is pre-ordered by divisibility."""
        if not self.is_divisibility:
            raise CapabilityError(f"{what} is only available over divisibility monoids")

    def require_ufd(self, what: str) -> None:
        """Raise CapabilityError unless irreducible factorizations are unique here."""
        if not self.is_ufd:
            raise CapabilityError(f"{what} is only available over UFD monoids")

    def exact_divide(self, a: Element, b: Element) -> Element | None:
        """The unique q with op(a, q) == b when a divides b, else None."""
        self.require_divisibility("exact_divide")

    def is_irreducible(self, a: Element) -> bool:
        self.require_divisibility("is_irreducible")

    def is_prime(self, a: Element) -> bool:
        self.require_divisibility("is_prime")

    def factor_irreducibles(self, a: Element) -> tuple[Element, tuple[Element, ...]]:
        """Canonical factorization ``(unit, factors)`` with every factor
        irreducible and op(unit, product(factors)) == a."""
        self.require_divisibility("factor_irreducibles")

    def are_associates(self, a: Element, b: Element) -> bool:
        self.require_divisibility("are_associates")

    def fresh_non_divisor(self, a: Element) -> Element:
        """A deterministic element that does not divide ``a``."""
        self.require_divisibility("fresh_non_divisor")

    def divisor_class_representatives(self, a: Element) -> list:
        """One canonical representative per associate class of divisors of a."""
        self.require_divisibility("divisor_class_representatives")

    def irreducible_factorizations(self, a: Element) -> Iterator[tuple]:
        """One factorization into irreducibles per class, by brute force over
        the elements; independent of factor_irreducibles, which it checks."""
        self.require_ufd("irreducible_factorizations")

    # -- enumeration support -----------------------------------------------

    def fiber_feasible(self, x: Element, partial: Element, rest: Element) -> bool:
        """Whether leq(x, fiber) can still hold when the fiber currently
        multiplies to ``partial`` and ``rest`` is the product of the
        not-yet-assigned entries.  Used to prune hom-set enumeration;
        returning True is always safe."""
        return True


class DivisibilityMonoid(Monoid):
    """Monoid pre-ordered by divisibility: leq(a, b) iff a divides b."""

    is_divisibility = True

    def leq(self, a: Element, b: Element) -> bool:
        return self.exact_divide(a, b) is not None

    def are_associates(self, a: Element, b: Element) -> bool:
        return self.leq(a, b) and self.leq(b, a)

    def fiber_feasible(self, x, partial, rest) -> bool:
        # every completed fiber product divides partial * rest
        return self.leq(x, self.op(partial, rest))


class NonzeroIntegers(DivisibilityMonoid):
    """Nonzero integers under multiplication; the units are 1 and -1.

    Irreducibility and primality coincide here and are decided by trial
    division, valid for ``|a| <= 2**31``; larger inputs raise GuardError
    rather than fall back to a probabilistic answer, as do the divisor scan
    and the terminal-refutation witness.
    """

    name = "zx"
    is_ufd = True

    def validate(self, a):
        if isinstance(a, bool) or not isinstance(a, int):
            raise ValueError(f"{self.name}: expected a nonzero int, got {a!r}")
        if a == 0:
            raise ValueError(f"{self.name}: 0 is not an element")
        return a

    def identity(self):
        return 1

    def op(self, a, b):
        return a * b

    def leq(self, a, b):
        return b % a == 0

    def fiber_feasible(self, x, partial, rest):
        return partial * rest % x == 0  # leq(x, op(partial, rest)) in one expression

    def is_invertible(self, a):
        return a in (1, -1)

    def exact_divide(self, a, b):
        q, r = divmod(b, a)
        return q if r == 0 else None

    def are_associates(self, a, b):
        return abs(a) == abs(b)

    def _check_bound(self, a):
        if abs(a) > PRIMALITY_BOUND:
            raise GuardError(
                f"{self.name}: |{a}| exceeds the trial-division bound 2**31"
            )

    def is_irreducible(self, a):
        self._check_bound(a)
        return _is_prime_int(abs(a))

    def is_prime(self, a):
        # in the integers primes and irreducibles coincide
        return self.is_irreducible(a)

    def factor_irreducibles(self, a):
        self._check_bound(a)
        unit = 1 if a > 0 else -1
        return unit, tuple(_trial_factor(abs(a)))

    def fresh_non_divisor(self, a):
        self._check_bound(a)
        return next_prime_above(abs(a))

    def divisor_class_representatives(self, a):
        # the positive divisors, ascending: one per associate class {d, -d}
        self._check_bound(a)
        n = abs(a)
        small, large = [], []
        for d in range(1, isqrt(n) + 1):
            if n % d == 0:
                small.append(d)
                if d != n // d:
                    large.append(n // d)
        return small + large[::-1]

    def irreducible_factorizations(self, a):
        n = abs(a)
        if n > FACTORIZATION_ENUMERATION_BOUND:
            raise GuardError(f"divisor recursion bound 10^6 exceeded by |{self.encode(a)}|")
        return self._factorizations(n, 2)

    @classmethod
    def _factorizations(cls, n: int, start: int):
        if n == 1:
            yield ()
            return
        d = start
        while d <= n:
            # d >= start >= 2: trial division decides irreducibility
            if n % d == 0 and all(d % e for e in range(2, isqrt(d) + 1)):
                for rest in cls._factorizations(n // d, d):
                    yield (d,) + rest
            d += 1

    def encode(self, a):
        return a

    def decode(self, value):
        return self.validate(value)


class PositiveIntegers(NonzeroIntegers):
    """Positive integers under multiplication; 1 is the only unit."""

    name = "nat"

    def validate(self, a):
        if isinstance(a, bool) or not isinstance(a, int) or a < 1:
            raise ValueError(f"{self.name}: expected a positive int, got {a!r}")
        return a

    def is_invertible(self, a):
        return a == 1


class UnitInterval(Monoid):
    """Exact rationals in (0, 1] under multiplication with the numeric order.

    Not a divisibility monoid: every element is <= 1 while only 1 is
    invertible.  Elements are ``fractions.Fraction`` values, never floats,
    so comparisons and hom-set counts are exactly reproducible.
    """

    name = "interval"

    def validate(self, a):
        if isinstance(a, bool):
            raise ValueError(f"{self.name}: expected a rational, got {a!r}")
        if isinstance(a, int):
            a = Fraction(a)
        if not isinstance(a, Fraction):
            raise ValueError(f"{self.name}: expected a rational, got {a!r}")
        if not 0 < a <= 1:
            raise ValueError(f"{self.name}: {a} is outside (0, 1]")
        return a

    def identity(self):
        return Fraction(1)

    def op(self, a, b):
        return a * b

    def leq(self, a, b):
        return a <= b

    def is_invertible(self, a):
        return a == 1

    def fiber_feasible(self, x, partial, rest):
        # extra factors only shrink the fiber product, so partial is the best case
        return x <= partial

    def encode(self, a):
        return f"{a.numerator}/{a.denominator}"

    def decode(self, value):
        if isinstance(value, bool):
            raise ValueError(f"{self.name}: expected 'p/q', got {value!r}")
        if isinstance(value, int):
            return self.validate(Fraction(value))
        if isinstance(value, str):
            try:  # Fraction expands a decimal exponent in full: refuse a large one first
                exponent = abs(int(value.lower().partition("e")[2]))
            except ValueError:  # none, or malformed, which Fraction rejects below
                exponent = 0
            if exponent > INTERVAL_EXPONENT_BOUND:
                raise GuardError(f"{self.name}: exponent of {value!r} exceeds {INTERVAL_EXPONENT_BOUND}")
            try:
                q = Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{self.name}: cannot parse {value!r}") from exc
            return self.validate(q)
        raise ValueError(f"{self.name}: expected 'p/q', got {value!r}")


class FreeCommutative(DivisibilityMonoid):
    """Free commutative monoid over a finite alphabet.

    Elements are finite multisets of generator names stored as sorted
    tuples; the operation is multiset union and divisibility is multiset
    inclusion.  Generators are the irreducibles, and they are prime.
    Decoding raises GuardError for an element of more than 10^4 generator
    copies, before building it.
    """

    is_ufd = True

    def __init__(self, generators: Iterable[str]):
        gens = tuple(sorted(set(generators)))
        if not gens:
            raise ValueError("free monoid needs at least one generator")
        for g in gens:
            if not isinstance(g, str) or not g.isidentifier():
                raise ValueError(f"bad generator name {g!r}")
        self.generators = gens
        self._genset = frozenset(gens)
        self.name = "free:" + ",".join(gens)

    def validate(self, a):
        if isinstance(a, str):
            raise ValueError(
                f"{self.name}: elements are iterables of generator names, not strings"
            )
        try:
            items = tuple(a)
        except TypeError:
            raise ValueError(f"{self.name}: expected a multiset of generators, got {a!r}")
        for g in items:
            if g not in self._genset:
                raise ValueError(f"{self.name}: unknown generator {g!r}")
        return tuple(sorted(items))

    def identity(self):
        return ()

    def op(self, a, b):
        return tuple(sorted(a + b))

    def is_invertible(self, a):
        return a == ()

    def exact_divide(self, a, b):
        rest = list(b)
        for g in a:
            try:
                rest.remove(g)
            except ValueError:
                return None
        return tuple(rest)

    def is_irreducible(self, a):
        return len(a) == 1

    def is_prime(self, a):
        return len(a) == 1

    def factor_irreducibles(self, a):
        return (), tuple((g,) for g in a)

    def fresh_non_divisor(self, a):
        g = self.generators[0]
        return (g,) * (a.count(g) + 1)

    def divisor_class_representatives(self, a):
        # every sub-multiset, ordered by size and then by name
        counts = {g: a.count(g) for g in sorted(set(a))}
        classes = prod(c + 1 for c in counts.values())
        if classes > DIVISOR_CLASS_GUARD:
            raise GuardError(f"{classes} divisor classes of {self.encode(a)} exceed the 10^5 guard")
        subsets: list[tuple] = [()]
        for g, count in counts.items():
            subsets = [s + (g,) * k for s in subsets for k in range(count + 1)]
        return sorted(set(tuple(sorted(s)) for s in subsets), key=lambda s: (len(s), s))

    def irreducible_factorizations(self, a):
        if len(a) > FACTORIZATION_DEGREE_BOUND:
            raise GuardError(
                f"factorization enumeration over {len(a)} generator copies "
                f"exceeds the degree bound {FACTORIZATION_DEGREE_BOUND}"
            )
        return self._factorizations(a, "")

    @classmethod
    def _factorizations(cls, rest: tuple, start: str):
        if not rest:
            yield ()
            return
        if rest[0] < start:
            # rest is sorted: its first generator can no longer be placed
            return
        for g in sorted(set(rest)):
            if g >= start:
                reduced = list(rest)
                reduced.remove(g)
                for tail in cls._factorizations(tuple(reduced), g):
                    yield ((g,),) + tail

    def encode(self, a):
        if not a:
            return "1"
        parts = []
        for g in sorted(set(a)):
            k = a.count(g)
            parts.append(g if k == 1 else f"{g}^{k}")
        return "*".join(parts)

    def decode(self, value):
        if not isinstance(value, str):
            raise ValueError(f"{self.name}: expected a string, got {value!r}")
        if value in ("1", ""):
            return ()
        items: list[str] = []
        for part in value.split("*"):
            name, _, power = part.partition("^")
            k = 1
            if power:
                try:
                    k = int(power)
                except ValueError:
                    raise ValueError(f"{self.name}: bad exponent in {part!r}")
                if k < 1:
                    raise ValueError(f"{self.name}: bad exponent in {part!r}")
            if name not in self._genset:
                raise ValueError(f"{self.name}: unknown generator {name!r}")
            if len(items) + k > FREE_DECODE_BOUND:
                raise GuardError(
                    f"{self.name}: element has more than {FREE_DECODE_BOUND} "
                    f"generator copies"
                )
            items.extend([name] * k)
        return self.validate(items)


ZX = NonzeroIntegers()
NAT = PositiveIntegers()
INTERVAL = UnitInterval()


@lru_cache(maxsize=MONOID_CACHE_SIZE)
def _free_cached(gens: tuple[str, ...]) -> FreeCommutative:
    return FreeCommutative(gens)


def free_monoid(alphabet: str | Iterable[str]) -> FreeCommutative:
    """Free commutative monoid over the given generators.

    A string alphabet is split on commas when present ("a,b" or "ab" both
    give generators a and b); the MONOID_CACHE_SIZE most recent instances are
    cached per alphabet.
    """
    if isinstance(alphabet, str):
        gens = tuple(alphabet.split(",")) if "," in alphabet else tuple(alphabet)
    else:
        gens = tuple(alphabet)
    return _free_cached(tuple(sorted(set(gens))))


def monoid_by_name(name: str) -> Monoid:
    """Resolve a wire-format monoid name: zx, nat, interval, free:<alphabet>."""
    if not isinstance(name, str):
        raise ValueError(f"monoid name must be a string, got {name!r}")
    for monoid in (ZX, NAT, INTERVAL):
        if name == monoid.name:
            return monoid
    if name.startswith("free:"):
        return free_monoid(name[len("free:"):])
    raise ValueError(f"unknown monoid {name!r}")
