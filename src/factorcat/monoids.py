"""Commutative, cancellative, pre-ordered monoids and the shipped instances.

Four instances are provided: the nonzero integers and the positive integers
under the divisibility order, the rational unit interval (0, 1] under the
numeric order, and free commutative monoids over a finite generator alphabet.
Elements are plain Python values (int, Fraction, or a free monoid's exponent
vector aligned with ``generators``); each instance interprets and validates
them.  Everything is pure and immutable, so instances are thread-safe.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product as iter_product
from math import isqrt, prod
from operator import add, le, sub
from typing import Iterable, Iterator

from .errors import (CapabilityError, GuardError, InvalidInputError, _shown, require_instance,
                     require_int, require_iterable)

Element = object  # int | Fraction | tuple[int, ...] depending on the instance

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
        """Return the normalized element, or raise InvalidInputError."""
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
        return reduce(self.op, elems, self.identity())

    # -- wire format -----------------------------------------------------

    def encode(self, a: Element):
        raise NotImplementedError

    def decode(self, value) -> Element:
        """Return the validated, normalized element a wire value encodes, or
        raise InvalidInputError; decoded tuples trust this and skip ``validate``.
        By default the wire value is the element itself, so this is
        ``validate``; an instance with its own wire format parses it first."""
        return self.validate(value)

    def decode_all(self, values: list) -> tuple:
        """``decode`` on each wire value of a list, as a tuple; an override, for
        speed only, must return and refuse exactly what this does."""
        return tuple([self.decode(v) for v in values])

    def fiber_products(self, n: int, ys: tuple, values) -> list:
        """For each of n domain positions, the product of the entries of ys that
        the 1-based map values send there; an override, for speed only, agrees."""
        fibers = [self.identity()] * n
        for y, target in zip(ys, values):
            fibers[target - 1] = self.op(fibers[target - 1], y)
        return fibers

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
        """One canonical representative per associate class of divisors of a:
        positive divisors ascending over the integers and, over free monoids,
        exponent vectors aligned with ``generators`` that are entrywise below
        a's, by degree and then with more copies of earlier generators first.

        Integers beyond the 2**31 trial-division bound, and free-monoid
        elements with more than 10^5 divisor classes, raise GuardError before
        any work."""
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
        if not require_int(a, self.name + ": expected a nonzero int, got {}"):
            raise InvalidInputError(f"{self.name}: 0 is not an element")
        return a

    def identity(self):
        return 1

    def op(self, a, b):
        return a * b

    def product(self, elems):
        return prod(elems)

    def decode_all(self, values):
        # exact ints (no bool or int subclass) and no 0 in one pass; else value by value
        for v in values:
            if v.__class__ is not int or not v:
                return Monoid.decode_all(self, values)
        return tuple(values)

    def fiber_products(self, n, ys, values):
        fibers = [1] * n
        for y, target in zip(ys, values):
            fibers[target - 1] *= y
        return fibers

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
                f"{self.name}: |{_shown(a)}| exceeds the trial-division bound 2**31"
            )

    def is_irreducible(self, a):
        self._check_bound(a)
        return _is_prime_int(abs(a))

    is_prime = is_irreducible  # in the integers primes and irreducibles coincide

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
        if a.bit_length() > 2126:  # up to 2126 bits: at most 640 digits, which str() always prints
            limit = sys.get_int_max_str_digits()
            if limit and abs(a) >= 10**limit:
                raise GuardError(f"{self.name}: element has over {limit} digits to print")
        return a


class PositiveIntegers(NonzeroIntegers):
    """Positive integers under multiplication; 1 is the only unit."""

    name = "nat"

    def validate(self, a):
        return require_int(a, self.name + ": expected a positive int, got {}", 1)

    def decode_all(self, values):
        entries = NonzeroIntegers.decode_all(self, values)  # which also passes negative ints
        return entries if min(entries, default=1) > 0 else Monoid.decode_all(self, values)

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
        if not isinstance(a, Fraction):
            a = Fraction(require_int(a, self.name + ": expected a rational, got {}"))
        if not 0 < a <= 1:
            raise InvalidInputError(f"{self.name}: {_shown(a, str)} is outside (0, 1]")
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
        try:
            return f"{a.numerator}/{a.denominator}"
        except ValueError:  # more digits than str() converts, as near 10^-INTERVAL_EXPONENT_BOUND
            limit = sys.get_int_max_str_digits()
            raise GuardError(f"{self.name}: element has over {limit} digits to print") from None

    def decode(self, value):
        if not isinstance(value, str):
            return self.validate(Fraction(require_int(value, self.name + ": expected 'p/q', got {}")))
        try:  # Fraction expands a decimal exponent in full: refuse a large one first
            exponent = abs(int(value.lower().partition("e")[2]))
        except ValueError:  # none, or malformed, which Fraction rejects below
            exponent = 0
        if exponent > INTERVAL_EXPONENT_BOUND:
            raise GuardError(f"{self.name}: exponent of {value!r} exceeds {INTERVAL_EXPONENT_BOUND}")
        try:
            q = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"{self.name}: cannot parse {value!r}") from exc
        return self.validate(q)


def _alphabet(generators) -> tuple[str, ...]:
    """The sorted distinct names of a non-empty iterable of str identifiers."""
    names = require_iterable(generators, "free monoid generators are not iterable: {}")
    if not names:
        raise InvalidInputError(f"free monoid needs at least one generator, got {_shown(generators)}")
    for g in names:
        if not isinstance(g, str) or not g.isidentifier():
            raise InvalidInputError(f"bad generator name {_shown(g)}")
    return tuple(sorted(set(names)))


class FreeCommutative(DivisibilityMonoid):
    """Free commutative monoid over a finite alphabet.

    An element is its exponent vector aligned with ``generators``, the tuple
    of each generator's copy count, which ``validate`` also builds from an
    iterable of names.  The operation adds vectors and divisibility compares
    them entrywise, so neither costs the degree.  Generators are the prime
    irreducibles.  Decoding raises GuardError past 10^4 generator copies.
    """

    is_ufd = True

    def __init__(self, generators: Iterable[str]):
        self.generators = gens = _alphabet(generators)
        self._index = {g: i for i, g in enumerate(gens)}
        self.name = "free:" + ",".join(gens)
        self._identity = (0,) * len(gens)
        self._units = tuple(self.validate((g,)) for g in gens)  # one copy of each generator

    def validate(self, a):
        if type(a) is tuple and len(a) == len(self._identity) and all(
                type(k) is int and k >= 0 for k in a):
            return a  # already an exponent vector
        counts = list(self._identity)
        names = require_iterable(a, self.name + ": expected an iterable of generator names, got {}", str)
        for g in names:
            if g not in self._index:
                raise InvalidInputError(f"{self.name}: unknown generator {_shown(g)}")
            counts[self._index[g]] += 1
        return tuple(counts)

    def identity(self):
        return self._identity

    def op(self, a, b):
        return tuple(map(add, a, b))

    def leq(self, a, b):
        return all(map(le, a, b))

    def is_invertible(self, a):
        return not any(a)

    def exact_divide(self, a, b):
        q = tuple(map(sub, b, a))
        return q if min(q) >= 0 else None

    def is_irreducible(self, a):
        return sum(a) == 1

    is_prime = is_irreducible  # a generator is prime

    def factor_irreducibles(self, a):
        return self._identity, tuple(u for u, k in zip(self._units, a) for _ in range(k))

    def fresh_non_divisor(self, a):
        return (a[0] + 1,) + self._identity[1:]

    def divisor_class_representatives(self, a):
        # every sub-vector, by degree and then with more of the earlier generators first
        classes = prod(k + 1 for k in a)
        if classes > DIVISOR_CLASS_GUARD:
            raise GuardError(f"{classes} divisor classes of {self.encode(a)} exceed the 10^5 guard")
        divisors = iter_product(*[range(k + 1) for k in a])
        return sorted(divisors, key=lambda d: (sum(d), [-k for k in d]))

    def irreducible_factorizations(self, a):
        if sum(a) > FACTORIZATION_DEGREE_BOUND:
            raise GuardError(f"factorization enumeration over {sum(a)} generator copies "
                             f"exceeds the degree bound {FACTORIZATION_DEGREE_BOUND}")
        return self._factorizations(a, 0)

    def _factorizations(self, rest: tuple, start: int):
        if any(rest[:start]):  # a generator before start is left, and can no longer be placed
            return
        if not any(rest):
            yield ()
            return
        for i in range(start, len(rest)):
            if rest[i]:
                reduced = rest[:i] + (rest[i] - 1,) + rest[i + 1:]
                for tail in self._factorizations(reduced, i):
                    yield (self._units[i],) + tail

    def encode(self, a):
        parts = [g if k == 1 else f"{g}^{k}" for g, k in zip(self.generators, a) if k]
        return "*".join(parts) or "1"

    def decode(self, value):
        if require_instance(value, str, self.name + ": expected a string, got {}") in ("1", ""):
            return self._identity
        counts, copies = list(self._identity), 0
        for part in value.split("*"):
            name, _, power = part.partition("^")
            try:
                k = int(power) if power else 1
            except ValueError:
                k = 0
            if k < 1:
                raise InvalidInputError(f"{self.name}: bad exponent in {part!r}")
            if name not in self._index:
                raise InvalidInputError(f"{self.name}: unknown generator {name!r}")
            copies += k
            if copies > FREE_DECODE_BOUND:
                raise GuardError(f"{self.name}: element has more than {FREE_DECODE_BOUND} "
                                 f"generator copies")
            counts[self._index[name]] += k
        return self.validate(tuple(counts))


ZX = NonzeroIntegers()
NAT = PositiveIntegers()
INTERVAL = UnitInterval()


_free_cached = lru_cache(maxsize=MONOID_CACHE_SIZE)(FreeCommutative)


def free_monoid(alphabet: str | Iterable[str]) -> FreeCommutative:
    """Free commutative monoid over the given generators.

    A string alphabet is split on commas when present ("a,b" or "ab" both
    give generators a and b); the MONOID_CACHE_SIZE most recent instances are
    cached per alphabet.  An alphabet that is not a non-empty iterable of
    str identifiers raises InvalidInputError.
    """
    if isinstance(alphabet, str) and "," in alphabet:
        alphabet = alphabet.split(",")
    return _free_cached(_alphabet(alphabet))


def monoid_by_name(name: str) -> Monoid:
    """Resolve a wire-format monoid name: zx, nat, interval, free:<alphabet>."""
    if not isinstance(name, str):
        raise InvalidInputError(f"monoid name must be a string, got {_shown(name)}")
    for monoid in (ZX, NAT, INTERVAL):
        if name == monoid.name:
            return monoid
    if name.startswith("free:"):
        return free_monoid(name[len("free:"):])
    raise InvalidInputError(f"unknown monoid {name!r}")
