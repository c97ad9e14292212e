"""
Weak equivalences and right fractions
=====================================

A morphism is a weak equivalence when its total witness is invertible:
refactorings and unit-drops qualify, proper divisibility steps never do.
Inverting this class collapses the category onto the underlying monoid, and
the class admits a calculus of right fractions witnessed by explicit
squares over 1-tuples.
"""

from factorcat import (
    FactorTuple,
    Morphism,
    ZX,
    classify_by_delta,
    compose,
    is_weak_equivalence,
    ore_square,
    right_cancel_witness,
    total_witness,
)

t = lambda *entries: FactorTuple(ZX, entries)

refactor = Morphism(t(210), t(2, 3, 5, 7), [1, 1, 1, 1])
drop = Morphism(t(6, 1, 1), t(6), [1])
scale = Morphism(t(2), t(6), [1])
print("refactoring is a weak equivalence :", is_weak_equivalence(refactor))
print("dropping units is too             :", is_weak_equivalence(drop))
print("multiplying by 3 is not (r = %d)   :" % total_witness(scale), is_weak_equivalence(scale))

# same verdict through the canonical decomposition's middle step
print("classified by the middle step:", classify_by_delta(scale))

# 2-of-3: the witness of a composite is the product of the witnesses
f = Morphism(t(210), t(6, 35), [1, 1])
g = Morphism(t(6, 35), t(2, 3, 5, 7), [1, 1, 2, 2])
print("2-of-3 on a composable pair:", is_weak_equivalence(compose(g, f)) == (
    is_weak_equivalence(f) and is_weak_equivalence(g)))

# the right Ore condition: complete a cospan whose first leg is in W
w = Morphism(t(210), t(2, 3, 5, 7), [1, 1, 1, 1])
other = Morphism(t(10, 21), t(2, 3, 5, 7), [1, 2, 1, 2])
f_prime, g_prime = ore_square(w, other)
print("ore completion:", f_prime, "and", g_prime)
print("square commutes:", compose(w, g_prime) == compose(other, f_prime))

# right cancellation: a weak equivalence that equalizes two maps has a
# one-tuple witness equalizing them from the left
p = Morphism(t(1, 2), t(1, 2), [1, 2])
q = Morphism(t(1, 2), t(1, 2), [2, 2])
eq = Morphism(t(1, 2), t(2), [2])
h = right_cancel_witness(p, q, eq)
print("cancellation witness:", h, "equalizes:", compose(p, h) == compose(q, h))
