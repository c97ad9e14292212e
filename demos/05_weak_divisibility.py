"""
Weak divisibility, weakly irreducible and weakly prime morphisms
================================================================

Thinking of (2) -> (6) as "multiply by 3" and (5) -> (105) as "multiply by
21", the first should divide the second because 3 divides 21.  Division of
total witnesses decides the relation in one step, and a tensored square of
refactorings exhibits it concretely.
"""

from factorcat import (
    FactorTuple,
    Morphism,
    ZX,
    free_monoid,
    is_weak_equivalence,
    is_weakly_irreducible,
    is_weakly_irreducible_tuple,
    is_weakly_prime,
    ufd_wedge,
    weak_div_diagram,
    weakly_associate,
    weakly_divides,
)

t = lambda *entries: FactorTuple(ZX, entries)

f = Morphism(t(2), t(6), [1])      # witness 3
g = Morphism(t(5), t(105), [1])    # witness 21
print("f divides g:", weakly_divides(f, g))
print("g divides f:", weakly_divides(g, f))

diag = weak_div_diagram(f, g)
print("square hangs on", diag.mu.domain, "and", diag.eta.domain)
print("rows are weak equivalences:", is_weak_equivalence(diag.mu), is_weak_equivalence(diag.eta))

# mutual division compares witnesses up to sign
h = Morphism(t(10), t(-30), [1])   # witness -3
print("f and h are weakly associate:", weakly_associate(f, h))

# witness irreducible/prime <=> morphism weakly irreducible/prime
print("f weakly irreducible:", is_weakly_irreducible(f), " weakly prime:", is_weakly_prime(f))
square = Morphism(t(1), t(4), [1])  # witness 4 = 2*2
print("witness 4 gives neither:", is_weakly_irreducible(square), is_weakly_prime(square))

# tuples classify through the arrow from (1): the product must be irreducible
print("(3,-1) weakly irreducible:", is_weakly_irreducible_tuple(t(3, -1)))
print("(2,3)  weakly irreducible:", is_weakly_irreducible_tuple(t(2, 3)))

# two non-associate irreducible sources over one target wedge through their product
left = Morphism(t(2), t(36), [1])
right = Morphism(t(3), t(36), [1])
wedge = ufd_wedge(left, right)
print("wedge apex over (36):", wedge.apex)

# associate cores short-circuit to a weak equivalence between the sources
link = ufd_wedge(Morphism(t(2), t(6), [1]), Morphism(t(-2), t(6), [1]))
print("associate cores give a weak equivalence:", link, is_weak_equivalence(link))

# the free commutative monoid tells the same story with multisets
free = free_monoid("ab")
ft = lambda *entries: FactorTuple(free, entries)
fm = Morphism(ft(("a",)), ft(("a",), ("b",)), [1, 1])
print("free-monoid witness morphism is weakly irreducible:", is_weakly_irreducible(fm))
