"""
Objects, morphisms, and hom-set enumeration
===========================================

Objects are tuples of monoid elements, read as factorizations of their
product.  A morphism (x_1..x_N) -> (y_1..y_M) is a function [M] -> [N]
assigning each codomain position to a domain position, constrained so that
every x_n divides the product of the entries assigned to it.
"""

from factorcat import FactorTuple, Morphism, ZX, empty_tuple, hom_set

t = lambda *entries: FactorTuple(ZX, entries)

# (6,35) refactors as 6 = 2*3 and 35 = 5*7; the map records which factor
# came from which entry
m = Morphism(t(6, 35), t(2, 3, 5, 7), [1, 1, 2, 2])
print("a factorization morphism:", m)

# out of the 2^4 candidate maps, that one is the only order-constrained one
print("hom((6,35),(2,3,5,7)):", [list(x.values) for x in hom_set(t(6, 35), t(2, 3, 5, 7))])

# counts vary wildly with the entries
print("hom((1,2),(1,2))   :", len(hom_set(t(1, 2), t(1, 2))))       # exactly two
print("hom((1,1),(3,3,3)) :", len(hom_set(t(1, 1), t(3, 3, 3))))   # all 2^3 maps
print("hom((2,2),(3,3))   :", len(hom_set(t(2, 2), t(3, 3))))      # none at all

# positions not hit by the map must carry invertible entries: they have to
# divide the empty product
print("hom((6,1,1),(6))   :", len(hom_set(t(6, 1, 1), t(6))))
print("hom((6,2,1),(6))   :", len(hom_set(t(6, 2, 1), t(6))))

# the empty tuple: unique arrow in from unit tuples, none in from others
omega = empty_tuple(ZX)
print("hom((1,-1),())     :", len(hom_set(t(1, -1), omega)))
print("hom((2),())        :", len(hom_set(t(2), omega)))
