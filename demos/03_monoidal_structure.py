"""
Concatenation tensor and the symmetric braiding
===============================================

Tuples concatenate; the empty tuple is a strict unit and association is
literal equality, so there are no coherence isomorphisms to carry around.
Swapping the two halves of a concatenation is an isomorphism, natural in
both arguments, and squares to the identity.
"""

from factorcat import (
    FactorTuple,
    ZX,
    braiding,
    compose,
    empty_tuple,
    identity_morphism,
    is_isomorphism,
    tensor_morphisms,
    tensor_objects,
    validate_morphism,
)

t = lambda *entries: FactorTuple(ZX, entries)

x, y = t(2, 3), t(5)
print("tensor of objects:", tensor_objects(x, y))
print("strict unit:", tensor_objects(x, empty_tuple(ZX)) == x)

# morphisms tensor side by side, shifting the second map past the first domain
f = validate_morphism(t(2), t(6), [1])
g = validate_morphism(t(5), t(105), [1])
print("f tensor g:", tensor_morphisms(f, g))

b = braiding(t(2), t(3, 5))
print("braiding (2)+(3,5):", b)
print("it is an isomorphism:", is_isomorphism(b))
swap_back = braiding(t(3, 5), t(2))
print("swap twice is the identity:", compose(swap_back, b) == identity_morphism(b.domain))

# naturality: swapping before or after acting component-wise agrees
lhs = compose(braiding(f.codomain, g.codomain), tensor_morphisms(f, g))
rhs = compose(tensor_morphisms(g, f), braiding(f.domain, g.domain))
print("braiding is natural here:", lhs == rhs)

# hexagon: swapping x past y (x) z is swapping it past y, then past z
x, y, z = t(2), t(3), t(5, 7)
step = compose(tensor_morphisms(identity_morphism(y), braiding(x, z)),
               tensor_morphisms(braiding(x, y), identity_morphism(z)))
print("hexagon for three blocks:", braiding(x, tensor_objects(y, z)) == step)
print("unit is strict on morphisms:", tensor_morphisms(f, identity_morphism(empty_tuple(ZX))) == f)
