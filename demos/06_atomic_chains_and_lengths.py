"""
Atomic chains, length functions, and factorization probes
=========================================================

Every morphism over the integers decomposes into weak equivalences and
weakly irreducible steps, one per irreducible factor of its witness.  The
number of irreducible steps is independent of the decomposition, giving
additive length functions; divisor classes of the witness enumerate the
weak divisors up to weak associates.
"""

from factorcat import (
    FactorTuple,
    Morphism,
    ZX,
    atomic_chain,
    chain_stabilizes,
    enumerate_irreducible_factorizations,
    weak_divisor_classes,
    zeta_elt,
    zeta_mor,
    zeta_obj,
)

t = lambda *entries: FactorTuple(ZX, entries)

m = Morphism(t(1), t(60), [1])
chain = atomic_chain(m)
print("chain for (1) -> (60):")
for tag, step in zip(chain.tags, chain.steps):
    print(f"  {tag:<19} {step}")
print("irreducible steps:", chain.irr_count, "= zeta:", zeta_mor(m))
print("recomposes:", chain.composed() == m)

mixed = Morphism(t(6, 1, 35), t(2, 7, 33, 65), [1, 3, 1, 3])
print("mixed example has", atomic_chain(mixed).irr_count, "irreducible steps (143 = 11*13)")

# length functions: zero on units and weak equivalences, one on irreducibles
print("zeta of 60:", zeta_elt(ZX, 60))
print("zeta of the object (6,35):", zeta_obj(t(6, 35)))

# weak divisor classes of a morphism = divisor classes of its witness
twelve = Morphism(t(1), t(12), [1])
print("weak divisor classes for r=12:", weak_divisor_classes(twelve))

# ascending-chain probe: a descending divisibility chain stabilizes where
# the steps become weak equivalences
descending = [
    Morphism(t(4), t(8), [1]),
    Morphism(t(2), t(4), [1]),
    Morphism(t(2), t(2), [1]),
    Morphism(t(2), t(2), [1]),
]
print("chain stabilizes at index:", chain_stabilizes(descending))

# brute-force ground truth: the integers factor uniquely
print("factorization classes of 12:", enumerate_irreducible_factorizations(ZX, 12).classes)
