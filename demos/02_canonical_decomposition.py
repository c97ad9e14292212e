"""
Quotient witnesses and the three-step decomposition
===================================================

Every morphism between non-empty tuples factors canonically as: drop the
unused invertible entries, multiply coordinate-wise by the ratios, then
refactor onto the codomain.  The per-coordinate ratios and their product
(the total witness) are unique by cancellativity.
"""

from factorcat import FactorTuple, Morphism, ZX, decompose_eip, quotient_witnesses

t = lambda *entries: FactorTuple(ZX, entries)

# 6 divides 2*33 (ratio 11) and 35 divides 7*65 (ratio 13); the middle 1 is dropped
m = Morphism(t(6, 1, 35), t(2, 7, 33, 65), [1, 3, 1, 3])
print("morphism:", m)

w = quotient_witnesses(m)
print("per-coordinate witnesses:", w.per_index)   # (11, 1, 13)
print("total witness r:", w.total)                # 143 = 11 * 13

d = decompose_eip(m)
print("epsilon (drop units)   :", d.epsilon)
print("delta   (divisibility) :", d.delta)
print("phi     (refactor)     :", d.phi)
print("ratios:", d.ratios, " dropped unit:", d.dropped_unit)
print("composite equals the original:", d.composed() == m)

# identity-shaped inputs decompose trivially
div = Morphism(t(2), t(6), [1])
d2 = decompose_eip(div)
print("a bare divisibility step keeps only delta:", d2.delta == div)
