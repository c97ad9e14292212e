"""Shorthand builders of tuples and morphisms over ``zx`` for the tests."""

from factorcat import ZX, FactorTuple, Morphism


def zt(*entries):
    return FactorTuple(ZX, entries)


def zm(dom, cod, values):
    return Morphism(zt(*dom), zt(*cod), values)
