"""Shorthand builders of tuples and morphisms over ``zx`` for the tests, and
the note a message shows for an int too long to print."""

import sys

import pytest

from factorcat import ZX, FactorTuple, Morphism

# what a message shows in place of an int past str()'s digit limit
UNPRINTABLE = f"(over {getattr(sys, 'get_int_max_str_digits', lambda: 0)()} digits to print)"
needs_digit_limit = pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
    reason="str() prints a 5,001-digit int when it has no smaller digit limit")


def zt(*entries):
    return FactorTuple(ZX, entries)


def zm(dom, cod, values):
    return Morphism(zt(*dom), zt(*cod), values)
