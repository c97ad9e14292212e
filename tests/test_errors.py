"""The one boundary for caller data: the error types and the checks of
``errors.py``, and the source rules that keep every refusal behind them."""

import ast
from pathlib import Path

import pytest

import factorcat
from factorcat import FactorcatError, InvalidInputError, InvalidMorphismError
from factorcat.errors import require_instance, require_int, require_iterable

from builders import UNPRINTABLE, needs_digit_limit

SOURCES = sorted(Path(factorcat.__file__).parent.glob("*.py"))


def _trees():
    for path in SOURCES:
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_a_refusal_of_caller_data_is_typed_and_still_a_value_error():
    assert issubclass(InvalidInputError, FactorcatError) and issubclass(InvalidInputError, ValueError)
    assert issubclass(InvalidMorphismError, InvalidInputError)


def test_no_module_raises_a_bare_builtin_refusal():
    # a ValueError, TypeError or KeyError raised by factorcat is a fault, not a
    # refusal; only _below copies random.randrange's ValueError on an empty range
    found = []
    for name, tree in _trees():
        owner = {}  # raise -> its innermost function; ast.walk reaches inner functions last
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func) if isinstance(node, ast.Raise))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", None) in ("ValueError", "TypeError", "KeyError"):
                    found.append(f"{name}:{owner.get(node)}")
    assert found == ["oracle.py:_below"]


def test_the_message_renderer_and_the_bool_rule_live_in_errors_only():
    shown, bool_checks = [], []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_shown":
                shown.append(name)
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and len(node.args) == 2):
                kinds = node.args[1]
                if any(getattr(k, "id", None) == "bool"
                       for k in (kinds.elts if isinstance(kinds, ast.Tuple) else [kinds])):
                    bool_checks.append(name)
    assert shown == ["errors.py"] and bool_checks == ["errors.py"]


@pytest.mark.parametrize("value, bounds, message", [
    (True, (), "n must be an integer, got True"),
    (2.0, (0,), "n must be an integer, got 2.0"),
    (-1, (0,), "n must be non-negative, got -1"),
    (0, (1,), "n must be at least 1, got 0"),
    (4, (0, 3), "n must be at most 3, got 4"),
    (4, (None, 3), "n must be at most 3, got 4"),
    pytest.param(-10**5000, (0,), f"n must be non-negative, got {UNPRINTABLE}",
                 marks=needs_digit_limit, id="past-the-digit-limit"),
])
def test_an_int_check_names_the_field_the_bound_and_the_value(value, bounds, message):
    with pytest.raises(InvalidInputError) as info:
        require_int(value, "n", *bounds)
    assert str(info.value) == message


def test_each_check_returns_what_it_accepts_and_refuses_with_its_message_and_type():
    assert require_int(3, "n", 0, 3) == 3 and require_int(-5, "n") == -5
    assert require_instance("a", str, "{}") == "a"
    assert require_iterable(iter("ab"), "{}") == ("a", "b")
    assert require_iterable(["a"], "{}", str) == ("a",)
    for check, args, message in [
        (require_int, (False, "value {} is no int", 1), "value False is no int"),
        (require_instance, (5, str, "expected a string, got {}"), "expected a string, got 5"),
        (require_instance, (5, str, "no value shown"), "no value shown"),
        (require_iterable, (5, "not iterable: {}"), "not iterable: 5"),
        (require_iterable, ("ab", "names, not {}", str), "names, not 'ab'"),
        (require_iterable, (["a", 1], "names, not {}", str), "names, not ['a', 1]"),
    ]:
        with pytest.raises(InvalidMorphismError) as info:
            check(*args, error=InvalidMorphismError)
        assert str(info.value) == message
