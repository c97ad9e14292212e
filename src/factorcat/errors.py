"""Exception types shared across the package, and the one set of checks of
caller data: each refuses with an InvalidInputError (a ValueError too), its
message showing the value through ``_shown`` in place of a ``{}``."""

import sys


class FactorcatError(Exception):
    """Base class for all library-specific errors."""


class CapabilityError(FactorcatError):
    """An operation was requested on a monoid that lacks the capability,
    e.g. a divisibility-only query on a general pre-ordered instance."""


class GuardError(FactorcatError):
    """A bounded-resource guard tripped: enumeration too large or an
    integer outside the documented trial-division range."""


class InvalidInputError(FactorcatError, ValueError):
    """Caller data that factorcat refuses: a wrong type, a value out of
    range, malformed JSON, an unknown name or a payload no suite yields."""


class InvalidMorphismError(InvalidInputError):
    """The given data does not define a morphism: mismatched sizes,
    mismatched monoids, or a violated order constraint."""


def _shown(value, show=repr) -> str:
    """str(show(value)) as a message shows it, or why it cannot, where value
    holds an int with more digits than str() prints: a message never refuses."""
    try:
        return str(show(value))
    except GuardError as exc:  # an encode that will not print the element
        return f"({exc})"
    except ValueError:  # past sys.get_int_max_str_digits()
        return f"(over {sys.get_int_max_str_digits()} digits to print)"


def require_int(value, what: str, low=None, high=None, error=InvalidInputError) -> int:
    """value when it is an int, not a bool, from low to high (None: unbounded); else
    error(what) if what holds {}, or "<what> must be an integer" (or "non-negative",
    "at least <low>", "at most <high>") ", got <value>"."""
    if isinstance(value, bool) or not isinstance(value, int):
        need = "an integer"
    elif low is not None and value < low:
        need = "non-negative" if low == 0 else f"at least {low}"
    elif high is not None and value > high:
        need = f"at most {high}"
    else:
        return value
    shown = _shown(value)
    raise error(what.replace("{}", shown) if "{}" in what else f"{what} must be {need}, got {shown}")


def require_instance(value, cls: type, message: str, error=InvalidInputError):
    """value when it is an instance of cls; else error(message)."""
    if not isinstance(value, cls):
        raise error(message.replace("{}", _shown(value)))
    return value


def require_iterable(value, message: str, of=None, error=InvalidInputError) -> tuple:
    """tuple(value) when value is iterable and, with of given, is no of itself (one
    str is not a list of names) and yields only ofs; else error(message)."""
    try:
        items = tuple(value)
        if of is None or not isinstance(value, of) and all(isinstance(i, of) for i in items):
            return items
    except TypeError:
        pass
    raise error(message.replace("{}", _shown(value)))
