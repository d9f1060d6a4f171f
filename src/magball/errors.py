"""Exception types, and the exact-integer check of every input reader."""


class MagballError(Exception):
    """Base class for all package errors."""


class DomainError(MagballError, ValueError):
    """Invalid argument: violated precondition or malformed input."""


class ResourceLimitError(MagballError):
    """A requested computation exceeds the configured desk-scale limits."""


class OracleDisagreement(MagballError):
    """Two independent verifiers returned different verdicts for one claim."""


def exact_int(value, what: str) -> int:
    """``value``, or a DomainError naming ``what`` unless it is an exact
    integer.  A JSON bool (an int subclass), float or string is not one,
    though ``int()`` would quietly coerce it."""
    if type(value) is not int:
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return value


def is_int_list(values) -> bool:
    """A list or tuple of exact integers, as :func:`exact_int` takes them.
    The types are compared in C: ``decode`` reads every vector this way."""
    return isinstance(values, (list, tuple)) and set(map(type, values)) <= {int}


def exact_ints(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple, or a DomainError unless :func:`is_int_list`."""
    if not is_int_list(values):
        raise DomainError(f"{values!r} is not a list of {what}")
    return tuple(values)
