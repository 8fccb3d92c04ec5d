"""Shared exception types and the number rules every boundary check uses.

Every precondition failure in the package raises one of these, so callers
can distinguish "you called it wrong" (ContractViolation and subclasses)
from genuine runtime faults.
"""

import math
import numbers


class ContractViolation(ValueError):
    """An operation was called with arguments that violate its contract."""


class ShapeError(ContractViolation):
    """Operand shapes are incompatible for an operation.

    The message names the operation and both shapes, so it pinpoints the
    offending node in a larger graph.
    """

    def __init__(self, op: str, shape_a, shape_b):
        super().__init__(f"{op}: incompatible shapes {tuple(shape_a)} and {tuple(shape_b)}")


class DomainError(ContractViolation):
    """A value lies outside the mathematical domain of an operation."""


# bool is an Integral, but True read as 1 is never what a caller meant
def is_int(value) -> bool:
    """A Python or numpy integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A Python or numpy real number (integers included) that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """A real number (see ``is_real``) that converts to a finite float.

    An integer too large for a float (``10**400``) is not one: it would
    overflow the first time it meets float arithmetic.
    """
    try:
        return is_real(value) and math.isfinite(value)
    except OverflowError:
        return False


def _reject(where: str, name: str, what: str, value) -> ContractViolation:
    return ContractViolation(f"{where + ': ' if where else ''}{name} must be {what}, got {value!r}")


def check_int(where: str, name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an int if it is one (see ``is_int``) in [low, high], else a
    ContractViolation."""
    if is_int(value) and low <= value and (high is None or value <= high):
        return int(value)
    cap = "" if high is None else f" and <= {high}"
    raise _reject(where, name, f"an integer >= {low}{cap}", value)


def check_real(where: str, name: str, value, low: float, *, strict: bool = False) -> float:
    """``value`` as a float if finite (see ``is_finite_real``) and >= ``low`` (> if
    ``strict``), else a ContractViolation."""
    if is_finite_real(value) and (value > low if strict else value >= low):
        return float(value)
    raise _reject(where, name, f"a finite number {'>' if strict else '>='} {low}", value)
