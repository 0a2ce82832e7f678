"""Exception types shared across the toolkit, the one reader of JSON fields,
the one check of an integer argument and the one check of a work budget."""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all groupstab errors."""


class AxiomViolation(ToolkitError):
    """A Cayley table failed one of the group axioms.

    Carries the name of the failing axiom and a witness tuple of element
    indices that exhibits the failure.
    """

    def __init__(self, axiom: str, witness: tuple[int, ...], detail: str = ""):
        self.axiom = axiom
        self.witness = witness
        msg = f"group axiom {axiom!r} fails at witness {witness}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class CrossGroupElement(ToolkitError, ValueError):
    """An element of one group was used in an operation of another.

    It is a ValueError too, like an element index out of range: both are an
    element that the group does not have."""


class BudgetExceeded(ToolkitError):
    """A work budget was exhausted before the operation could finish."""

    def __init__(self, required: int, budget: int, what: str = "work units"):
        self.required = required
        self.budget = budget
        super().__init__(f"operation needs {required} {what}, budget is {budget}")


class PairOutsideCarrier(ToolkitError):
    """A relation pair falls outside the declared carrier sets."""


class CarrierMismatch(ToolkitError):
    """Two relations with different carriers were combined."""


class ArityMismatch(ToolkitError):
    """A shift or carrier has the wrong arity for the requested operation."""


class ArityUnsupported(ToolkitError):
    """The census is only defined for lower-arity carriers."""


class NonAbelianGroup(ToolkitError):
    """The operation requires an abelian group."""


class EmptyCarrier(ToolkitError):
    """Carrier normalization was requested over an empty carrier product."""


class IndexOutOfRange(ToolkitError):
    """A coset or element index is out of range."""


def _read(convert, value, what: str):
    """convert(value) for one field of parsed JSON; a value of the wrong type
    or form, a JSON boolean among them, is a ValueError that names the field.
    An int is read from an integral number or a numeric string, never by
    dropping a fractional part."""
    try:
        if isinstance(value, bool):
            raise TypeError("a boolean is not a number")
        if convert is int and isinstance(value, float) and not value.is_integer():
            raise ValueError("an integer has no fractional part")
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"cannot read {what} from {value!r}") from exc


def _check_int(value, name: str) -> None:
    """An argument that is a bool or not an int is a ValueError that names it."""
    if type(value) is bool or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")


def _check_budget(budget: int, name: str = "budget") -> None:
    """A work budget that is not an int, or below 0, is a ValueError that
    names it, raised before any work; 0 is valid."""
    _check_int(budget, name)
    if budget < 0:
        raise ValueError(f"{name} must be >= 0, got {budget}")
