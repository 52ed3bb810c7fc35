"""Exceptions shared across the package, and the one reader of outside arrays."""

import numpy as np


class ValidationError(ValueError):
    """An input failed its structural or numerical invariants."""


class SolverError(RuntimeError):
    """The LP solver could not certify a result."""


def _floats(values, size: int | None, what: str, rows: bool = False) -> np.ndarray:
    """Read an outside vector as a fresh float array of shape (size,).

    ``size`` None takes the entry count, so a vector of any length passes.
    With ``rows`` a (k, size) stack of such vectors is accepted too. Every
    entry must be a finite number; on failure the ValidationError names
    ``what``.
    """
    try:
        array = np.array(values, dtype=float)
    except OverflowError as exc:
        raise ValidationError(f"{what} has an entry beyond the float range") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} is not an array of numbers") from exc
    if size is None:
        size = array.size
    if array.shape != (size,) and not (rows and array.shape[1:] == (size,)):
        stack = f" or (rows, {size})" if rows else ""
        raise ValidationError(
            f"{what} has shape {array.shape}, expected length {size}{stack}"
        )
    if not np.isfinite(array).all():
        raise ValidationError(f"{what} contains non-finite entries")
    return array
