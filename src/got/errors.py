"""Exceptions shared across the package, the readers of outside values, and
the one rule that scales a tolerance with the numbers it checks."""

import numbers

import numpy as np


class ValidationError(ValueError):
    """An input failed its structural or numerical invariants."""


class SolverError(RuntimeError):
    """The LP solver could not certify a result."""


def _is_json_number(value) -> bool:
    """A JSON number: a real, but not a bool, which Python counts as an int."""
    # a float, what most JSON numbers parse to, skips the slow check against
    # the abstract class
    return type(value) is float or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
    )


def _is_index(value) -> bool:
    """An integer, numpy's included, but not a bool, nor a whole float."""
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


# the imbalance allowed where supplies should sum to zero, scaled by
# _tolerance: a difference vector, the dense simplex's phase 1 and the
# supply the network simplex leaves on its artificial arcs
IMBALANCE_TOL = 1e-9


def _tolerance(tol: float, values) -> float:
    """``tol`` times max(1, the largest magnitude in ``values``).

    A balance or residual check compares round-off, which grows with the
    numbers summed; up to magnitude 1 the tolerance is ``tol`` itself.
    """
    return tol * float(np.abs(values).max(initial=1.0))


def _floats(
    values, shape: tuple | int | None, what: str, rows: bool = False
) -> np.ndarray:
    """Read an outside array as a fresh C-ordered float array of ``shape``.

    ``shape`` is a tuple whose None entries match any length; an int or None
    stands for a vector of that length, None taking the entry count, so a
    vector of any length passes. With ``rows`` a (k, size) stack of such
    vectors is accepted too. Every entry must be a finite number; on
    failure the ValidationError names ``what``.
    """
    try:
        array = np.array(values, dtype=float, order="C")
    except OverflowError as exc:
        raise ValidationError(f"{what} has an entry beyond the float range") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} is not an array of numbers") from exc
    if not isinstance(shape, tuple):
        shape = (array.size if shape is None else shape,)
    dims = array.shape[1:] if rows and array.ndim == len(shape) + 1 else array.shape
    if len(dims) != len(shape) or any(w not in (None, n) for n, w in zip(dims, shape)):
        expected = f"length {shape[0]}" if len(shape) == 1 else str(shape)
        if rows:
            expected += f" or (rows, {shape[0]})"
        expected = expected.replace("None", "any")
        raise ValidationError(f"{what} has shape {array.shape}, expected {expected}")
    if not np.isfinite(array).all():
        raise ValidationError(f"{what} contains non-finite entries")
    return array
