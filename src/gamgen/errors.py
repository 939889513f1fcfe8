"""Exception hierarchy with stable machine-readable error names.

Every error carries a ``name`` used verbatim by the CLI so that callers can
dispatch on failures without parsing prose.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GamgenError",
    "DomainError",
    "OverflowInValue",
    "ConvergenceError",
    "NoRootInBracketError",
    "NonpositiveObservationError",
    "DegenerateSampleError",
    "InvalidSampleError",
    "MomentDoesNotExistError",
    "DegenerateLimitError",
    "BootstrapDegenerateError",
    "DataError",
]


class GamgenError(Exception):
    """Base class; ``name`` is the machine-readable identifier."""

    name = "error"


class DomainError(GamgenError, ValueError):
    """Argument outside the mathematical domain of an operation."""

    name = "domain-error"


class OverflowInValue(GamgenError, OverflowError):
    """An intermediate quantity exceeded float64 range."""

    name = "overflow"


class ConvergenceError(GamgenError, RuntimeError):
    """An iterative scheme exhausted its iteration budget."""

    name = "no-convergence"


class NoRootInBracketError(GamgenError, RuntimeError):
    """Root search found no sign change inside the search interval."""

    name = "no-root-in-bracket"


class NonpositiveObservationError(GamgenError, ValueError):
    """Sample values must be strictly positive and finite."""

    name = "nonpositive-observation"


class DegenerateSampleError(GamgenError, ValueError):
    """All observations equal; the requested estimator is undefined."""

    name = "degenerate-sample"


class InvalidSampleError(GamgenError, ValueError):
    """Estimating-equation denominator non-positive or non-finite."""

    name = "invalid-sample"


class MomentDoesNotExistError(GamgenError, ValueError):
    """Requested moment order violates the existence condition."""

    name = "moment-does-not-exist"


class DegenerateLimitError(GamgenError, ValueError):
    """Population limit denominator indistinguishable from zero."""

    name = "degenerate-limit"


class BootstrapDegenerateError(GamgenError, RuntimeError):
    """Every bootstrap replicate failed; no correction possible."""

    name = "bootstrap-degenerate"


class DataError(GamgenError, ValueError):
    """Input file unreadable or malformed."""

    name = "data-error"


def positive_array(x, what: str, error: type = DomainError) -> np.ndarray:
    """x as a float64 array; ``error`` unless every entry is finite and > 0."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.size == 1:  # a Python float test skips numpy's per-call cost
        bad = not 0.0 < arr.item() < np.inf
    else:
        bad = arr.size and (np.any(~np.isfinite(arr)) or np.any(arr <= 0.0))
    if bad:
        raise error(f"{what} must be finite and > 0")
    return arr


def level_array(x, what: str) -> np.ndarray:
    """x as a float64 array; DomainError unless every entry lies strictly
    between 0 and 1 (a nan does not)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.size == 1:  # a Python float test skips numpy's per-call cost
        bad = not 0.0 < arr.item() < 1.0
    else:
        bad = np.any(~(arr > 0.0)) or np.any(~(arr < 1.0))
    if bad:
        raise DomainError(f"{what} must lie strictly between 0 and 1")
    return arr
