"""Exception hierarchy, and the argument rules.

Grouped so the command line can map failures to exit codes: config problems,
data problems, and fitting problems are distinct families. Each argument
rule (``require_unit`` and its kin) states its condition and its message
once, for the configs, the scenario laws and the library entry points.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


class TrialbenchError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(TrialbenchError, ValueError):
    """A bad or missing argument, in a config or in a library call. It is a
    ValueError too, so callers that catch ValueError keep working."""


class DataError(TrialbenchError):
    """Base class for problems with the input data."""


class SchemaError(DataError):
    """A required column is missing or the schema mapping is unusable."""


class ParseError(DataError):
    """A cell failed to parse; the message names the offending data row."""


class DomainError(DataError):
    """A value is outside its allowed domain (study or treatment not 0/1)."""


class ValidationFailure(DataError):
    """A dataset failed one or more hard validation checks."""


class FitError(TrialbenchError):
    """Base class for model-fitting failures."""


class DegenerateFitError(FitError):
    """The fit is impossible: single-class labels or an empty stratum."""


class SeparationError(FitError):
    """Logistic likelihood has no finite maximizer; message names the iteration."""


class SingularDesignError(FitError):
    """Rank-deficient design; message identifies a dependent column."""


class PositivityError(FitError):
    """Estimated probabilities below the floor on rows that get weighted."""


class IncompatibleEstimatesError(TrialbenchError):
    """Two estimates cannot be contrasted (different datasets or lengths)."""


class DegenerateTestError(TrialbenchError):
    """A test statistic cannot be formed (zero standard error)."""


class ReportSchemaError(TrialbenchError):
    """A report breaks the shipped report schema; the message names the JSON path and rule."""


class WorkerError(TrialbenchError):
    """A worker process ended before it returned its task's result, for
    example killed by the kernel when the machine ran out of memory."""


def record(errors: list, rows: np.ndarray, make) -> None:
    """Give each row marked in the boolean mask ``rows`` whose slot in
    ``errors`` is still empty the error ``make(row)``.

    A stack of fits or estimates keeps one error slot per row. The first
    error a row meets is the one its analysis alone would raise, so a later
    check never overwrites it.
    """
    for r in rows.nonzero()[0]:
        if errors[r] is None:
            errors[r] = make(r)


def require_finite(values, what: str) -> None:
    """Raise a FitError naming ``what`` unless all of ``values`` are finite.
    A reported number is checked where it is made: the JSON writer would
    turn inf or NaN into null."""
    if not np.isfinite(values).all():
        raise FitError(f"{what} is not finite")


def require_unit(value, name: str) -> None:
    """A probability, a confidence level or a test threshold: inside (0, 1)."""
    if not (isinstance(value, numbers.Real) and 0.0 < value < 1.0):
        raise ConfigError(f"{name!r} must be inside (0, 1), got {value!r}")


def require_count(value, name: str, floor: int, *, or_zero: bool = False) -> None:
    """A count, a size, a dimension or a seed: an integer of at least ``floor``
    (or 0, with ``or_zero``). A float or a bool is refused, not truncated."""
    whole = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (whole and (value >= floor or (or_zero and value == 0))):
        floor_text = f"{floor} or 0" if or_zero else floor
        raise ConfigError(f"{name!r} must be an integer of at least {floor_text}, got {value!r}")


def require_sizes(value, name: str) -> None:
    """The study sizes (trial, emulation): a pair, a tuple or a list, of
    integers of at least 1."""
    if not (isinstance(value, (tuple, list)) and len(value) == 2):
        raise ConfigError(f"{name!r} must be a pair (trial size, emulation size), got {value!r}")
    for size in value:
        require_count(size, name, 1)


def require_positive(value, name: str, *, or_zero: bool = False) -> None:
    """A scale, a threshold or a penalty: a finite number above 0, or at
    least 0 with ``or_zero``. NaN fails both comparisons: a NaN ridge would
    switch off the penalty and the separation check both."""
    above = isinstance(value, numbers.Real) and (value >= 0.0 if or_zero else value > 0.0)
    if not (above and value < math.inf):
        bound = ">= 0" if or_zero else "> 0"
        raise ConfigError(f"{name!r} must be a finite number {bound}, got {value!r}")


def require_member(value, name: str, allowed: tuple) -> None:
    """One of a fixed set of choices, such as an outcome kind or an arm."""
    if value not in allowed:
        raise ConfigError(f"{name!r} must be one of {list(allowed)}, got {value!r}")


def require_subset(values, name: str, allowed: tuple) -> None:
    """One or more of a fixed set of choices, none twice: estimators or arms.
    A bool is refused, since as an arm it would label an estimate "phi(True)"."""
    chosen = {v for v in values if v in allowed and not isinstance(v, bool)}
    if not values or len(chosen) != len(values):
        raise ConfigError(
            f"{name!r} must be distinct values from {list(allowed)}, got {list(values)}"
        )
