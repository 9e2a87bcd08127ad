"""Exception hierarchy.

Grouped so the command line can map failures to exit codes: config problems,
data problems, and fitting problems are distinct families.
"""

from __future__ import annotations


class TrialbenchError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(TrialbenchError):
    """Bad or missing configuration value."""


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


def record(errors: list, rows, make) -> None:
    """Give each of ``rows`` whose slot in ``errors`` is still empty the error ``make(row)``.

    A stack of fits or estimates keeps one error slot per row. The first
    error a row meets is the one its analysis alone would raise, so a later
    check never overwrites it.
    """
    for r in rows:
        if errors[r] is None:
            errors[r] = make(r)
