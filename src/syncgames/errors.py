"""Exception hierarchy shared across the package.

Every error raised on a documented code path derives from
:class:`SyncGamesError`, so callers (including the command line driver)
can distinguish domain failures from genuine bugs.
"""

from __future__ import annotations


class SyncGamesError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ShapeMismatchError(SyncGamesError):
    """A matrix or vector does not have the dimensions implied by its sets."""


class NegativeEntryError(SyncGamesError):
    """A probability or weight entry is negative."""

    def __init__(self, row: int, column: int, value) -> None:
        super().__init__(f"negative entry {value} at row {row}, column {column}")
        self.row = row
        self.column = column
        self.value = value


class ColumnSumNotOneError(SyncGamesError):
    """A column of a correlation matrix does not sum to exactly one."""

    def __init__(self, column: int, actual) -> None:
        super().__init__(f"column {column} sums to {actual}, expected 1")
        self.column = column
        self.actual = actual


class UnknownLabelError(SyncGamesError):
    """A label is not a member of the finite set it was looked up in."""

    def __init__(self, label: str, labels=()) -> None:
        known = f" (known labels: {', '.join(labels)})" if labels else ""
        super().__init__(f"unknown label {label!r}{known}")
        self.label = label


class ParseError(SyncGamesError):
    """A serialized value could not be read; carries the offending location."""

    def __init__(self, location: str, message: str) -> None:
        super().__init__(f"{location}: {message}")
        self.location = location


class SetMismatchError(SyncGamesError):
    """Two operands disagree on a finite set that they must share."""


class WeightsNotNormalizedError(SyncGamesError):
    """A measure is negative somewhere or does not sum to exactly one."""


class NotHermitianError(SyncGamesError):
    """A claimed projection is not equal to its conjugate transpose."""

    def __init__(self, input_label: str, output_label: str) -> None:
        super().__init__(
            f"operator for input {input_label!r}, output {output_label!r} is not Hermitian"
        )
        self.input_label = input_label
        self.output_label = output_label


class NotIdempotentError(SyncGamesError):
    """A claimed projection does not square to itself."""

    def __init__(self, input_label: str, output_label: str) -> None:
        super().__init__(
            f"operator for input {input_label!r}, output {output_label!r} is not idempotent"
        )
        self.input_label = input_label
        self.output_label = output_label


class NotCompleteError(SyncGamesError):
    """The projections attached to one input do not sum to the identity."""

    def __init__(self, input_label: str) -> None:
        super().__init__(f"projections for input {input_label!r} do not sum to the identity")
        self.input_label = input_label


class MarginalMismatchError(SyncGamesError):
    """A pair of joint distributions violates one of the two marginal-matching conditions."""

    def __init__(self, label: str, condition: int) -> None:
        super().__init__(f"marginal condition {condition} fails at label {label!r}")
        self.label = label
        self.condition = condition


class DomainTooSmallError(SyncGamesError):
    """The input set is too small for the requested construction."""


class ConditionViolatedError(SyncGamesError):
    """A numbered hypothesis of a weight-based construction fails."""

    def __init__(self, condition: int, detail: str = "") -> None:
        tail = f": {detail}" if detail else ""
        super().__init__(f"condition {condition} violated{tail}")
        self.condition = condition
        self.detail = detail


class NotSymmetricError(SyncGamesError):
    """A matrix that must be symmetric is not."""


class NotSynchronousError(SyncGamesError):
    """A correlation that must be synchronous is not."""


class NotInCategoryError(SyncGamesError):
    """The correlation is not a member of the requested correlation class."""

    def __init__(self, category: str) -> None:
        super().__init__(f"correlation is not a member of category {category}")
        self.category = category


class NotASectionError(SyncGamesError):
    """A left inverse was requested for a correlation that is not a section."""


class NotARetractionError(SyncGamesError):
    """A right inverse was requested for a correlation that is not a retraction."""


class UnsupportedShapeError(SyncGamesError):
    """The requested construction is only defined for other set sizes."""


class OutOfRangeError(SyncGamesError):
    """A probability-like quantity lies outside [0, 1]."""


class NotNormalizedAtEmptySetError(SyncGamesError):
    """An intersection vector does not assign probability one to the empty intersection."""
