"""Exception types shared across the toolkit."""

from __future__ import annotations


class ChainError(Exception):
    """Base class for every error raised by this package."""


class StructureError(ChainError, ValueError):
    """A raw table is malformed: wrong shape, out-of-range entry, asymmetry."""


class TableFormatError(StructureError):
    """A table document failed to parse; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None, source: str = "<input>"):
        self.message = message
        self.line = line
        self.source = source
        where = source if line is None else f"{source}:{line}"
        super().__init__(f"{where}: {message}")


class SpecSyntaxError(ChainError, ValueError):
    """A family-spec string failed to parse; carries the caret position."""

    def __init__(self, message: str, text: str, pos: int):
        self.message = message
        self.text = text
        self.pos = pos
        super().__init__(message)

    def caret_message(self) -> str:
        return f"{self.message}\n  {self.text}\n  {' ' * self.pos}^"


class DomainError(ChainError, ValueError):
    """An operation was applied outside its domain."""


class ScaleMismatchError(DomainError):
    """Two operands live on different chains."""


class NotProperError(DomainError):
    """A proper uninorm (0 < e < n) was required."""


class EmptyRestrictionError(DomainError):
    """The requested sub-square of the chain is empty."""


class WrongCaseError(DomainError):
    """A case-specific predicate was called with the wrong neutral-element order."""


class ConstructionError(ChainError, ValueError):
    """Family parameters are inconsistent (bad neutral position, scale mismatch)."""


class InvalidUninormError(ChainError, ValueError):
    """A table claimed to be a uninorm failed axiom validation; ``subject``
    names the table, e.g. the command-line operand it came from."""

    def __init__(self, report, subject: str = "table"):
        self.report = report
        self.subject = subject
        first = report.violations[0] if report.violations else None
        detail = f": first violation {first}" if first else ""
        super().__init__(f"{subject} fails uninorm axioms{detail}")


class NotDistributiveError(ChainError):
    """Decomposition was requested for a pair that is not distributive."""

    def __init__(self, report, message: str = "pair is not distributive"):
        self.report = report
        super().__init__(message)


class CompositionInvalid(ChainError):
    """Assembled candidate tables violate the axioms or the case conditions."""

    def __init__(self, report, message: str = "composition rejected"):
        self.report = report
        super().__init__(message)


class SearchLimitError(ChainError):
    """A search was refused because the scale exceeds the configured limit."""


class InternalConsistencyError(ChainError):
    """A state the axioms rule out was observed; indicates a bug, not bad input."""
