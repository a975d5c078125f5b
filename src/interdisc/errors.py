"""Exception hierarchy shared across the package, and the guard for files.

Exit-code mapping used by the CLI: usage errors exit 1, data errors exit 2,
numerical errors exit 3.  Every file the package opens, reads or writes goes
through `file_errors`, and each reader checks its file's contents inside that
guard, so every data error from an input file names the file, and a row
error names its line too: `e.csv: line 3: expected 3 fields, got 1`.
"""

from contextlib import contextmanager


class InterdiscError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class UsageError(InterdiscError):
    """Bad command-line arguments or option combinations."""

    exit_code = 1


class DataError(InterdiscError):
    """Malformed or inconsistent input data, on input line `line` if given."""

    exit_code = 2
    path = None  # the file `file_errors` named, which the message leads with

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)

    def __str__(self) -> str:
        message = super().__str__()
        return message if self.path is None else f"{self.path}: {message}"


class ParseError(DataError):
    """A row of an input file could not be parsed."""


class EmptyCorpusError(DataError):
    """An input file contained no usable citation data."""


class DimensionError(DataError):
    """A matrix input had incompatible or non-square dimensions."""


class MetadataConflictError(DataError):
    """Two metadata rows describe the same journal."""


class UnknownJournalError(DataError):
    """A journal id or name is not present in the registry."""


class NumericalError(InterdiscError):
    """A computation is undefined or numerically infeasible for the input."""

    exit_code = 3


class UndefinedIndicatorError(NumericalError):
    """The indicator is undefined for this vector (e.g. empty support)."""


class UndefinedCorrelationError(NumericalError):
    """Correlation is undefined (constant column or too few observations)."""


class ContractError(NumericalError):
    """An input violated a numerical precondition (e.g. unnormalized p)."""


class RankError(NumericalError):
    """Requested factor count exceeds the rank of the correlation matrix."""


class CountOverflowError(NumericalError):
    """Integer products would exceed the exact range of the count type."""


@contextmanager
def file_errors(path):
    """Name `path` in every `DataError` raised in the block, keeping its type.

    A failed open, read or write of `path` becomes a `DataError`, and text
    that does not decode as UTF-8 a `ParseError`.  An error that an inner
    guard has already named keeps its file, so the name appears once.
    """
    try:
        try:
            yield
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text ({exc.reason})") from None
        except OSError as exc:  # missing, a directory, unreadable, disk full
            raise DataError(exc.strerror or str(exc)) from None
    except DataError as exc:
        if exc.path is None:
            exc.path = path
        raise
