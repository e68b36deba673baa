"""The error classes that the CLI maps to exit codes and that more than
one layer or the CLI names: the parse-error base shared by the machine
and clock-spec readers, and the clock's and the phase model's constraint
failures.  It imports nothing, so the CLI can name them without loading
the layers that raise them."""


class ParseError(ValueError):
    """A malformed input file; carries the offending line number, if any."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BracketError(RuntimeError):
    """Root bracketing failed: mu outside (0,1) or numerical pathology."""


class SeparationError(RuntimeError):
    """The marker interval fails to separate the two energy regimes
    within the checked range: model constants too loose."""
