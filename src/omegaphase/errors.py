"""The parse-error base shared by the machine and clock-spec readers and
the CLI; it imports nothing, so no reader pulls in another's layers."""


class ParseError(ValueError):
    """A malformed input file; carries the offending line number, if any."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
