"""Error taxonomy shared across the package."""

from __future__ import annotations


class SkewSimpleError(Exception):
    """Base class for all package errors."""


class DomainError(SkewSimpleError, ValueError):
    """Operands outside an operation's domain (mixed rings, bad indices...)."""


class CapacityError(SkewSimpleError, RuntimeError):
    """A brute-force operation would exceed a configured cap."""

    def __init__(self, cap_name: str, cap_value: int, requested: int, what: str = "") -> None:
        self.cap_name = cap_name
        self.cap_value = cap_value
        self.requested = requested
        detail = f" for {what}" if what else ""
        super().__init__(
            f"{cap_name} cap exceeded{detail}: need {requested}, cap is {cap_value}"
        )


class PreconditionError(DomainError):
    """A stated hypothesis of a procedure does not hold; names the hypothesis."""

    def __init__(self, hypothesis: str, detail: str = "") -> None:
        self.hypothesis = hypothesis
        msg = f"hypothesis not satisfied: {hypothesis}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class ActionValidationError(DomainError):
    """An action table violates the automorphism or homomorphism laws."""

    def __init__(self, message: str, witness=None) -> None:
        self.witness = witness
        super().__init__(message)


class InstanceParseError(SkewSimpleError, ValueError):
    """Instance file rejected, with location information when available."""

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None,
                 path: str = "") -> None:
        self.line = line
        self.column = column
        self.path = path
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        if path:
            loc += f" (at {path})" if loc == "" else f" (at {path})"
        super().__init__(message + loc)
