"""Exception types shared across the package."""

from __future__ import annotations


class ModelError(Exception):
    """Invalid model text or a model-level constraint violation."""


class ParseError(ModelError):
    """Syntax error in a model, evidence, or ordering file."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class NormalizationError(ModelError):
    """A conditional table has a negative entry or a row that does not sum to one."""


class CycleError(ModelError):
    """The parent relation contains a directed cycle."""


class EvidenceError(ModelError):
    """Evidence refers to an unknown variable or an out-of-range value."""


class ZeroMassError(Exception):
    """The observed evidence has probability zero under the model."""


class UnsatisfiableError(Exception):
    """Model generation was asked for on an unsatisfiable theory."""


class OrderingConstraintError(ValueError):
    """An elimination ordering violates a query's placement constraints."""


class TooLargeError(Exception):
    """The instance exceeds the exhaustive-enumeration guard."""
