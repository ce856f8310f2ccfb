"""Exception hierarchy for the integration workbench.

Every subsystem raises exceptions derived from :class:`WorkbenchError` so
that callers can catch workbench-level failures without also swallowing
programming errors.
"""

from __future__ import annotations


class WorkbenchError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(WorkbenchError):
    """A schema graph is malformed or an element reference is invalid."""


class UnknownElementError(SchemaError):
    """An element id was not found in the schema graph it was looked up in."""

    def __init__(self, element_id: str, graph_name: str = "") -> None:
        where = f" in schema {graph_name!r}" if graph_name else ""
        super().__init__(f"unknown schema element {element_id!r}{where}")
        self.element_id = element_id
        self.graph_name = graph_name


class DuplicateElementError(SchemaError):
    """An element id was added twice to the same schema graph."""

    def __init__(self, element_id: str) -> None:
        super().__init__(f"duplicate schema element id {element_id!r}")
        self.element_id = element_id


class MappingError(WorkbenchError):
    """A mapping matrix operation failed."""


class LoaderError(WorkbenchError):
    """A schema loader could not parse its input."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" at line {line}" if line else ""
        if line and column:
            location = f" at line {line}, column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class ExpressionError(WorkbenchError):
    """A transformation expression failed to parse or evaluate."""


class TransformError(WorkbenchError):
    """A domain/attribute/entity transformation could not be applied."""


class VerificationError(WorkbenchError):
    """A logical mapping violates the target schema's constraints."""


class StoreError(WorkbenchError):
    """An RDF store operation failed."""


class QueryError(StoreError):
    """An RDF query is malformed."""


class DurabilityError(StoreError):
    """A write-ahead log or snapshot is unusable beyond crash-truncation.

    Raised for damage that crash recovery must *not* silently repair:
    an unreadable snapshot, a WAL whose header names a foreign format or
    version, or a replayed frame whose revision counter disagrees with
    the store it was applied to."""


class TransactionError(WorkbenchError):
    """A blackboard transaction was used incorrectly."""


class ToolError(WorkbenchError):
    """A workbench tool failed to initialize or run."""
