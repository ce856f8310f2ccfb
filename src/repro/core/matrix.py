"""The mapping matrix (Section 5.1.2, Figure 3).

*"Inter-schema relationships can be represented conceptually as a mapping
matrix.  This matrix consists of headers (describing source and target
elements) plus content: a row for each source element and a column for each
target element."*

Cells are :class:`~repro.core.correspondence.Correspondence` objects
annotated with ``confidence-score`` and ``is-user-defined``.  Rows carry a
``variable-name`` annotation, columns carry ``code`` that references those
variables, and the matrix as a whole carries a ``code`` annotation holding
the assembled source→target mapping.  Rows and columns also carry Harmony's
``is-complete`` progress annotation (Section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from .correspondence import Correspondence, validate_confidence
from .errors import MappingError
from .graph import SchemaGraph


@dataclass
class AxisHeader:
    """Header metadata for one row (source element) or column (target element)."""

    element_id: str
    schema_name: str = ""
    variable_name: str = ""
    code: str = ""
    is_complete: bool = False
    annotations: Dict[str, Any] = field(default_factory=dict)

    def copy(self) -> "AxisHeader":
        return AxisHeader(
            element_id=self.element_id,
            schema_name=self.schema_name,
            variable_name=self.variable_name,
            code=self.code,
            is_complete=self.is_complete,
            annotations=dict(self.annotations),
        )


class MappingMatrix:
    """Rows = source elements, columns = target elements, cells = links.

    The matrix is sparse: a missing cell means "no opinion yet" (confidence
    0, machine-generated), distinct from an explicit 0-confidence cell only
    in storage.  :meth:`cell` materializes missing cells on demand.
    """

    def __init__(self, name: str = "mapping") -> None:
        self.name = name
        self._rows: Dict[str, AxisHeader] = {}
        self._columns: Dict[str, AxisHeader] = {}
        self._cells: Dict[Tuple[str, str], Correspondence] = {}
        #: whole-matrix ``code`` annotation: the assembled logical mapping.
        self.code: str = ""
        self.annotations: Dict[str, Any] = {}

    # -- axis management ----------------------------------------------------

    @classmethod
    def from_schemas(
        cls,
        source: SchemaGraph,
        target: SchemaGraph,
        name: Optional[str] = None,
    ) -> "MappingMatrix":
        """Create a matrix with one row per source element and one column per
        target element (excluding the root SCHEMA nodes)."""
        matrix = cls(name or f"{source.name}->{target.name}")
        for element in source:
            if element.element_id != source.root.element_id:
                matrix.add_row(element.element_id, schema_name=source.name)
        for element in target:
            if element.element_id != target.root.element_id:
                matrix.add_column(element.element_id, schema_name=target.name)
        return matrix

    def add_row(self, element_id: str, schema_name: str = "") -> AxisHeader:
        """Add a source-element row; idempotent."""
        if element_id not in self._rows:
            self._rows[element_id] = AxisHeader(element_id, schema_name=schema_name)
        return self._rows[element_id]

    def add_column(self, element_id: str, schema_name: str = "") -> AxisHeader:
        """Add a target-element column; idempotent."""
        if element_id not in self._columns:
            self._columns[element_id] = AxisHeader(element_id, schema_name=schema_name)
        return self._columns[element_id]

    def remove_row(self, element_id: str) -> None:
        self._rows.pop(element_id, None)
        for pair in [p for p in self._cells if p[0] == element_id]:
            del self._cells[pair]

    def remove_column(self, element_id: str) -> None:
        self._columns.pop(element_id, None)
        for pair in [p for p in self._cells if p[1] == element_id]:
            del self._cells[pair]

    @property
    def row_ids(self) -> List[str]:
        return list(self._rows)

    @property
    def column_ids(self) -> List[str]:
        return list(self._columns)

    def row(self, element_id: str) -> AxisHeader:
        if element_id not in self._rows:
            raise MappingError(f"no row for source element {element_id!r}")
        return self._rows[element_id]

    def column(self, element_id: str) -> AxisHeader:
        if element_id not in self._columns:
            raise MappingError(f"no column for target element {element_id!r}")
        return self._columns[element_id]

    # -- cells ---------------------------------------------------------------

    def cell(self, source_id: str, target_id: str) -> Correspondence:
        """The cell for (source, target), materialized on first access."""
        if source_id not in self._rows:
            raise MappingError(f"no row for source element {source_id!r}")
        if target_id not in self._columns:
            raise MappingError(f"no column for target element {target_id!r}")
        pair = (source_id, target_id)
        if pair not in self._cells:
            self._cells[pair] = Correspondence(source_id, target_id)
        return self._cells[pair]

    def peek(self, source_id: str, target_id: str) -> Optional[Correspondence]:
        """The stored cell, or None if never touched (no materialization)."""
        return self._cells.get((source_id, target_id))

    def remove_cell(self, source_id: str, target_id: str) -> None:
        """Forget a cell: back to "no opinion yet" (a no-op if absent)."""
        self._cells.pop((source_id, target_id), None)

    def set_confidence(
        self,
        source_id: str,
        target_id: str,
        confidence: float,
        user_defined: bool = False,
    ) -> Correspondence:
        """Write a confidence score into a cell.

        Machine scores never overwrite user decisions (Section 4.3); user
        scores must be exactly ±1.
        """
        validate_confidence(confidence)
        cell = self.cell(source_id, target_id)
        if user_defined:
            if confidence == 1.0:
                cell.accept()
            elif confidence == -1.0:
                cell.reject()
            else:
                raise MappingError(
                    f"user-defined confidence must be +1 or -1, got {confidence}"
                )
        else:
            cell.suggest(confidence)
        return cell

    def set_cells(self, entries: Iterable[Tuple[str, str, float]]) -> int:
        """Bulk machine write: (source_id, target_id, confidence) triples.

        Semantically one :meth:`set_confidence` per entry (validation
        included, user-decided cells left untouched) but in a single pass
        over pre-resolved axis dicts — how the engine writes its
        results.  Returns how many cells actually took a suggestion.
        """
        rows = self._rows
        columns = self._columns
        cells = self._cells
        written = 0
        for source_id, target_id, confidence in entries:
            if source_id not in rows:
                raise MappingError(f"no row for source element {source_id!r}")
            if target_id not in columns:
                raise MappingError(f"no column for target element {target_id!r}")
            confidence = validate_confidence(confidence)
            pair = (source_id, target_id)
            cell = cells.get(pair)
            if cell is None:
                cell = cells[pair] = Correspondence(source_id, target_id)
            if cell.is_decided:
                continue
            cell.confidence = confidence
            written += 1
        return written

    def load_cells(self, entries: Iterable[Tuple[str, str, float, bool]]) -> None:
        """Bulk load of stored cells: ``(source_id, target_id, confidence,
        is_user_defined)`` tuples, each landing as given (replacing any
        cell of the same pair).

        What reading a matrix back from the blackboard needs: the same
        checks as :meth:`set_confidence` (known row and column, a legal
        confidence, ±1 for a user decision) at one object per cell.
        """
        rows = self._rows
        columns = self._columns
        cells = self._cells
        for source_id, target_id, confidence, user_defined in entries:
            if source_id not in rows:
                raise MappingError(f"no row for source element {source_id!r}")
            if target_id not in columns:
                raise MappingError(f"no column for target element {target_id!r}")
            cells[(source_id, target_id)] = Correspondence(
                source_id, target_id, confidence, user_defined)

    def cells(self) -> Iterator[Correspondence]:
        """All materialized cells."""
        return iter(list(self._cells.values()))

    def cell_count(self) -> int:
        """How many cells are materialized — O(1), unlike listing cells()."""
        return len(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    def links(self, threshold: float = 0.0) -> List[Correspondence]:
        """Cells whose confidence strictly exceeds *threshold* (the
        confidence-slider link filter uses this)."""
        return [c for c in self._cells.values() if c.confidence > threshold]

    def accepted(self) -> List[Correspondence]:
        return [c for c in self._cells.values() if c.is_accepted]

    def rejected(self) -> List[Correspondence]:
        return [c for c in self._cells.values() if c.is_rejected]

    def undecided(self) -> List[Correspondence]:
        return [c for c in self._cells.values() if not c.is_decided]

    # -- progress (Section 4.3) ----------------------------------------------

    def mark_row_complete(self, element_id: str, complete: bool = True) -> None:
        self.row(element_id).is_complete = complete

    def mark_column_complete(self, element_id: str, complete: bool = True) -> None:
        self.column(element_id).is_complete = complete

    def progress(self) -> float:
        """Fraction of rows+columns marked complete — the GUI progress bar
        *"that tracks how close the engineer is to a complete set of
        correspondences"*."""
        total = len(self._rows) + len(self._columns)
        if total == 0:
            return 1.0
        done = sum(1 for h in self._rows.values() if h.is_complete)
        done += sum(1 for h in self._columns.values() if h.is_complete)
        return done / total

    @property
    def is_complete(self) -> bool:
        return self.progress() == 1.0

    # -- code annotations ------------------------------------------------------

    def set_row_variable(self, element_id: str, variable_name: str) -> None:
        """Annotate a row with the variable name its source element binds to."""
        self.row(element_id).variable_name = variable_name

    def set_column_code(self, element_id: str, code: str) -> None:
        """Annotate a column with the code snippet that computes its value."""
        self.column(element_id).code = code

    # -- rendering ----------------------------------------------------------------

    def to_text(self, threshold: float = -1.0) -> str:
        """Render the matrix in the style of Figure 3."""
        lines = [f"mapping matrix {self.name!r}"]
        if self.code:
            lines.append(f"  code = {self.code}")
        header = ["(source \\ target)"] + [
            _axis_label(self._columns[c]) for c in self._columns
        ]
        lines.append(" | ".join(header))
        for row_id, row_header in self._rows.items():
            cells = []
            for col_id in self._columns:
                stored = self._cells.get((row_id, col_id))
                if stored is None or stored.confidence < threshold:
                    cells.append(".")
                else:
                    origin = "u" if stored.is_user_defined else "m"
                    cells.append(f"{stored.confidence:+.1f}{origin}")
            lines.append(" | ".join([_axis_label(row_header)] + cells))
        return "\n".join(lines)

    def copy(self) -> "MappingMatrix":
        clone = MappingMatrix(self.name)
        clone.code = self.code
        clone.annotations = dict(self.annotations)
        for element_id, header in self._rows.items():
            clone._rows[element_id] = header.copy()
        for element_id, header in self._columns.items():
            clone._columns[element_id] = header.copy()
        for pair, cell in self._cells.items():
            clone._cells[pair] = cell.copy()
        return clone

    def __repr__(self) -> str:
        return (
            f"MappingMatrix(name={self.name!r}, rows={len(self._rows)}, "
            f"columns={len(self._columns)}, cells={len(self._cells)})"
        )


def _axis_label(header: AxisHeader) -> str:
    label = header.element_id
    if header.variable_name:
        label += f" [{header.variable_name}]"
    if header.is_complete:
        label += " *"
    return label
