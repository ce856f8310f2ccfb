"""Schema evolution: keeping mappings in sync as schemata change.

Section 3.1: *"One also needs a means to keep the metadata in synch, as
the actual systems change."*  Section 5.1.3: the blackboard tracks schema
versions; this module closes the loop — given the diff between two
versions of one side of a mapping, it updates the mapping matrix so the
engineer (and the engine) re-examine exactly what the change affected:

* **removed** elements lose their rows/columns (their links are gone);
* **added** elements gain fresh axes (undecided, to be matched);
* **renamed / retyped / redocumented** elements keep user decisions —
  the engineer's judgment usually survives a rename — but machine
  suggestions touching them are reset to "no opinion", because the
  evidence they were based on changed.  The cells are dropped: a
  missing cell already means "no opinion, confidence 0", and the
  rematch then writes exactly the cells a cold match of the new
  version would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from ..core.errors import MappingError
from ..core.matrix import MappingMatrix
from .versioning import SchemaDiff


@dataclass
class RematchReport:
    """What evolution did to a matrix, and what needs human/engine attention."""

    axes_removed: List[str] = field(default_factory=list)
    axes_added: List[str] = field(default_factory=list)
    suggestions_reset: List[Tuple[str, str]] = field(default_factory=list)
    decisions_kept: List[Tuple[str, str]] = field(default_factory=list)
    #: user decisions that were *dropped* because an endpoint disappeared
    decisions_lost: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def needs_rematch(self) -> bool:
        return bool(self.axes_added or self.suggestions_reset)

    def to_text(self) -> str:
        lines = [
            f"axes removed: {len(self.axes_removed)}",
            f"axes added (to match): {len(self.axes_added)}",
            f"machine suggestions reset: {len(self.suggestions_reset)}",
            f"user decisions kept: {len(self.decisions_kept)}",
            f"user decisions lost with removed elements: {len(self.decisions_lost)}",
        ]
        return "\n".join(lines)


def apply_evolution(
    matrix: MappingMatrix,
    diff: SchemaDiff,
    side: str = "source",
    schema_name: str = "",
) -> RematchReport:
    """Update *matrix* in place for a schema change described by *diff*.

    *side* says which axis evolved ("source" → rows, "target" → columns).
    """
    if side not in ("source", "target"):
        raise MappingError("side must be 'source' or 'target'")
    report = RematchReport()
    affected: Set[str] = set(diff.redocumented)
    affected.update(element_id for element_id, _, _ in diff.renamed)
    affected.update(element_id for element_id, _, _ in diff.retyped)
    affected.update(diff.rekinded)
    affected.update(diff.reannotated)
    # structural rewires (containment/domain edges) change flooding and
    # path/leaf evidence even when no element attribute moved — their
    # machine suggestions are stale too
    affected.update(diff.restructured_ids())

    is_row = side == "source"
    axis_ids = matrix.row_ids if is_row else matrix.column_ids

    # removed elements: record lost decisions, then drop the axis
    for element_id in diff.removed:
        if element_id not in axis_ids:
            continue
        for cell in list(matrix.cells()):
            anchor = cell.source_id if is_row else cell.target_id
            if anchor == element_id and cell.is_decided:
                report.decisions_lost.append(cell.pair)
        if is_row:
            matrix.remove_row(element_id)
        else:
            matrix.remove_column(element_id)
        report.axes_removed.append(element_id)

    # added elements: fresh axes
    for element_id in diff.added:
        if is_row:
            if element_id not in matrix.row_ids:
                matrix.add_row(element_id, schema_name=schema_name)
                report.axes_added.append(element_id)
        else:
            if element_id not in matrix.column_ids:
                matrix.add_column(element_id, schema_name=schema_name)
                report.axes_added.append(element_id)

    # changed elements: drop machine opinions (a cell the rematch no
    # longer retrieves must not linger as a 0.0 that a cold match never
    # writes), keep user decisions, and re-open the completion flag —
    # the sub-tree is no longer "done"
    for cell in list(matrix.cells()):
        anchor = cell.source_id if is_row else cell.target_id
        if anchor not in affected:
            continue
        if cell.is_decided:
            report.decisions_kept.append(cell.pair)
            continue
        if cell.confidence != 0.0:
            report.suggestions_reset.append(cell.pair)
        matrix.remove_cell(cell.source_id, cell.target_id)
    for element_id in affected:
        if is_row and element_id in matrix.row_ids:
            matrix.mark_row_complete(element_id, complete=False)
        elif not is_row and element_id in matrix.column_ids:
            matrix.mark_column_complete(element_id, complete=False)
    return report


def evolve_and_rematch(
    manager,
    matrix_name: str,
    old_graph,
    new_graph,
    side: str = "source",
    matcher_tool: str = "harmony",
    other_schema: Optional[str] = None,
) -> RematchReport:
    """Full evolution round-trip against a workbench.

    Stores the new schema version, diffs, updates the matrix on the
    blackboard, and re-invokes the matcher tool so the added/reset cells
    get fresh scores — all inside one transaction, per the §5.3 protocol.
    The schema and matrix writes are delta writes, so an evolve step
    writes only the triples it changes.
    """
    from .versioning import diff_schemas

    diff = diff_schemas(old_graph, new_graph)
    blackboard = manager.blackboard
    matrix = blackboard.get_matrix(matrix_name)
    report = apply_evolution(matrix, diff, side=side, schema_name=new_graph.name)
    with manager.transaction():
        blackboard.put_schema(new_graph, delta=True, previous=old_graph)
        blackboard.put_matrix(matrix, delta=True)
    if report.needs_rematch:
        source_schema = new_graph.name if side == "source" else other_schema
        target_schema = other_schema if side == "source" else new_graph.name
        if source_schema and target_schema:
            manager.invoke(
                matcher_tool,
                source_schema=source_schema,
                target_schema=target_schema,
                matrix_name=matrix_name,
            )
    return report
