"""The tool interface and the four standard tool kinds (Section 5.2.1).

*"The tool interface defines two methods.  First, a tool must provide an
invoke method...  Second, when the workbench starts, each tool has the
option of implementing an initialize method.  Generally, this is done when
a tool needs to register for events."*

The four kinds the paper focuses on — loaders, matchers, mappers and
code-generators — are provided as adapters over the corresponding library
subsystems, each publishing the events Section 5.2.2 assigns it and
*"listening for events immediately upstream or downstream in the task
model"*.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, List, Optional

from ..core.errors import ToolError
from ..core.graph import SchemaGraph
from ..core.matrix import MappingMatrix
from ..codegen.assembler import AssembledMapping, assemble
from ..harmony.engine import HarmonyEngine
from ..loaders.base import SchemaLoader
from ..mapper.attribute_transforms import AttributeTransform
from ..mapper.mapping_tool import MappingTool as MapperCore
from .events import (
    MappingCellEvent,
    MappingMatrixEvent,
    MappingVectorEvent,
    SchemaGraphEvent,
)


class Tool(ABC):
    """The workbench tool interface."""

    #: Unique name within one workbench instance.
    name: str = "tool"

    def initialize(self, manager: "WorkbenchManager") -> None:  # noqa: F821
        """Called once at workbench start; register for events here."""

    @abstractmethod
    def invoke(self, manager: "WorkbenchManager", **kwargs: Any) -> Any:  # noqa: F821
        """Run the tool (launch its GUI / algorithm / dialog)."""


class LoaderTool(Tool):
    """Wraps a :class:`SchemaLoader`: parses input, places the schema graph
    on the IB, and announces it with a schema-graph event."""

    def __init__(self, loader: SchemaLoader, name: Optional[str] = None) -> None:
        self.loader = loader
        self.name = name or f"load-{loader.format_name}"

    def invoke(
        self,
        manager: "WorkbenchManager",
        text: str = "",
        schema_name: Optional[str] = None,
        **kwargs: Any,
    ) -> SchemaGraph:
        if not text:
            raise ToolError(f"{self.name}: no schema text supplied")
        graph = self.loader.load(text, schema_name=schema_name)
        with manager.transaction():
            manager.blackboard.put_schema(graph)
            manager.events.publish(
                SchemaGraphEvent(source_tool=self.name, schema_name=graph.name)
            )
        return graph


class MatcherTool(Tool):
    """Wraps the Harmony engine: reads both schemata and the matrix from
    the IB, runs the engine inside one transaction, and publishes one
    mapping-cell event per changed cell *after* the transaction commits —
    exactly the paper's automatic-matcher protocol."""

    name = "harmony"

    def __init__(self, engine: Optional[HarmonyEngine] = None) -> None:
        self.engine = engine if engine is not None else HarmonyEngine()
        #: events this tool received (it listens downstream for
        #: mapping-vector events to keep cells in sync)
        self.received: List[MappingVectorEvent] = []

    def initialize(self, manager: "WorkbenchManager") -> None:
        manager.events.subscribe(MappingVectorEvent, self.received.append)

    def invoke(
        self,
        manager: "WorkbenchManager",
        source_schema: str = "",
        target_schema: str = "",
        matrix_name: Optional[str] = None,
        **kwargs: Any,
    ) -> MappingMatrix:
        """Run the engine over the named schemas.

        Both schemas and the matrix are read back from the blackboard,
        so the engine sees new graph objects every round; objects whose
        triples did not change are built from the blackboard's typed
        views, not parsed from RDF, and the matrix write touches only
        the changed cells.  The engine decides reuse by schema content
        (:meth:`HarmonyEngine.match`): an unchanged pair reuses
        the warm context and its voter scores, and a pair changed by a
        schema evolution is patched for what changed under
        ``EngineConfig.incremental_rematch``.  Refinement rounds and
        rematches after ``evolve_and_rematch`` therefore take the same
        path, and no caller hint is involved.
        """
        blackboard = manager.blackboard
        source = blackboard.get_schema(source_schema)
        target = blackboard.get_schema(target_schema)
        matrix_name = matrix_name or f"{source_schema}->{target_schema}"
        if blackboard.has_matrix(matrix_name):
            matrix = blackboard.get_matrix(matrix_name)
        else:
            matrix = MappingMatrix.from_schemas(source, target)
            matrix.name = matrix_name
        before = {
            (c.source_id, c.target_id): (c.confidence, c.is_user_defined)
            for c in matrix.cells()
        }
        config = self.engine.config
        with manager.transaction():
            self.engine.match(source, target, matrix=matrix)
            blackboard.put_matrix(matrix, delta=config.delta_matrix_rdf)
            if config.batched_matrix:
                cells_updated = sum(
                    1
                    for cell in matrix.cells()
                    if before.get((cell.source_id, cell.target_id))
                    != (cell.confidence, cell.is_user_defined)
                )
                manager.events.publish(
                    MappingMatrixEvent(
                        source_tool=self.name,
                        matrix_name=matrix.name,
                        cells_updated=cells_updated,
                    )
                )
            else:
                for cell in matrix.cells():
                    pair = (cell.source_id, cell.target_id)
                    if before.get(pair) != (cell.confidence, cell.is_user_defined):
                        manager.events.publish(
                            MappingCellEvent(
                                source_tool=self.name,
                                matrix_name=matrix.name,
                                source_id=cell.source_id,
                                target_id=cell.target_id,
                                confidence=cell.confidence,
                                user_defined=cell.is_user_defined,
                            )
                        )
        return matrix


class MapperTool(Tool):
    """Wraps the mapping tool: establishes transformations and publishes
    mapping-vector events; listens upstream for mapping-cell events to
    propose candidate transformations."""

    name = "mapper"

    def __init__(self) -> None:
        self.received: List[MappingCellEvent] = []
        self.proposals: List[str] = []

    def initialize(self, manager: "WorkbenchManager") -> None:
        manager.events.subscribe(MappingCellEvent, self._on_cell)

    def _on_cell(self, event: MappingCellEvent) -> None:
        self.received.append(event)
        if event.user_defined and event.confidence > 0:
            # the candidate-transformation proposal of Section 5.2.2
            self.proposals.append(
                f"copy {event.source_id} -> {event.target_id}"
            )

    def invoke(
        self,
        manager: "WorkbenchManager",
        source_schema: str = "",
        target_schema: str = "",
        matrix_name: Optional[str] = None,
        transforms: Optional[Dict[str, Dict[str, AttributeTransform]]] = None,
        variables: Optional[Dict[str, str]] = None,
        **kwargs: Any,
    ) -> MapperCore:
        blackboard = manager.blackboard
        source = blackboard.get_schema(source_schema)
        target = blackboard.get_schema(target_schema)
        matrix_name = matrix_name or f"{source_schema}->{target_schema}"
        matrix = (
            blackboard.get_matrix(matrix_name)
            if blackboard.has_matrix(matrix_name)
            else MappingMatrix.from_schemas(source, target)
        )
        matrix.name = matrix_name
        core = MapperCore(source, target, matrix=matrix)
        with manager.transaction():
            for source_id, variable in (variables or {}).items():
                core.bind_variable(source_id, variable)
                blackboard.set_row_variable(matrix_name, source_id, variable)
            core.draft_from_matrix()
            for entity_id, attribute_transforms in (transforms or {}).items():
                for attribute_id, transform in attribute_transforms.items():
                    core.set_attribute_transform(entity_id, attribute_id, transform)
                    blackboard.set_column_code(
                        matrix_name, attribute_id, transform.to_code()
                    )
                    manager.events.publish(
                        MappingVectorEvent(
                            source_tool=self.name,
                            matrix_name=matrix_name,
                            axis="column",
                            element_id=attribute_id,
                            code=transform.to_code(),
                        )
                    )
            blackboard.put_matrix(core.matrix)
        self.last_core = core
        return core


class CodeGenTool(Tool):
    """Wraps the assembler: aggregates column code into the final mapping,
    writes the matrix-level code, and publishes a mapping-matrix event.
    Listens for mapping-vector events to know when reassembly is needed."""

    name = "codegen"

    def __init__(self) -> None:
        self.pending_vectors: List[MappingVectorEvent] = []

    def initialize(self, manager: "WorkbenchManager") -> None:
        manager.events.subscribe(MappingVectorEvent, self.pending_vectors.append)

    def invoke(
        self,
        manager: "WorkbenchManager",
        mapper: Optional[MapperTool] = None,
        source_schema: str = "",
        target_schema: str = "",
        **kwargs: Any,
    ) -> AssembledMapping:
        if mapper is None or not hasattr(mapper, "last_core"):
            raise ToolError("codegen needs the mapper tool to have run first")
        core = mapper.last_core
        blackboard = manager.blackboard
        source = blackboard.get_schema(source_schema or core.source.name)
        target = blackboard.get_schema(target_schema or core.target.name)
        with manager.transaction():
            assembled = assemble(core.spec, source, target, matrix=core.matrix)
            blackboard.set_matrix_code(core.matrix.name, assembled.xquery)
            manager.events.publish(
                MappingMatrixEvent(
                    source_tool=self.name,
                    matrix_name=core.matrix.name,
                    code=assembled.xquery,
                )
            )
        self.pending_vectors.clear()
        return assembled
