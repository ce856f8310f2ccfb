"""Workbench event service (Section 5.2.2).

*"Tools generate events whenever they make any change to the contents of
the IB.  The workbench manager propagates these events to allow any tool
to respond to the update.  A different type of event is generated for each
major component of the IB so that a tool can register for only those
events relevant to that tool."*

The four event types are the paper's: schema-graph, mapping-cell,
mapping-vector and mapping-matrix.  The bus supports per-type
subscription, and deferred delivery for transactional batches (*"no
events are generated until the mapping matrix has been updated"*).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Type


@dataclass(frozen=True)
class Event:
    """Base event: who changed what."""

    source_tool: str


@dataclass(frozen=True)
class SchemaGraphEvent(Event):
    """*"A schema loader generates a schema-graph event when it imports a
    schema into the workbench."*"""

    schema_name: str = ""


@dataclass(frozen=True)
class MappingCellEvent(Event):
    """*"A mapping-cell event is generated when a user manually establishes
    a correspondence.  Multiple such events are triggered by an automatic
    matching tool."*"""

    matrix_name: str = ""
    source_id: str = ""
    target_id: str = ""
    confidence: float = 0.0
    user_defined: bool = False


@dataclass(frozen=True)
class MappingVectorEvent(Event):
    """*"when a mapping tool establishes a transformation, it generates a
    mapping-vector event"* — one row or column changed its code/variable."""

    matrix_name: str = ""
    axis: str = "column"  # "row" | "column"
    element_id: str = ""
    code: str = ""


@dataclass(frozen=True)
class MappingMatrixEvent(Event):
    """*"The code generation tool ... generates a mapping-matrix event when
    the user manually modifies the final mapping."*

    Also published by the serving layer once per match or evolve job
    that rewrote a matrix, with ``cells_updated`` carrying the matrix's
    cell count.  The matcher tool does not coalesce: it announces each
    changed cell with a :class:`MappingCellEvent`.
    """

    matrix_name: str = ""
    code: str = ""
    #: cells the write covered (0 for the classic manual-modification
    #: event)
    cells_updated: int = 0


Listener = Callable[[Event], None]


class EventBus:
    """Typed publish/subscribe with optional deferral (for transactions)."""

    def __init__(self) -> None:
        self._listeners: Dict[Type[Event], List[Listener]] = {}
        self._any_listeners: List[Listener] = []
        self._deferring = 0
        self._deferred: List[Event] = []
        self.delivered_count = 0

    def subscribe(self, event_type: Type[Event], listener: Listener) -> Callable[[], None]:
        """Register for one event type; returns an unsubscribe callable."""
        self._listeners.setdefault(event_type, []).append(listener)

        def unsubscribe() -> None:
            listeners = self._listeners.get(event_type, [])
            if listener in listeners:
                listeners.remove(listener)

        return unsubscribe

    def subscribe_all(self, listener: Listener) -> Callable[[], None]:
        """Register for every event type."""
        self._any_listeners.append(listener)

        def unsubscribe() -> None:
            if listener in self._any_listeners:
                self._any_listeners.remove(listener)

        return unsubscribe

    def publish(self, event: Event) -> None:
        """Deliver now, or queue if inside a deferral window."""
        if self._deferring:
            self._deferred.append(event)
            return
        self._deliver(event)

    def _deliver(self, event: Event) -> None:
        self.delivered_count += 1
        for listener in list(self._listeners.get(type(event), [])):
            listener(event)
        for listener in list(self._any_listeners):
            listener(event)

    # -- deferral (transactions) ------------------------------------------------

    def defer(self) -> None:
        """Enter a deferral window (re-entrant)."""
        self._deferring += 1

    def release(self, discard: bool = False) -> int:
        """Leave a deferral window; on the outermost release, deliver (or
        discard, when the transaction aborted) the queue.  Returns how many
        events were delivered/discarded."""
        if self._deferring == 0:
            return 0
        self._deferring -= 1
        if self._deferring > 0:
            return 0
        queued, self._deferred = self._deferred, []
        if discard:
            return len(queued)
        for event in queued:
            self._deliver(event)
        return len(queued)

    @property
    def pending(self) -> int:
        return len(self._deferred)
