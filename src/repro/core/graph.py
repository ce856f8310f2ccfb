"""The canonical schema graph.

Section 5.1.1 of the paper: *"The IB represents a schema as a directed,
labeled graph.  The nodes of this graph correspond to schema elements...
The edges of a schema graph correspond to structural relationships among
the schema elements."*

Every loader (SQL DDL, XSD, ER, JSON Schema) normalizes its input into a
:class:`SchemaGraph`; every matcher and mapper consumes this one
representation.  Edge labels follow the paper's controlled vocabulary
(``contains-table``, ``contains-attribute``, ``contains-element``) extended
with labels needed for keys, domains and references.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .elements import ElementKind, SchemaElement
from .errors import DuplicateElementError, SchemaError, UnknownElementError

# -- edge labels (controlled vocabulary, Section 5.1.1) ---------------------

CONTAINS_TABLE = "contains-table"
CONTAINS_ATTRIBUTE = "contains-attribute"
CONTAINS_ELEMENT = "contains-element"
CONTAINS_VALUE = "contains-value"
HAS_DOMAIN = "has-domain"
HAS_KEY = "has-key"
KEY_ATTRIBUTE = "key-attribute"
REFERENCES = "references"

#: Edge labels that define the containment hierarchy used by depth/subtree
#: filters (Section 4.2) and by similarity flooding's notion of parent/child.
CONTAINMENT_LABELS = frozenset(
    {CONTAINS_TABLE, CONTAINS_ATTRIBUTE, CONTAINS_ELEMENT, CONTAINS_VALUE}
)


@dataclass(frozen=True)
class SchemaEdge:
    """A directed labeled edge between two schema elements."""

    subject: str
    label: str
    object: str

    def __str__(self) -> str:
        return f"{self.subject} --{self.label}--> {self.object}"


class SchemaGraph:
    """A directed, labeled graph of :class:`SchemaElement` nodes.

    The graph maintains forward and reverse adjacency indexes so that both
    "children of X" and "parents of X" are O(degree), which the depth and
    sub-tree filters and similarity flooding all rely on.

    A well-formed schema graph has exactly one root element of kind
    :attr:`ElementKind.SCHEMA`, created automatically by :meth:`create`.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise SchemaError("schema graph needs a non-empty name")
        self.name = name
        self._elements: Dict[str, SchemaElement] = {}
        #: every edge, in insertion order (a dict used as an ordered set),
        #: so :meth:`copy` can replay them and reproduce each element's
        #: out- and in-edge order
        self._edges: Dict[SchemaEdge, None] = {}
        self._out: Dict[str, List[SchemaEdge]] = {}
        self._in: Dict[str, List[SchemaEdge]] = {}
        #: bumped on every structural mutation; caches keyed on (graph,
        #: revision) — e.g. a reused MatchContext — use it to detect
        #: staleness without hashing the whole graph.
        self.revision: int = 0

    # -- construction -----------------------------------------------------

    @classmethod
    def create(cls, name: str, documentation: str = "") -> "SchemaGraph":
        """Create a graph with its root SCHEMA element (id == *name*)."""
        graph = cls(name)
        graph.add_element(
            SchemaElement(
                element_id=name,
                name=name,
                kind=ElementKind.SCHEMA,
                documentation=documentation,
            )
        )
        return graph

    def add_element(self, element: SchemaElement) -> SchemaElement:
        """Add a node; raises :class:`DuplicateElementError` on id reuse."""
        if element.element_id in self._elements:
            raise DuplicateElementError(element.element_id)
        self._elements[element.element_id] = element
        self._out.setdefault(element.element_id, [])
        self._in.setdefault(element.element_id, [])
        self.revision += 1
        return element

    def add_child(
        self,
        parent_id: str,
        element: SchemaElement,
        label: Optional[str] = None,
    ) -> SchemaElement:
        """Add *element* and connect it under *parent_id*.

        When *label* is omitted it is inferred from the child's kind, which
        covers the common loader cases (tables under a database, attributes
        under a table, sub-elements under an element, values under a domain).
        """
        self._require(parent_id)
        self.add_element(element)
        if label is None:
            label = _default_containment_label(element.kind)
        self.add_edge(parent_id, label, element.element_id)
        return element

    def add_edge(self, subject: str, label: str, obj: str) -> SchemaEdge:
        """Add a labeled edge between two existing elements."""
        self._require(subject)
        self._require(obj)
        if not label:
            raise SchemaError("edge label must be non-empty")
        edge = SchemaEdge(subject, label, obj)
        if edge not in self._edges:
            self._edges[edge] = None
            self._out[subject].append(edge)
            self._in[obj].append(edge)
            self.revision += 1
        return edge

    def remove_element(self, element_id: str) -> None:
        """Remove a node and every edge incident to it."""
        self._require(element_id)
        for edge in list(self._out[element_id]) + list(self._in[element_id]):
            self.remove_edge(edge)
        del self._elements[element_id]
        del self._out[element_id]
        del self._in[element_id]
        self.revision += 1

    def remove_edge(self, edge: SchemaEdge) -> None:
        if edge in self._edges:
            del self._edges[edge]
            self._out[edge.subject].remove(edge)
            self._in[edge.object].remove(edge)
            self.revision += 1

    # -- lookup -----------------------------------------------------------

    def __contains__(self, element_id: str) -> bool:
        return element_id in self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[SchemaElement]:
        return iter(self._elements.values())

    def element(self, element_id: str) -> SchemaElement:
        """Return the element with this id; raise if absent."""
        self._require(element_id)
        return self._elements[element_id]

    def get(self, element_id: str) -> Optional[SchemaElement]:
        return self._elements.get(element_id)

    @property
    def element_ids(self) -> List[str]:
        return list(self._elements)

    @property
    def edges(self) -> List[SchemaEdge]:
        return sorted(self._edges, key=lambda e: (e.subject, e.label, e.object))

    @property
    def root(self) -> SchemaElement:
        """The unique SCHEMA-kind element."""
        roots = [e for e in self if e.kind is ElementKind.SCHEMA]
        if len(roots) != 1:
            raise SchemaError(
                f"schema graph {self.name!r} has {len(roots)} root elements, expected 1"
            )
        return roots[0]

    def elements_of_kind(self, kind: ElementKind) -> List[SchemaElement]:
        return [e for e in self if e.kind is kind]

    def find_by_name(self, name: str) -> List[SchemaElement]:
        """All elements whose local name matches *name* exactly."""
        return [e for e in self if e.name == name]

    # -- structure queries --------------------------------------------------

    def out_edges(self, element_id: str, label: Optional[str] = None) -> List[SchemaEdge]:
        self._require(element_id)
        edges = self._out[element_id]
        if label is None:
            return list(edges)
        return [e for e in edges if e.label == label]

    def in_edges(self, element_id: str, label: Optional[str] = None) -> List[SchemaEdge]:
        self._require(element_id)
        edges = self._in[element_id]
        if label is None:
            return list(edges)
        return [e for e in edges if e.label == label]

    def children(self, element_id: str) -> List[SchemaElement]:
        """Containment children (paper: sub-elements, attributes, values)."""
        return [
            self._elements[e.object]
            for e in self.out_edges(element_id)
            if e.label in CONTAINMENT_LABELS
        ]

    def parent(self, element_id: str) -> Optional[SchemaElement]:
        """Containment parent, or None for the root."""
        parents = [
            self._elements[e.subject]
            for e in self.in_edges(element_id)
            if e.label in CONTAINMENT_LABELS
        ]
        if not parents:
            return None
        if len(parents) > 1:
            raise SchemaError(
                f"element {element_id!r} has {len(parents)} containment parents"
            )
        return parents[0]

    def depth(self, element_id: str) -> int:
        """Containment depth: root SCHEMA node is 0, entities 1, attributes 2...

        Used by the depth node-filter (Section 4.2): *"in an ER model,
        entities appear at level 1, while attributes are at level 2"*.
        """
        depth = 0
        current = self.element(element_id)
        while True:
            parent = self.parent(current.element_id)
            if parent is None:
                return depth
            depth += 1
            current = parent
            if depth > len(self._elements):
                raise SchemaError("containment cycle detected")

    def subtree(self, element_id: str) -> List[SchemaElement]:
        """The element plus all containment descendants (BFS order).

        Used by the sub-tree node-filter (Section 4.2) and by
        "mark sub-tree as complete" (Section 4.3).
        """
        self._require(element_id)
        seen: Set[str] = {element_id}
        order: List[SchemaElement] = [self._elements[element_id]]
        queue = deque([element_id])
        while queue:
            current = queue.popleft()
            for child in self.children(current):
                if child.element_id not in seen:
                    seen.add(child.element_id)
                    order.append(child)
                    queue.append(child.element_id)
        return order

    def ancestors(self, element_id: str) -> List[SchemaElement]:
        """Containment ancestors from parent up to the root."""
        chain: List[SchemaElement] = []
        parent = self.parent(element_id)
        while parent is not None:
            chain.append(parent)
            parent = self.parent(parent.element_id)
            if len(chain) > len(self._elements):
                raise SchemaError("containment cycle detected")
        return chain

    def path(self, element_id: str) -> List[str]:
        """Names from the root down to the element (inclusive)."""
        names = [self.element(element_id).name]
        names.extend(a.name for a in self.ancestors(element_id))
        return list(reversed(names))

    def leaves(self) -> List[SchemaElement]:
        """Elements with no containment children."""
        return [e for e in self if not self.children(e.element_id)]

    def domain_of(self, element_id: str) -> Optional[SchemaElement]:
        """The semantic domain linked to an attribute via ``has-domain``."""
        for edge in self.out_edges(element_id, HAS_DOMAIN):
            return self._elements[edge.object]
        return None

    def walk(self) -> Iterator[Tuple[SchemaElement, int]]:
        """Depth-first walk from the root yielding (element, depth) pairs."""
        root = self.root

        def visit(element: SchemaElement, depth: int) -> Iterator[Tuple[SchemaElement, int]]:
            yield element, depth
            for child in sorted(
                self.children(element.element_id), key=lambda c: c.element_id
            ):
                yield from visit(child, depth + 1)

        yield from visit(root, 0)

    def filter_elements(
        self, predicate: Callable[[SchemaElement], bool]
    ) -> List[SchemaElement]:
        return [e for e in self if predicate(e)]

    # -- validation & rendering -------------------------------------------

    def validate(self) -> List[str]:
        """Return a list of structural problems (empty == well-formed)."""
        problems: List[str] = []
        try:
            root = self.root
        except SchemaError as exc:
            return [str(exc)]
        # reachability follows every edge label (keys hang off has-key,
        # domains may only be reached via has-domain, etc.)
        reachable: Set[str] = {root.element_id}
        frontier = deque([root.element_id])
        while frontier:
            current = frontier.popleft()
            for out_edge in self._out[current]:
                if out_edge.object not in reachable:
                    reachable.add(out_edge.object)
                    frontier.append(out_edge.object)
        for element in self:
            if element.element_id not in reachable:
                problems.append(
                    f"element {element.element_id!r} is not reachable from the root"
                )
            try:
                self.parent(element.element_id)
            except SchemaError as exc:
                problems.append(str(exc))
        for edge in self._edges:
            if edge.label == HAS_DOMAIN:
                target = self._elements[edge.object]
                if target.kind is not ElementKind.DOMAIN:
                    problems.append(
                        f"has-domain edge {edge} must point at a DOMAIN element"
                    )
        return problems

    def to_text(self) -> str:
        """Render the containment tree as an indented listing (Figure 2 style)."""
        lines: List[str] = []
        for element, depth in self.walk():
            suffix = f" : {element.datatype}" if element.datatype else ""
            lines.append(f"{'  ' * depth}{element.name} [{element.kind.value}]{suffix}")
        return "\n".join(lines)

    def copy(self, name: Optional[str] = None) -> "SchemaGraph":
        """Structural deep copy, optionally renamed (keeps element ids).

        Elements and edges are replayed in insertion order, so the copy
        iterates its elements and each element's out- and in-edges in
        the same order as the original.
        """
        clone = SchemaGraph(name or self.name)
        for element in self:
            clone.add_element(element.copy())
        for edge in self._edges:
            clone.add_edge(edge.subject, edge.label, edge.object)
        return clone

    def __repr__(self) -> str:
        return (
            f"SchemaGraph(name={self.name!r}, elements={len(self._elements)}, "
            f"edges={len(self._edges)})"
        )

    # -- internal -----------------------------------------------------------

    def _require(self, element_id: str) -> None:
        if element_id not in self._elements:
            raise UnknownElementError(element_id, self.name)


def _default_containment_label(kind: ElementKind) -> str:
    if kind is ElementKind.TABLE:
        return CONTAINS_TABLE
    if kind is ElementKind.ATTRIBUTE:
        return CONTAINS_ATTRIBUTE
    if kind is ElementKind.DOMAIN_VALUE:
        return CONTAINS_VALUE
    return CONTAINS_ELEMENT


def merged_element_ids(graphs: Iterable[SchemaGraph]) -> Set[str]:
    """Union of element ids across graphs (used by multi-source matching)."""
    ids: Set[str] = set()
    for graph in graphs:
        ids.update(graph.element_ids)
    return ids
