"""RDF terms: IRIs, literals and blank nodes.

The integration blackboard stores everything as RDF (Section 5.1): *"we
propose using RDF for the IB, because: 1) it is natural for representing
labeled graphs, 2) one can use RDF Schema to define useful built-in link
types while still offering easy extensibility, 3) it is vendor-independent,
and 4) it has significant development support."*

This is a small, self-contained term model — enough RDF to make the
blackboard real (typed literals, blank nodes, lexicographic ordering for
deterministic serialization) without pulling in an external toolkit.

Each term is a tagged ``tuple``: ``IRI`` is ``(0, value)``,
``BlankNode`` is ``(1, label)`` and ``Literal`` is
``(2, lexical, datatype)``.  Every index insert and lookup of the triple
store hashes and compares terms, and as tuples they do both in C, with
no hash cached on the instance (so a pickled term hashes right under
another process's string-hash seed).  The tag orders the kinds, so the
native order is :func:`term_sort_key`'s: IRIs < blanks < literals, each
kind by its fields.  Two consequences of the tuple layout:

- a term equals the plain tuple of its tag and fields
  (``IRI("urn:a") == (0, "urn:a")``), and hashes like it;
- terms of different kinds compare for order instead of raising
  ``TypeError``.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Any, Union

_XSD = "http://www.w3.org/2001/XMLSchema#"

XSD_STRING = _XSD + "string"
XSD_BOOLEAN = _XSD + "boolean"
XSD_INTEGER = _XSD + "integer"
XSD_DOUBLE = _XSD + "double"


class IRI(tuple):
    """An absolute IRI naming a resource."""

    __slots__ = ()
    value = property(itemgetter(1))

    def __new__(cls, value: str) -> "IRI":
        if not value:
            raise ValueError("IRI must be non-empty")
        return tuple.__new__(cls, (0, value))

    def __getnewargs__(self) -> tuple:
        return (self[1],)

    def __repr__(self) -> str:
        return f"IRI(value={self[1]!r})"

    def __str__(self) -> str:
        return f"<{self[1]}>"


class Literal(tuple):
    """A typed RDF literal with its lexical form."""

    __slots__ = ()
    lexical = property(itemgetter(1))
    datatype = property(itemgetter(2))

    def __new__(cls, lexical: str, datatype: str = XSD_STRING) -> "Literal":
        return tuple.__new__(cls, (2, lexical, datatype))

    def __getnewargs__(self) -> tuple:
        return (self[1], self[2])

    def __repr__(self) -> str:
        return f"Literal(lexical={self[1]!r}, datatype={self[2]!r})"

    def __str__(self) -> str:
        escaped = (
            self.lexical.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        if self.datatype == XSD_STRING:
            return f'"{escaped}"'
        return f'"{escaped}"^^<{self.datatype}>'

    def to_python(self) -> Any:
        """The literal as the matching Python value."""
        if self.datatype == XSD_BOOLEAN:
            return self.lexical == "true"
        if self.datatype == XSD_INTEGER:
            return int(self.lexical)
        if self.datatype == XSD_DOUBLE:
            return float(self.lexical)
        return self.lexical


_blank_counter = itertools.count(1)


class BlankNode(tuple):
    """An anonymous node.  Fresh labels come from :func:`fresh_blank`."""

    __slots__ = ()
    label = property(itemgetter(1))

    def __new__(cls, label: str) -> "BlankNode":
        return tuple.__new__(cls, (1, label))

    def __getnewargs__(self) -> tuple:
        return (self[1],)

    def __repr__(self) -> str:
        return f"BlankNode(label={self[1]!r})"

    def __str__(self) -> str:
        return f"_:{self[1]}"


def fresh_blank(prefix: str = "b") -> BlankNode:
    """A blank node with a process-unique label."""
    return BlankNode(f"{prefix}{next(_blank_counter)}")


#: Anything that may appear in subject position.
Subject = Union[IRI, BlankNode]
#: Anything that may appear in object position.
Object = Union[IRI, BlankNode, Literal]
#: Any term at all.
Term = Union[IRI, BlankNode, Literal]


#: interned boolean literals — every matrix cell carries one, so sharing
#: the two instances keeps bulk writes from allocating one per cell
_TRUE = Literal("true", XSD_BOOLEAN)
_FALSE = Literal("false", XSD_BOOLEAN)


def literal(value: Any) -> Literal:
    """Build a typed literal from a Python value.

    >>> literal(True).datatype.endswith('boolean')
    True
    >>> literal(3).to_python()
    3
    """
    if isinstance(value, Literal):
        return value
    if isinstance(value, bool):
        return _TRUE if value else _FALSE
    if isinstance(value, int):
        return Literal(str(value), XSD_INTEGER)
    if isinstance(value, float):
        return Literal(repr(value), XSD_DOUBLE)
    return Literal(str(value), XSD_STRING)


def term_sort_key(term: Term) -> Term:
    """Total order across term kinds: IRIs < blanks < literals.

    Terms order natively that way, so the key is the term itself.
    """
    return term
