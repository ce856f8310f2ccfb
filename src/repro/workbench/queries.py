"""Canned ad hoc queries over the integration blackboard.

The manager's third service is query evaluation (Section 5.2); these are
the queries integration tools actually pose — strong cells, undecided
cells, documented elements, schema membership — expressed over the IB's
triple layout via the BGP engine.

Each canned query is split into a ``*_query`` builder (returns the
:class:`~repro.rdf.query.Query`) and the evaluating wrapper, so the
manager's query service can also *report the plan* for any of them:
:func:`query_plan` runs the cost-based planner and returns the executed
join order, estimated vs. actual per-pattern cardinalities and memo hit
counts (see ``repro.rdf.query.explain``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..rdf.query import (
    Binding,
    Query,
    QueryPlan,
    TriplePattern,
    Variable,
    evaluate,
    explain,
)
from ..rdf.schema_rdf import matrix_iri, schema_iri
from ..rdf.store import TripleStore
from ..rdf.term import IRI, Literal, Term, literal
from ..rdf import vocabulary as V

CELL = Variable("cell")
CONFIDENCE = Variable("confidence")
ELEMENT = Variable("element")
NAME = Variable("name")
USER = Variable("user")


def _confidence(term: Term) -> Optional[float]:
    """A cell's confidence-score as a float, or None where it is not a
    numeric literal (a non-literal, or a hand-written ``"high"``)."""
    if not isinstance(term, Literal):
        return None
    try:
        return float(term.to_python())
    except (ValueError, OverflowError):
        return None


def strong_cells_query(matrix_name: str, threshold: float = 0.5) -> Query:
    """The BGP + filter behind :func:`strong_cells`."""

    def strong(binding: Binding) -> bool:
        score = _confidence(binding[CONFIDENCE])
        return score is not None and score > threshold

    query = Query()
    query.where(matrix_iri(matrix_name), V.HAS_CELL, CELL)
    query.where(CELL, V.CONFIDENCE_SCORE, CONFIDENCE)
    query.filter(strong)
    return query


def strong_cells(
    store: TripleStore, matrix_name: str, threshold: float = 0.5
) -> List[Tuple[str, float]]:
    """Cells of a matrix whose confidence exceeds *threshold*.

    Returns (cell IRI string, confidence), strongest first and ties in
    cell IRI order, so equal stores answer with equal lists whatever
    order they were written in.  A confidence that is not a numeric
    literal never counts as strong.
    """
    rows = [
        (str(binding[CELL]), _confidence(binding[CONFIDENCE]))
        for binding in evaluate(store, strong_cells_query(matrix_name, threshold))
    ]
    return sorted(rows, key=lambda r: (-r[1], r[0]))


def user_decided_cells_query(matrix_name: str) -> Query:
    """The BGP behind :func:`user_decided_cells`."""
    query = Query()
    query.where(matrix_iri(matrix_name), V.HAS_CELL, CELL)
    query.where(CELL, V.IS_USER_DEFINED, literal(True))
    return query


def user_decided_cells(store: TripleStore, matrix_name: str) -> List[str]:
    """Cells the engineer has pinned (accepted or rejected)."""
    query = user_decided_cells_query(matrix_name)
    return sorted(str(binding[CELL]) for binding in evaluate(store, query))


def undocumented_elements_query(schema_name: str) -> Query:
    """The BGP behind :func:`undocumented_elements` (the documentation
    check itself is a per-row store probe, not a pattern)."""
    query = Query()
    query.where(schema_iri(schema_name), V.HAS_ELEMENT, ELEMENT)
    query.where(ELEMENT, V.NAME, NAME)
    return query


def undocumented_elements(store: TripleStore, schema_name: str) -> List[str]:
    """Element names in a schema lacking a documentation annotation —
    the enrichment worklist for task 1/2."""
    names = []
    for binding in evaluate(store, undocumented_elements_query(schema_name)):
        element = binding[ELEMENT]
        has_doc = bool(store.objects(element, V.DOCUMENTATION))
        if not has_doc and isinstance(binding[NAME], Literal):
            names.append(binding[NAME].lexical)
    return sorted(set(names))


def elements_of_kind_query(schema_name: str, kind: str) -> Query:
    """The BGP behind :func:`elements_of_kind`."""
    query = Query()
    query.where(schema_iri(schema_name), V.HAS_ELEMENT, ELEMENT)
    query.where(ELEMENT, V.KIND, literal(kind))
    query.where(ELEMENT, V.NAME, NAME)
    return query


def elements_of_kind(store: TripleStore, schema_name: str, kind: str) -> List[str]:
    """Names of a schema's elements with the given kind annotation."""
    query = elements_of_kind_query(schema_name, kind)
    return sorted(
        binding[NAME].lexical
        for binding in evaluate(store, query)
        if isinstance(binding[NAME], Literal)
    )


def query_plan(store: TripleStore, query: Query) -> QueryPlan:
    """The executed cost-based plan for an ad hoc query — what the
    manager's query service reports alongside (or instead of) results."""
    return explain(store, query)


def matrix_progress(store: TripleStore, matrix_name: str) -> float:
    """Fraction of rows+columns flagged is-complete, straight off the IB."""
    m_iri = matrix_iri(matrix_name)
    total = 0
    done = 0
    for predicate in (V.HAS_ROW, V.HAS_COLUMN):
        for axis in store.objects(m_iri, predicate):
            total += 1
            value = store.object(axis, V.IS_COMPLETE)
            if isinstance(value, Literal) and value.to_python():
                done += 1
    if total == 0:
        return 1.0
    return done / total
