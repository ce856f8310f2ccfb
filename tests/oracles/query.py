"""The clarity-first BGP evaluator the query planner is held to.

Patterns are solved left to right with a greedy reordering heuristic
(most-bound pattern first), one store probe per pattern per binding, no
statistics, memo or bind-joins.  ``repro.rdf.query.evaluate`` returns
the same solution multiset (tests/rdf/test_query_planner.py).
"""

from typing import Iterator, List

from repro.rdf.query import (
    Binding,
    Query,
    TriplePattern,
    Variable,
    _extend,
    _finalize,
    _invalid_resolution,
)
from repro.rdf.store import TripleStore


def _bound_count(pattern: TriplePattern, binding: Binding) -> int:
    """How many positions are concrete under *binding*."""
    return sum(
        1 for part in (pattern.subject, pattern.predicate, pattern.object)
        if not isinstance(part, Variable) or part in binding
    )


def _match_pattern(
    store: TripleStore, pattern: TriplePattern, binding: Binding
) -> Iterator[Binding]:
    subject, predicate, obj = pattern.resolve(binding)
    if _invalid_resolution(subject, predicate):
        return
    for triple in store.match(subject, predicate, obj):
        extended = _extend(pattern, triple, binding)
        if extended is not None:
            yield extended


def evaluate_reference(store: TripleStore, query: Query) -> List[Binding]:
    """Greedy most-bound-first join order, one store probe per pattern
    per binding."""
    solutions: List[Binding] = [{}]
    remaining = list(query.patterns)
    while remaining:
        # Greedy join order: prefer the pattern with most bound positions
        # under the first current binding (all bindings share variables).
        probe = solutions[0] if solutions else {}
        remaining.sort(key=lambda p: -_bound_count(p, probe))
        pattern = remaining.pop(0)
        next_solutions: List[Binding] = []
        for binding in solutions:
            next_solutions.extend(_match_pattern(store, pattern, binding))
        solutions = next_solutions
        if not solutions:
            break
    return _finalize(query, solutions)
