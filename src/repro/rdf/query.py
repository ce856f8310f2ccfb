"""Basic graph pattern (BGP) queries over the triple store.

The workbench manager *"processes ad hoc queries posed to the IB"*
(Section 5.2).  This module implements the conjunctive core of SPARQL:
a query is a list of triple patterns whose positions are terms or
:class:`Variable` placeholders, optionally post-filtered by Python
predicates, with ordering/limit/projection.

:func:`evaluate` runs the cost-based planner: join order is chosen by
*actual* cardinality estimates from the store's O(1) index statistics
(:meth:`TripleStore.count_matching`), each distinct resolved pattern
hits the store once (a pattern-result memo keyed on the store's
mutation ``revision``), and patterns whose only unbound variable
coincides are bind-joined by set intersection on the permutation
indexes.  :func:`explain` reports the chosen order with estimated vs.
actual cardinalities and memo hit counts.

The planner is differentially tested against a clarity-first oracle
(greedy most-bound-first join order, one store probe per pattern per
binding; ``tests/oracles/query.py``) on random stores and queries
(tests/rdf/test_query_planner.py): both return the same solution
multiset, always.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.errors import QueryError
from .store import TripleStore
from .term import IRI, Literal, Term, term_sort_key
from .triple import Triple


@dataclass(frozen=True, order=True)
class Variable:
    """A query variable, conventionally written ``?name``."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise QueryError("variable name must be non-empty")

    def __str__(self) -> str:
        return f"?{self.name}"


PatternPart = Union[Term, Variable]
Binding = Dict[Variable, Term]


@dataclass(frozen=True)
class TriplePattern:
    """One pattern in a BGP; any position may be a variable."""

    subject: PatternPart
    predicate: PatternPart
    object: PatternPart

    def variables(self) -> List[Variable]:
        return [p for p in (self.subject, self.predicate, self.object)
                if isinstance(p, Variable)]

    def resolve(self, binding: Binding) -> Tuple[Optional[Term], ...]:
        """The pattern as a store-level match pattern (None = wildcard)."""
        out: List[Optional[Term]] = []
        for part in (self.subject, self.predicate, self.object):
            if isinstance(part, Variable):
                out.append(binding.get(part))
            else:
                out.append(part)
        return tuple(out)


@dataclass
class Query:
    """A conjunctive query: patterns + filters + projection/order/limit."""

    patterns: List[TriplePattern] = field(default_factory=list)
    filters: List[Callable[[Binding], bool]] = field(default_factory=list)
    select: Optional[List[Variable]] = None
    order_by: Optional[Variable] = None
    limit: Optional[int] = None
    distinct: bool = False

    def where(self, subject: PatternPart, predicate: PatternPart,
              obj: PatternPart) -> "Query":
        """Append a triple pattern (chainable)."""
        self.patterns.append(TriplePattern(subject, predicate, obj))
        return self

    def filter(self, predicate: Callable[[Binding], bool]) -> "Query":
        """Append a post-filter over complete bindings (chainable)."""
        self.filters.append(predicate)
        return self


def _invalid_resolution(
    subject: Optional[Term], predicate: Optional[Term]
) -> bool:
    """Whether a resolved pattern can be dismissed without a store probe."""
    if predicate is not None and not isinstance(predicate, IRI):
        return True  # a literal/blank bound into predicate position can't match
    if subject is not None and isinstance(subject, Literal):
        return True  # literals are never subjects
    return False


def _extend(
    pattern: TriplePattern, triple: Triple, binding: Binding
) -> Optional[Binding]:
    """Bind the pattern's variables against one matching triple, or None
    if a repeated variable would take two different values."""
    extended = dict(binding)
    for part, value in (
        (pattern.subject, triple.subject),
        (pattern.predicate, triple.predicate),
        (pattern.object, triple.object),
    ):
        if isinstance(part, Variable):
            bound = extended.get(part)
            if bound is None:
                extended[part] = value
            elif bound != value:
                return None
    return extended


def _finalize(query: Query, solutions: List[Binding]) -> List[Binding]:
    """Apply filters / projection / distinct / order / limit."""
    for flt in query.filters:
        solutions = [b for b in solutions if flt(b)]
    if query.select is not None:
        projected = []
        for binding in solutions:
            missing = [v for v in query.select if v not in binding]
            if missing:
                raise QueryError(
                    f"projection variable(s) {missing} not bound by the patterns"
                )
            projected.append({v: binding[v] for v in query.select})
        solutions = projected
    if query.distinct:
        seen = set()
        unique: List[Binding] = []
        for binding in solutions:
            key = tuple(sorted(((v.name, str(t)) for v, t in binding.items())))
            if key not in seen:
                seen.add(key)
                unique.append(binding)
        solutions = unique
    if query.order_by is not None:
        var = query.order_by
        for binding in solutions:
            if var not in binding:
                raise QueryError(
                    f"order_by variable {var} not bound by the solutions"
                )
        solutions.sort(key=lambda b: term_sort_key(b[var]))
    if query.limit is not None:
        solutions = solutions[: query.limit]
    return solutions


# -- cost-based planner -----------------------------------------------------


@dataclass
class PlanStep:
    """One executed join step of a planned evaluation."""

    pattern: TriplePattern
    #: planner's cardinality estimate when the step was chosen
    #: (``count_matching`` under the probe binding)
    estimated: int
    #: solutions alive after the step ran
    actual: int
    #: resolved-pattern memo hits while running the step
    memo_hits: int = 0
    #: patterns consumed together with this one by an index-set
    #: intersection bind-join (shared single unbound variable)
    fused: List[TriplePattern] = field(default_factory=list)


@dataclass
class QueryPlan:
    """What :func:`explain` returns: the executed plan plus statistics."""

    steps: List[PlanStep] = field(default_factory=list)
    #: patterns never executed because the solution set emptied first
    skipped: List[TriplePattern] = field(default_factory=list)
    #: solutions before filters/projection ran
    solutions: int = 0
    #: distinct resolved patterns probed against the store
    memo_entries: int = 0
    #: store mutation revision the plan ran against
    store_revision: int = 0

    @property
    def order(self) -> List[TriplePattern]:
        return [step.pattern for step in self.steps]

    @property
    def memo_hits(self) -> int:
        return sum(step.memo_hits for step in self.steps)

    def format(self) -> str:
        """A deterministic human-readable rendering (golden-tested)."""
        lines = [
            f"query plan (store revision {self.store_revision}, "
            f"{len(self.steps)} steps)"
        ]
        for number, step in enumerate(self.steps, start=1):
            lines.append(
                f"  {number}. {_pattern_str(step.pattern)}  "
                f"est={step.estimated} actual={step.actual} "
                f"memo_hits={step.memo_hits}"
            )
            for fused in step.fused:
                lines.append(f"     ∩ {_pattern_str(fused)}  (bind-join)")
        for pattern in self.skipped:
            lines.append(f"  -- {_pattern_str(pattern)}  (skipped: no solutions left)")
        lines.append(
            f"  solutions={self.solutions} memo_entries={self.memo_entries} "
            f"memo_hits={self.memo_hits}"
        )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format()


def _pattern_str(pattern: TriplePattern) -> str:
    parts = " ".join(
        str(part) for part in (pattern.subject, pattern.predicate, pattern.object)
    )
    return f"({parts})"


def _estimate(store: TripleStore, pattern: TriplePattern, probe: Binding) -> int:
    """Cardinality estimate for a pattern under a representative binding."""
    subject, predicate, obj = pattern.resolve(probe)
    if _invalid_resolution(subject, predicate):
        return 0
    return store.count_matching(subject, predicate, obj)


def _single_unbound_var(
    pattern: TriplePattern, probe: Binding
) -> Optional[Variable]:
    """The pattern's only unbound variable, if it occupies exactly one
    position under *probe* — the precondition for an index-set bind-join."""
    unbound: List[Variable] = [
        part
        for part in (pattern.subject, pattern.predicate, pattern.object)
        if isinstance(part, Variable) and part not in probe
    ]
    if len(unbound) == 1:
        return unbound[0]
    return None


def _candidate_set(
    store: TripleStore, pattern: TriplePattern, binding: Binding, var: Variable
) -> AbstractSet[Term]:
    """Values *var* can take for a pattern whose two other positions are
    concrete under *binding* — straight off one permutation index."""
    subject, predicate, obj = pattern.resolve(binding)
    if _invalid_resolution(subject, predicate):
        return frozenset()
    if subject is None:
        return store.subject_set(predicate, obj)
    if predicate is None:
        return store.predicate_set(subject, obj)
    return store.object_set(subject, predicate)


def evaluate_planned(
    store: TripleStore, query: Query, plan: Optional[QueryPlan] = None
) -> List[Binding]:
    """Evaluate with cost-based join ordering, pattern-result memoization
    and set-intersection bind-joins.

    Returns the same solution multiset as the oracle evaluator (solution
    *order* may differ; use ``order_by`` for a total order).
    Pass a :class:`QueryPlan` to collect the executed plan — that is all
    :func:`explain` does.
    """
    solutions: List[Binding] = [{}]
    remaining = list(query.patterns)
    #: resolved (s, p, o) pattern → matching triples; valid for one store
    #: revision, flushed if a filter (or listener) mutates mid-query.
    memo: Dict[Tuple[Optional[Term], ...], List[Triple]] = {}
    memo_revision = store.revision
    if plan is not None:
        plan.store_revision = store.revision
    while remaining and solutions:
        probe = solutions[0]
        best_index = min(
            range(len(remaining)),
            key=lambda i: (_estimate(store, remaining[i], probe), i),
        )
        pattern = remaining.pop(best_index)
        estimated = _estimate(store, pattern, probe)
        step = PlanStep(pattern=pattern, estimated=estimated, actual=0)
        # Bind-join fusion: other patterns whose only unbound variable is
        # the same one become set intersections on the permutation
        # indexes instead of separate join steps.
        join_var = _single_unbound_var(pattern, probe)
        if join_var is not None:
            for other in list(remaining):
                if _single_unbound_var(other, probe) == join_var:
                    step.fused.append(other)
                    remaining.remove(other)
        next_solutions: List[Binding] = []
        if step.fused:
            for binding in solutions:
                candidates = _candidate_set(store, pattern, binding, join_var)
                for other in step.fused:
                    if not candidates:
                        break
                    candidates = candidates & _candidate_set(
                        store, other, binding, join_var
                    )
                for value in sorted(candidates, key=term_sort_key):
                    extended = dict(binding)
                    extended[join_var] = value
                    next_solutions.append(extended)
        else:
            for binding in solutions:
                resolved = pattern.resolve(binding)
                if _invalid_resolution(resolved[0], resolved[1]):
                    continue
                if store.revision != memo_revision:
                    memo.clear()
                    memo_revision = store.revision
                triples = memo.get(resolved)
                if triples is None:
                    triples = list(store.match(*resolved))
                    memo[resolved] = triples
                else:
                    step.memo_hits += 1
                for triple in triples:
                    extended = _extend(pattern, triple, binding)
                    if extended is not None:
                        next_solutions.append(extended)
        solutions = next_solutions
        step.actual = len(solutions)
        if plan is not None:
            plan.steps.append(step)
            plan.memo_entries = len(memo)
    if plan is not None:
        plan.skipped = list(remaining)
        plan.solutions = len(solutions)
    return _finalize(query, solutions)


def evaluate(store: TripleStore, query: Query) -> List[Binding]:
    """Evaluate a query with the cost-based planner, returning the list
    of solution bindings."""
    return evaluate_planned(store, query)


def explain(store: TripleStore, query: Query) -> QueryPlan:
    """Run the planned evaluation and return the executed plan: join
    order, per-pattern estimated vs. actual cardinalities, memo hits and
    bind-join fusions — the manager's query service (Section 5.2)
    surfaces this for ad hoc queries."""
    plan = QueryPlan()
    evaluate_planned(store, query, plan=plan)
    return plan


def select(
    store: TripleStore,
    patterns: Sequence[Tuple[PatternPart, PatternPart, PatternPart]],
    select_vars: Optional[Sequence[Variable]] = None,
    **kwargs: Any,
) -> List[Binding]:
    """Convenience one-shot query.

    >>> # select(store, [(Variable('s'), RDF_TYPE, SCHEMA_CLASS)])
    """
    query = Query(
        patterns=[TriplePattern(*p) for p in patterns],
        select=list(select_vars) if select_vars is not None else None,
        **kwargs,
    )
    return evaluate(store, query)


def ask(
    store: TripleStore,
    patterns: Sequence[Tuple[PatternPart, PatternPart, PatternPart]],
) -> bool:
    """Does at least one solution exist?"""
    query = Query(patterns=[TriplePattern(*p) for p in patterns], limit=1)
    return bool(evaluate(store, query))


def values(
    store: TripleStore,
    patterns: Sequence[Tuple[PatternPart, PatternPart, PatternPart]],
    var: Variable,
) -> List[Term]:
    """All distinct bindings of one variable."""
    query = Query(
        patterns=[TriplePattern(*p) for p in patterns],
        select=[var],
        distinct=True,
        order_by=var,
    )
    return [b[var] for b in evaluate(store, query)]
