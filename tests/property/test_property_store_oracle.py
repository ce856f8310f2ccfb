"""The triple store against a plain set of ``(s, p, o)`` tuples.

A hypothesis state machine drives one :class:`TripleStore` and one
Python set through the same mutations and, after every step, checks each
read of the store against the set: all eight bound/unbound pattern
shapes of ``match`` and ``count_matching``, the per-position accessors,
``subject_slice``, length, membership, sorted iteration, ``snapshot``
and the revision counter.  The term pools are small so that mutations
collide, and one IRI appears in both subject and object position.

Beside it: what a finished write leaves behind — no triple kept alive
by a closed transaction, and few GC-tracked objects per stored triple.
"""

import gc
import weakref
from itertools import product

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import MappingMatrix
from repro.eval import ScenarioConfig, air_traffic_model, generate_scenario
from repro.rdf import BlankNode, IRI, Triple, TripleStore, literal
from repro.rdf.term import term_sort_key
from repro.workbench import WorkbenchManager
from repro.workbench.transactions import Transaction

_X = "http://x/"
SHARED = IRI(_X + "shared")  # a subject that is also an object
SUBJECTS = [IRI(_X + "a"), IRI(_X + "b"), SHARED, BlankNode("n")]
PREDICATES = [IRI(_X + "p"), IRI(_X + "q"), IRI(_X + "r")]
OBJECTS = [SHARED, IRI(_X + "c"), BlankNode("n"), literal("v"), literal(1),
           literal(True)]
UNIVERSE = list(product(SUBJECTS, PREDICATES, OBJECTS))

subjects = st.sampled_from(SUBJECTS)
predicates = st.sampled_from(PREDICATES)
objects = st.sampled_from(OBJECTS)
statements = st.sampled_from(UNIVERSE)
batches = st.lists(statements, max_size=8)


def _key(statement):
    return tuple(term_sort_key(term) for term in statement)


def _rows(triples):
    """Triples as a sorted list of tuples (duplicates kept)."""
    return sorted(((t.subject, t.predicate, t.object) for t in triples), key=_key)


def _pattern_matches(statement, subject, predicate, obj):
    return all(want is None or want == have for want, have in
               zip((subject, predicate, obj), statement))


class StoreAgainstSet(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = TripleStore()
        self.model = set()
        self.revision = 0
        self.notified = 0
        self.store.subscribe_batch(self._count_batch)

    def _count_batch(self, changes):
        assert changes, "an empty batch was delivered"
        self.notified += len(changes)

    def _added(self, statements):
        fresh = set(statements) - self.model
        self.model |= fresh
        self.revision += len(fresh)
        return len(fresh)

    def _removed(self, statements):
        gone = set(statements) & self.model
        self.model -= gone
        self.revision += len(gone)
        return len(gone)

    # -- mutations --------------------------------------------------------------

    @rule(statement=statements)
    def add(self, statement):
        assert self.store.add(*statement) == bool(self._added([statement]))

    @rule(batch=batches)
    def add_many(self, batch):
        assert self.store.add_many(Triple(*s) for s in batch) == self._added(batch)

    @rule(statement=statements)
    def remove(self, statement):
        assert self.store.remove(*statement) == bool(self._removed([statement]))

    @rule(batch=batches)
    def remove_many(self, batch):
        assert self.store.remove_many(
            [Triple(*s) for s in batch]) == self._removed(batch)

    @rule(subject=st.none() | subjects, predicate=st.none() | predicates,
          obj=st.none() | objects)
    def remove_matching(self, subject, predicate, obj):
        matching = [s for s in self.model
                    if _pattern_matches(s, subject, predicate, obj)]
        assert self.store.remove_matching(
            subject, predicate, obj) == self._removed(matching)

    @rule(subject=subjects, predicate=predicates, obj=objects)
    def set_value(self, subject, predicate, obj):
        self._removed([s for s in self.model if s[:2] == (subject, predicate)
                       and s[2] != obj])
        self._added([(subject, predicate, obj)])
        self.store.set_value(subject, predicate, obj)

    @rule()
    def clear(self):
        self._removed(list(self.model))
        self.store.clear()

    # -- every read against the set ------------------------------------------------

    @invariant()
    def patterns_agree(self):
        store, model = self.store, self.model
        for pattern in product([None] + SUBJECTS, [None] + PREDICATES,
                               [None] + OBJECTS):
            want = sorted((s for s in model if _pattern_matches(s, *pattern)),
                          key=_key)
            assert _rows(store.match(*pattern)) == want, pattern
            assert store.count_matching(*pattern) == len(want), pattern

    @invariant()
    def accessors_agree(self):
        store, model = self.store, self.model
        for s, p in product(SUBJECTS, PREDICATES):
            want = {o for (ms, mp, o) in model if (ms, mp) == (s, p)}
            assert sorted(store.objects(s, p), key=term_sort_key) == sorted(
                want, key=term_sort_key)
            assert set(store.object_set(s, p)) == want
        for p, o in product(PREDICATES, OBJECTS):
            want = {s for (s, mp, mo) in model if (mp, mo) == (p, o)}
            assert sorted(store.subjects(p, o), key=term_sort_key) == sorted(
                want, key=term_sort_key)
            assert set(store.subject_set(p, o)) == want
        for s, o in product(SUBJECTS, OBJECTS):
            want = {p for (ms, p, mo) in model if (ms, mo) == (s, o)}
            assert sorted(store.predicates(s, o), key=term_sort_key) == sorted(
                want, key=term_sort_key)
            assert set(store.predicate_set(s, o)) == want
        for s in SUBJECTS:
            want = {}
            for (ms, p, o) in model:
                if ms == s:
                    want.setdefault(p, set()).add(o)
            got = {p: set(objs) for p, objs in store.subject_slice(s).items()
                   if objs}
            assert got == want

    @invariant()
    def contents_agree(self):
        store, model = self.store, self.model
        assert len(store) == len(model)
        for statement in UNIVERSE:
            assert (Triple(*statement) in store) == (statement in model)
        assert [(t.subject, t.predicate, t.object) for t in store] == sorted(
            model, key=_key)
        assert store.snapshot() == {Triple(*s) for s in model}

    @invariant()
    def revision_counts_applied_changes(self):
        assert self.store.revision == self.revision == self.notified

    @invariant()
    def one_value_slots_hold_no_set(self):
        """A slot is a bare term until its second value, whatever the
        history of adds and removes that led to it."""
        for index in (self.store._spo, self.store._pos):
            for inner in index.values():
                assert inner
                for slot in inner.values():
                    assert type(slot) is not set or len(slot) >= 2


TestStoreAgainstSet = StoreAgainstSet.TestCase
TestStoreAgainstSet.settings = settings(
    max_examples=50, stateful_step_count=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("finish", ["commit", "rollback"])
def test_a_finished_transaction_keeps_no_triple_alive(finish):
    """The undo log goes when the window closes, and the store keeps no
    per-statement object, so the triples written are freed."""
    store = TripleStore()
    transaction = Transaction(store)
    triples = [Triple(IRI(f"{_X}s{i}"), PREDICATES[i % 3], literal(i))
               for i in range(20)]
    store.add_many(triples[:15])
    store.remove_many(triples[:5])
    for triple in triples[15:]:
        store.add_triple(triple)
    assert transaction.change_count == 25
    refs = [weakref.ref(triple) for triple in triples]
    del triple, triples
    assert getattr(transaction, finish)() == 25
    assert transaction.change_count == 25
    assert all(ref() is None for ref in refs)
    assert len(store) == (15 if finish == "commit" else 0)


def test_blackboard_keeps_few_tracked_objects_per_triple():
    """Two ``air_traffic@7`` schemas and a 40×40 matrix, written the way
    the tools write them (one committed transaction each), leave at
    most 2.5 GC-tracked objects per stored triple: the index slots and
    the terms, not a per-statement object or an undo entry."""
    scenario = generate_scenario(air_traffic_model(), ScenarioConfig(seed=7))
    matrix = MappingMatrix("air->traffic")
    rows = [e.element_id for e in scenario.source][1:41]
    columns = [e.element_id for e in scenario.target][1:41]
    for row in rows:
        matrix.add_row(row, schema_name=scenario.source.name)
    for column in columns:
        matrix.add_column(column, schema_name=scenario.target.name)
    matrix.set_cells(
        (row, column, ((i * 37 + j * 11) % 100) / 100)
        for i, row in enumerate(rows) for j, column in enumerate(columns))
    manager = WorkbenchManager()
    gc.collect()
    before = len(gc.get_objects())
    for write, item in ((manager.blackboard.put_schema, scenario.source),
                        (manager.blackboard.put_schema, scenario.target),
                        (manager.blackboard.put_matrix, matrix)):
        with manager.transaction():
            write(item)
    gc.collect()
    stored = len(manager.blackboard.store)
    assert stored > 9000
    assert (len(gc.get_objects()) - before) / stored <= 2.5


def test_one_value_slots_keep_tracked_objects_per_triple_low():
    """The same write as above leaves at most 0.75 GC-tracked objects per
    stored triple: a one-value index slot holds a bare term, not a set."""
    scenario = generate_scenario(air_traffic_model(), ScenarioConfig(seed=7))
    matrix = MappingMatrix("air->traffic")
    rows = [e.element_id for e in scenario.source][1:41]
    columns = [e.element_id for e in scenario.target][1:41]
    for row in rows:
        matrix.add_row(row, schema_name=scenario.source.name)
    for column in columns:
        matrix.add_column(column, schema_name=scenario.target.name)
    matrix.set_cells(
        (row, column, ((i * 37 + j * 11) % 100) / 100)
        for i, row in enumerate(rows) for j, column in enumerate(columns))
    manager = WorkbenchManager()
    gc.collect()
    before = len(gc.get_objects())
    for write, item in ((manager.blackboard.put_schema, scenario.source),
                        (manager.blackboard.put_schema, scenario.target),
                        (manager.blackboard.put_matrix, matrix)):
        with manager.transaction():
            write(item)
    gc.collect()
    stored = len(manager.blackboard.store)
    assert stored > 9000
    assert (len(gc.get_objects()) - before) / stored <= 0.75
