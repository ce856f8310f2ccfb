"""Tests for the indexed triple store."""

import pytest

from repro.core import StoreError
from repro.rdf import IRI, Literal, Triple, TripleStore, literal

A = IRI("http://x/a")
B = IRI("http://x/b")
C = IRI("http://x/c")
P = IRI("http://x/p")
Q = IRI("http://x/q")


def _index_slots(store: TripleStore) -> int:
    """Keys at both levels of the store's SPO and POS indexes."""
    return sum(1 + len(inner) for index in (store._spo, store._pos)
               for inner in index.values())


@pytest.fixture
def store() -> TripleStore:
    s = TripleStore()
    s.add(A, P, B)
    s.add(A, P, C)
    s.add(B, P, C)
    s.add(A, Q, literal("hello"))
    return s


class TestMutation:
    def test_add_returns_change_flag(self):
        s = TripleStore()
        assert s.add(A, P, B) is True
        assert s.add(A, P, B) is False
        assert len(s) == 1

    def test_remove(self, store):
        assert store.remove(A, P, B) is True
        assert store.remove(A, P, B) is False
        assert Triple(A, P, B) not in store

    def test_remove_matching_wildcard(self, store):
        removed = store.remove_matching(subject=A)
        assert removed == 3
        assert len(store) == 1

    def test_set_value_replaces(self, store):
        store.set_value(A, Q, literal("world"))
        assert store.objects(A, Q) == [literal("world")]

    def test_clear(self, store):
        store.clear()
        assert len(store) == 0

    def test_removal_prunes_emptied_index_slots(self, store):
        """Adding and then removing N distinct statements returns both
        indexes to their size — including a functional property whose
        value keeps changing, as a cell's confidence does."""
        before = _index_slots(store)
        fresh = [Triple(IRI(f"http://x/s{i}"), P, literal(i)) for i in range(30)]
        store.add_many(fresh)
        for i in range(30):
            store.add(A, IRI(f"http://x/p{i}"), literal(i))
        store.remove_many(fresh)
        for i in range(30):
            store.remove(A, IRI(f"http://x/p{i}"), literal(i))
        for i in range(40):
            store.set_value(A, Q, literal(i / 40))
        store.set_value(A, Q, literal("hello"))
        assert _index_slots(store) == before

    def test_predicate_must_be_iri(self):
        with pytest.raises(TypeError):
            Triple(A, literal("x"), B)


class TestBulkLoad:
    def test_same_store_as_add_many(self, store):
        triples = list(store)
        loaded = TripleStore()
        assert loaded.bulk_load(triples) == 4
        assert loaded.snapshot() == store.snapshot()
        assert loaded.revision == 4
        assert loaded.count_matching(predicate=P) == 3
        assert _index_slots(loaded) == _index_slots(store)

    def test_duplicates_raise_and_leave_the_store_as_it_was(self):
        store = TripleStore()
        store.add(A, P, B)
        store.remove(A, P, B)
        with pytest.raises(StoreError):
            store.bulk_load([Triple(A, P, B), Triple(A, P, C), Triple(A, P, B)])
        assert len(store) == 0
        assert store.revision == 2
        assert _index_slots(store) == 0
        assert store.count_matching(predicate=P) == 0


class TestPatternMatching:
    def test_fully_bound(self, store):
        assert list(store.match(A, P, B)) == [Triple(A, P, B)]
        assert list(store.match(A, P, literal("nope"))) == []

    def test_subject_bound(self, store):
        assert len(list(store.match(subject=A))) == 3

    def test_subject_predicate_bound(self, store):
        assert len(list(store.match(subject=A, predicate=P))) == 2

    def test_predicate_bound(self, store):
        assert len(list(store.match(predicate=P))) == 3

    def test_object_bound(self, store):
        assert len(list(store.match(obj=C))) == 2

    def test_predicate_object_bound(self, store):
        assert {t.subject for t in store.match(predicate=P, obj=C)} == {A, B}

    def test_all_wildcards(self, store):
        assert len(list(store.match())) == 4


class TestAccessors:
    def test_objects(self, store):
        assert set(store.objects(A, P)) == {B, C}

    def test_object_functional(self, store):
        assert store.object(A, Q) == literal("hello")
        assert store.object(C, Q) is None
        with pytest.raises(StoreError):
            store.object(A, P)  # two values

    def test_subjects(self, store):
        assert set(store.subjects(P, C)) == {A, B}

    def test_predicates(self, store):
        assert store.predicates(A, B) == [P]

    def test_describe(self, store):
        described = store.describe(A)
        assert set(described[P]) == {B, C}
        assert described[Q] == [literal("hello")]

    def test_iteration_sorted_deterministic(self, store):
        assert list(store) == list(store)

    def test_snapshot_is_copy(self, store):
        snap = store.snapshot()
        store.remove(A, P, B)
        assert Triple(A, P, B) in snap


class TestListeners:
    def test_listener_sees_adds_and_removes(self, store):
        log = []
        unsubscribe = store.subscribe(lambda added, t: log.append((added, t)))
        store.add(C, P, A)
        store.remove(C, P, A)
        assert log == [(True, Triple(C, P, A)), (False, Triple(C, P, A))]
        unsubscribe()
        store.add(C, Q, A)
        assert len(log) == 2

    def test_noop_mutations_do_not_notify(self, store):
        log = []
        store.subscribe(lambda added, t: log.append(added))
        store.add(A, P, B)       # already present
        store.remove(C, Q, B)    # never present
        assert log == []


class TestSlotShapes:
    """A slot holds a bare term at one value and a set from two on."""

    def test_a_slot_grows_into_a_set_and_collapses_back(self):
        store = TripleStore()
        store.add(A, P, B)
        assert store._spo[A][P] == B and store._pos[P][B] == A
        store.add(A, P, C)
        store.add(C, P, B)
        assert store._spo[A][P] == {B, C} and type(store._spo[A][P]) is set
        assert store._pos[P][B] == {A, C} and type(store._pos[P][B]) is set
        store.remove(A, P, C)
        store.remove(C, P, B)
        assert store._spo[A][P] == B and store._pos[P][B] == A
        assert store.objects(A, P) == [B] and store.subjects(P, B) == [A]
        store.remove(A, P, B)
        assert store._spo == {} and store._pos == {}

    def test_subject_slice_values_are_sets_for_set_algebra(self, store):
        """The schema delta write computes ``objs - set(want)``."""
        sliced = store.subject_slice(A)
        assert sliced == {P: {B, C}, Q: {literal("hello")}}
        assert all(isinstance(objs, (set, frozenset)) for objs in sliced.values())
        assert sliced[P] - {B} == {C}
        assert sliced[Q] - set() == {literal("hello")}
        assert sliced[Q] - {literal("hello")} == set()
        assert store.subject_slice(C) == {}
        store.remove(A, Q, literal("hello"))
        assert Q in sliced and Q not in store.subject_slice(A)

    def test_object_and_subject_sets_intersect(self, store):
        assert store.object_set(A, P) & store.object_set(B, P) == {C}
        assert store.object_set(B, P) & store.object_set(A, P) == {C}
        assert store.subject_set(P, C) & store.subject_set(P, B) == {A}
        assert store.object_set(A, Q) & store.object_set(A, P) == frozenset()
        assert store.object_set(C, P) & store.object_set(A, P) == frozenset()
