"""An indexed in-memory triple store.

Each statement lives in two permutation indexes and nowhere else: SPO
(subject -> predicate -> objects) and POS (predicate -> object ->
subjects).  No per-statement object is kept, so a bulk write allocates
only index slots.  A slot holds a bare term until its second value
arrives and a ``set`` from then on; a set left with one value collapses
back and a slot is deleted with its last statement, so a slot's shape
follows from its contents alone, and most blackboard slots (a cell's
row, its score) cost no set.  Reads test ``type(slot) is set``: a term
is a tuple (:mod:`repro.rdf.term`), so ``in`` on a bare slot would
search its fields.
Any pattern with a bound subject or predicate reads one index directly;
an object-only pattern scans POS over the store's predicates, of which a
workbench blackboard has a few dozen at most.  The workbench manager's
query service and the blackboard's delta logic both lean on this.

Mutations can be observed: :meth:`subscribe` registers a callback invoked
with every added/removed triple, which is how blackboard transactions build
their undo logs and how the event service learns about changes.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..core.errors import StoreError
from .term import IRI, Object, Subject
from .triple import Triple

#: (added?, triple) — True for insertion, False for removal.
StoreListener = Callable[[bool, Triple], None]
#: One callback per mutation batch; single mutations arrive as 1-element
#: batches.  Bulk loads pay one call instead of one per triple.
BatchListener = Callable[[Sequence[Tuple[bool, Triple]]], None]

#: what an index lookup of an absent key reads
_NO_SLOT: Mapping = MappingProxyType({})


class TripleStore:
    """Set semantics over triples with pattern matching."""

    def __init__(self) -> None:
        self._spo: Dict[Subject, Dict[IRI, Union[Object, Set[Object]]]] = {}
        self._pos: Dict[IRI, Dict[Object, Union[Subject, Set[Subject]]]] = {}
        #: statements per predicate, kept incrementally so the query
        #: planner's predicate-bound estimates (`count_matching`) stay O(1)
        self._predicate_counts: Dict[IRI, int] = {}
        self._size = 0
        self._listeners: List[StoreListener] = []
        self._batch_listeners: List[BatchListener] = []
        #: bumped by every successful add/remove; the query planner keys
        #: its pattern-result memo on this.
        self._revision: int = 0

    @property
    def revision(self) -> int:
        """Mutation counter: changes iff the store's contents changed.

        Invariant: the counter advances by exactly the number of
        *applied* changes, whatever the batching — ``add_many`` of *k*
        fresh triples and *k* single ``add`` calls land on the same
        value, and no-ops (duplicate inserts, absent removals) never
        move it.  WAL crash recovery (:mod:`repro.rdf.durability`)
        depends on this: a replayed log of mixed bulk/single mutations
        must reproduce the logged store's exact revision, and every
        frame carries the expected value as a divergence check.
        Regression-tested in ``tests/rdf/test_store_bulk.py``.
        """
        return self._revision

    # -- mutation ------------------------------------------------------------

    def add(self, subject: Subject, predicate: IRI, obj: Object) -> bool:
        """Insert one triple.  Returns True if the store changed."""
        return self.add_triple(Triple(subject, predicate, obj))

    def add_triple(self, triple: Triple) -> bool:
        if not self._index((triple,)):
            return False
        self._notify(True, triple)
        return True

    def _index(self, triples: Iterable[Triple]) -> List[Triple]:
        """Insert into SPO and POS without notifying; returns the triples
        that were not stored yet, in input order.

        The membership probe is the SPO lookup the insert makes anyway,
        and the lookups are hoisted out of the loop, so a bulk matrix
        serialization pays no per-triple call overhead.
        """
        spo, pos = self._spo, self._pos
        counts = self._predicate_counts
        fresh: List[Triple] = []
        append = fresh.append
        for triple in triples:
            subject = triple.subject
            predicate = triple.predicate
            obj = triple.object
            by_pred = spo.get(subject)
            if by_pred is None:
                spo[subject] = {predicate: obj}
            else:
                objs = by_pred.get(predicate)
                if objs is None:
                    by_pred[predicate] = obj
                elif type(objs) is set:
                    if obj in objs:
                        continue
                    objs.add(obj)
                elif objs == obj:
                    continue
                else:
                    by_pred[predicate] = {objs, obj}
            append(triple)
            by_obj = pos.get(predicate)
            if by_obj is None:
                pos[predicate] = {obj: subject}
            else:
                subjects = by_obj.get(obj)
                if subjects is None:
                    by_obj[obj] = subject
                elif type(subjects) is set:
                    subjects.add(subject)
                else:
                    by_obj[obj] = {subjects, subject}
            counts[predicate] = counts.get(predicate, 0) + 1
        self._size += len(fresh)
        self._revision += len(fresh)
        return fresh

    def add_many(self, triples: Iterable[Triple]) -> int:
        """Bulk insert with one batched listener notification.

        Returns how many triples were new.  Per-triple listeners still
        see every change; batch listeners get a single call — this is
        what keeps blackboard schema loads O(n) instead of
        O(n · listeners · call overhead).
        """
        fresh = self._index(triples)
        if fresh and (self._listeners or self._batch_listeners):
            self._notify_many([(True, triple) for triple in fresh])
        return len(fresh)

    def bulk_load(self, triples: Sequence[Triple]) -> int:
        """Load a known-distinct triple list into an empty store.

        The snapshot-recovery path (:mod:`repro.rdf.durability`): with
        nobody observing, it skips the listener dispatch that
        ``add_many`` pays.  The revision advances by the triple count —
        exactly what ``add_many`` would do for the same (all-fresh)
        input — so a recovered store's counter lines up with the
        replayed WAL.  A list with duplicates raises and leaves the
        store as it was.
        """
        if self._size:
            raise StoreError("bulk_load requires an empty store")
        if self._listeners or self._batch_listeners:
            raise StoreError("bulk_load requires an unobserved store")
        revision = self._revision
        if len(self._index(triples)) != len(triples):
            self._spo, self._pos, self._predicate_counts = {}, {}, {}
            self._size, self._revision = 0, revision
            raise StoreError("bulk_load requires distinct triples")
        return len(triples)

    def remove(self, subject: Subject, predicate: IRI, obj: Object) -> bool:
        """Remove one triple.  Returns True if the store changed."""
        return self.remove_triple(Triple(subject, predicate, obj))

    def remove_triple(self, triple: Triple) -> bool:
        if not self._unindex((triple,)):
            return False
        self._notify(False, triple)
        return True

    def _unindex(self, triples: Iterable[Triple]) -> List[Triple]:
        """Remove from SPO and POS without notifying; returns the triples
        that were stored, in input order.  A set slot left with one value
        collapses to that bare value, and a slot that loses its last
        statement is deleted, so the indexes never hold empty entries."""
        spo, pos = self._spo, self._pos
        counts = self._predicate_counts
        gone: List[Triple] = []
        append = gone.append
        for triple in triples:
            subject = triple.subject
            predicate = triple.predicate
            obj = triple.object
            by_pred = spo.get(subject)
            objs = by_pred.get(predicate) if by_pred is not None else None
            if objs is None:
                continue
            if type(objs) is set:
                if obj not in objs:
                    continue
                objs.discard(obj)
                if len(objs) == 1:
                    by_pred[predicate] = next(iter(objs))
            elif objs == obj:
                del by_pred[predicate]
                if not by_pred:
                    del spo[subject]
            else:
                continue
            append(triple)
            by_obj = pos[predicate]
            subjects = by_obj[obj]
            if type(subjects) is set:
                subjects.discard(subject)
                if len(subjects) == 1:
                    by_obj[obj] = next(iter(subjects))
            else:
                del by_obj[obj]
                if not by_obj:
                    del pos[predicate]
            remaining = counts[predicate] - 1
            if remaining:
                counts[predicate] = remaining
            else:
                del counts[predicate]
        self._size -= len(gone)
        self._revision += len(gone)
        return gone

    def remove_many(self, triples: Iterable[Triple]) -> int:
        """Bulk removal with one batched listener notification."""
        gone = self._unindex(triples)
        if gone and (self._listeners or self._batch_listeners):
            self._notify_many([(False, triple) for triple in gone])
        return len(gone)

    def remove_matching(
        self,
        subject: Optional[Subject] = None,
        predicate: Optional[IRI] = None,
        obj: Optional[Object] = None,
    ) -> int:
        """Remove every triple matching the pattern; returns the count."""
        return self.remove_many(list(self.match(subject, predicate, obj)))

    def set_value(self, subject: Subject, predicate: IRI, obj: Object) -> None:
        """Functional-property write: replace all existing objects for
        (subject, predicate) with the single new object."""
        for existing in list(self.objects(subject, predicate)):
            if existing != obj:
                self.remove(subject, predicate, existing)
        self.add(subject, predicate, obj)

    def update(self, triples: Iterable[Triple]) -> int:
        """Bulk insert; returns how many were new."""
        return self.add_many(triples)

    def clear(self) -> None:
        self.remove_many(self._statements())

    # -- observation -----------------------------------------------------------

    def subscribe(self, listener: StoreListener) -> Callable[[], None]:
        """Register a mutation listener; returns an unsubscribe callable."""
        self._listeners.append(listener)

        def unsubscribe() -> None:
            if listener in self._listeners:
                self._listeners.remove(listener)

        return unsubscribe

    def subscribe_batch(self, listener: BatchListener) -> Callable[[], None]:
        """Register a batch mutation listener; returns an unsubscriber.

        Batch listeners receive one call per bulk mutation (a list of
        ``(added, triple)`` in application order); single mutations
        arrive as one-element batches.
        """
        self._batch_listeners.append(listener)

        def unsubscribe() -> None:
            if listener in self._batch_listeners:
                self._batch_listeners.remove(listener)

        return unsubscribe

    def _notify(self, added: bool, triple: Triple) -> None:
        for listener in list(self._listeners):
            listener(added, triple)
        if self._batch_listeners:
            event = [(added, triple)]
            for listener in list(self._batch_listeners):
                listener(event)

    def _notify_many(self, changes: Sequence[Tuple[bool, Triple]]) -> None:
        if not changes:
            return
        if self._listeners:
            for listener in list(self._listeners):
                for added, triple in changes:
                    listener(added, triple)
        for listener in list(self._batch_listeners):
            listener(changes)

    # -- reads -------------------------------------------------------------------

    def _statements(self) -> List[Triple]:
        """Every stored triple, in index order, as a new list."""
        return [
            Triple(subject, predicate, obj)
            for subject, by_pred in self._spo.items()
            for predicate, objs in by_pred.items()
            for obj in (objs if type(objs) is set else (objs,))
        ]

    def subject_slice(self, subject: Subject) -> Mapping[IRI, AbstractSet[Object]]:
        """The ``{predicate: objects}`` mapping for one subject.

        A new mapping (an empty one if the subject is absent) whose
        values are the index's sets for multi-valued predicates and
        one-element frozensets for the rest, so bulk consumers — the
        schema and matrix delta serializers — can diff a subject's
        stored statements with set algebra and without materializing one
        :class:`Triple` per stored statement.  Callers must not mutate
        the values, nor the store while they hold them.
        """
        by_pred = self._spo.get(subject)
        if by_pred is None:
            return _NO_SLOT
        return {
            predicate: objs if type(objs) is set else frozenset((objs,))
            for predicate, objs in by_pred.items()
        }

    def __len__(self) -> int:
        return self._size

    def __contains__(self, triple: Triple) -> bool:
        objs = self._spo.get(triple.subject, _NO_SLOT).get(triple.predicate)
        if type(objs) is set:
            return triple.object in objs
        return objs is not None and objs == triple.object

    def __iter__(self) -> Iterator[Triple]:
        return iter(sorted(self._statements(), key=Triple.sort_key))

    def match(
        self,
        subject: Optional[Subject] = None,
        predicate: Optional[IRI] = None,
        obj: Optional[Object] = None,
    ) -> Iterator[Triple]:
        """All triples matching a pattern; ``None`` is a wildcard.

        A bound subject or predicate reads one index slot; an
        object-only pattern looks the object up under each of the
        store's predicates in POS.
        """
        if subject is not None and predicate is not None and obj is not None:
            triple = Triple(subject, predicate, obj)
            if triple in self:
                yield triple
            return
        if subject is not None:
            by_pred = self._spo.get(subject, _NO_SLOT)
            predicates = [predicate] if predicate is not None else list(by_pred)
            for pred in predicates:
                for o in self.objects(subject, pred):
                    if obj is None or o == obj:
                        yield Triple(subject, pred, o)
            return
        if predicate is not None:
            by_obj = self._pos.get(predicate, _NO_SLOT)
            for o in [obj] if obj is not None else list(by_obj):
                for s in self.subjects(predicate, o):
                    yield Triple(s, predicate, o)
            return
        if obj is not None:
            found = []
            for pred, by_obj in self._pos.items():
                subjects = by_obj.get(obj)
                if subjects is None:
                    continue
                for s in subjects if type(subjects) is set else (subjects,):
                    found.append(Triple(s, pred, obj))
            yield from found
            return
        yield from self._statements()

    def count_matching(
        self,
        subject: Optional[Subject] = None,
        predicate: Optional[IRI] = None,
        obj: Optional[Object] = None,
    ) -> int:
        """Exact number of triples matching a pattern, without
        enumerating a single triple — the query planner's cardinality
        estimator.

        Costs by shape: every pattern with a bound predicate reads one
        slot's size or the per-predicate counter, O(1); a bound subject
        without a predicate sums over that subject's predicates,
        O(predicates of s); an object-only pattern looks the object up
        under every predicate, O(predicates in the store); the unbound
        pattern reads the size counter.
        """
        if subject is not None:
            by_pred = self._spo.get(subject, _NO_SLOT)
            if predicate is not None:
                objs = by_pred.get(predicate)
                if type(objs) is set:
                    return len(objs) if obj is None else int(obj in objs)
                return int(objs is not None and (obj is None or objs == obj))
            if obj is not None:
                return sum(1 for objs in by_pred.values()
                           if (obj in objs if type(objs) is set else objs == obj))
            # one per predicate, plus the extra members of multi-valued slots
            return len(by_pred) + sum(len(objs) - 1 for objs in by_pred.values()
                                      if type(objs) is set)
        if predicate is not None:
            if obj is not None:
                subjects = self._pos.get(predicate, _NO_SLOT).get(obj)
                if type(subjects) is set:
                    return len(subjects)
                return int(subjects is not None)
            return self._predicate_counts.get(predicate, 0)
        if obj is not None:
            total = 0
            for by_obj in self._pos.values():
                subjects = by_obj.get(obj)
                if subjects is not None:
                    total += len(subjects) if type(subjects) is set else 1
            return total
        return self._size

    #: shared empty result for the *_set accessors below
    _EMPTY: AbstractSet = frozenset()

    def object_set(self, subject: Subject, predicate: IRI) -> AbstractSet[Object]:
        """The objects of (subject, predicate, ?) as a set.

        With two or more objects this is the index's own set — read-only,
        do not mutate; the query planner's bind-joins intersect these
        directly — which stops following the store once the slot drops
        to one object.  With one it is a new one-element frozenset.
        """
        objs = self._spo.get(subject, _NO_SLOT).get(predicate)
        if type(objs) is set:
            return objs
        return self._EMPTY if objs is None else frozenset((objs,))

    def subject_set(self, predicate: IRI, obj: Object) -> AbstractSet[Subject]:
        """The subjects of (?, predicate, object) as a set (the index's
        own set or a new one-element frozenset, like :meth:`object_set`)."""
        subjects = self._pos.get(predicate, _NO_SLOT).get(obj)
        if type(subjects) is set:
            return subjects
        return self._EMPTY if subjects is None else frozenset((subjects,))

    def predicate_set(self, subject: Subject, obj: Object) -> AbstractSet[IRI]:
        """The predicates of (subject, ?, object) as a new set.

        No index is keyed on (subject, object), so unlike the other
        ``*_set`` accessors this is a fresh set, not a live view, built
        in O(predicates of s).
        """
        return {
            predicate
            for predicate, objs in self._spo.get(subject, _NO_SLOT).items()
            if (obj in objs if type(objs) is set else objs == obj)
        }

    def objects(self, subject: Subject, predicate: IRI) -> List[Object]:
        """All objects of (subject, predicate, ?)."""
        objs = self._spo.get(subject, _NO_SLOT).get(predicate)
        if type(objs) is set:
            return list(objs)
        return [] if objs is None else [objs]

    def object(self, subject: Subject, predicate: IRI) -> Optional[Object]:
        """The single object of a functional property, or None.

        Raises :class:`StoreError` if the property has multiple values.
        """
        values = self.objects(subject, predicate)
        if not values:
            return None
        if len(values) > 1:
            raise StoreError(
                f"{subject} {predicate} has {len(values)} values, expected one"
            )
        return values[0]

    def subjects(self, predicate: IRI, obj: Object) -> List[Subject]:
        """All subjects of (?, predicate, object)."""
        subjects = self._pos.get(predicate, _NO_SLOT).get(obj)
        if type(subjects) is set:
            return list(subjects)
        return [] if subjects is None else [subjects]

    def subjects_of_type(self, type_iri: Object) -> List[Subject]:
        from .vocabulary import RDF_TYPE

        return self.subjects(RDF_TYPE, type_iri)

    def predicates(self, subject: Subject, obj: Object) -> List[IRI]:
        """All predicates of (subject, ?, object)."""
        return list(self.predicate_set(subject, obj))

    def describe(self, subject: Subject) -> Dict[IRI, List[Object]]:
        """All (predicate → objects) for one subject."""
        return {
            pred: sorted(objs, key=str) if type(objs) is set else [objs]
            for pred, objs in self._spo.get(subject, _NO_SLOT).items()
        }

    def snapshot(self) -> Set[Triple]:
        """An immutable copy of the current contents."""
        return set(self._statements())

    def __repr__(self) -> str:
        return f"TripleStore(triples={self._size})"
