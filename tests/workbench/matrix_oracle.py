"""The reference delta write of a mapping matrix: a full slice diff.

``serialize_matrix(delta=True)`` diffs a matrix against the typed view
of its stored version and touches only the parts that changed.  This
module keeps the diff it replaced as the oracle those writes are held
to: build the whole canonical layout (``_matrix_slices``) and compare it
with the stored statements of every subject the layout names, the
matrix subject and every part the stored matrix links to.  A delta write
must leave the store exactly as this one does, triple for triple, and
write and remove the same number of triples.
"""

from typing import List, Tuple

from repro.rdf.schema_rdf import _matrix_part_iris, _matrix_slices, matrix_iri
from repro.rdf.store import TripleStore
from repro.rdf.triple import Triple


def oracle_changes(matrix, store: TripleStore) -> Tuple[List[Triple], List[Triple]]:
    """``(fresh, stale)``: what the full diff adds and removes."""
    m_iri = matrix_iri(matrix.name)
    desired_slices, _total = _matrix_slices(matrix)
    subject_slice = store.subject_slice
    fresh: List[Triple] = []
    for subject, by_pred in desired_slices.items():
        stored = subject_slice(subject)
        for predicate, objs in by_pred.items():
            have = stored.get(predicate) if stored else None
            for obj in objs:
                if not have or obj not in have:
                    fresh.append(Triple(subject, predicate, obj))
    subjects = {m_iri}
    subjects.update(_matrix_part_iris(store, m_iri))
    stale: List[Triple] = []
    for subject in subjects:
        desired_slice = desired_slices.get(subject)
        for predicate, objs in subject_slice(subject).items():
            want = desired_slice.get(predicate) if desired_slice else None
            for obj in objs:
                if not want or obj not in want:
                    stale.append(Triple(subject, predicate, obj))
    return fresh, stale


def oracle_store_after(matrix, triples) -> Tuple[set, int, int]:
    """The triple set a delta write of *matrix* over *triples* must
    leave, with the oracle's written and removed counts."""
    store = TripleStore()
    store.add_many(sorted(triples, key=Triple.sort_key))
    fresh, stale = oracle_changes(matrix, store)
    store.remove_many(stale)
    store.add_many(fresh)
    return store.snapshot(), len(fresh), len(stale)
