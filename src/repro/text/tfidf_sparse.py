"""Sparse TF-IDF vectors over interned term ids.

:class:`~repro.text.tfidf.TfIdfCorpus` is the clarity-first reference:
one ``{term: weight}`` dict per document, cosine as a dict probe per
term.  That representation is what profiling shows the documentation
voter spending its time in once the string kernels are memoized — every
candidate pair pays hash lookups over string keys, and pairs that share
no vocabulary at all still pay the full probe loop.

:class:`SparseTfIdf` is the packed mirror the fast match path runs on:

* terms are interned to integer ids in a corpus-level vocabulary;
* each document becomes parallel *sorted* ``array('l')`` (term ids) /
  ``array('d')`` (L2-normalized weights) arrays with its norm
  precomputed, so cosine is a sorted merge over machine integers;
* a postings list (inverted index: term id → documents containing it)
  backs :meth:`top_k_similar` and :meth:`all_pairs`, which only ever
  touch document pairs sharing at least one term — pairs that share
  nothing are never visited and have cosine exactly ``0.0`` (the
  preprocessing pipeline already dropped stop words, so co-occurrence
  means a real content word is shared).

IDF and the learned ``word_weights`` (Section 4.3 feedback) fold into a
single id-indexed ``idf · weight`` array.  Staleness is tracked against
the corpus's two revision counters: ``revision`` (document set changed →
rebuild vocabulary + structure) and ``weights_revision`` (feedback moved
a word weight → refresh weights and norms only, structure survives).

The differential harness (``tests/text/test_tfidf_sparse_differential
.py``) proves agreement with the reference ``TfIdfCorpus.cosine`` to
within 1e-12 on hypothesis-generated corpora and the golden schema
corpus, and engine-level equivalence of mapping matrices.
"""

from __future__ import annotations

import heapq
import math
from array import array
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from .tfidf import CorpusSnapshot, TfIdfCorpus

__all__ = [
    "SparseTfIdf",
    "all_pairs_stats",
    "reset_all_pairs_stats",
    "sparse_from_snapshot",
]

#: process-wide all_pairs sweep counter; surfaced via
#: :meth:`HarmonyEngine.fastpath_stats`
_ALL_PAIRS_STATS = {"allpairs_merge_sweeps": 0}


def all_pairs_stats() -> Dict[str, int]:
    """A snapshot of the ``all_pairs`` sweep counter."""
    return dict(_ALL_PAIRS_STATS)


def reset_all_pairs_stats() -> None:
    for key in _ALL_PAIRS_STATS:
        _ALL_PAIRS_STATS[key] = 0


def sparse_from_snapshot(
    snapshot: CorpusSnapshot, doc_ids: Optional[Iterable[str]] = None
) -> "SparseTfIdf":
    """A warm :class:`SparseTfIdf` over a :class:`CorpusSnapshot` subset.

    The per-worker rehydration path of N-way matching: the parent ships
    one snapshot of every schema's preprocessed documentation, and each
    worker builds its per-pair sparse engine from the relevant *doc_ids*
    without re-running the linguistic pipeline.  The packed structure is
    built eagerly so the first ``all_pairs`` sweep pays no lazy-build
    latency inside a timed section.
    """
    sparse = SparseTfIdf(snapshot.rehydrate(doc_ids))
    sparse._ensure_current()
    return sparse


class SparseTfIdf:
    """A packed, id-interned view of a :class:`TfIdfCorpus`.

    The view is lazy and self-validating: every public method first
    checks the corpus's revision counters and rebuilds exactly the
    layer (structure or weights) that went stale.
    """

    def __init__(self, corpus: TfIdfCorpus) -> None:
        self.corpus = corpus
        self._structure_rev: Optional[int] = None
        self._weights_rev: Optional[int] = None
        #: corpus-level vocabulary: term → interned integer id
        self._term_ids: Dict[str, int] = {}
        self._doc_ids: List[str] = []
        self._doc_index: Dict[str, int] = {}
        #: per document: sorted term ids and the parallel 1+log(tf) factors
        self._doc_terms: List[array] = []
        self._doc_tfs: List[array] = []
        #: per document: L2-normalized weights parallel to ``_doc_terms``
        self._doc_weights: List[array] = []
        #: per document: the raw L2 norm the weights were divided by
        self._doc_norms: List[float] = []
        #: postings: term id → (doc indexes, their normalized weights)
        self._postings_docs: Dict[int, array] = {}
        self._postings_weights: Dict[int, array] = {}
        #: rebuild counters (tests assert invalidation granularity)
        self.structure_builds: int = 0
        self.weight_refreshes: int = 0

    # -- staleness -----------------------------------------------------------

    def _ensure_current(self) -> None:
        if self._structure_rev != self.corpus.revision:
            self._build_structure()
            self._structure_rev = self.corpus.revision
            self._weights_rev = None
        if self._weights_rev != self.corpus.weights_revision:
            self._refresh_weights()
            self._weights_rev = self.corpus.weights_revision

    def _build_structure(self) -> None:
        """Intern the vocabulary and pack per-document term-id arrays."""
        corpus = self.corpus
        self._term_ids = {
            term: tid for tid, term in enumerate(sorted(corpus._document_frequency))
        }
        self._doc_ids = list(corpus._documents)
        self._doc_index = {doc: i for i, doc in enumerate(self._doc_ids)}
        self._doc_terms = []
        self._doc_tfs = []
        term_ids = self._term_ids
        for doc in self._doc_ids:
            items = sorted(
                (term_ids[term], 1.0 + math.log(tf))
                for term, tf in corpus._documents[doc].items()
            )
            self._doc_terms.append(array("l", (tid for tid, _ in items)))
            self._doc_tfs.append(array("d", (factor for _, factor in items)))
        self.structure_builds += 1

    def _refresh_weights(self) -> None:
        """Fold IDF and learned word weights into the packed arrays."""
        corpus = self.corpus
        term_weight = array("d", bytes(8 * len(self._term_ids)))
        for term, tid in self._term_ids.items():
            term_weight[tid] = corpus.idf(term) * corpus.weight(term)
        self._doc_weights = []
        self._doc_norms = []
        for terms, tfs in zip(self._doc_terms, self._doc_tfs):
            weights = array(
                "d", (tf * term_weight[tid] for tid, tf in zip(terms, tfs))
            )
            norm = math.sqrt(sum(value * value for value in weights))
            if norm > 0:
                for i in range(len(weights)):
                    weights[i] /= norm
            self._doc_weights.append(weights)
            self._doc_norms.append(norm)
        postings_docs: Dict[int, array] = {}
        postings_weights: Dict[int, array] = {}
        for index, (terms, weights) in enumerate(
            zip(self._doc_terms, self._doc_weights)
        ):
            for tid, weight in zip(terms, weights):
                docs = postings_docs.get(tid)
                if docs is None:
                    docs = postings_docs[tid] = array("l")
                    postings_weights[tid] = array("d")
                docs.append(index)
                postings_weights[tid].append(weight)
        self._postings_docs = postings_docs
        self._postings_weights = postings_weights
        self.weight_refreshes += 1

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        self._ensure_current()
        return len(self._doc_ids)

    @property
    def vocabulary_size(self) -> int:
        self._ensure_current()
        return len(self._term_ids)

    def vector(self, doc_id: str) -> Tuple[array, array]:
        """The document's (sorted term ids, normalized weights) arrays."""
        self._ensure_current()
        index = self._doc_index.get(doc_id)
        if index is None:
            return array("l"), array("d")
        return self._doc_terms[index], self._doc_weights[index]

    def norm(self, doc_id: str) -> float:
        """The raw L2 norm of the document's unnormalized weight vector."""
        self._ensure_current()
        index = self._doc_index.get(doc_id)
        return self._doc_norms[index] if index is not None else 0.0

    def stats(self) -> Dict[str, int]:
        self._ensure_current()
        return {
            "documents": len(self._doc_ids),
            "vocabulary": len(self._term_ids),
            "postings": sum(len(docs) for docs in self._postings_docs.values()),
            "structure_builds": self.structure_builds,
            "weight_refreshes": self.weight_refreshes,
        }

    # -- similarity ----------------------------------------------------------

    def cosine(self, doc_a: str, doc_b: str) -> float:
        """Cosine similarity via a sorted merge over interned term ids."""
        self._ensure_current()
        index_a = self._doc_index.get(doc_a)
        index_b = self._doc_index.get(doc_b)
        if index_a is None or index_b is None:
            return 0.0
        return self._dot(index_a, index_b)

    def _dot(self, index_a: int, index_b: int) -> float:
        terms_a, weights_a = self._doc_terms[index_a], self._doc_weights[index_a]
        terms_b, weights_b = self._doc_terms[index_b], self._doc_weights[index_b]
        i = j = 0
        len_a, len_b = len(terms_a), len(terms_b)
        total = 0.0
        while i < len_a and j < len_b:
            ta = terms_a[i]
            tb = terms_b[j]
            if ta == tb:
                total += weights_a[i] * weights_b[j]
                i += 1
                j += 1
            elif ta < tb:
                i += 1
            else:
                j += 1
        return total

    def top_k_similar(
        self, doc_id: str, k: int, min_sim: float = 0.0
    ) -> List[Tuple[str, float]]:
        """The *k* most similar documents, strongest first.

        Only documents sharing at least one term with *doc_id* are ever
        scored (one postings walk); ties break deterministically on the
        document id.
        """
        self._ensure_current()
        index = self._doc_index.get(doc_id)
        if index is None or k <= 0:
            return []
        accumulator: Dict[int, float] = {}
        for tid, weight in zip(self._doc_terms[index], self._doc_weights[index]):
            docs = self._postings_docs[tid]
            doc_weights = self._postings_weights[tid]
            for other, other_weight in zip(docs, doc_weights):
                if other != index:
                    accumulator[other] = (
                        accumulator.get(other, 0.0) + weight * other_weight
                    )
        scored = [
            (sim, self._doc_ids[other])
            for other, sim in accumulator.items()
            if sim >= min_sim
        ]
        best = heapq.nsmallest(k, scored, key=lambda item: (-item[0], item[1]))
        return [(doc, sim) for sim, doc in best]

    def all_pairs(
        self,
        group_of: Optional[Callable[[str], Hashable]] = None,
    ) -> Dict[Tuple[str, str], float]:
        """Cosine for every document pair sharing at least one term.

        Returns ``{(doc_i, doc_j): sim}`` where ``doc_i`` precedes
        ``doc_j`` in corpus insertion order.  Pairs absent from the
        result have cosine exactly ``0.0`` (no shared vocabulary), so a
        caller can treat the table as total.  With *group_of*, only
        pairs whose groups differ are scored — the documentation voter
        passes the source/target partition so same-schema pairs are
        never touched.

        Each document walks the postings of its own terms and
        accumulates its dot product with every later document it meets.
        """
        self._ensure_current()
        _ALL_PAIRS_STATS["allpairs_merge_sweeps"] += 1
        groups = (
            [group_of(doc) for doc in self._doc_ids]
            if group_of is not None
            else None
        )
        out: Dict[Tuple[str, str], float] = {}
        postings_docs = self._postings_docs
        postings_weights = self._postings_weights
        doc_ids = self._doc_ids
        for index, (terms, weights) in enumerate(
            zip(self._doc_terms, self._doc_weights)
        ):
            group = groups[index] if groups is not None else None
            accumulator: Dict[int, float] = {}
            get = accumulator.get
            for tid, weight in zip(terms, weights):
                docs = postings_docs[tid]
                doc_weights = postings_weights[tid]
                for position in range(len(docs)):
                    other = docs[position]
                    if other > index and (groups is None or groups[other] != group):
                        accumulator[other] = (
                            get(other, 0.0) + weight * doc_weights[position]
                        )
            if not accumulator:
                continue
            doc_id = doc_ids[index]
            for other, sim in accumulator.items():
                out[(doc_id, doc_ids[other])] = sim
        return out

    def __repr__(self) -> str:
        return (
            f"SparseTfIdf(documents={len(self.corpus)}, "
            f"structure_builds={self.structure_builds})"
        )
