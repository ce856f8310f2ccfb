"""Match-voter framework.

Section 4: *"several match voters are invoked, each of which identifies
correspondences using a different strategy...  For each [source element,
target element] pair, each match voter establishes a confidence score in
the range (-1, +1) where -1 indicates that there is definitely no
correspondence, +1 indicates a definite correspondence and 0 indicates
complete uncertainty."*

Voters share a :class:`MatchContext` holding the two schema graphs, the
linguistic resources (thesaurus, TF-IDF corpus over all documentation) and
per-element token caches, so each voter stays small and stateless.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, List, Optional, Tuple

from ...core.elements import CONTAINER_KINDS, ElementKind, SchemaElement
from ...core.graph import SchemaGraph
from ...embed import EmbedConfig, EmbeddingSnapshot, HashEmbedder, resolve_embed_backend
from ...text import kernels as similarity_kernels
from ...text import similarity as similarity_reference
from ...text.stemmer import stem, stem_all
from ...text.stopwords import remove_stop_words
from ...text.tfidf import CorpusSnapshot, TfIdfCorpus, preprocess
from ...text.tfidf_sparse import SparseTfIdf
from ...text.thesaurus import Thesaurus
from ...text.tokenize import ngrams, split_identifier, word_tokens


class MatchContext:
    """Shared state for one matching problem (one source/target pair).

    The TF-IDF corpus is built over the union of both schemata's
    documentation, so inverse-document-frequency reflects which words
    discriminate *within this problem* — exactly the corpus the
    bag-of-words voter needs.
    """

    def __init__(
        self,
        source: SchemaGraph,
        target: SchemaGraph,
        thesaurus: Optional[Thesaurus] = None,
        use_kernels: bool = False,
        use_sparse_tfidf: bool = False,
        corpus_snapshot: Optional[CorpusSnapshot] = None,
        embed_backend: str = "python",
        embed_config: Optional[EmbedConfig] = None,
        embedding_snapshot: Optional[EmbeddingSnapshot] = None,
    ) -> None:
        self.source = source
        self.target = target
        self.thesaurus = thesaurus if thesaurus is not None else Thesaurus.default()
        #: the string-measure namespace voters score through — the
        #: reference module by default, the optimized kernels when the
        #: engine runs with ``EngineConfig.similarity_kernels`` (the
        #: differential harness proves the two agree to 1e-12).
        self.use_kernels = use_kernels
        self.sim = similarity_kernels if use_kernels else similarity_reference
        #: documentation-cosine memo (kernel path only): entries are keyed
        #: on the *ordered* doc-id pair (dict-order float summation makes
        #: cosine only approximately symmetric) and die with the context
        #: or with a word-weight revision bump.
        self._cosine_cache: Dict[Tuple[str, str], float] = {}
        self._cosine_weights_rev: Optional[int] = None
        self.corpus = TfIdfCorpus()
        #: the sparse TF-IDF engine (``EngineConfig.sparse_tfidf``): the
        #: documentation voter then scores through one postings-driven
        #: ``all_pairs`` sweep instead of a dict cosine per pair.
        self.sparse: Optional[SparseTfIdf] = (
            SparseTfIdf(self.corpus) if use_sparse_tfidf else None
        )
        #: cross-schema similarity table from ``SparseTfIdf.all_pairs``;
        #: pairs absent from it have cosine exactly 0.0.  Invalidated by
        #: either corpus revision counter moving.
        self._pair_sims: Optional[Dict[Tuple[str, str], float]] = None
        self._pair_sims_rev: Optional[Tuple[int, int]] = None
        self._name_tokens: Dict[Tuple[str, str], List[str]] = {}
        self._path_tokens: Dict[Tuple[str, str], List[str]] = {}
        self._leaf_tokens: Dict[Tuple[str, str], FrozenSet[str]] = {}
        #: dense-embedding state (``repro.embed``): the embedder is built
        #: lazily on first :meth:`embedding_of` call, vectors are memoized
        #: per element under the same (graph name, element id) keys as the
        #: token caches and invalidated by :meth:`patch_side` exactly like
        #: them.  A shared :class:`EmbeddingSnapshot` (N-way matching)
        #: serves pre-computed vectors, except for elements an evolution
        #: has since touched.
        self._embed_backend_selector = embed_backend
        self._embed_config = embed_config or EmbedConfig()
        self._embedder: Optional[HashEmbedder] = None
        self._embeddings: Dict[Tuple[str, str], List[float]] = {}
        self._embedding_snapshot = embedding_snapshot
        self._stale_snapshot_docs: set = set()
        #: cross-run voter-score memo: (voter name, source id, target id) →
        #: score.  Only populated when the engine reuses the context across
        #: refinement rounds; the engine owns invalidation.
        self.score_cache: Dict[Tuple[str, str, str], float] = {}
        self._source_docs: FrozenSet[str] = frozenset()
        source_docs = set()
        # with a shared CorpusSnapshot (N-way matching ships one per
        # worker) the documents arrive pre-preprocessed — bit-identical
        # to running the pipeline here, term order included
        for graph in (source, target):
            for element in graph:
                if element.documentation:
                    doc = self._doc_id(graph, element)
                    if corpus_snapshot is not None and doc in corpus_snapshot:
                        self.corpus.add_document_counts(
                            doc, corpus_snapshot.counts(doc))
                    else:
                        self.corpus.add_document(doc, element.documentation)
                    if graph is source:
                        source_docs.add(doc)
        self._source_docs = frozenset(source_docs)
        #: graph revisions at build (or last rebind) time — a bound graph
        #: whose revision moved since was mutated in place, and the
        #: context no longer describes it (:attr:`mutated`).
        self._built_for = (source.revision, target.revision)

    @property
    def mutated(self) -> bool:
        """Whether either bound graph was mutated in place since the
        context was built or last rebound."""
        return self._built_for != (self.source.revision, self.target.revision)

    def patch_side(self, side, new_graph, closure_ids, delta) -> None:
        """Invalidate exactly the caches a schema evolution touched.

        *closure_ids* is the engine's evolution closure for this side
        (``repro.harmony.engine.evolution_closure``); *delta* the
        :class:`~repro.harmony.engine.GraphDelta`.  Token caches for the
        closure are dropped, and the TF-IDF corpus is patched in place —
        documents removed, replaced or added only where documentation
        actually changed, so the corpus revision (and with it every
        cosine memo) moves only when IDFs really shift.  Because the
        sparse TF-IDF engine interns terms from the *sorted* vocabulary,
        the patched corpus scores bit-identically to a freshly built one.

        Call once per side, then :meth:`rebind`.  The engine owns the
        voter-score cache; it prunes that separately.
        """
        old_graph = self.source if side == "source" else self.target
        graph_name = old_graph.name
        removed = delta.removed
        for cache in (self._name_tokens, self._path_tokens,
                      self._leaf_tokens, self._embeddings):
            for element_id in closure_ids:
                cache.pop((graph_name, element_id), None)
            for element_id in removed:
                cache.pop((graph_name, element_id), None)
        if self._embedding_snapshot is not None:
            # the shared snapshot predates the evolution: vectors for the
            # touched closure must be re-hashed, not served stale
            for element_id in set(closure_ids) | removed:
                self._stale_snapshot_docs.add(f"{graph_name}::{element_id}")
        for element_id in removed:
            doc = f"{graph_name}::{element_id}"
            if doc in self.corpus:
                self.corpus.remove_document(doc)
        for element_id in sorted(delta.doc_changed):
            element = new_graph.get(element_id)
            if element is None:
                continue
            doc = f"{graph_name}::{element_id}"
            if element.documentation:
                self.corpus.add_document(doc, element.documentation)
            elif doc in self.corpus:
                self.corpus.remove_document(doc)
        if side == "source":
            docs = {d for d in self._source_docs if d in self.corpus}
            for element_id in delta.doc_changed:
                doc = f"{graph_name}::{element_id}"
                if doc in self.corpus:
                    docs.add(doc)
            self._source_docs = frozenset(docs)

    def rebind(self, source: SchemaGraph, target: SchemaGraph) -> None:
        """Point the context at the (possibly new) graph objects — ones
        with the same content, or after :meth:`patch_side` has been
        applied for both sides."""
        self.source = source
        self.target = target
        self._built_for = (source.revision, target.revision)

    @staticmethod
    def _doc_id(graph: SchemaGraph, element: SchemaElement) -> str:
        return f"{graph.name}::{element.element_id}"

    def doc_id(self, graph: SchemaGraph, element: SchemaElement) -> str:
        return self._doc_id(graph, element)

    def cosine(self, doc_a: str, doc_b: str) -> float:
        """Documentation cosine, memoized on the kernel path.

        The memo is invalidated wholesale when the corpus's learned word
        weights move (``weights_revision``) or the document set changes
        (``revision``), mirroring the engine's score-cache invalidation
        rule for ``uses_word_weights`` voters.  With the sparse engine
        enabled the memo *is* the ``all_pairs`` table: one postings
        sweep scores every cross-schema pair sharing vocabulary, and
        absent pairs are exactly 0.0.
        """
        if self.sparse is not None:
            return self._sparse_cosine(doc_a, doc_b)
        if not self.use_kernels:
            return self.corpus.cosine(doc_a, doc_b)
        revision = (self.corpus.weights_revision, self.corpus.revision)
        if revision != self._cosine_weights_rev:
            self._cosine_cache.clear()
            self._cosine_weights_rev = revision
        key = (doc_a, doc_b)
        value = self._cosine_cache.get(key)
        if value is None:
            similarity_kernels.note_cache_event("cosine", hit=False)
            value = self.corpus.cosine(doc_a, doc_b)
            self._cosine_cache[key] = value
        else:
            similarity_kernels.note_cache_event("cosine", hit=True)
        return value

    def warm_pair_sims(self) -> Dict[Tuple[str, str], float]:
        """Build (or reuse) the sparse cross-schema similarity table.

        The documentation voter calls this from ``prepare`` so the one
        ``all_pairs`` sweep happens before (possibly parallel) scoring.
        """
        assert self.sparse is not None
        revision = (self.corpus.weights_revision, self.corpus.revision)
        if self._pair_sims is None or self._pair_sims_rev != revision:
            source_docs = self._source_docs
            self._pair_sims = self.sparse.all_pairs(
                group_of=lambda doc: doc in source_docs
            )
            self._pair_sims_rev = revision
        return self._pair_sims

    def _sparse_cosine(self, doc_a: str, doc_b: str) -> float:
        table = self.warm_pair_sims()
        value = table.get((doc_a, doc_b))
        if value is None:
            value = table.get((doc_b, doc_a))
        if value is not None:
            similarity_kernels.note_cache_event("cosine", hit=True)
            return value
        similarity_kernels.note_cache_event("cosine", hit=False)
        if (doc_a in self._source_docs) != (doc_b in self._source_docs):
            # cross-schema pair missing from the table: shares no term
            return 0.0
        # same-group lookup (self-match, within-schema probes): the table
        # never holds these, so fall back to the sorted-merge cosine.
        return self.sparse.cosine(doc_a, doc_b)

    def graph_of(self, element: SchemaElement) -> SchemaGraph:
        """Which of the two graphs owns this element."""
        if element.element_id in self.source and self.source.get(element.element_id) is element:
            return self.source
        if element.element_id in self.target and self.target.get(element.element_id) is element:
            return self.target
        # fall back to id membership (copies of elements)
        if element.element_id in self.source:
            return self.source
        return self.target

    def name_tokens(self, graph: SchemaGraph, element: SchemaElement) -> List[str]:
        """Stemmed, stop-word-free, abbreviation-expanded name tokens."""
        key = (graph.name, element.element_id)
        if key not in self._name_tokens:
            raw = split_identifier(element.name)
            expanded: List[str] = []
            for token in raw:
                expansion = self.thesaurus.expand_abbreviation(token)
                expanded.extend(split_identifier(expansion) or [expansion])
            self._name_tokens[key] = stem_all(remove_stop_words(expanded)) or expanded
        return self._name_tokens[key]

    def path_tokens(self, graph: SchemaGraph, element: SchemaElement) -> List[str]:
        """Stemmed tokens of the root-to-element name path (root excluded).

        Cached per element — the structure voter asks for the same path
        once per candidate pair, which is O(S·T) recomputations without
        this memo.
        """
        key = (graph.name, element.element_id)
        if key not in self._path_tokens:
            tokens: List[str] = []
            for name in graph.path(element.element_id)[1:]:
                tokens.extend(stem(t) for t in split_identifier(name))
            self._path_tokens[key] = tokens
        return self._path_tokens[key]

    def leaf_tokens(self, graph: SchemaGraph, element: SchemaElement) -> FrozenSet[str]:
        """Stemmed name tokens of the leaf descendants below an element."""
        key = (graph.name, element.element_id)
        if key not in self._leaf_tokens:
            names = set()
            for descendant in graph.subtree(element.element_id):
                if descendant.element_id == element.element_id:
                    continue
                if not graph.children(descendant.element_id):
                    for token in split_identifier(descendant.name):
                        names.add(stem(token))
            self._leaf_tokens[key] = frozenset(names)
        return self._leaf_tokens[key]

    @property
    def embedder(self) -> HashEmbedder:
        """The context's hash-projection embedder, resolved lazily so
        contexts that never touch embeddings pay nothing."""
        if self._embedder is None:
            self._embedder = HashEmbedder(
                self._embed_config,
                resolve_embed_backend(self._embed_backend_selector),
            )
        return self._embedder

    def embedding_features(
        self, graph: SchemaGraph, element: SchemaElement
    ) -> List[str]:
        """The lexical feature multiset one element hashes into.

        Mirrors the blocking index's key namespaces so ANN retrieval
        sees the same evidence as the inverted index, fused into one
        vector: name tokens ride the standard pipeline
        (:meth:`name_tokens`: abbreviation expansion → stop words →
        stemming) plus their thesaurus synonyms and character n-grams
        (subword robustness: ``lname``/``lastname`` share mass),
        documentation contributes its preprocessed terms, the
        containment parent its name tokens (generic attribute names
        under similar entities stay near) and containers their leaf
        attribute tokens.  Deliberately independent of the TF-IDF
        corpus composition, so the same element embeds identically in
        every context and in the N-way :class:`EmbeddingSnapshot`.
        """
        config = self._embed_config
        features: List[str] = []
        for token in self.name_tokens(graph, element):
            # tokens twice: exact-name evidence outweighs subword grams,
            # and integer counts keep backend parity bit-exact
            features.append(f"t:{token}")
            features.append(f"t:{token}")
            for synonym in self.thesaurus.synonyms(token):
                # same t: namespace as tokens — a synonym of A must land
                # on the token of B, like the inverted index's n: keys
                features.append(f"t:{synonym.lower()}")
        # grams over the raw (unstemmed) name, like the g: keys: stems
        # destroy the shared suffixes of pairs like version~revision
        for gram in sorted(set(ngrams(element.name, config.token_ngram))):
            features.append(f"g:{gram}")
        if config.use_documentation and element.documentation:
            for term in preprocess(element.documentation):
                features.append(f"d:{term}")
        parent = graph.parent(element.element_id)
        if parent is not None and parent.element_id != graph.root.element_id:
            for token in self.name_tokens(graph, parent):
                features.append(f"p:{token}")
        if element.kind in CONTAINER_KINDS:
            for token in self.leaf_tokens(graph, element):
                features.append(f"l:{token}")
        return features

    def embedding_of(
        self, graph: SchemaGraph, element: SchemaElement
    ) -> List[float]:
        """The element's L2-normalised hash-projection vector, memoized.

        Served from the shared N-way snapshot when one covers this
        element (and no evolution has touched it), hashed on demand
        otherwise.  All-zero vectors mean "no lexical evidence at all".
        """
        key = (graph.name, element.element_id)
        vector = self._embeddings.get(key)
        if vector is None:
            snapshot = self._embedding_snapshot
            doc = f"{graph.name}::{element.element_id}"
            if (
                snapshot is not None
                and doc in snapshot
                and doc not in self._stale_snapshot_docs
            ):
                vector = snapshot.vector(doc)
            else:
                vector = self.embedder.embed(
                    self.embedding_features(graph, element)
                )
            self._embeddings[key] = vector
        return vector

    def warm_embeddings(
        self, graph: SchemaGraph, elements: List[SchemaElement]
    ) -> None:
        """Memoize vectors for *elements* in one batched backend call.

        The ANN blocking path warms a whole schema side at once so the
        numpy backend pays one ``bincount`` instead of one call per
        element; snapshot-served and already-memoized elements are
        skipped.  Results are identical to element-at-a-time
        :meth:`embedding_of` calls.
        """
        missing: List[Tuple[Tuple[str, str], SchemaElement]] = []
        snapshot = self._embedding_snapshot
        for element in elements:
            key = (graph.name, element.element_id)
            if key in self._embeddings:
                continue
            doc = f"{graph.name}::{element.element_id}"
            if (
                snapshot is not None
                and doc in snapshot
                and doc not in self._stale_snapshot_docs
            ):
                self._embeddings[key] = snapshot.vector(doc)
            else:
                missing.append((key, element))
        if missing:
            vectors = self.embedder.embed_batch(
                [self.embedding_features(graph, element)
                 for _, element in missing]
            )
            for (key, _), vector in zip(missing, vectors):
                self._embeddings[key] = vector

    def candidate_pairs(self) -> List[Tuple[SchemaElement, SchemaElement]]:
        """All (source, target) pairs worth scoring.

        Roots are excluded and only kind-compatible pairs are generated:
        containers match containers, attributes match attributes, domains
        match domains.  This is the pruning every practical matcher applies
        before scoring an n×m space.
        """
        pairs: List[Tuple[SchemaElement, SchemaElement]] = []
        source_root = self.source.root.element_id
        target_root = self.target.root.element_id
        for s in self.source:
            if s.element_id == source_root or s.kind is ElementKind.KEY:
                continue
            for t in self.target:
                if t.element_id == target_root or t.kind is ElementKind.KEY:
                    continue
                if kinds_comparable(s.kind, t.kind):
                    pairs.append((s, t))
        return pairs


def kinds_comparable(a: ElementKind, b: ElementKind) -> bool:
    """Can elements of these kinds plausibly correspond?

    Containers correspond to containers (a relational TABLE can match an
    XML ELEMENT — Section 3.2's relational→XML example), attributes to
    attributes, domains to domains, values to values.
    """
    if a is b:
        return True
    if a in CONTAINER_KINDS and b in CONTAINER_KINDS:
        return True
    return False


def calibrate(
    similarity: float,
    zero_point: float = 0.35,
    full_point: float = 0.95,
    negative_floor: float = -0.5,
) -> float:
    """Map a [0,1] similarity into a (-1,+1) voter score.

    Similarities at or above *full_point* become +1-ish certainty; at
    *zero_point* the voter has no evidence (score 0); below it the score
    descends linearly to *negative_floor* — weak negative evidence, never
    a definite -1, because absence of lexical similarity alone should not
    veto a correspondence.
    """
    similarity = max(0.0, min(1.0, similarity))
    if similarity >= full_point:
        return 1.0
    if similarity >= zero_point:
        return (similarity - zero_point) / (full_point - zero_point)
    if zero_point == 0:
        return 0.0
    return (zero_point - similarity) / zero_point * negative_floor


class MatchVoter(ABC):
    """One matching strategy.

    ``score`` returns a confidence in [-1, +1]; 0 means "no evidence" —
    the merger then gives this voter no say on that pair.
    """

    #: Stable identifier used in merger weights and benchmark output.
    name: str = "voter"

    #: Whether the voter's scores depend on the corpus's learned word
    #: weights (Section 4.3) — the engine's cross-run score cache
    #: invalidates these voters' entries when the weights change.
    uses_word_weights: bool = False

    @abstractmethod
    def score(
        self,
        source: SchemaElement,
        target: SchemaElement,
        context: MatchContext,
    ) -> float:
        """Score one (source, target) pair under this strategy."""

    def applicable(self, source: SchemaElement, target: SchemaElement) -> bool:
        """Whether this voter has anything to say about this pair at all."""
        return True

    def prepare(self, context: MatchContext) -> None:
        """One-time per-problem setup hook (default: nothing)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
