"""Match-voter framework.

Section 4: *"several match voters are invoked, each of which identifies
correspondences using a different strategy...  For each [source element,
target element] pair, each match voter establishes a confidence score in
the range (-1, +1) where -1 indicates that there is definitely no
correspondence, +1 indicates a definite correspondence and 0 indicates
complete uncertainty."*

Voters share a :class:`MatchContext` holding the two schema graphs, the
linguistic resources (thesaurus, TF-IDF corpus over all documentation) and
one :class:`ElementFeatures` record per element, so each voter stays
small and stateless.  The built-in voters score a whole candidate column
per call (:class:`ColumnVoter`) from those records.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ...core.elements import CONTAINER_KINDS, ElementKind, SchemaElement
from ...core.graph import SchemaGraph
from ...embed import EmbedConfig, EmbeddingSnapshot, HashEmbedder, resolve_embed_backend
from ...text import kernels
from ...text.stemmer import stem, stem_all
from ...text.stopwords import remove_stop_words
from ...text.tfidf import CorpusSnapshot, TfIdfCorpus, preprocess
from ...text.tfidf_sparse import SparseTfIdf
from ...text.thesaurus import Thesaurus
from ...text.tokenize import ngrams, split_identifier

CandidatePair = Tuple[SchemaElement, SchemaElement]


class ElementFeatures:
    """Everything the built-in voters, the blocking keys and the
    embedding read about one element, computed once per context.

    Each field is a pure function of the element, its graph and the
    thesaurus, so a record stays valid until a schema evolution touches
    the element's closure (:meth:`MatchContext.patch_side` drops it).
    """

    __slots__ = (
        "lower",
        "name_tokens",
        "name_keys",
        "path_keys",
        "leaf_tokens",
        "synonym_sets",
        "synonym_keys",
        "acronym_tokens",
        "codes",
        "doc",
        "parent_tokens",
        "embedding",
    )

    def __init__(
        self, context: "MatchContext", graph: SchemaGraph, element: SchemaElement
    ) -> None:
        name = element.name
        thesaurus = context.thesaurus
        split = split_identifier(name)
        #: the name, lowercased (the name voter's exact-match test)
        self.lower = name.lower()
        expanded: List[str] = []
        for token in split:
            expansion = thesaurus.expand_abbreviation(token)
            expanded.extend(split_identifier(expansion) or [expansion])
        #: stemmed, stop-word-free, abbreviation-expanded name tokens
        self.name_tokens: Tuple[str, ...] = tuple(
            stem_all(remove_stop_words(expanded)) or expanded)
        #: the same, as Monge-Elkan keys (``kernels.token_keys``)
        self.name_keys = kernels.token_keys(self.name_tokens)
        #: stemmed tokens of the root-to-element name path (root excluded)
        path: List[str] = []
        for part in graph.path(element.element_id)[1:]:
            path.extend(stem(t) for t in split_identifier(part))
        self.path_keys = kernels.token_keys(path)
        #: stemmed name tokens of the leaf descendants (element excluded)
        leaves = set()
        for descendant in graph.subtree(element.element_id):
            if descendant.element_id == element.element_id:
                continue
            if not graph.children(descendant.element_id):
                for token in split_identifier(descendant.name):
                    leaves.add(stem(token))
        self.leaf_tokens: FrozenSet[str] = frozenset(leaves)
        #: thesaurus tokens (abbreviation-expanded, non-numeric name
        #: tokens): each one's synonym set, and the set of their
        #: expansions.  ``Thesaurus.are_synonyms(x, y)`` holds exactly
        #: when ``y``'s expansion is in ``x``'s synonym set
        tokens = [thesaurus.expand_abbreviation(token) for token in split]
        tokens = [token for token in tokens if not token.isdigit()]
        self.synonym_sets = tuple(
            frozenset(thesaurus.synonyms(token)) for token in tokens)
        self.synonym_keys = frozenset(
            thesaurus.expand_abbreviation(token) for token in tokens)
        self.acronym_tokens: Tuple[str, ...] = tuple(split)
        self.codes = _domain_codes(graph, element)
        #: TF-IDF document id, ``None`` when the element is undocumented
        self.doc = (
            context.doc_id(graph, element) if element.has_documentation else None)
        #: the containment parent's name tokens, empty under the root
        parent = graph.parent(element.element_id)
        self.parent_tokens: Tuple[str, ...] = (
            context.features(graph, parent).name_tokens
            if parent is not None
            and parent.element_id != context.root_id(graph)
            else ())
        #: the hash-projection vector, filled by ``MatchContext.embedding_of``
        self.embedding: Optional[List[float]] = None


def _domain_codes(graph: SchemaGraph, element: SchemaElement) -> Optional[FrozenSet[str]]:
    """The value-code set behind an element, if it has one: a DOMAIN's
    value codes, an ATTRIBUTE's ``has-domain`` codes or, failing that,
    its ``instance_values`` annotation."""
    if element.kind is ElementKind.DOMAIN:
        domain = element
    elif element.kind is ElementKind.ATTRIBUTE:
        domain = graph.domain_of(element.element_id)
        if domain is None:
            values = element.annotation("instance_values")
            if values:
                return frozenset(str(v).strip().lower() for v in values)
            return None
    else:
        return None
    codes = frozenset(
        child.name.strip().lower()
        for child in graph.children(domain.element_id)
        if child.kind is ElementKind.DOMAIN_VALUE
    )
    return codes or None


class MatchContext:
    """Shared state for one matching problem (one source/target pair).

    The TF-IDF corpus is built over the union of both schemata's
    documentation, so inverse-document-frequency reflects which words
    discriminate *within this problem* — exactly the corpus the
    bag-of-words voter needs.  Its cosines come from the sparse TF-IDF
    engine: one postings-driven ``all_pairs`` sweep per corpus revision
    (:meth:`warm_pair_sims`), memoized on the context.  Voters score
    strings through the memoized :mod:`repro.text.kernels`.
    """

    def __init__(
        self,
        source: SchemaGraph,
        target: SchemaGraph,
        thesaurus: Optional[Thesaurus] = None,
        corpus_snapshot: Optional[CorpusSnapshot] = None,
        embed_backend: str = "python",
        embed_config: Optional[EmbedConfig] = None,
        embedding_snapshot: Optional[EmbeddingSnapshot] = None,
    ) -> None:
        self.source = source
        self.target = target
        self.thesaurus = thesaurus if thesaurus is not None else Thesaurus.default()
        self.corpus = TfIdfCorpus()
        #: the sparse TF-IDF engine over :attr:`corpus`
        self.sparse = SparseTfIdf(self.corpus)
        #: cross-schema similarity table from ``SparseTfIdf.all_pairs``;
        #: pairs absent from it have cosine exactly 0.0.  Invalidated by
        #: either corpus revision counter moving.
        self._pair_sims: Optional[Dict[Tuple[str, str], float]] = None
        self._pair_sims_rev: Optional[Tuple[int, int]] = None
        #: side ("source"/"target") → element id → :class:`ElementFeatures`,
        #: built on first use and dropped by :meth:`patch_side`
        self._features: Dict[str, Dict[str, ElementFeatures]] = {
            "source": {}, "target": {}}
        #: side → root element id, reset by :meth:`rebind`
        self._root_ids: Dict[str, str] = {}
        #: dense-embedding state (``repro.embed``): the embedder is built
        #: lazily on first :meth:`embedding_of` call and vectors live on
        #: the element's feature record.  A shared
        #: :class:`EmbeddingSnapshot` (N-way matching) serves pre-computed
        #: vectors, except for elements an evolution has since touched.
        self._embed_backend_selector = embed_backend
        self._embed_config = embed_config or EmbedConfig()
        self._embedder: Optional[HashEmbedder] = None
        self._embedding_snapshot = embedding_snapshot
        self._stale_snapshot_docs: set = set()
        #: cross-run voter-score columns: voter name → {(source id,
        #: target id): score}.  Only populated when the engine reuses the
        #: context across refinement rounds; the engine owns invalidation.
        self.score_cache: Dict[str, Dict[Tuple[str, str], float]] = {}
        #: the corpus (weights, documents) revisions the score cache is
        #: valid for, stamped by the engine
        self.score_cache_corpus_rev: Optional[Tuple[int, int]] = None
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
        :class:`~repro.harmony.engine.GraphDelta`.  Feature records for the
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
        features = self._features[side]
        for element_id in closure_ids:
            features.pop(element_id, None)
        for element_id in removed:
            features.pop(element_id, None)
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
        self._root_ids = {}
        self._built_for = (source.revision, target.revision)

    @staticmethod
    def _doc_id(graph: SchemaGraph, element: SchemaElement) -> str:
        return f"{graph.name}::{element.element_id}"

    def doc_id(self, graph: SchemaGraph, element: SchemaElement) -> str:
        return self._doc_id(graph, element)

    def cosine(self, doc_a: str, doc_b: str) -> float:
        """Documentation cosine, served from the ``all_pairs`` table.

        One postings sweep scores every cross-schema pair sharing
        vocabulary, and absent cross-schema pairs are exactly 0.0.  The
        table is rebuilt when the corpus's learned word weights move
        (``weights_revision``) or its document set changes
        (``revision``), mirroring the engine's score-cache invalidation
        rule for ``uses_word_weights`` voters.
        """
        table = self.warm_pair_sims()
        value = table.get((doc_a, doc_b))
        if value is None:
            value = table.get((doc_b, doc_a))
        if value is not None:
            kernels.note_cache_event("cosine", hit=True)
            return value
        kernels.note_cache_event("cosine", hit=False)
        if (doc_a in self._source_docs) != (doc_b in self._source_docs):
            # cross-schema pair missing from the table: shares no term
            return 0.0
        # same-group lookup (self-match, within-schema probes): the table
        # never holds these, so fall back to the sorted-merge cosine.
        return self.sparse.cosine(doc_a, doc_b)

    def warm_pair_sims(self) -> Dict[Tuple[str, str], float]:
        """Build (or reuse) the sparse cross-schema similarity table.

        The documentation voter calls this from ``prepare`` so the one
        ``all_pairs`` sweep happens before (possibly parallel) scoring.
        """
        revision = (self.corpus.weights_revision, self.corpus.revision)
        if self._pair_sims is None or self._pair_sims_rev != revision:
            source_docs = self._source_docs
            self._pair_sims = self.sparse.all_pairs(
                group_of=lambda doc: doc in source_docs
            )
            self._pair_sims_rev = revision
        return self._pair_sims

    def _side(self, graph: SchemaGraph) -> str:
        return "source" if graph is self.source else "target"

    def root_id(self, graph: SchemaGraph) -> str:
        """The id of *graph*'s root element, looked up once per binding."""
        side = self._side(graph)
        root = self._root_ids.get(side)
        if root is None:
            root = self._root_ids[side] = graph.root.element_id
        return root

    def features(self, graph: SchemaGraph, element: SchemaElement) -> ElementFeatures:
        """The record of *element*, which belongs to *graph* (the
        context's source or target), built on first use."""
        table = self._features[self._side(graph)]
        record = table.get(element.element_id)
        if record is None:
            record = table[element.element_id] = ElementFeatures(self, graph, element)
        return record

    def pair_features(
        self, pairs: Sequence[CandidatePair]
    ) -> List[Tuple[ElementFeatures, ElementFeatures]]:
        """The feature records of each candidate pair, whose first
        element belongs to :attr:`source` and second to :attr:`target`."""
        source, target = self.source, self.target
        source_table = self._features[self._side(source)]
        target_table = self._features[self._side(target)]
        features = self.features
        return [
            (source_table.get(s.element_id) or features(source, s),
             target_table.get(t.element_id) or features(target, t))
            for s, t in pairs
        ]

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
        (:attr:`ElementFeatures.name_tokens`: abbreviation expansion →
        stop words → stemming) plus their thesaurus synonyms and
        character n-grams (subword robustness: ``lname``/``lastname``
        share mass),
        documentation contributes its preprocessed terms, the
        containment parent its name tokens (generic attribute names
        under similar entities stay near) and containers their leaf
        attribute tokens.  Deliberately independent of the TF-IDF
        corpus composition, so the same element embeds identically in
        every context and in the N-way :class:`EmbeddingSnapshot`.
        """
        config = self._embed_config
        record = self.features(graph, element)
        features: List[str] = []
        for token in record.name_tokens:
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
        for token in record.parent_tokens:
            features.append(f"p:{token}")
        if element.kind in CONTAINER_KINDS:
            for token in record.leaf_tokens:
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
        record = self.features(graph, element)
        if record.embedding is None:
            vector = self._snapshot_vector(graph, element)
            if vector is None:
                vector = self.embedder.embed(
                    self.embedding_features(graph, element)
                )
            record.embedding = vector
        return record.embedding

    def _snapshot_vector(
        self, graph: SchemaGraph, element: SchemaElement
    ) -> Optional[List[float]]:
        """The shared snapshot's vector for *element*, unless there is
        none or an evolution has touched the element since."""
        snapshot = self._embedding_snapshot
        if snapshot is None:
            return None
        doc = f"{graph.name}::{element.element_id}"
        if doc in snapshot and doc not in self._stale_snapshot_docs:
            return snapshot.vector(doc)
        return None

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
        missing: List[Tuple[ElementFeatures, SchemaElement]] = []
        for element in elements:
            record = self.features(graph, element)
            if record.embedding is not None:
                continue
            record.embedding = self._snapshot_vector(graph, element)
            if record.embedding is None:
                missing.append((record, element))
        if missing:
            vectors = self.embedder.embed_batch(
                [self.embedding_features(graph, element)
                 for _, element in missing]
            )
            for (record, _), vector in zip(missing, vectors):
                record.embedding = vector

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
    the merger then gives this voter no say on that pair.  The engine
    calls :meth:`score_pairs` once per candidate list; its default scores
    pair by pair through ``score``, so a custom voter needs only that.
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

    def score_pairs(
        self, pairs: Sequence[CandidatePair], context: MatchContext
    ) -> List[float]:
        """Score every (source, target) pair: one score per pair, in order."""
        return [self.score(source, target, context) for source, target in pairs]

    def applicable(self, source: SchemaElement, target: SchemaElement) -> bool:
        """Whether this voter has anything to say about this pair at all."""
        return True

    def prepare(self, context: MatchContext) -> None:
        """One-time per-problem setup hook (default: nothing)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class ColumnVoter(MatchVoter):
    """A voter that scores a whole candidate column per call.

    Subclasses implement :meth:`score_pairs` over the context's
    per-element :class:`ElementFeatures`; the single-pair ``score`` runs
    through the same code.  Pairs pair a :attr:`MatchContext.source`
    element with a :attr:`MatchContext.target` element.
    """

    @abstractmethod
    def score_pairs(
        self, pairs: Sequence[CandidatePair], context: MatchContext
    ) -> List[float]:
        """Score every (source, target) pair: one score per pair, in order."""

    def score(
        self,
        source: SchemaElement,
        target: SchemaElement,
        context: MatchContext,
    ) -> float:
        return self.score_pairs([(source, target)], context)[0]
