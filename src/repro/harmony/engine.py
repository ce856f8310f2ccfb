"""The Harmony match engine (Section 4, Figure 1).

Pipeline, exactly as the architecture figure draws it::

    schemata → [normalize]        (loaders already produced canonical graphs)
             → [linguistic preprocessing]   (MatchContext: tokens, TF-IDF)
             → [match voters]               (k strategies score each pair)
             → [vote merger]                (magnitude+performance weighting)
             → [similarity flooding]        (structural adjustment)
             → mapping matrix               (confidence-scored cells)

The engine never touches user-decided cells (Section 4.3: *"Once a link
has been accepted or rejected, the engine will not try to modify that
link"*) and it consumes feedback both ways the paper describes: merger
reweighting and bag-of-words word reweighting.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.correspondence import VoterScore
from ..core.elements import SchemaElement
from ..core.graph import SchemaGraph
from ..core.matrix import MappingMatrix
from ..embed import EmbeddingSnapshot
from ..text.tfidf import CorpusSnapshot
from ..text.thesaurus import Thesaurus
from .blocking import (
    STRATEGY_ANN,
    BlockingConfig,
    BlockingIndex,
    BlockingResult,
    CandidateBlocker,
    EmbeddingBlockingIndex,
)
from .flooding import (
    DirectionalConfig,
    FloodingConfig,
    FloodingState,
    SweepBackend,
    directional_flooding_compiled,
    resolve_sweep_backend,
)
from .learning import decisions_from_matrix, update_merger_weights, update_word_weights
from .merger import MergeResult, VoteMerger
from .voters import MatchContext, MatchVoter, default_voters

Pair = Tuple[str, str]
CandidatePair = Tuple[SchemaElement, SchemaElement]

#: Flooding modes the engine supports (bench A2 sweeps these).
FLOODING_OFF = "off"
FLOODING_CLASSIC = "classic"
FLOODING_DIRECTIONAL = "directional"


@dataclass
class EngineConfig:
    """Tunable knobs of the Harmony engine.

    There is one match pipeline: memoized string kernels, the sparse
    TF-IDF cosine, compiled flooding fixpoints and a bulk matrix write.
    The knobs left are behavioural (flooding mode, learning, candidate
    blocking, context reuse) or pick a backend for the same arithmetic.
    The defaults score the full cross-product and rebuild the context
    every run; :meth:`fast` turns on blocking, context reuse and the
    accelerated backends.
    """

    flooding: str = FLOODING_DIRECTIONAL
    directional: DirectionalConfig = field(default_factory=DirectionalConfig)
    classic: FloodingConfig = field(default_factory=FloodingConfig)
    #: blend factor when folding classic-flooding output back into scores
    classic_blend: float = 0.5
    learning_rate: float = 0.25
    learn_word_weights: bool = True
    #: candidate blocking stage — ``None`` scores the full kind-compatible
    #: cross-product, a :class:`BlockingConfig` prunes it first.  The
    #: blocking index persists next to the context and is patched, not
    #: rebuilt, after an evolution
    blocking: Optional[BlockingConfig] = None
    #: voter-scoring threads; 1 (or 0) = serial.  Parallel runs chunk the
    #: candidate pairs and merge results in chunk order, so the vote list
    #: is bit-identical to the serial one.
    parallelism: int = 1
    #: reuse the MatchContext (tokens, TF-IDF corpus, voter scores) across
    #: re-runs on the same two schemas — the Section 4.3 refinement loop
    #: stops rebuilding everything each round.  Reuse is keyed on schema
    #: content, not graph identity: new graph objects with the same
    #: content (every blackboard read returns fresh ones) reuse the
    #: context too, a schema evolution patches the context, the voter
    #: scores, the compiled PCG and the blocking indexes for the elements
    #: it touched, and a cached graph mutated in place forces a rebuild.
    #: Learned word weights then accumulate across rounds — direct engine
    #: calls and ``MatcherTool`` rounds alike — instead of resetting, so
    #: with learning on this changes results from the third round on
    reuse_context: bool = False
    #: which :class:`~repro.harmony.flooding.SweepBackend` runs the
    #: flooding sweeps (classic and directional): ``"python"`` (the
    #: gather/scatter loop, zero dependencies), ``"numpy"`` (vectorized
    #: ``np.bincount`` sweeps over zero-copy views of the edge arrays —
    #: requires the ``fast`` extra), ``"c"`` (the compiled ``_csweep``
    #: extension — built by ``pip install .`` with a C compiler, or
    #: runtime-compiled via cffi), or ``"auto"`` (probes c → numpy →
    #: python, silently falling back).  Backends agree to ≤1e-12
    #: (tests/harmony/test_sweep_backends.py)
    sweep_backend: str = "python"
    #: add the dense hash-projection :class:`EmbeddingVoter` to the
    #: default voter panel (``repro.embed``: signed feature hashing over
    #: name tokens, subword n-grams and documentation terms, scored by
    #: cosine).  Off by default and not part of :meth:`fast`, since it
    #: changes the scores; opt in per engine.  Ignored when an explicit
    #: voter list is passed
    embedding: bool = False
    #: which :class:`~repro.embed.embedder.EmbedBackend` runs the
    #: embedding/ANN math (the embedding voter and
    #: ``BlockingConfig(strategy="ann")`` blocking): ``"python"`` (the
    #: dependency-free reference), ``"numpy"`` (batched ``bincount``
    #: accumulation and matmul retrieval — requires the ``fast`` extra)
    #: or ``"auto"`` (probes numpy → python, silently falling back).
    #: Backends agree to ≤1e-12 (tests/embed/)
    embed_backend: str = "python"

    @classmethod
    def fast(cls, **overrides) -> "EngineConfig":
        """Blocking, context reuse and the accelerated backends on (see
        docs/performance.md)."""
        defaults = dict(
            blocking=BlockingConfig(),
            reuse_context=True,
            sweep_backend="auto",
            # embedding math rides the accelerated backend when present;
            # the voter and ANN blocking stay opt-in until their recall
            # gates have run on the caller's corpus (perf_smoke gates
            # them on the registry workload)
            embed_backend="auto",
        )
        defaults.update(overrides)
        return cls(**defaults)


@dataclass
class MatchRun:
    """Everything one engine invocation produced (per-stage, for Figure 1)."""

    context: MatchContext
    votes: List[VoterScore]
    merged: List[MergeResult]
    pre_flooding: Dict[Pair, float]
    post_flooding: Dict[Pair, float]
    matrix: MappingMatrix
    #: blocking-stage output when the engine ran with blocking enabled
    blocking: Optional[BlockingResult] = None
    #: whether this run reused the previous run's MatchContext
    reused_context: bool = False

    def stage_summary(self) -> List[str]:
        """Human-readable per-stage trace (the Figure-1 bench prints this)."""
        changed = sum(
            1
            for pair, value in self.post_flooding.items()
            if abs(value - self.pre_flooding.get(pair, 0.0)) > 1e-9
        )
        lines = [
            f"linguistic preprocessing: {len(self.context.corpus)} documented elements indexed",
        ]
        if self.blocking is not None:
            lines.append(
                f"candidate blocking: {self.blocking.kept_pairs} of "
                f"{self.blocking.total_pairs} pairs retained "
                f"({self.blocking.pruning_ratio:.0%} pruned)"
            )
        lines.extend(
            [
                f"match voters: {len(self.votes)} votes over "
                f"{len({(v.source_id, v.target_id) for v in self.votes})} candidate pairs",
                f"vote merger: {len(self.merged)} merged confidence scores",
                f"similarity flooding: {changed} scores structurally adjusted",
                f"mapping matrix: {self.matrix.cell_count()} cells populated",
            ]
        )
        return lines


@dataclass
class GraphDelta:
    """What changed between two revisions of one schema graph.

    Computed by :func:`graph_delta` from the engine's cached graph and
    the evolved one — the engine diffs for itself rather than trusting a
    caller-supplied diff, so a stale or partial diff can never leave
    caches silently wrong.  Mirrors ``workbench.versioning.SchemaDiff``
    but lives here to keep ``harmony`` import-independent of
    ``workbench``.
    """

    added: set = field(default_factory=set)
    removed: set = field(default_factory=set)
    #: surviving elements whose name/kind/datatype/annotations changed
    changed: set = field(default_factory=set)
    #: surviving/added elements whose documentation changed (drives the
    #: TF-IDF corpus patch), plus removed ones handled via ``removed``
    doc_changed: set = field(default_factory=set)
    #: endpoints of added/removed edges (any label) — the structurally
    #: dirty elements for PCG patching and path/leaf token invalidation
    structural: set = field(default_factory=set)

    @property
    def is_empty(self) -> bool:
        return not (
            self.added or self.removed or self.changed
            or self.doc_changed or self.structural
        )


def graph_delta(old: SchemaGraph, new: SchemaGraph) -> GraphDelta:
    """Element- and edge-level delta between two graphs (matched by id)."""
    delta = GraphDelta()
    if old is new:
        return delta
    old_ids = set(old.element_ids)
    new_ids = set(new.element_ids)
    delta.added = new_ids - old_ids
    delta.removed = old_ids - new_ids
    for element_id in old_ids & new_ids:
        old_el = old.element(element_id)
        new_el = new.element(element_id)
        if (
            old_el.name != new_el.name
            or old_el.kind != new_el.kind
            or old_el.datatype != new_el.datatype
            or old_el.annotations != new_el.annotations
        ):
            delta.changed.add(element_id)
        if old_el.documentation != new_el.documentation:
            delta.changed.add(element_id)
            delta.doc_changed.add(element_id)
    for element_id in delta.added:
        if new.element(element_id).documentation:
            delta.doc_changed.add(element_id)
    old_edges = {(e.subject, e.label, e.object) for e in old.edges}
    new_edges = {(e.subject, e.label, e.object) for e in new.edges}
    for subject, _, obj in old_edges ^ new_edges:
        delta.structural.add(subject)
        delta.structural.add(obj)
    return delta


def evolution_closure(
    old: SchemaGraph, new: SchemaGraph, delta: GraphDelta
) -> set:
    """Every surviving element whose cached match evidence the delta can
    have touched.

    Beyond the directly changed/added/structurally-rewired elements this
    includes their containment *descendants* (path tokens embed ancestor
    names), their *ancestors* (leaf-token sets embed descendant names),
    ancestors of removed elements, and any attribute referencing a
    changed DOMAIN subtree through a ``has-domain`` edge (domain-value
    evidence).
    """
    from ..core.graph import HAS_DOMAIN

    base = delta.added | delta.changed | delta.structural
    closure = set(base)
    for element_id in base:
        graph = new if element_id in new else (old if element_id in old else None)
        if graph is None:
            continue
        closure.update(el.element_id for el in graph.subtree(element_id))
        closure.update(el.element_id for el in graph.ancestors(element_id))
    for element_id in delta.removed:
        if element_id in old:
            closure.update(el.element_id for el in old.ancestors(element_id))
    # attributes pointing at a touched domain: their coded-value evidence
    # lives in the domain's subtree, not on the attribute itself
    for element_id in list(closure) + sorted(delta.removed):
        for graph in (old, new):
            if element_id in graph:
                for edge in graph.in_edges(element_id, HAS_DOMAIN):
                    closure.add(edge.subject)
    closure -= delta.removed
    return closure


class HarmonyEngine:
    """Bundles the voters, merger and flooding into one matcher."""

    def __init__(
        self,
        voters: Optional[Sequence[MatchVoter]] = None,
        merger: Optional[VoteMerger] = None,
        config: Optional[EngineConfig] = None,
        thesaurus: Optional[Thesaurus] = None,
        corpus_snapshot: Optional[CorpusSnapshot] = None,
        embedding_snapshot: Optional[EmbeddingSnapshot] = None,
    ) -> None:
        self.config = config or EngineConfig()
        self.voters: List[MatchVoter] = (
            list(voters) if voters is not None
            else default_voters(include_embedding=self.config.embedding)
        )
        self.merger = merger if merger is not None else VoteMerger()
        self.thesaurus = thesaurus
        #: shared preprocessed-documentation snapshot (N-way matching):
        #: contexts built by this engine skip the linguistic pipeline for
        #: documents the snapshot covers — bit-identical corpora, built
        #: once in the parent instead of once per schema pair per worker
        self.corpus_snapshot = corpus_snapshot
        #: shared pre-computed embedding table (N-way matching): contexts
        #: built by this engine serve element vectors from it instead of
        #: re-hashing — the same floats, so bit-identical
        self.embedding_snapshot = embedding_snapshot
        #: votes from the most recent run, kept for feedback learning
        self._last_votes: List[VoterScore] = []
        self._last_context: Optional[MatchContext] = None
        #: how many MatchContexts this engine has built (a cache-hit
        #: counter for the refinement-loop reuse path; tests assert on it)
        self.context_builds: int = 0
        #: decisions already learned from — each accept/reject teaches the
        #: engine exactly once (re-learning from the same decision every
        #: re-run would compound weights, the over-crediting the paper's
        #: Section 4.3 warns about)
        self._consumed_decisions: set = set()
        #: compiled-PCG cache for classic flooding (epoch-keyed, patched
        #: incrementally after evolutions)
        self._flooding_state: Optional[FloodingState] = None
        #: persistent blocking index (epoch-keyed key-set cache, patched
        #: after evolutions)
        self._blocking_index: Optional[BlockingIndex] = None
        #: persistent ANN blocking state (``strategy="ann"``): per-element
        #: vectors plus per-family LSH indexes, epoch-keyed and patched
        #: like ``_blocking_index``
        self._embedding_index: Optional[EmbeddingBlockingIndex] = None
        #: resolved sweep backend, memoized per selector so ``auto``
        #: probes importlib once per engine, not once per run
        self._sweep_backend: Optional[SweepBackend] = None
        self._sweep_backend_selector: Optional[str] = None
        #: how many times :meth:`rematch` patched state instead of
        #: rebuilding (tests and perf_smoke assert on it)
        self.rematch_patches: int = 0

    # -- main entry point ----------------------------------------------------

    def match(
        self,
        source: SchemaGraph,
        target: SchemaGraph,
        matrix: Optional[MappingMatrix] = None,
    ) -> MatchRun:
        """Run the full pipeline, writing confidences into *matrix*.

        When *matrix* already holds user decisions (accepted/rejected
        cells), they are (a) left untouched, (b) excluded from flooding
        adjustments, and (c) used as feedback to reweight the voters and
        the bag-of-words vocabulary before scoring.

        With ``reuse_context`` the previous run's context is carried over
        while it still describes the two schemas, judged by content, not
        object identity (:meth:`_reusable_context`).
        """
        if matrix is None:
            matrix = MappingMatrix.from_schemas(source, target)
        context = self._reusable_context(source, target)
        reused = context is not None
        if context is None:
            context = MatchContext(
                source,
                target,
                thesaurus=self.thesaurus,
                corpus_snapshot=self.corpus_snapshot,
                embed_backend=self.config.embed_backend,
                embedding_snapshot=self.embedding_snapshot,
            )
            self.context_builds += 1
            # the persistent indexes key their epochs on (names,
            # revisions), which cannot tell changed content from none;
            # only a carried-over context vouches for them
            for state in (self._flooding_state, self._blocking_index,
                          self._embedding_index):
                if state is not None:
                    state._key = None

        decisions = decisions_from_matrix(matrix.cells())
        fresh_decisions = {
            pair: value for pair, value in decisions.items()
            if pair not in self._consumed_decisions
        }
        if fresh_decisions and self._last_votes:
            update_merger_weights(
                self.merger, self._last_votes, fresh_decisions,
                learning_rate=self.config.learning_rate,
            )
        if fresh_decisions and self.config.learn_word_weights:
            update_word_weights(context.corpus, context, fresh_decisions)
        self._consumed_decisions.update(fresh_decisions)

        for voter in self.voters:
            voter.prepare(context)

        blocking_result: Optional[BlockingResult] = None
        if self.config.blocking is not None:
            blocker = CandidateBlocker(self.config.blocking)
            if self.config.blocking.strategy == STRATEGY_ANN:
                if self._embedding_index is None:
                    self._embedding_index = EmbeddingBlockingIndex()
                persistent = self._embedding_index
            else:
                if self._blocking_index is None:
                    self._blocking_index = BlockingIndex()
                persistent = self._blocking_index
            blocking_result = blocker.candidates(context, persistent)
            candidate_pairs = blocking_result.pairs
        else:
            candidate_pairs = context.candidate_pairs()

        votes = self._score_pairs(candidate_pairs, context, use_cache=reused)

        merged = self.merger.merge(votes)
        pre_flooding: Dict[Pair, float] = {
            (m.source_id, m.target_id): m.confidence for m in merged
        }
        post_flooding = self._flood(source, target, pre_flooding, decisions)

        row_ids = set(matrix.row_ids)
        column_ids = set(matrix.column_ids)
        # flooding can surface pairs outside the matrix axes
        matrix.set_cells(
            (source_id, target_id, confidence)
            for (source_id, target_id), confidence in post_flooding.items()
            if source_id in source and target_id in target
            and source_id in row_ids and target_id in column_ids
        )

        self._last_votes = votes
        self._last_context = context
        return MatchRun(
            context=context,
            votes=votes,
            merged=merged,
            pre_flooding=pre_flooding,
            post_flooding=post_flooding,
            matrix=matrix,
            blocking=blocking_result,
            reused_context=reused,
        )

    # -- context reuse -------------------------------------------------------

    def rematch(
        self,
        source: SchemaGraph,
        target: SchemaGraph,
        matrix: Optional[MappingMatrix] = None,
    ) -> MatchRun:
        """Match after a schema evolution: the same as :meth:`match`,
        which already patches the cached context for whatever changed."""
        return self.match(source, target, matrix)

    def _reusable_context(
        self, source: SchemaGraph, target: SchemaGraph
    ) -> Optional[MatchContext]:
        """The previous run's context brought up to date with *source*
        and *target*, or ``None`` when the run must build one cold.

        New graph objects for the same two schema names (every
        blackboard read returns fresh ones) are diffed against the
        cached graphs.  No change: the context is rebound and keeps its
        voter scores.  A change: every warm cache is patched for it
        (:meth:`_patch_evolution`).  A cached graph mutated in place
        builds cold, since diffing it would miss the mutation.
        """
        context = self._last_context
        if (
            not self.config.reuse_context
            or context is None
            or context.mutated
            or context.source.name != source.name
            or context.target.name != target.name
        ):
            return None
        if source is context.source and target is context.target:
            return context
        source_delta = graph_delta(context.source, source)
        target_delta = graph_delta(context.target, target)
        if source_delta.is_empty and target_delta.is_empty:
            context.rebind(source, target)
            return context
        self._patch_evolution(context, source, target, source_delta, target_delta)
        return context

    def _patch_evolution(
        self,
        context: MatchContext,
        source: SchemaGraph,
        target: SchemaGraph,
        source_delta: GraphDelta,
        target_delta: GraphDelta,
    ) -> None:
        """Patch every warm cache for an evolution from the context's
        graphs to *source* / *target*: token caches and TF-IDF documents
        for exactly the evolution closure (changed elements, their
        containment ancestors/descendants, has-domain referrers), the
        voter scores touching it, and the dirty sets of the compiled
        PCG and blocking indexes.  The surviving entries are exactly
        what a cold run would recompute unchanged, so results equal a
        cold match on the new schemas (the differential suites)."""
        source_closure = evolution_closure(context.source, source, source_delta)
        target_closure = evolution_closure(context.target, target, target_delta)

        context.patch_side("source", source, source_closure, source_delta)
        context.patch_side("target", target, target_closure, target_delta)
        context.rebind(source, target)

        stale_source = source_closure | source_delta.removed
        stale_target = target_closure | target_delta.removed
        if stale_source or stale_target:
            context.score_cache = {
                key: value
                for key, value in context.score_cache.items()
                if key[1] not in stale_source and key[2] not in stale_target
            }
        if self._flooding_state is not None:
            self._flooding_state.note_evolution(
                source_delta.structural | source_delta.added | source_delta.removed,
                target_delta.structural | target_delta.added | target_delta.removed,
            )
        if self._blocking_index is not None:
            # blocking keys embed name/doc/parent/leaf evidence, so the
            # full closure (plus removals) is the stale set — the same
            # one the voter-score cache invalidates on
            self._blocking_index.note_evolution(stale_source, stale_target)
        if self._embedding_index is not None:
            # embeddings hash name/doc evidence, so the same closure
            # (plus removals) is the stale set
            self._embedding_index.note_evolution(stale_source, stale_target)
        self.rematch_patches += 1

    # -- voter scoring ------------------------------------------------------

    def _score_pairs(
        self,
        pairs: Sequence[CandidatePair],
        context: MatchContext,
        use_cache: bool = False,
    ) -> List[VoterScore]:
        """Score candidate pairs with every voter, optionally in parallel.

        Parallel execution chunks the pair list and concatenates chunk
        results in order, so the vote list is identical to a serial run.
        When *use_cache* is set (context reused across refinement rounds)
        previously computed scores are reused; entries from voters whose
        inputs changed (word-weight learning) are invalidated first.
        """
        if use_cache:
            self._invalidate_stale_scores(context)
        else:
            context.score_cache.clear()
        # stamp the corpus state the cache contents are valid for: the
        # word-weight revision (Section 4.3 learning) *and* the document
        # revision (incremental rematch adds/removes/replaces documents,
        # which moves every IDF)
        context._score_cache_corpus_rev = (
            context.corpus.weights_revision,
            context.corpus.revision,
        )
        cache = context.score_cache if self.config.reuse_context else None

        workers = self.config.parallelism
        if workers and workers > 1 and len(pairs) > 1:
            chunk_size = (len(pairs) + workers - 1) // workers
            chunks = [
                pairs[i : i + chunk_size] for i in range(0, len(pairs), chunk_size)
            ]
            with ThreadPoolExecutor(max_workers=workers) as pool:
                parts = list(
                    pool.map(lambda c: self._score_chunk(c, context, cache), chunks)
                )
            votes: List[VoterScore] = []
            for part in parts:
                votes.extend(part)
            return votes
        return self._score_chunk(pairs, context, cache)

    def _score_chunk(
        self,
        pairs: Sequence[CandidatePair],
        context: MatchContext,
        cache: Optional[Dict[Tuple[str, str, str], float]],
    ) -> List[VoterScore]:
        votes: List[VoterScore] = []
        for source_el, target_el in pairs:
            for voter in self.voters:
                if cache is not None:
                    key = (voter.name, source_el.element_id, target_el.element_id)
                    score = cache.get(key)
                    if score is None:
                        score = voter.score(source_el, target_el, context)
                        cache[key] = score
                else:
                    score = voter.score(source_el, target_el, context)
                if score != 0.0:
                    votes.append(
                        VoterScore(
                            voter=voter.name,
                            source_id=source_el.element_id,
                            target_id=target_el.element_id,
                            score=score,
                        )
                    )
        return votes

    def _invalidate_stale_scores(self, context: MatchContext) -> None:
        """Drop cached scores whose inputs changed since the last run.

        The mutable voter inputs are the TF-IDF word-weight table
        (Section 4.3 bag-of-words learning, ``weights_revision``) and the
        corpus document set itself (incremental rematch after evolution,
        ``revision`` — adding or removing a document moves every IDF);
        only voters that declare ``uses_word_weights`` pay the re-score.
        """
        cached_rev = getattr(context, "_score_cache_corpus_rev", None)
        current_rev = (context.corpus.weights_revision, context.corpus.revision)
        if cached_rev != current_rev:
            stale = {v.name for v in self.voters if v.uses_word_weights}
            if stale:
                context.score_cache = {
                    key: value
                    for key, value in context.score_cache.items()
                    if key[0] not in stale
                }

    # -- flooding dispatch ---------------------------------------------------------

    def _flood(
        self,
        source: SchemaGraph,
        target: SchemaGraph,
        scores: Dict[Pair, float],
        decisions: Mapping[Pair, bool],
    ) -> Dict[Pair, float]:
        mode = self.config.flooding
        pinned = set(decisions)
        if mode == FLOODING_OFF or not scores:
            return dict(scores)
        if mode == FLOODING_DIRECTIONAL:
            return directional_flooding_compiled(
                source, target, scores,
                config=self.config.directional, pinned=pinned,
                backend=self._resolve_backend(),
            )
        if mode == FLOODING_CLASSIC:
            positive = {pair: max(0.0, value) for pair, value in scores.items()}
            if self._flooding_state is None:
                self._flooding_state = FloodingState()
            flooded = self._flooding_state.flood(
                source, target, positive, config=self.config.classic,
                backend=self._resolve_backend(),
            )
            blend = self.config.classic_blend
            out: Dict[Pair, float] = {}
            for pair, original in scores.items():
                if pair in pinned:
                    out[pair] = original
                    continue
                structural = flooded.get(pair, 0.0) * 2.0 - 1.0  # [0,1] → [-1,1]
                mixed = (1.0 - blend) * original + blend * structural
                out[pair] = max(-0.99, min(0.99, mixed))
            return out
        raise ValueError(f"unknown flooding mode {mode!r}")

    def _resolve_backend(self) -> SweepBackend:
        """The configured :class:`SweepBackend`, memoized per selector."""
        selector = self.config.sweep_backend
        if self._sweep_backend is None or self._sweep_backend_selector != selector:
            self._sweep_backend = resolve_sweep_backend(selector)
            self._sweep_backend_selector = selector
        return self._sweep_backend

    def voter_names(self) -> List[str]:
        return [voter.name for voter in self.voters]

    # -- observability -------------------------------------------------------

    def fastpath_stats(self) -> Dict[str, object]:
        """Warm-path counters, ``stage_summary``-style but machine-readable.

        Reports how often each persistent cache was reused (hit), patched
        from an evolution delta, or rebuilt cold — plus the process-wide
        bulk-serialization counters from :mod:`repro.rdf.schema_rdf`.
        ``perf_smoke.py`` asserts on these so a silently-broken cache
        fails the build loudly instead of just slowly.
        """
        flooding = self._flooding_state
        blocking = self._blocking_index
        embedding = self._embedding_index
        stats: Dict[str, object] = {
            "context_builds": self.context_builds,
            "rematch_patches": self.rematch_patches,
            "sweep_backend": self._resolve_backend().name,
            "flooding_compiles": flooding.compiles if flooding else 0,
            "flooding_patches": flooding.patches if flooding else 0,
            "flooding_hits": flooding.hits if flooding else 0,
            "blocking_builds": blocking.builds if blocking else 0,
            "blocking_patches": blocking.patches if blocking else 0,
            "blocking_hits": blocking.hits if blocking else 0,
            "embedding_builds": embedding.builds if embedding else 0,
            "embedding_patches": embedding.patches if embedding else 0,
            "embedding_hits": embedding.hits if embedding else 0,
        }
        # process-wide bulk/delta serialization counters live with the
        # serializer; imported lazily to keep harmony → rdf decoupled at
        # import time
        from ..embed.ann import ann_stats
        from ..rdf.schema_rdf import serialization_stats
        from ..text.tfidf_sparse import all_pairs_stats
        from .flooding import sweep_run_stats

        stats.update(serialization_stats())
        stats.update(all_pairs_stats())
        stats.update(sweep_run_stats())
        stats.update(ann_stats())
        return stats
