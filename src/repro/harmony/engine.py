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

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.correspondence import VoterScore, validate_confidence
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
    default_sweep_backend,
    directional_flooding_compiled,
)
from .learning import decisions_from_matrix, update_merger_weights, update_word_weights
from .merger import Column, VoteMerger
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
    Where a stage has an accelerated kernel, what is installed picks it,
    not a knob: the flooding sweeps run in C when the ``_csweep``
    extension is built.  The knobs left are behavioural (flooding mode, learning,
    candidate blocking, context reuse, the embedding voter) plus
    ``embed_backend``.  The defaults score the full cross-product and
    rebuild the context every run; :meth:`fast` turns on blocking and
    context reuse.
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
    #: Backends agree to ≤1e-12 (tests/embed/), but unlike the sweep and
    #: cosine kernels this stays a knob: a float difference near zero
    #: can flip an LSH band bit, so ANN blocking may retrieve different
    #: candidates on the two backends
    embed_backend: str = "python"

    @classmethod
    def fast(cls, **overrides) -> "EngineConfig":
        """Blocking, context reuse and the accelerated embedding backend
        on (see docs/performance.md)."""
        defaults = dict(
            blocking=BlockingConfig(),
            reuse_context=True,
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
    #: the scored candidate pairs as (source id, target id)
    pairs: List[Pair]
    #: one (voter name, scores) column per voter, aligned with ``pairs``
    columns: List[Column]
    pre_flooding: Dict[Pair, float]
    post_flooding: Dict[Pair, float]
    matrix: MappingMatrix
    #: blocking-stage output when the engine ran with blocking enabled
    blocking: Optional[BlockingResult] = None
    #: whether this run reused the previous run's MatchContext
    reused_context: bool = False

    @property
    def votes(self) -> List[VoterScore]:
        """Every cast (non-zero) vote, pair by pair in voter order; built
        from the columns on each read."""
        return votes_on(self.pairs, self.columns)

    def stage_summary(self) -> List[str]:
        """Human-readable per-stage trace (the Figure-1 bench prints this)."""
        changed = sum(
            1
            for pair, value in self.post_flooding.items()
            if abs(value - self.pre_flooding.get(pair, 0.0)) > 1e-9
        )
        rows = list(zip(*[scores for _, scores in self.columns]))
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
                f"match voters: {sum(sum(1 for s in row if s) for row in rows)} "
                f"votes over {sum(1 for row in rows if any(row))} candidate pairs",
                f"vote merger: {len(self.pre_flooding)} merged confidence scores",
                f"similarity flooding: {changed} scores structurally adjusted",
                f"mapping matrix: {self.matrix.cell_count()} cells populated",
            ]
        )
        return lines


def votes_on(
    pairs: Sequence[Pair],
    columns: Sequence[Column],
    only: Optional[Mapping[Pair, object]] = None,
) -> List[VoterScore]:
    """The cast votes of score *columns* over *pairs* as
    :class:`VoterScore` objects, pair by pair in voter order; with
    *only*, just the votes on pairs it contains."""
    votes: List[VoterScore] = []
    for index, pair in enumerate(pairs):
        if only is not None and pair not in only:
            continue
        for name, scores in columns:
            score = scores[index]
            if score != 0.0:
                votes.append(VoterScore(name, pair[0], pair[1], score))
    return votes


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


def _checked(scores: List[float]) -> List[float]:
    """*scores*, once every one is a legal confidence in [-1, +1]."""
    if not all(-1.0 <= score <= 1.0 for score in scores):
        for score in scores:
            validate_confidence(score)
    return scores


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
        #: the most recent run's pairs and score columns, kept for
        #: feedback learning
        self._last_scores: Tuple[List[Pair], List[Column]] = ([], [])
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
        if fresh_decisions:
            # the votes on the decided pairs, in the order the run cast them
            update_merger_weights(
                self.merger, votes_on(*self._last_scores, only=fresh_decisions),
                fresh_decisions, learning_rate=self.config.learning_rate,
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

        pairs = [(s.element_id, t.element_id) for s, t in candidate_pairs]
        columns = self._score_columns(
            candidate_pairs, pairs, context, use_cache=reused)
        pre_flooding = self.merger.merge_columns(pairs, columns)
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

        self._last_scores = (pairs, columns)
        self._last_context = context
        return MatchRun(
            context=context,
            pairs=pairs,
            columns=columns,
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
        graphs to *source* / *target*: feature records and TF-IDF documents
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
                name: {
                    pair: score for pair, score in scores.items()
                    if pair[0] not in stale_source and pair[1] not in stale_target
                }
                for name, scores in context.score_cache.items()
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

    def _score_columns(
        self,
        candidates: Sequence[CandidatePair],
        pairs: List[Pair],
        context: MatchContext,
        use_cache: bool = False,
    ) -> List[Column]:
        """One score column per voter over the candidate pairs (*pairs*
        holds their ids).

        With ``reuse_context`` each voter's scores are kept per pair on
        the context, and a reused context only scores the pairs its
        columns lack; columns of voters whose inputs changed (word-weight
        learning) are dropped first.  A score outside [-1, +1] raises
        :class:`~repro.core.errors.MappingError`.
        """
        if use_cache:
            self._invalidate_stale_scores(context)
        else:
            context.score_cache.clear()
        # stamp the corpus state the cache contents are valid for: the
        # word-weight revision (Section 4.3 learning) *and* the document
        # revision (incremental rematch adds/removes/replaces documents,
        # which moves every IDF)
        context.score_cache_corpus_rev = (
            context.corpus.weights_revision,
            context.corpus.revision,
        )
        reuse = self.config.reuse_context
        columns: List[Column] = []
        for voter in self.voters:
            known = context.score_cache.get(voter.name) if reuse else None
            if not known:
                column = _checked(voter.score_pairs(candidates, context))
                if reuse:
                    context.score_cache[voter.name] = dict(zip(pairs, column))
            else:
                missing = [i for i, pair in enumerate(pairs) if pair not in known]
                if missing:
                    fresh = _checked(voter.score_pairs(
                        [candidates[i] for i in missing], context))
                    for i, score in zip(missing, fresh):
                        known[pairs[i]] = score
                column = [known[pair] for pair in pairs]
            columns.append((voter.name, column))
        return columns

    def _invalidate_stale_scores(self, context: MatchContext) -> None:
        """Drop cached scores whose inputs changed since the last run.

        The mutable voter inputs are the TF-IDF word-weight table
        (Section 4.3 bag-of-words learning, ``weights_revision``) and the
        corpus document set itself (incremental rematch after evolution,
        ``revision`` — adding or removing a document moves every IDF);
        only voters that declare ``uses_word_weights`` pay the re-score.
        """
        current_rev = (context.corpus.weights_revision, context.corpus.revision)
        if context.score_cache_corpus_rev != current_rev:
            for voter in self.voters:
                if voter.uses_word_weights:
                    context.score_cache.pop(voter.name, None)

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
            )
        if mode == FLOODING_CLASSIC:
            positive = {pair: max(0.0, value) for pair, value in scores.items()}
            if self._flooding_state is None:
                self._flooding_state = FloodingState()
            flooded = self._flooding_state.flood(
                source, target, positive, config=self.config.classic,
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
            "sweep_backend": default_sweep_backend().name,
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
