"""Candidate blocking: cheap retrieval before expensive voter scoring.

The exhaustive pipeline scores every kind-compatible (source, target)
pair with every voter — O(S·T) string comparisons that dominate engine
wall time well before the paper's DoD scale (13,049 elements, Table 1).
Practical matchers insert a *blocking* stage first: an inverted index
over cheap lexical keys retrieves a small candidate set per source
element, and only those pairs reach the voters.

Keys are namespaced so that evidence only matches evidence of the same
type:

* ``n:`` stemmed, abbreviation-expanded name tokens (plus thesaurus
  synonyms, so a synonym rename still shares a key);
* ``g:`` character n-grams of the lowercased name (shared roots:
  ``lname`` / ``lastname``);
* ``d:`` preprocessed documentation terms;
* ``p:`` the containment parent's name tokens (two generically-named
  attributes under similarly-named entities stay candidates);
* ``l:`` stemmed leaf-attribute tokens below containers (an entity
  renamed beyond recognition is still retrieved by its attribute set).

Each source element keeps its ``budget`` best targets per kind family,
ranked by rarity-weighted key overlap (rare keys are worth more, exactly
like IDF).  Ties at the cut keep *all* tied targets, and elements with
no key overlap at all are padded back up to the budget in deterministic
order — the recall budget is a floor, never a filter on its own.

The engine keeps a persistent :class:`BlockingIndex` next to its
``FloodingState``: per-element key sets are cached across runs, and
after a schema evolution only the dirty closure is re-keyed
(:meth:`BlockingIndex.note_evolution`) before the postings are
reassembled in current-graph order — identical retrieval, without
paying key extraction for untouched elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.elements import CONTAINER_KINDS, ElementKind, SchemaElement
from ..core.graph import SchemaGraph
from ..embed import AnnConfig, AnnIndex
from .voters.base import MatchContext

Pair = Tuple[str, str]

#: the token inverted index (the reference blocking path)
STRATEGY_INVERTED = "inverted"
#: dense-embedding ANN retrieval (``repro.embed``), sub-linear per query
STRATEGY_ANN = "ann"
BLOCKING_STRATEGIES = (STRATEGY_INVERTED, STRATEGY_ANN)


@dataclass
class BlockingConfig:
    """Knobs of the candidate blocking stage."""

    #: minimum candidates retained per source element and kind family
    #: (the recall budget) — families at or below this size are never
    #: pruned at all
    budget: int = 12
    #: character n-gram size for the ``g:`` lexical fallback keys
    ngram: int = 3
    #: index preprocessed documentation terms (``d:`` keys)
    index_documentation: bool = True
    #: index thesaurus synonyms of name tokens (extra ``n:`` keys)
    index_synonyms: bool = True
    #: index leaf-attribute tokens of containers (``l:`` keys)
    index_leaves: bool = True
    #: index the containment parent's name tokens (``p:`` keys)
    index_parents: bool = True
    #: which retrieval engine generates candidates: ``"inverted"`` (the
    #: rarity-weighted token inverted index above) or ``"ann"`` (top
    #: ``budget`` targets by hash-projection embedding cosine, served by
    #: the LSH band index in :mod:`repro.embed.ann`)
    strategy: str = STRATEGY_INVERTED
    #: ANN-only: cosine at or above which a retrieved target is kept even
    #: beyond the budget (still capped at 2× budget).  The inverted path
    #: keeps *score ties* with the last admitted target — rarity-weighted
    #: overlap scores tie exactly for same-name targets, so all of them
    #: survive; cosines almost never tie exactly, so without this floor a
    #: same-name target under a differently-named parent gets squeezed
    #: out and recall drops below the inverted path's
    ann_tie_floor: float = 0.5

    def __post_init__(self) -> None:
        if self.strategy not in BLOCKING_STRATEGIES:
            raise ValueError(
                f"unknown blocking strategy {self.strategy!r}; expected "
                f"one of {BLOCKING_STRATEGIES} — 'inverted' is the token "
                f"inverted index, 'ann' retrieves candidates by dense "
                f"embedding cosine through repro.embed"
            )


@dataclass
class BlockingResult:
    """The pruned candidate set plus the numbers the benches report."""

    pairs: List[Tuple[SchemaElement, SchemaElement]]
    #: kind-compatible cross-product size (what exhaustive scoring pays)
    total_pairs: int

    @property
    def kept_pairs(self) -> int:
        return len(self.pairs)

    @property
    def pruning_ratio(self) -> float:
        """Fraction of the exhaustive pair space that was pruned away."""
        if self.total_pairs == 0:
            return 0.0
        return 1.0 - self.kept_pairs / self.total_pairs


def _family(kind: ElementKind) -> str:
    """Kind-compatibility family (mirrors :func:`kinds_comparable`)."""
    if kind in CONTAINER_KINDS:
        return "container"
    return kind.value


def _ngrams(text: str, n: int) -> Set[str]:
    text = text.lower()
    if len(text) <= n:
        return {text} if text else set()
    return {text[i : i + n] for i in range(len(text) - n + 1)}


def _dirty(pending: Optional[Tuple[Set[str], Set[str]]]) -> bool:
    """Whether a noted evolution left element ids to re-key.  A noted
    closure must be applied even on an unchanged epoch: graphs read back
    from the blackboard carry the same revision whatever their content."""
    return pending is not None and bool(pending[0] or pending[1])


class BlockingIndex:
    """Persistent blocking state, patched across schema evolutions.

    Caches the expensive per-element *key sets* (stemming, thesaurus
    expansion, n-grams, corpus term lookups) for both sides, keyed on a
    (graph names, revisions, key-relevant config) epoch — the same warm
    discipline as :class:`~repro.harmony.flooding.FloodingState`.  After
    an evolution the engine calls :meth:`note_evolution` with the dirty
    closure, and the next ensure re-keys only those elements; the
    families/postings structures are then reassembled from the cached
    key sets *in current-graph iteration order*, so retrieval is
    indistinguishable from a cold build (differentially tested in
    ``tests/harmony/test_fastpath.py``).
    """

    def __init__(self) -> None:
        #: source element id → sorted key list (retrieval iterates keys
        #: sorted, so the sort is paid once here)
        self.source_keys: Dict[str, List[str]] = {}
        #: target element id → key set
        self.target_keys: Dict[str, Set[str]] = {}
        # assembled target-side retrieval structures
        self.families: Dict[str, List[SchemaElement]] = {}
        self.postings: Dict[str, Dict[str, List[str]]] = {}
        self.by_id: Dict[str, SchemaElement] = {}
        self._key: Optional[Tuple] = None
        self._pending: Optional[Tuple[Set[str], Set[str]]] = None
        self.builds = 0
        self.patches = 0
        self.hits = 0

    def note_evolution(
        self,
        dirty_source: Iterable[str],
        dirty_target: Iterable[str],
    ) -> None:
        """Mark element ids whose keys may have changed; the next ensure
        re-keys only those (plus adds/removes), whether or not the
        revisions moved."""
        if self._pending is None:
            self._pending = (set(), set())
        self._pending[0].update(dirty_source)
        self._pending[1].update(dirty_target)


class EmbeddingBlockingIndex:
    """Persistent ANN blocking state (``strategy="ann"``), patched
    across schema evolutions.

    The embedding analogue of :class:`BlockingIndex`: per-element
    vectors for both sides plus one :class:`~repro.embed.ann.AnnIndex`
    per target kind family, keyed on a (graph names, revisions,
    embedder+ANN signature) epoch.  After an evolution the engine calls
    :meth:`note_evolution` with the dirty closure and the next ensure
    re-embeds only those elements, patching the family indexes in place
    — structurally identical to a fresh build (the ``AnnIndex`` packs
    its row matrix in sorted-id order regardless of insertion history).
    """

    def __init__(self) -> None:
        self.source_vectors: Dict[str, List[float]] = {}
        self.target_vectors: Dict[str, List[float]] = {}
        #: target element id → kind family currently indexed under
        self.target_family: Dict[str, str] = {}
        #: kind family → ANN index over that family's target vectors
        self.families: Dict[str, AnnIndex] = {}
        #: kind family → target elements in current-graph order (small
        #: families are kept whole in this order, mirroring the
        #: inverted-index path)
        self.family_members: Dict[str, List[SchemaElement]] = {}
        self.by_id: Dict[str, SchemaElement] = {}
        self._key: Optional[Tuple] = None
        self._pending: Optional[Tuple[Set[str], Set[str]]] = None
        self.builds = 0
        self.patches = 0
        self.hits = 0

    def note_evolution(
        self,
        dirty_source: Iterable[str],
        dirty_target: Iterable[str],
    ) -> None:
        """Mark element ids whose embeddings may have changed; the next
        ensure re-embeds only those (plus adds/removes), whether or not
        the revisions moved."""
        if self._pending is None:
            self._pending = (set(), set())
        self._pending[0].update(dirty_source)
        self._pending[1].update(dirty_target)


class CandidateBlocker:
    """Builds the target-side inverted index and retrieves candidates."""

    def __init__(
        self,
        config: Optional[BlockingConfig] = None,
        ann_config: Optional[AnnConfig] = None,
    ) -> None:
        self.config = config or BlockingConfig()
        #: LSH banding scheme for ``strategy="ann"`` retrieval.  The
        #: default raises the exhaustive floor well above AnnConfig's:
        #: blocking must retrieve *mid*-cosine matches (a same-name
        #: attribute under a differently-named parent sits near 0.5,
        #: where a 16×8 band sketch misses ~half the time), so families
        #: below the floor are ranked by exact cosine and the bands only
        #: engage where exhaustive scoring would actually hurt
        self.ann_config = ann_config or AnnConfig(exhaustive_floor=512)

    # -- key extraction ------------------------------------------------------

    def keys_for(
        self, context: MatchContext, graph: SchemaGraph, element: SchemaElement
    ) -> Set[str]:
        """The blocking keys of one element (namespaced, see module doc)."""
        config = self.config
        keys: Set[str] = set()
        name_tokens = context.name_tokens(graph, element)
        for token in name_tokens:
            keys.add(f"n:{token}")
            if config.index_synonyms:
                for synonym in context.thesaurus.synonyms(token):
                    keys.add(f"n:{synonym.lower()}")
        for gram in _ngrams(element.name, config.ngram):
            keys.add(f"g:{gram}")
        if config.index_documentation and element.documentation:
            doc_id = context.doc_id(graph, element)
            for term in context.corpus.terms(doc_id):
                keys.add(f"d:{term}")
        if config.index_parents:
            parent = graph.parent(element.element_id)
            if parent is not None and parent.element_id != graph.root.element_id:
                for token in context.name_tokens(graph, parent):
                    keys.add(f"p:{token}")
        if config.index_leaves and element.kind in CONTAINER_KINDS:
            for token in context.leaf_tokens(graph, element):
                keys.add(f"l:{token}")
        return keys

    # -- persistent index maintenance ---------------------------------------

    def _config_signature(self) -> Tuple:
        """The config fields that feed key extraction (budget is a
        retrieval-time knob and deliberately excluded)."""
        config = self.config
        return (
            config.ngram,
            config.index_documentation,
            config.index_synonyms,
            config.index_leaves,
            config.index_parents,
        )

    def _side_keys(
        self,
        context: MatchContext,
        graph: SchemaGraph,
        stale: Set[str],
        cache: Dict[str, object],
        sort: bool,
    ) -> Dict[str, object]:
        """Key sets for one side, reusing *cache* entries not in *stale*.

        Iterates the current graph, so removed elements drop out and
        added ones are keyed whether or not the closure named them.
        """
        root = graph.root.element_id
        fresh: Dict[str, object] = {}
        for element in graph:
            element_id = element.element_id
            if element_id == root or element.kind is ElementKind.KEY:
                continue
            if element_id in cache and element_id not in stale:
                fresh[element_id] = cache[element_id]
                continue
            keys = self.keys_for(context, graph, element)
            fresh[element_id] = sorted(keys) if sort else keys
        return fresh

    def _assemble(self, context: MatchContext, index: BlockingIndex) -> None:
        """Rebuild families/postings from cached target key sets, in
        current-graph iteration order — cheap relative to key extraction,
        and order-identical to a cold build by construction."""
        target_root = context.target.root.element_id
        families: Dict[str, List[SchemaElement]] = {}
        postings_by_family: Dict[str, Dict[str, List[str]]] = {}
        for element in context.target:
            if element.element_id == target_root or element.kind is ElementKind.KEY:
                continue
            family = _family(element.kind)
            families.setdefault(family, []).append(element)
            postings = postings_by_family.setdefault(family, {})
            for key in index.target_keys[element.element_id]:
                postings.setdefault(key, []).append(element.element_id)
        index.families = families
        index.postings = postings_by_family
        index.by_id = {
            e.element_id: e
            for members in families.values()
            for e in members
        }

    def ensure_index(self, context: MatchContext, index: BlockingIndex) -> None:
        """Bring *index* up to date with the context's graphs: reuse on
        an epoch hit, re-key only the dirty closure after an evolution,
        rebuild from scratch otherwise."""
        key = (
            context.source.name,
            context.target.name,
            context.source.revision,
            context.target.revision,
            self._config_signature(),
        )
        pending = index._pending
        if index._key == key and index.families and not _dirty(pending):
            index._pending = None
            index.hits += 1
            return
        old_key = index._key
        if (
            old_key is not None
            and pending is not None
            and old_key[0] == key[0]
            and old_key[1] == key[1]
            and old_key[4] == key[4]
        ):
            dirty_source, dirty_target = pending
            index.patches += 1
        else:
            dirty_source = set(index.source_keys)
            dirty_target = set(index.target_keys)
            index.source_keys = {}
            index.target_keys = {}
            index.builds += 1
        index.source_keys = self._side_keys(
            context, context.source, dirty_source, index.source_keys, sort=True
        )
        index.target_keys = self._side_keys(
            context, context.target, dirty_target, index.target_keys, sort=False
        )
        self._assemble(context, index)
        index._key = key
        index._pending = None

    # -- ANN (embedding) blocking -------------------------------------------

    @staticmethod
    def _side_elements(
        graph: SchemaGraph,
    ) -> List[SchemaElement]:
        """The blockable elements of one graph (no root, no keys)."""
        root = graph.root.element_id
        return [
            element for element in graph
            if element.element_id != root
            and element.kind is not ElementKind.KEY
        ]

    def _new_ann(self, context: MatchContext) -> AnnIndex:
        embedder = context.embedder
        return AnnIndex(
            embedder.config.dim, self.ann_config, backend=embedder.backend
        )

    def ensure_embedding_index(
        self, context: MatchContext, index: EmbeddingBlockingIndex
    ) -> None:
        """Bring the ANN blocking *index* up to date: reuse on an epoch
        hit, re-embed only the dirty closure after an evolution, rebuild
        from scratch otherwise (the :meth:`ensure_index` discipline)."""
        embedder = context.embedder
        signature = (embedder.signature(), self.ann_config.signature())
        key = (
            context.source.name,
            context.target.name,
            context.source.revision,
            context.target.revision,
            signature,
        )
        pending = index._pending
        if index._key == key and index.families and not _dirty(pending):
            index._pending = None
            index.hits += 1
            return
        old_key = index._key
        patchable = (
            old_key is not None
            and pending is not None
            and old_key[0] == key[0]
            and old_key[1] == key[1]
            and old_key[4] == key[4]
        )
        source_elements = self._side_elements(context.source)
        target_elements = self._side_elements(context.target)
        context.warm_embeddings(context.source, source_elements)
        context.warm_embeddings(context.target, target_elements)
        if patchable:
            dirty_source, dirty_target = pending
            index.patches += 1
            current_source = {e.element_id for e in source_elements}
            for element_id in list(index.source_vectors):
                if element_id not in current_source:
                    del index.source_vectors[element_id]
            for element in source_elements:
                element_id = element.element_id
                if (element_id in dirty_source
                        or element_id not in index.source_vectors):
                    index.source_vectors[element_id] = context.embedding_of(
                        context.source, element)
            current_target = {e.element_id for e in target_elements}
            for element_id in list(index.target_vectors):
                if element_id not in current_target:
                    family = index.target_family.pop(element_id)
                    del index.target_vectors[element_id]
                    ann = index.families.get(family)
                    if ann is not None:
                        ann.remove(element_id)
            for element in target_elements:
                element_id = element.element_id
                if (element_id not in dirty_target
                        and element_id in index.target_vectors):
                    continue
                vector = context.embedding_of(context.target, element)
                family = _family(element.kind)
                old_family = index.target_family.get(element_id)
                if old_family is not None and old_family != family:
                    old_ann = index.families.get(old_family)
                    if old_ann is not None:
                        old_ann.remove(element_id)
                index.target_vectors[element_id] = vector
                index.target_family[element_id] = family
                if family not in index.families:
                    index.families[family] = self._new_ann(context)
                index.families[family].add(element_id, vector)
        else:
            index.builds += 1
            index.source_vectors = {
                element.element_id: context.embedding_of(
                    context.source, element)
                for element in source_elements
            }
            index.target_vectors = {}
            index.target_family = {}
            index.families = {}
            per_family: Dict[str, List[Tuple[str, List[float]]]] = {}
            for element in target_elements:
                vector = context.embedding_of(context.target, element)
                family = _family(element.kind)
                index.target_vectors[element.element_id] = vector
                index.target_family[element.element_id] = family
                per_family.setdefault(family, []).append(
                    (element.element_id, vector))
            for family, items in per_family.items():
                ann = self._new_ann(context)
                ann.add_batch(items)
                index.families[family] = ann
        members: Dict[str, List[SchemaElement]] = {}
        for element in target_elements:
            members.setdefault(_family(element.kind), []).append(element)
        index.family_members = members
        index.by_id = {e.element_id: e for e in target_elements}
        index._key = key
        index._pending = None

    def _candidates_ann(
        self,
        context: MatchContext,
        index: Optional[EmbeddingBlockingIndex] = None,
    ) -> BlockingResult:
        """ANN retrieval: each source element keeps its ``budget`` best
        targets per kind family by embedding cosine (ties at the cut
        kept up to 2× the budget, families at or below the budget kept
        whole — the same recall-floor semantics as the inverted path)."""
        config = self.config
        if index is None:
            index = EmbeddingBlockingIndex()  # ephemeral, built ad hoc
        self.ensure_embedding_index(context, index)
        source_root = context.source.root.element_id
        pairs: List[Tuple[SchemaElement, SchemaElement]] = []
        total = 0
        for source_el in context.source:
            if (source_el.element_id == source_root
                    or source_el.kind is ElementKind.KEY):
                continue
            family = _family(source_el.kind)
            members = index.family_members.get(family, [])
            total += len(members)
            if not members:
                continue
            if len(members) <= config.budget:
                pairs.extend((source_el, target) for target in members)
                continue
            query = index.source_vectors[source_el.element_id]
            ranked = index.families[family].top_k_similar(
                query, 2 * config.budget)
            kept = [target_id for target_id, _ in ranked[: config.budget]]
            if len(ranked) > config.budget:
                # keep score ties with the last admitted target and any
                # strong-evidence candidate at or above the tie floor,
                # but never more than twice the budget (the inverted
                # path's tie policy, adapted to continuous scores)
                cutoff = min(ranked[config.budget - 1][1],
                             config.ann_tie_floor)
                for target_id, score in ranked[config.budget:]:
                    if score < cutoff:
                        break
                    kept.append(target_id)
            pairs.extend((source_el, index.by_id[t]) for t in kept)
        return BlockingResult(pairs=pairs, total_pairs=total)

    # -- retrieval ----------------------------------------------------------

    def candidates(
        self,
        context: MatchContext,
        index: "Optional[BlockingIndex | EmbeddingBlockingIndex]" = None,
    ) -> BlockingResult:
        """The pruned (source, target) pair set, in deterministic order.

        Dispatches on ``config.strategy``: ``"inverted"`` retrieves
        through the token inverted index (*index*, when given, must be a
        :class:`BlockingIndex`), ``"ann"`` through per-family embedding
        ANN indexes (*index* an :class:`EmbeddingBlockingIndex`).  With
        a persistent index, cached state is served warm; without one,
        state is built ad hoc — both paths retrieve identical pairs.
        """
        if self.config.strategy == STRATEGY_ANN:
            return self._candidates_ann(context, index)
        config = self.config
        source_root = context.source.root.element_id

        if index is not None:
            self.ensure_index(context, index)
            families = index.families
            postings_by_family = index.postings
            by_id = index.by_id
            source_keys: Optional[Dict[str, List[str]]] = index.source_keys
        else:
            target_root = context.target.root.element_id
            # index: family → key → target ids (postings in insertion order)
            postings_by_family = {}
            families = {}
            for element in context.target:
                if element.element_id == target_root or element.kind is ElementKind.KEY:
                    continue
                family = _family(element.kind)
                families.setdefault(family, []).append(element)
                postings = postings_by_family.setdefault(family, {})
                for key in self.keys_for(context, context.target, element):
                    postings.setdefault(key, []).append(element.element_id)
            by_id = {
                e.element_id: e
                for members in families.values()
                for e in members
            }
            source_keys = None

        pairs: List[Tuple[SchemaElement, SchemaElement]] = []
        total = 0
        for source_el in context.source:
            if source_el.element_id == source_root or source_el.kind is ElementKind.KEY:
                continue
            family = _family(source_el.kind)
            members = families.get(family, [])
            total += len(members)
            if not members:
                continue
            if len(members) <= config.budget:
                pairs.extend((source_el, t) for t in members)
                continue
            postings = postings_by_family[family]
            # keys matching more than half the family discriminate
            # nothing — skip them like stop words
            stop_df = max(config.budget, len(members) // 2)
            scores: Dict[str, float] = {}
            # sorted so float accumulation order (and thus tie ranking)
            # does not depend on the process hash seed
            if source_keys is not None:
                element_keys = source_keys[source_el.element_id]
            else:
                element_keys = sorted(
                    self.keys_for(context, context.source, source_el)
                )
            for key in element_keys:
                matched = postings.get(key)
                if matched and len(matched) <= stop_df:
                    # rarity weighting: a key shared by few targets is
                    # strong evidence, one shared by most is nearly none
                    weight = 1.0 / len(matched)
                    for target_id in matched:
                        scores[target_id] = scores.get(target_id, 0.0) + weight
            ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
            kept = [target_id for target_id, _ in ranked[: config.budget]]
            if len(ranked) > config.budget:
                # keep score ties with the last admitted target, but never
                # more than twice the budget — huge tie groups carry no
                # ranking signal worth paying voters for
                cutoff = ranked[config.budget - 1][1]
                for target_id, score in ranked[config.budget : 2 * config.budget]:
                    if score < cutoff:
                        break
                    kept.append(target_id)
            if len(kept) < config.budget:
                # pad zero-overlap targets back in, deterministically —
                # the budget is a floor so truly opaque renames still get
                # a chance with the voters
                seen = set(kept)
                for element in members:
                    if element.element_id not in seen:
                        kept.append(element.element_id)
                        seen.add(element.element_id)
                    if len(kept) >= config.budget:
                        break
            pairs.extend((source_el, by_id[t]) for t in kept)
        return BlockingResult(pairs=pairs, total_pairs=total)
