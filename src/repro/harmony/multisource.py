"""Multi-source matching and target-schema derivation.

Section 3.2: *"As noted in [8], in the absence of a target schema,
correspondences can also be established between pairs of (or across sets
of) source schemata."*  And task 2's optional case / task 9's fallback:
*"the target schema may be derived from the correspondences identified
among the source schemata"* / *"If a target schema was not specified, the
final step is to generate the target schema based on the logical
mappings."*

Pipeline:

1. :func:`match_all_pairs` — run a matcher over every source pair;
2. :func:`cluster_elements` — union-find over the strong links, yielding
   clusters of elements that denote the same concept (kind-family
   respected: containers cluster with containers, attributes with
   attributes, domains with domains);
3. :func:`derive_target_schema` — synthesize a unified schema: one entity
   per container cluster, its attributes from the attribute clusters whose
   members live under the cluster's members, merged documentation, merged
   coding schemes — plus per-source mapping matrices with the derived
   correspondences pre-accepted, ready for the mapping phase.

Registry scale
--------------

The paper's motivating workload is MITRE's metadata registry — 265 ER
models (Table 1) — where the pair space is N·(N−1)/2 ≈ 35k engine runs.
Three levers make that tractable, all defaulting off so the serial
exhaustive behavior stays bit-identical unless a caller opts in:

* **process-pool fan-out** — ``match_all_pairs(parallelism=k)`` chunks
  the pair list across *k* worker processes, each holding one
  per-process :class:`~repro.harmony.engine.HarmonyEngine` whose warm
  caches (kernel memos, thesaurus, blocking machinery) are reused across
  its whole batch.  Per-pair matrices are bit-identical to the serial
  loop and the result dict is assembled in canonical pair-enumeration
  order, so pair scheduling can never leak into downstream clustering;
* **shared-corpus sharding** — :func:`snapshot_corpus` preprocesses
  every schema's documentation exactly once in the parent
  (:class:`~repro.text.tfidf.CorpusSnapshot`) and ships the compact
  snapshot to workers, whose per-pair TF-IDF corpora rehydrate from it
  instead of re-running tokenize → stop-words → stem per partner schema;
* **hub-schema pruning** — :func:`select_pairs` ranks pairs by a cheap
  schema-level token-profile cosine and keeps hub pairs, per-schema best
  partners and the globally strongest pairs up to a ``pair_budget``, so
  the effective pair count grows ~N·k instead of N² while union-find
  transitivity through the hubs preserves cross-schema clusters
  (recall measured against exhaustive by ``cluster_pair_f1``).
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..baselines.base import Matcher
from ..core.correspondence import Correspondence
from ..core.elements import CONTAINER_KINDS, ElementKind, SchemaElement
from ..core.errors import SchemaError
from ..core.graph import HAS_DOMAIN, SchemaGraph
from ..core.matrix import MappingMatrix
from ..embed import EmbeddingSnapshot
from ..text.stemmer import stem
from ..text.tfidf import CorpusSnapshot, cosine_of_counts, preprocess
from ..text.tokenize import split_identifier

#: A schema-qualified element reference.
Ref = Tuple[str, str]  # (schema name, element id)

#: An unordered schema pair, as indexes into the caller's schema list.
IndexPair = Tuple[int, int]


@dataclass
class MultiSourceResult:
    """Everything multi-source integration produces."""

    #: pairwise matrices, keyed by (source schema, target schema) names
    matrices: Dict[Tuple[str, str], MappingMatrix] = field(default_factory=dict)
    #: concept clusters over schema-qualified element refs
    clusters: List[List[Ref]] = field(default_factory=list)
    #: the derived unified schema (None until derive_target_schema ran)
    target: Optional[SchemaGraph] = None
    #: per-source matrices against the derived target, links pre-accepted
    source_to_target: Dict[str, MappingMatrix] = field(default_factory=dict)
    #: the pair pre-selection that produced ``matrices`` (None = exhaustive)
    selection: Optional["PairSelection"] = None
    #: lazily built ``(schema, element) → cluster position`` lookup index;
    #: rebuilt automatically when ``clusters`` is reassigned
    _cluster_index: Optional[Dict[Ref, int]] = field(
        default=None, init=False, repr=False, compare=False)
    _indexed_clusters: Optional[List[List[Ref]]] = field(
        default=None, init=False, repr=False, compare=False)

    def cluster_of(self, schema_name: str, element_id: str) -> Optional[List[Ref]]:
        """The cluster containing an element — O(1) via a cached index.

        Registry-scale results hold tens of thousands of clusters; the
        index is built once on first lookup (and rebuilt if ``clusters``
        is replaced) instead of scanning every cluster per call.
        """
        if self._cluster_index is None or self._indexed_clusters is not self.clusters:
            self._cluster_index = {
                ref: position
                for position, cluster in enumerate(self.clusters)
                for ref in cluster
            }
            self._indexed_clusters = self.clusters
        position = self._cluster_index.get((schema_name, element_id))
        if position is None:
            return None
        return self.clusters[position]


# -- shared-corpus snapshot ---------------------------------------------------


def snapshot_corpus(schemas: Sequence[SchemaGraph]) -> CorpusSnapshot:
    """Preprocess every schema's documentation once, for sharing.

    Document ids follow the :class:`~repro.harmony.voters.MatchContext`
    convention (``"<schema>::<element id>"``), so a context built with
    this snapshot rehydrates its per-pair corpus without re-running the
    linguistic pipeline — the single redundant cost that otherwise grows
    O(N) per schema across an N-way workload.
    """
    documents: Dict[str, str] = {}
    for graph in schemas:
        for element in graph:
            if element.documentation:
                documents[f"{graph.name}::{element.element_id}"] = (
                    element.documentation)
    return CorpusSnapshot.build(documents)


def _uses_embeddings(engine_config) -> bool:
    """Whether a config makes engines touch dense embeddings at all."""
    if engine_config is None:
        return False
    from .blocking import STRATEGY_ANN

    return bool(
        engine_config.embedding
        or (
            engine_config.blocking is not None
            and engine_config.blocking.strategy == STRATEGY_ANN
        )
    )


def snapshot_embeddings(
    schemas: Sequence[SchemaGraph],
    *,
    engine_config=None,
    corpus_snapshot: Optional[CorpusSnapshot] = None,
    thesaurus=None,
) -> EmbeddingSnapshot:
    """Embed every schema element once, for sharing across workers.

    The dense analogue of :func:`snapshot_corpus`: element vectors are
    pure functions of the element (name pipeline + documentation terms
    + the embedder config), so one table computed in the parent serves
    every pair context in every worker — the same floats, hence
    bit-identical matrices.  Built with each schema self-paired in a
    throwaway :class:`~repro.harmony.voters.MatchContext` so tokens ride
    exactly the per-pair pipeline (thesaurus expansion included; pass
    the engines' *thesaurus* if they use a custom one).
    """
    from .engine import EngineConfig
    from .voters.base import MatchContext

    config = engine_config if engine_config is not None else EngineConfig()
    vectors: Dict[str, Tuple[float, ...]] = {}
    signature: Tuple = ()
    for graph in schemas:
        context = MatchContext(
            graph,
            graph,
            thesaurus=thesaurus,
            corpus_snapshot=corpus_snapshot,
            embed_backend=config.embed_backend,
        )
        root = graph.root.element_id
        elements = [
            element for element in graph
            if element.element_id != root
            and element.kind is not ElementKind.KEY
        ]
        context.warm_embeddings(graph, elements)
        signature = context.embedder.signature()
        for element in elements:
            vectors[f"{graph.name}::{element.element_id}"] = tuple(
                context.embedding_of(graph, element))
    return EmbeddingSnapshot(vectors, signature)


# -- hub-schema pair pruning --------------------------------------------------


def schema_token_profile(
    graph: SchemaGraph, snapshot: Optional[CorpusSnapshot] = None
) -> Dict[str, int]:
    """A schema-level bag of stemmed tokens (names + documentation terms).

    The cheap signature the pruning pre-pass compares: element-name
    tokens plus preprocessed documentation terms, counted over the whole
    schema.  With *snapshot* the documentation terms come from the shared
    :class:`~repro.text.tfidf.CorpusSnapshot` instead of re-running the
    pipeline.
    """
    bag: Counter = Counter()
    root = graph.root.element_id
    for element in graph:
        if element.element_id == root:
            continue
        for token in split_identifier(element.name):
            bag[stem(token)] += 1
        if element.documentation:
            doc = f"{graph.name}::{element.element_id}"
            if snapshot is not None and doc in snapshot:
                bag.update(snapshot.counts(doc))
            else:
                bag.update(preprocess(element.documentation))
    return dict(bag)


@dataclass
class PairSelection:
    """Which schema pairs N-way matching will actually score."""

    #: the kept pairs, as (i, j) indexes (i < j) into the schema list,
    #: in canonical enumeration order
    pairs: List[IndexPair]
    #: token-profile cosine per *kept* pair
    similarity: Dict[IndexPair, float]
    #: schema indexes chosen as hubs (every schema is paired with each)
    hubs: List[int]
    #: exhaustive pair-space size the selection was drawn from
    total_pairs: int

    @property
    def kept_pairs(self) -> int:
        return len(self.pairs)

    @property
    def pruning_ratio(self) -> float:
        """Fraction of the exhaustive pair space skipped."""
        if self.total_pairs == 0:
            return 0.0
        return 1.0 - self.kept_pairs / self.total_pairs


def select_pairs(
    schemas: Sequence[SchemaGraph],
    pair_budget: Optional[int] = None,
    hub_count: int = 2,
    partners_per_schema: int = 3,
    snapshot: Optional[CorpusSnapshot] = None,
) -> PairSelection:
    """The hub-schema pruning pre-pass: rank pairs, keep ~N·k of N².

    A token-profile cosine (:func:`schema_token_profile`) scores every
    pair in one cheap sweep — O(N²) vector dot products, not engine
    runs.  Kept pairs are the union of

    * **hub pairs** — the *hub_count* schemas with the highest total
      profile similarity are matched against every other schema, so
      every schema reaches every concept cluster through at most one
      hop of union-find transitivity;
    * **best partners** — each schema keeps its *partners_per_schema*
      most similar partners, preserving local cluster signal between
      non-hub look-alikes;
    * **budget fill** — remaining globally strongest pairs until
      *pair_budget* (when given); the hub/partner guarantees are a
      floor, never trimmed to fit the budget.

    Everything is deterministic: ties rank by schema name.
    """
    n = len(schemas)
    profiles = [schema_token_profile(graph, snapshot) for graph in schemas]
    similarity: Dict[IndexPair, float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            similarity[(i, j)] = cosine_of_counts(profiles[i], profiles[j])
    total = n * (n - 1) // 2

    names = [graph.name for graph in schemas]
    hubness = [0.0] * n
    for (i, j), value in similarity.items():
        hubness[i] += value
        hubness[j] += value
    hubs = sorted(range(n), key=lambda i: (-hubness[i], names[i]))
    hubs = sorted(hubs[: max(0, min(hub_count, n - 1))])

    keep: set = set()
    for hub in hubs:
        for i in range(n):
            if i != hub:
                keep.add((min(i, hub), max(i, hub)))
    if partners_per_schema > 0:
        partners_of: Dict[int, List[int]] = {i: [] for i in range(n)}
        for i in range(n):
            others = [j for j in range(n) if j != i]
            others.sort(
                key=lambda j: (-similarity[(min(i, j), max(i, j))], names[j]))
            partners_of[i] = others[:partners_per_schema]
        for i, partners in partners_of.items():
            for j in partners:
                keep.add((min(i, j), max(i, j)))
    if pair_budget is not None and len(keep) < pair_budget:
        ranked = sorted(
            similarity.items(),
            key=lambda item: (-item[1], names[item[0][0]], names[item[0][1]]),
        )
        for pair, _ in ranked:
            if len(keep) >= pair_budget:
                break
            keep.add(pair)

    pairs = sorted(keep)
    return PairSelection(
        pairs=pairs,
        similarity={pair: similarity[pair] for pair in pairs},
        hubs=hubs,
        total_pairs=total,
    )


def cluster_pair_f1(
    predicted: Sequence[Sequence[Ref]], reference: Sequence[Sequence[Ref]]
) -> float:
    """Pairwise F1 of one clustering against another.

    Both clusterings are reduced to their sets of unordered same-cluster
    element pairs; F1 is the harmonic mean of precision and recall of
    *predicted*'s pair set against *reference*'s.  Two identical
    clusterings (or two all-singleton ones) score 1.0.  This is the
    recall-vs-exhaustive measure for hub-pruned N-way matching.
    """

    def pair_set(clusters: Sequence[Sequence[Ref]]) -> set:
        pairs = set()
        for cluster in clusters:
            members = sorted(cluster)
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    pairs.add((members[a], members[b]))
        return pairs

    predicted_pairs = pair_set(predicted)
    reference_pairs = pair_set(reference)
    if not predicted_pairs and not reference_pairs:
        return 1.0
    if not predicted_pairs or not reference_pairs:
        return 0.0
    true_positive = len(predicted_pairs & reference_pairs)
    precision = true_positive / len(predicted_pairs)
    recall = true_positive / len(reference_pairs)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


# -- pairwise matching (serial and process-pool) ------------------------------

#: per-worker-process state: schemas and the warm matcher, set once by the
#: pool initializer and reused across every batch the worker receives
_WORKER_STATE: Dict[str, object] = {}


def _build_matcher(
    matcher: Optional[Matcher],
    engine_config,
    snapshot: Optional[CorpusSnapshot],
    embedding_snapshot: Optional[EmbeddingSnapshot] = None,
) -> Matcher:
    """The matcher a (serial loop or worker process) runs its batch on."""
    if matcher is not None:
        return matcher
    from ..baselines.base import HarmonyMatcher
    from .engine import EngineConfig, HarmonyEngine

    config = engine_config if engine_config is not None else EngineConfig()
    return HarmonyMatcher(
        HarmonyEngine(config=config, corpus_snapshot=snapshot,
                      embedding_snapshot=embedding_snapshot))


def _init_nway_worker(
    schemas: Sequence[SchemaGraph],
    matcher: Optional[Matcher],
    engine_config,
    snapshot: Optional[CorpusSnapshot],
    embedding_snapshot: Optional[EmbeddingSnapshot] = None,
) -> None:
    """Pool initializer: one warm engine per process, shared snapshot."""
    _WORKER_STATE["schemas"] = list(schemas)
    _WORKER_STATE["matcher"] = _build_matcher(
        matcher, engine_config, snapshot, embedding_snapshot)


def _match_pair_batch(
    batch: Sequence[IndexPair],
) -> List[Tuple[int, int, MappingMatrix]]:
    """Match one chunk of schema pairs on this worker's warm matcher."""
    schemas: List[SchemaGraph] = _WORKER_STATE["schemas"]  # type: ignore[assignment]
    matcher: Matcher = _WORKER_STATE["matcher"]  # type: ignore[assignment]
    out: List[Tuple[int, int, MappingMatrix]] = []
    for i, j in batch:
        out.append((i, j, matcher.match(schemas[i], schemas[j])))
    return out


def _resolve_pair_list(
    schemas: Sequence[SchemaGraph],
    selection,
) -> List[IndexPair]:
    """The (i, j) pairs to match, in canonical enumeration order."""
    n = len(schemas)
    if selection is None:
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs = selection.pairs if isinstance(selection, PairSelection) else selection
    resolved: List[IndexPair] = []
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise SchemaError(f"pair selection references invalid pair ({i}, {j})")
        resolved.append((min(i, j), max(i, j)))
    return sorted(set(resolved))


def match_all_pairs(
    schemas: Sequence[SchemaGraph],
    matcher: Optional[Matcher] = None,
    *,
    parallelism: int = 1,
    engine_config=None,
    selection=None,
    share_corpus: bool = True,
    corpus_snapshot: Optional[CorpusSnapshot] = None,
    embedding_snapshot: Optional[EmbeddingSnapshot] = None,
    chunk_size: Optional[int] = None,
) -> Dict[Tuple[str, str], MappingMatrix]:
    """Match source-schema pairs (first-listed is the row side).

    By default every unordered pair is matched serially on one warm
    matcher, exactly as before.  The registry-scale knobs:

    * ``parallelism`` — with ``k > 1``, the pair list is chunked across
      *k* worker processes (``ProcessPoolExecutor``), each holding one
      per-process engine whose caches warm over its whole batch.  With
      ``matcher=None`` the workers run ``EngineConfig.fast()`` unless
      ``engine_config`` says otherwise; pass the same ``engine_config``
      to the serial and parallel paths to get bit-identical matrices.
      The result dict is always assembled in canonical pair-enumeration
      order, so scheduling never leaks into iteration order;
    * ``engine_config`` — the :class:`~repro.harmony.engine.EngineConfig`
      for the default Harmony matcher (both serial and parallel paths);
    * ``selection`` — a :class:`PairSelection` (or iterable of ``(i, j)``
      index pairs) restricting which pairs are matched; see
      :func:`select_pairs`;
    * ``share_corpus`` / ``corpus_snapshot`` — build (or reuse) one
      :class:`~repro.text.tfidf.CorpusSnapshot` of every schema's
      preprocessed documentation and share it with every engine, so
      per-pair corpus builds skip the linguistic pipeline;
    * ``embedding_snapshot`` — likewise for dense embeddings: when the
      engine config touches them (``embedding`` voter or
      ``BlockingConfig(strategy="ann")``), one
      :func:`snapshot_embeddings` table is built (or reused) and shared,
      so workers serve element vectors instead of re-hashing per pair;
    * ``chunk_size`` — pairs per worker batch (default: pair count /
      (4·parallelism), so slow chunks load-balance).

    A custom picklable ``matcher`` is shipped to the workers as-is.
    """
    pair_list = _resolve_pair_list(schemas, selection)
    snapshot = corpus_snapshot
    if snapshot is None and share_corpus and matcher is None and pair_list:
        snapshot = snapshot_corpus(schemas)

    matrices: Dict[Tuple[str, str], MappingMatrix] = {}
    if parallelism <= 1 or len(pair_list) <= 1:
        embed_snapshot = embedding_snapshot
        if (embed_snapshot is None and share_corpus and matcher is None
                and pair_list and _uses_embeddings(engine_config)):
            embed_snapshot = snapshot_embeddings(
                schemas, engine_config=engine_config,
                corpus_snapshot=snapshot)
        serial_matcher = _build_matcher(
            matcher, engine_config, snapshot, embed_snapshot)
        for i, j in pair_list:
            source, target = schemas[i], schemas[j]
            matrices[(source.name, target.name)] = serial_matcher.match(
                source, target)
        return matrices

    if engine_config is None and matcher is None:
        from .engine import EngineConfig

        engine_config = EngineConfig.fast()
    embed_snapshot = embedding_snapshot
    if (embed_snapshot is None and share_corpus and matcher is None
            and _uses_embeddings(engine_config)):
        embed_snapshot = snapshot_embeddings(
            schemas, engine_config=engine_config, corpus_snapshot=snapshot)
    if chunk_size is None:
        chunk_size = max(1, (len(pair_list) + parallelism * 4 - 1)
                         // (parallelism * 4))
    chunks = [
        pair_list[start : start + chunk_size]
        for start in range(0, len(pair_list), chunk_size)
    ]
    by_index: Dict[IndexPair, MappingMatrix] = {}
    with ProcessPoolExecutor(
        max_workers=parallelism,
        initializer=_init_nway_worker,
        initargs=(list(schemas), matcher, engine_config, snapshot,
                  embed_snapshot),
    ) as pool:
        for part in pool.map(_match_pair_batch, chunks):
            for i, j, matrix in part:
                by_index[(i, j)] = matrix
    for i, j in pair_list:  # canonical order, independent of scheduling
        matrices[(schemas[i].name, schemas[j].name)] = by_index[(i, j)]
    return matrices


class _UnionFind:
    def __init__(self) -> None:
        self._parent: Dict[Ref, Ref] = {}
        #: memoized members() result — registry-scale clustering calls it
        #: after every union batch, and re-finding every root per call is
        #: quadratic; the cache dies on any mutation (new ref or union)
        self._members: Optional[Dict[Ref, List[Ref]]] = None

    def find(self, ref: Ref) -> Ref:
        if ref not in self._parent:
            self._parent[ref] = ref
            self._members = None
        root = ref
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[ref] != root:  # path compression
            self._parent[ref], ref = root, self._parent[ref]
        return root

    def union(self, a: Ref, b: Ref) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # the min ref always wins the root, so the final partition
            # (and every root) is independent of union order — the
            # property serial-vs-parallel determinism rests on
            self._parent[max(ra, rb)] = min(ra, rb)
            self._members = None

    def members(self) -> Dict[Ref, List[Ref]]:
        if self._members is None:
            groups: Dict[Ref, List[Ref]] = {}
            for ref in self._parent:
                groups.setdefault(self.find(ref), []).append(ref)
            self._members = groups
        return self._members


def _kind_family(kind: ElementKind) -> str:
    if kind in CONTAINER_KINDS:
        return "container"
    return kind.value


def cluster_elements(
    schemas: Sequence[SchemaGraph],
    matrices: Mapping[Tuple[str, str], MappingMatrix],
    threshold: float = 0.5,
    mutual_best: bool = True,
) -> List[List[Ref]]:
    """Union strong cross-schema links into concept clusters.

    With *mutual_best* (the default) a link only unions its endpoints when
    each is the other's top match within that schema pair — union-find is
    transitive, and without this guard one second-best link chains whole
    concepts together.  Every element of every schema appears in exactly
    one cluster (singletons included), so the derived schema loses
    nothing.  DOMAIN_VALUE elements are not clustered directly: they
    follow their coding scheme (derive_target_schema merges codes by
    name within a domain cluster).

    The output is independent of pair enumeration order: union-find
    seeds iterate the schema list, matrices are consumed in sorted-key
    order, and the union rule roots every component at its minimum ref —
    so serial and process-pool :func:`match_all_pairs` results cluster
    identically however their dicts were assembled.
    """
    by_name = {graph.name: graph for graph in schemas}
    uf = _UnionFind()
    for graph in schemas:
        root = graph.root.element_id
        for element in graph:
            if element.element_id == root:
                continue
            if element.kind in (ElementKind.KEY, ElementKind.DOMAIN_VALUE):
                continue
            uf.find((graph.name, element.element_id))
    for source_name, target_name in sorted(matrices):
        matrix = matrices[(source_name, target_name)]
        source = by_name.get(source_name)
        target = by_name.get(target_name)
        if source is None or target is None:
            raise SchemaError(
                f"matrix {matrix.name!r} references unknown schema "
                f"{source_name!r}/{target_name!r}"
            )
        candidates: List[Correspondence] = []
        for cell in matrix.cells():
            if cell.confidence < threshold:
                continue
            source_el = source.get(cell.source_id)
            target_el = target.get(cell.target_id)
            if source_el is None or target_el is None:
                continue
            if source_el.kind is ElementKind.DOMAIN_VALUE:
                continue
            if _kind_family(source_el.kind) != _kind_family(target_el.kind):
                continue
            candidates.append(cell)
        if mutual_best:
            best_for_source: Dict[str, float] = {}
            best_for_target: Dict[str, float] = {}
            for cell in candidates:
                best_for_source[cell.source_id] = max(
                    best_for_source.get(cell.source_id, -2.0), cell.confidence)
                best_for_target[cell.target_id] = max(
                    best_for_target.get(cell.target_id, -2.0), cell.confidence)
            candidates = [
                cell for cell in candidates
                if cell.confidence == best_for_source[cell.source_id]
                and cell.confidence == best_for_target[cell.target_id]
            ]
        for cell in candidates:
            uf.union((source_name, cell.source_id), (target_name, cell.target_id))
    clusters = sorted(
        (sorted(group) for group in uf.members().values()),
        key=lambda c: c[0],
    )
    return [list(cluster) for cluster in clusters]


def _representative_name(members: Sequence[SchemaElement]) -> str:
    """Most frequent name (ties: most tokens, then lexicographic) — the
    name users of the unified schema will most likely recognize."""
    counts: Dict[str, int] = {}
    for element in members:
        counts[element.name] = counts.get(element.name, 0) + 1
    return max(
        counts,
        key=lambda name: (counts[name], len(split_identifier(name)), name),
    )


def _merged_documentation(members: Sequence[SchemaElement]) -> str:
    """Longest documentation wins; others usually paraphrase it."""
    docs = sorted(
        {e.documentation.strip() for e in members if e.has_documentation},
        key=len, reverse=True,
    )
    return docs[0] if docs else ""


def _merged_datatype(members: Sequence[SchemaElement]) -> Optional[str]:
    types = [e.datatype for e in members if e.datatype]
    if not types:
        return None
    # most common; ties resolved toward 'string' (the safe supertype)
    counts: Dict[str, int] = {}
    for datatype in types:
        counts[datatype] = counts.get(datatype, 0) + 1
    best = max(counts.values())
    candidates = sorted(t for t, n in counts.items() if n == best)
    return "string" if len(candidates) > 1 and "string" in candidates else candidates[0]


def derive_target_schema(
    schemas: Sequence[SchemaGraph],
    clusters: Sequence[Sequence[Ref]],
    name: str = "unified",
) -> MultiSourceResult:
    """Synthesize the unified schema and the source→target matrices.

    Container clusters become entities; an attribute cluster attaches under
    the entity whose cluster contains any member's containment parent;
    domain clusters merge their value code sets.  Derived correspondences
    arrive pre-accepted in per-source matrices (they *are* decisions — the
    clusters came from them).
    """
    by_name = {graph.name: graph for graph in schemas}
    result = MultiSourceResult(clusters=[list(c) for c in clusters])
    target = SchemaGraph.create(name)

    def elements_of(cluster: Sequence[Ref]) -> List[SchemaElement]:
        return [by_name[s].element(e) for s, e in cluster]

    # index: member ref -> its cluster id (position)
    cluster_of_ref: Dict[Ref, int] = {}
    for index, cluster in enumerate(clusters):
        for ref in cluster:
            cluster_of_ref[ref] = index

    derived_id_of_cluster: Dict[int, str] = {}
    used_names: Dict[str, int] = {}

    def fresh_id(parent_id: str, base_name: str) -> str:
        candidate = f"{parent_id}/{base_name}"
        if candidate not in target:
            return candidate
        used_names[candidate] = used_names.get(candidate, 1) + 1
        return f"{candidate}#{used_names[candidate]}"

    # pass 1: container clusters -> entities under the root
    container_clusters = [
        (index, cluster) for index, cluster in enumerate(clusters)
        if elements_of(cluster)[0].kind in CONTAINER_KINDS
    ]
    for index, cluster in container_clusters:
        members = elements_of(cluster)
        entity_name = _representative_name(members)
        entity_id = fresh_id(name, entity_name)
        target.add_child(
            name,
            SchemaElement(entity_id, entity_name, ElementKind.ENTITY,
                          documentation=_merged_documentation(members)),
            label="contains-element",
        )
        derived_id_of_cluster[index] = entity_id

    # pass 2: domain clusters -> merged coding schemes under the root
    domain_clusters = [
        (index, cluster) for index, cluster in enumerate(clusters)
        if elements_of(cluster)[0].kind is ElementKind.DOMAIN
    ]
    for index, cluster in domain_clusters:
        members = elements_of(cluster)
        domain_name = _representative_name(members)
        domain_id = fresh_id(name, f"domain:{domain_name}").replace(
            f"{name}/domain:", f"{name}/domain:")
        if domain_id in target:
            continue
        target.add_child(
            name,
            SchemaElement(domain_id, domain_name, ElementKind.DOMAIN,
                          datatype=_merged_datatype(members),
                          documentation=_merged_documentation(members)),
            label="contains-element",
        )
        derived_id_of_cluster[index] = domain_id
        codes: Dict[str, str] = {}
        for schema_name, element_id in cluster:
            graph = by_name[schema_name]
            for child in graph.children(element_id):
                if child.kind is ElementKind.DOMAIN_VALUE:
                    codes.setdefault(child.name, child.documentation)
        for code in sorted(codes):
            target.add_child(
                domain_id,
                SchemaElement(f"{domain_id}/{code}", code,
                              ElementKind.DOMAIN_VALUE,
                              documentation=codes[code]),
            )

    # pass 3: attribute clusters -> under the entity of their parents
    attribute_clusters = [
        (index, cluster) for index, cluster in enumerate(clusters)
        if elements_of(cluster)[0].kind is ElementKind.ATTRIBUTE
    ]
    for index, cluster in attribute_clusters:
        members = elements_of(cluster)
        parent_entity_id: Optional[str] = None
        linked_domain_id: Optional[str] = None
        for schema_name, element_id in cluster:
            graph = by_name[schema_name]
            parent = graph.parent(element_id)
            if parent is not None:
                parent_cluster = cluster_of_ref.get((schema_name, parent.element_id))
                if parent_cluster in derived_id_of_cluster:
                    parent_entity_id = derived_id_of_cluster[parent_cluster]
            domain = graph.domain_of(element_id)
            if domain is not None:
                domain_cluster = cluster_of_ref.get((schema_name, domain.element_id))
                if domain_cluster in derived_id_of_cluster:
                    linked_domain_id = derived_id_of_cluster[domain_cluster]
        if parent_entity_id is None:
            # parent never clustered into an entity: park under the root
            parent_entity_id = name
        attr_name = _representative_name(members)
        attr_id = fresh_id(parent_entity_id, attr_name)
        element = SchemaElement(
            attr_id, attr_name, ElementKind.ATTRIBUTE,
            datatype=_merged_datatype(members),
            documentation=_merged_documentation(members),
        )
        if any(member.annotation("nullable") for member in members):
            element.annotate("nullable", True)
        target.add_child(
            parent_entity_id, element,
            label="contains-attribute" if parent_entity_id != name else "contains-element",
        )
        derived_id_of_cluster[index] = attr_id
        if linked_domain_id is not None:
            target.add_edge(attr_id, HAS_DOMAIN, linked_domain_id)

    # domain values (and anything else) ride along implicitly; now the
    # per-source matrices with the derived links pre-accepted
    result.target = target
    for graph in schemas:
        matrix = MappingMatrix.from_schemas(graph, target)
        for index, cluster in enumerate(clusters):
            derived_id = derived_id_of_cluster.get(index)
            if derived_id is None:
                continue
            for schema_name, element_id in cluster:
                if schema_name == graph.name and element_id in matrix.row_ids:
                    matrix.set_confidence(element_id, derived_id, 1.0,
                                          user_defined=True)
        result.source_to_target[graph.name] = matrix
    return result


def integrate_sources(
    schemas: Sequence[SchemaGraph],
    matcher: Optional[Matcher] = None,
    threshold: float = 0.5,
    name: str = "unified",
    mutual_best: bool = True,
    *,
    parallelism: int = 1,
    engine_config=None,
    selection=None,
    pair_budget: Optional[int] = None,
    share_corpus: bool = True,
) -> MultiSourceResult:
    """The whole §3.2 no-target-schema pipeline in one call.

    The keyword-only knobs are the registry-scale levers, passed through
    to :func:`match_all_pairs` / :func:`select_pairs`: ``parallelism``
    fans pairs out across worker processes, ``pair_budget`` turns on
    hub-schema pruning (building a :class:`PairSelection` unless an
    explicit *selection* is given), and ``share_corpus`` shares one
    preprocessed-documentation snapshot across the pre-pass and every
    engine.
    """
    snapshot = (
        snapshot_corpus(schemas)
        if share_corpus and matcher is None and len(schemas) > 1
        else None
    )
    if selection is None and pair_budget is not None:
        selection = select_pairs(schemas, pair_budget=pair_budget,
                                 snapshot=snapshot)
    matrices = match_all_pairs(
        schemas, matcher=matcher, parallelism=parallelism,
        engine_config=engine_config, selection=selection,
        share_corpus=share_corpus, corpus_snapshot=snapshot,
    )
    clusters = cluster_elements(schemas, matrices, threshold=threshold,
                                mutual_best=mutual_best)
    result = derive_target_schema(schemas, clusters, name=name)
    result.matrices = dict(matrices)
    result.selection = selection if isinstance(selection, PairSelection) else None
    return result
