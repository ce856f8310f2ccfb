"""Perf smoke check: fail CI when the fast match path regresses.

Runs the A12-large schema pair (the largest registry-generated pair the
benches use) through the default engine and through ``EngineConfig.fast()``
and enforces these guards:

* **relative** — the fast path must stay at least ``MIN_SPEEDUP`` times
  faster than the default path *measured on the same machine in the same
  process*, so the check is immune to host speed.  Both arms run the
  engine's one match pipeline (string kernels, sparse TF-IDF, compiled
  flooding); the default arm runs it without candidate blocking or
  context reuse, so the ratio measures what blocking buys on a cold
  match;
* **absolute** — the fast-path wall time must not exceed the committed
  baseline (``results/BENCH_perf_baseline.json``) by more than
  ``PERF_SMOKE_TOLERANCE`` (default 2.0×), catching regressions that slow
  both paths equally.  Regenerate the baseline on a representative
  machine with ``--write-baseline`` after intentional changes.
* **kernel micro-benchmark** — Jaro-Winkler over the A12 token
  vocabulary through ``repro.text.kernels`` must stay at least
  ``KERNEL_MIN_SPEEDUP`` times faster than the reference implementation
  once the memo cache is warm, and the token-cache hit rate must stay
  above ``KERNEL_MIN_HIT_RATE`` — a regression in the cache (bad key,
  accidental clear, lost intern) fails the build even if the engine-level
  numbers survive it.
* **sparse TF-IDF micro-benchmark** — one postings-driven
  ``SparseTfIdf.all_pairs`` sweep over the pair's documentation corpus
  must stay at least ``SPARSE_MIN_SPEEDUP`` times faster than the
  per-pair dict-cosine reference, and both must agree to 1e-12 on every
  cross-schema pair.
* **query-planner micro-benchmark** — a selective 3-pattern BGP over a
  blackboard-sized store must run at least ``PLANNER_MIN_SPEEDUP`` times
  faster through the cost-based planner than through the reference
  evaluator, with the identical solution multiset.
* **compiled-flooding micro-benchmark** — the classic fixpoint over the
  A12-large PCG must run at least ``FLOODING_MIN_SPEEDUP`` times faster
  through the cached compiled edge arrays (``FloodingState``, as the
  engine holds it across refinement rounds) than through the dict-based
  reference, agreeing to 1e-12 on every pair.
* **incremental-rematch micro-benchmark** — after a small scripted
  evolution (one attribute moved, one renamed, one redocumented), a warm
  ``HarmonyEngine.rematch`` must run at least ``REMATCH_MIN_SPEEDUP``
  times faster than a cold ``match`` on the evolved pair, producing the
  same matrix — and ``fastpath_stats`` must show every cache took its
  incremental path exactly once (context built once, blocking index
  built once then patched, rematch patched), so a silently-degraded
  cache fails loudly instead of just slowly.
* **refinement-round counter gate** — ``REFINE_ROUNDS`` Section 4.3
  rounds on a blackboard holding the A12 pair, each one accept and one
  reject through ``update_cell`` followed by a ``MatcherTool`` invoke
  that reads both schemas back as new graph objects: ``fastpath_stats``
  must show exactly one context build, no rematch patch, one blocking
  build and one blocking hit per round (reuse is keyed on schema
  content, not graph identity), and the warm matrix must equal a cold
  ``fast()`` engine's given the same decisions and learned merger
  weights.  Counters and cells only — no wall-clock ratio.
* **blackboard-view counter gate** — in the same rounds, after the
  first one every ``get_schema`` / ``get_matrix`` must be served from
  the blackboard's typed views (``IntegrationBlackboard.stats``: hits
  only, no misses), every matrix write must be diffed against a view,
  and the matrix triples each write adds and removes must equal what
  the full slice-diff oracle (``tests/workbench/matrix_oracle.py``)
  adds and removes over the same store, landing the same triples.
  Counters only — no wall-clock ratio.
* **sweep-backend micro-benchmark** — the same classic fixpoint on the
  same compiled A12-large edge arrays through all importable backends:
  the NumPy ``bincount`` sweep must run at least ``SWEEP_MIN_SPEEDUP``
  times faster than the pure-Python gather/scatter loop, and the C
  extension (``repro.harmony._csweep``) at least
  ``C_SWEEP_MIN_SPEEDUP`` times faster than the Python loop *and*
  ``C_SWEEP_MIN_VS_NUMPY`` times faster than the NumPy sweep — all
  agreeing to 1e-12 on every pair.  Each accelerator gate is skipped
  (with a note) when its backend is not importable/buildable — the
  bench stays dependency-free.
* **schema-serialization micro-benchmark** — a chain of small schema
  evolutions of the A12 source: re-landing each version through
  ``serialize_schema(delta=True, previous=...)`` must run at least
  ``SCHEMA_SERIALIZE_MIN_SPEEDUP`` times faster than the remove +
  full-rewrite discipline ``put_schema`` used before, producing the
  byte-identical store state every round.
* **all-pairs backend micro-benchmark** — the documentation voter's
  cross-partition ``SparseTfIdf.all_pairs`` sweep over a 12-model
  registry documentation corpus through the CSR matmul route must run
  at least ``ALLPAIRS_MIN_SPEEDUP`` times faster than the postings
  sorted-merge reference, with identical pair membership and values
  within 1e-12.  Skipped (with a note) when NumPy is not importable.
* **blocking-index micro-benchmark** — across a series of single-element
  evolutions, retrieval through the patched persistent
  ``BlockingIndex`` must run at least ``BLOCKING_MIN_SPEEDUP`` times
  faster than a cold index build on the evolved pair, returning the
  identical ordered candidate list.
* **embedding gates** — (1) ANN ``top_k_similar`` over a registry-scale
  (~4k vector) corpus must beat ``exhaustive_top_k`` by at least
  ``EMBED_MIN_SPEEDUP_NUMPY``× (numpy backend) or
  ``EMBED_MIN_SPEEDUP_PYTHON``× (pure python) at tie-aware mean
  recall@k ≥ ``EMBED_MIN_RECALL`` against the exhaustive oracle, every
  query counted as exactly one probe or fallback; (2) end-to-end ANN
  blocking (``BlockingConfig(strategy="ann")``) on the A12 pair may
  cost at most ``ANN_BLOCKING_MAX_OVERHEAD``× the inverted-index path
  (``ANN_BLOCKING_MAX_OVERHEAD_PYTHON``× on the pure-python backend)
  at equal-or-better strong-link candidate recall, and a warm
  incremental engine's embedding index must build exactly once and
  patch exactly once across a match + rematch.
* **matrix-serialization micro-benchmark** — re-serializing a
  blackboard-sized matrix after a rematch-style update through
  ``serialize_matrix`` (delta mode) must run at least
  ``SERIALIZE_MIN_SPEEDUP`` times faster than the generic per-cell
  loop (which can only stay stale-free by clearing and rewriting every
  part), landing the byte-identical store state every round.
* **durability gates** — (1) the end-to-end engineer workflow (one A12
  fast match, then persisting both schemas and the matrix) through a
  WAL-backed durable blackboard (``fsync="commit"``) must cost at most
  ``WAL_MAX_OVERHEAD`` times the in-memory blackboard, best-of-2 per
  arm; (2) reopening a checkpointed ≥100k-triple durable blackboard
  (snapshot + WAL-tail replay) must be at least ``RECOVERY_MIN_SPEEDUP``
  times faster than rebuilding the same state from schema sources —
  re-importing the registry and re-running the default-config matches
  (the one pipeline without blocking) whose decided mappings the
  blackboard holds.
* **N-way parallel gate** — ``match_all_pairs(parallelism=k)`` over the
  50-schema family workload (``nway_workload``) must run at least
  ``NWAY_MIN_PARALLEL_SPEEDUP`` times faster than the serial loop under
  the same ``EngineConfig.fast()``, with every pair matrix bit-identical
  (1e-12).  Skipped (with a note) on single-CPU runners, where a process
  pool cannot win.
* **serving gates** — (1) the single-session sequential workflow (match,
  canned query, cell update, repeated) through the
  :class:`~repro.serving.server.WorkbenchServer` job queue must cost at
  most ``SERVING_MAX_OVERHEAD`` times the identical direct
  ``WorkbenchManager``-and-engine calls, best-of-2 per arm — the queue
  hop, session lock, and future plumbing are the overhead being bounded;
  (2) a multi-session match load through 4 process-executor workers must
  reach at least ``SERVING_MIN_PARALLEL_SPEEDUP`` times the aggregate
  throughput of the single-worker thread server on the same load, with
  every matrix bit-identical.  Skipped (with a note) on single-CPU
  runners, where no executor can win.
* **N-way pruning gate** — hub-schema pair selection over the 100-schema
  family workload must run at least ``NWAY_MIN_PRUNED_SPEEDUP`` times
  faster than the exhaustive sweep (both arms at the same parallelism),
  and the pruned clustering's pairwise F1 against the workload's ground
  truth must come within ``NWAY_MAX_F1_LOSS`` of the exhaustive arm's.
  In practice pruning *improves* truth F1 here — the exhaustive sweep
  wires weak cross-family links into transitive chains that hub
  selection never scores.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py [--write-baseline]
"""

from __future__ import annotations

import copy
import gc
import json
import os
import sys
import tempfile
import time

from repro.core import ElementKind, MappingMatrix
from repro.core.graph import CONTAINMENT_LABELS, CONTAINS_ELEMENT
from repro.harmony import (
    BlockingConfig,
    BlockingIndex,
    CandidateBlocker,
    EngineConfig,
    HarmonyEngine,
    MatchContext,
    cluster_elements,
    cluster_pair_f1,
    evolution_closure,
    graph_delta,
    match_all_pairs,
    resolve_sweep_backend,
    select_pairs,
)
from repro.embed import AnnConfig, AnnIndex, resolve_embed_backend
from repro.embed.ann import ann_stats, reset_ann_stats
from repro.harmony import snapshot_embeddings
from repro.harmony.blocking import _family
from repro.harmony.flooding import (
    FloodingConfig,
    FloodingState,
    compile_pcg,
    reset_sweep_run_stats,
    sweep_run_stats,
)
from repro.loaders import load_registry
from repro.rdf import (
    DurableStore,
    IRI,
    Query,
    Triple,
    TripleStore,
    Variable,
    evaluate_planned,
    column_iri,
    element_iri,
    literal,
    matrix_iri,
    matrix_to_rdf,
    rdf_to_matrix,
    remove_matrix,
    remove_schema,
    row_iri,
    schema_to_rdf,
    serialization_stats,
    serialize_matrix,
    serialize_schema,
    write_cell,
)
from repro.rdf import vocabulary as V
from repro.workbench import IntegrationBlackboard, MatcherTool, WorkbenchManager
from repro.registry import RegistryProfile, generate_registry
from repro.text import SparseTfIdf, TfIdfCorpus, kernels, similarity
from repro.text.tfidf_sparse import all_pairs_stats, reset_all_pairs_stats
from repro.text.tokenize import split_identifier

from nway_workload import NWAY_THRESHOLD, family_workload

HERE = os.path.dirname(os.path.abspath(__file__))
# the test oracles the relative gates compare the production code with:
# the flooding and query references, and the full slice-diff oracle the
# blackboard-view gate compares writes with
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "tests", "workbench"))
from matrix_oracle import oracle_changes  # noqa: E402
from tests.oracles import classic_flooding, evaluate_reference  # noqa: E402
BASELINE_PATH = os.path.join(HERE, "results", "BENCH_perf_baseline.json")
PERF_PATH = os.path.join(HERE, "results", "BENCH_perf.json")

#: the fast path must beat the default path by at least this factor
MIN_SPEEDUP = 2.0
#: fast-path F1-relevant invariant — blocking must prune at least this much
MIN_PRUNING = 0.5
#: warm memoized Jaro-Winkler must beat the reference by at least this factor
KERNEL_MIN_SPEEDUP = 3.0
#: token-cache hit rate over the micro-benchmark passes
KERNEL_MIN_HIT_RATE = 0.6
#: one postings sweep must beat per-pair dict cosine by at least this factor
SPARSE_MIN_SPEEDUP = 3.0
#: the cost-based planner must beat the reference evaluator by this factor
PLANNER_MIN_SPEEDUP = 2.0
#: the cached compiled fixpoint must beat the dict reference by this factor
FLOODING_MIN_SPEEDUP = 3.0
#: a warm incremental rematch must beat a cold match by this factor
REMATCH_MIN_SPEEDUP = 2.0
#: accept/reject + MatcherTool rounds behind the refinement counter gate
REFINE_ROUNDS = 4
#: the numpy bincount sweep must beat the python loop by this factor
SWEEP_MIN_SPEEDUP = 2.0
#: the C sweep extension must beat the python loop by this factor
C_SWEEP_MIN_SPEEDUP = 20.0
#: ... and the numpy bincount sweep by this factor
C_SWEEP_MIN_VS_NUMPY = 2.0
#: delta schema re-serialization must beat remove + full rewrite by this
SCHEMA_SERIALIZE_MIN_SPEEDUP = 3.0
#: the CSR all_pairs matmul must beat the postings merge by this factor
ALLPAIRS_MIN_SPEEDUP = 2.0
#: patched blocking-index retrieval must beat a cold build by this factor
BLOCKING_MIN_SPEEDUP = 3.0
#: delta re-serialization must beat the per-cell rewrite by this factor
SERIALIZE_MIN_SPEEDUP = 3.0
#: sparse/reference cosine agreement bound (mirrors the differential suite)
SPARSE_TOLERANCE = 1e-12
#: durable (WAL-on, fsync="commit") match+persist may cost at most this
#: multiple of the in-memory blackboard's wall time
WAL_MAX_OVERHEAD = 1.3
#: snapshot+replay recovery must beat rebuild-from-sources by this factor
RECOVERY_MIN_SPEEDUP = 5.0
#: the recovery-gate blackboard must hold at least this many triples
DURABILITY_MIN_TRIPLES = 100_000
#: registry scale and decided-mapping count behind the recovery gate
DURABILITY_MODELS = 80
DURABILITY_MATCH_PAIRS = 4
DURABILITY_LINK_THRESHOLD = 0.5
#: process-pool N-way matching must beat the serial loop by this factor
NWAY_MIN_PARALLEL_SPEEDUP = 2.0
#: hub-pruned N-way matching must beat the exhaustive sweep by this factor
NWAY_MIN_PRUNED_SPEEDUP = 3.0
#: pruned clustering may lose at most this much truth F1 vs exhaustive
NWAY_MAX_F1_LOSS = 0.02
#: N-way workload tiers (schema counts) for the two gates
NWAY_PARALLEL_TIER = 50
NWAY_PRUNED_TIER = 100
#: the serving layer may cost at most this multiple of direct
#: WorkbenchManager calls on a single-session sequential workload
SERVING_MAX_OVERHEAD = 1.5
#: 4 process-executor workers must beat the single-worker thread server
#: by this factor in aggregate throughput on a multi-session load
SERVING_MIN_PARALLEL_SPEEDUP = 2.0
#: rounds of (match, query, update_cell) in the serving overhead arm
SERVING_ROUNDS = 4
#: sessions x matches-per-session in the serving throughput arm
SERVING_LOAD_SESSIONS = 8
SERVING_LOAD_MATCHES = 2
#: ANN top-k retrieval must beat exhaustive cosine by this factor on the
#: resolved backend (the numpy matvec reference is much faster, so its
#: bar is higher than the pure-python loop's)
EMBED_MIN_SPEEDUP_NUMPY = 3.0
EMBED_MIN_SPEEDUP_PYTHON = 2.0
#: tie-aware mean recall@k of the band path against the exhaustive oracle
EMBED_MIN_RECALL = 0.95
#: ANN blocking end-to-end may cost at most this multiple of the
#: inverted-index path (at equal-or-better candidate recall); the pure
#: python backend ranks candidates with interpreted dot products where
#: the inverted arm counts token overlaps in dict-native code, so its
#: bar is wider
ANN_BLOCKING_MAX_OVERHEAD = 1.1
ANN_BLOCKING_MAX_OVERHEAD_PYTHON = 1.3
#: registry scale behind the ANN retrieval corpus (~4k vectors)
EMBED_CORPUS_MODELS = 30
#: queries sampled from the corpus and the k they retrieve
EMBED_QUERY_COUNT = 64
EMBED_TOPK = 10
#: post-flooding score above which a pair counts as a "strong" link the
#: blocking stage must not prune (the candidate-recall denominator)
ANN_STRONG_THRESHOLD = 0.5


def _schema_pair():
    profile = RegistryProfile(
        model_count=2,
        elements_per_model=10,
        attributes_per_element=8,
        domain_values_per_attribute=0.5,
    )
    registry = generate_registry(seed=99, scale=1.0, profile=profile,
                                 name="perf-smoke")
    loaded = load_registry(registry)
    return loaded.schemas[0], loaded.schemas[1]


def _kernel_microbench(source, target):
    """Jaro-Winkler over the pair's real token vocabulary: reference vs
    memoized kernel (one cold pass to fill the cache, one warm pass)."""
    vocabulary = sorted({
        token
        for graph in (source, target)
        for element in graph
        for token in split_identifier(element.name)
    })
    pairs = [(a, b) for a in vocabulary for b in vocabulary]

    t0 = time.perf_counter()
    for a, b in pairs:
        similarity.jaro_winkler_similarity(a, b)
    reference_wall = time.perf_counter() - t0

    kernels.clear_caches()
    t0 = time.perf_counter()
    kernels.score_pairs(pairs, measure="jaro_winkler")
    cold_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    kernels.score_pairs(pairs, measure="jaro_winkler")
    warm_wall = time.perf_counter() - t0

    stats = kernels.cache_stats()["token_jw"]
    return {
        "kernel_tokens": len(vocabulary),
        "kernel_pairs": len(pairs),
        "kernel_reference_wall_s": round(reference_wall, 4),
        "kernel_cold_wall_s": round(cold_wall, 4),
        "kernel_warm_wall_s": round(warm_wall, 4),
        "kernel_warm_speedup": round(reference_wall / warm_wall, 2),
        "kernel_hit_rate": stats["hit_rate"],
    }


def _sparse_microbench(source, target):
    """The documentation corpus of the A12 pair: per-pair dict cosine
    (what the voter did before the sparse engine) vs one postings-driven
    ``all_pairs`` sweep, with a 1e-12 agreement sanity check."""
    corpus = TfIdfCorpus()
    source_docs = set()
    for graph in (source, target):
        for element in graph:
            if element.documentation:
                doc = f"{graph.name}::{element.element_id}"
                corpus.add_document(doc, element.documentation)
                if graph is source:
                    source_docs.add(doc)
    target_docs = [doc for doc in corpus._documents if doc not in source_docs]
    cross_pairs = [(a, b) for a in sorted(source_docs) for b in target_docs]

    t0 = time.perf_counter()
    reference = {pair: corpus.cosine(*pair) for pair in cross_pairs}
    reference_wall = time.perf_counter() - t0

    sparse = SparseTfIdf(corpus)
    t0 = time.perf_counter()
    table = sparse.all_pairs(group_of=lambda doc: doc in source_docs)
    sparse_wall = time.perf_counter() - t0

    worst = 0.0
    for (a, b), want in reference.items():
        got = table.get((a, b), table.get((b, a), 0.0))
        worst = max(worst, abs(got - want))
    if worst > SPARSE_TOLERANCE:
        raise AssertionError(
            f"sparse cosine drifted from reference by {worst} (> {SPARSE_TOLERANCE})")
    return {
        "sparse_docs": len(corpus),
        "sparse_cross_pairs": len(cross_pairs),
        "sparse_scored_pairs": len(table),
        "sparse_reference_wall_s": round(reference_wall, 4),
        "sparse_wall_s": round(sparse_wall, 4),
        "sparse_speedup": round(reference_wall / sparse_wall, 2),
    }


FLOODING_ROUNDS = 3


def _flooding_microbench(source, target):
    """The classic fixpoint over the A12-large full PCG, repeated over
    ``FLOODING_ROUNDS`` refinement rounds: the dict-based reference
    rebuilds the PCG every call; the compiled path compiles the edge
    arrays once (``FloodingState``) and reuses structure and buffers."""
    source_ids = sorted(e.element_id for e in source)
    target_ids = sorted(e.element_id for e in target)
    initial = {
        (s, t): 0.2 + ((i * 7) % 11) / 20.0
        for i, (s, t) in enumerate(zip(source_ids, target_ids))
    }

    t0 = time.perf_counter()
    for _ in range(FLOODING_ROUNDS):
        reference = classic_flooding(source, target, initial)
    reference_wall = time.perf_counter() - t0

    state = FloodingState()
    t0 = time.perf_counter()
    for _ in range(FLOODING_ROUNDS):
        compiled = state.flood(source, target, initial)
    compiled_wall = time.perf_counter() - t0

    if set(compiled) != set(reference):
        raise AssertionError("compiled flooding scored a different pair set")
    worst = max(abs(compiled[p] - reference[p]) for p in reference)
    if worst > SPARSE_TOLERANCE:
        raise AssertionError(
            f"compiled flooding drifted from reference by {worst} "
            f"(> {SPARSE_TOLERANCE})")
    return {
        "flooding_pcg_nodes": state.compiled.node_count,
        "flooding_pcg_edges": state.compiled.edge_count,
        "flooding_compiles": state.compiles,
        "flooding_reference_wall_s": round(reference_wall, 4),
        "flooding_compiled_wall_s": round(compiled_wall, 4),
        "flooding_speedup": round(reference_wall / compiled_wall, 2),
    }


def _rematch_microbench(source, target):
    """A small scripted evolution of the A12 source (one attribute moved
    to another parent, one renamed, one redocumented): warm
    ``HarmonyEngine.rematch`` with every cache primed vs a cold
    ``match`` on the evolved pair, both under ``EngineConfig.fast()``."""
    evolved = source.copy()
    leaves = sorted(
        e.element_id for e in evolved
        if not evolved.children(e.element_id)
        and evolved.parent(e.element_id) is not None
    )
    moved = leaves[0]
    old_parent = evolved.parent(moved).element_id
    new_parent = next(
        evolved.parent(leaf).element_id for leaf in leaves
        if evolved.parent(leaf).element_id not in (old_parent, moved)
    )
    for edge in evolved.in_edges(moved):
        if edge.label in CONTAINMENT_LABELS:
            evolved.remove_edge(edge)
    evolved.add_edge(new_parent, CONTAINS_ELEMENT, moved)
    evolved.element(leaves[len(leaves) // 2]).name += "_v2"
    evolved.element(leaves[-1]).documentation = (
        "Evolved documentation for the perf smoke.")
    evolved.revision += 1

    reset_sweep_run_stats()
    warm_engine = HarmonyEngine(config=EngineConfig.fast())
    warm_engine.match(source, target)
    t0 = time.perf_counter()
    warm_run = warm_engine.rematch(evolved, target)
    warm_wall = time.perf_counter() - t0

    # a true cold match starts with empty kernel memo caches too — the
    # warm run above filled the process-global ones
    kernels.clear_caches()
    cold_engine = HarmonyEngine(config=EngineConfig.fast())
    t0 = time.perf_counter()
    cold_run = cold_engine.match(evolved, target)
    cold_wall = time.perf_counter() - t0

    stats = warm_engine.fastpath_stats()
    for counter, expected in (
        ("context_builds", 1),
        ("blocking_builds", 1),
        ("blocking_patches", 1),
        ("rematch_patches", 1),
    ):
        if stats[counter] != expected:
            raise AssertionError(
                f"fastpath_stats[{counter!r}] == {stats[counter]} after a warm "
                f"rematch (expected {expected}) — a cache regressed")
    if warm_engine.rematch_patches != 1:
        raise AssertionError("warm rematch did not take the incremental path")
    warm_cells = {
        (c.source_id, c.target_id): c.confidence for c in warm_run.matrix.cells()
    }
    cold_cells = {
        (c.source_id, c.target_id): c.confidence for c in cold_run.matrix.cells()
    }
    if set(warm_cells) != set(cold_cells):
        raise AssertionError("warm rematch produced a different cell set")
    worst = max(
        (abs(warm_cells[p] - cold_cells[p]) for p in cold_cells), default=0.0
    )
    if worst > SPARSE_TOLERANCE:
        raise AssertionError(
            f"warm rematch drifted from cold match by {worst} "
            f"(> {SPARSE_TOLERANCE})")
    resolved = stats["sweep_backend"]
    run_counters = {k: v for k, v in sweep_run_stats().items() if v}
    expected = {f"sweep_directional_runs_{resolved}": 3}
    if run_counters != expected:
        raise AssertionError(
            f"sweep run counters {run_counters} after warm match + warm "
            f"rematch + cold match — expected {expected}: every compiled "
            f"sweep must run on the resolved {resolved!r} backend")
    return {
        "rematch_cold_wall_s": round(cold_wall, 4),
        "rematch_warm_wall_s": round(warm_wall, 4),
        "rematch_speedup": round(cold_wall / warm_wall, 2),
        "rematch_cells": len(warm_cells),
        "rematch_sweep_backend": stats["sweep_backend"],
    }


def _refine_rounds_microbench(source, target):
    """``REFINE_ROUNDS`` refinement rounds through ``MatcherTool`` on an
    unchanged blackboard: exact ``fastpath_stats`` counters, and the
    warm matrix equal to a cold ``fast()`` engine's given the same
    decisions and learned merger weights."""
    matrix_name = f"{source.name}->{target.name}"
    engine = HarmonyEngine(config=EngineConfig.fast())
    manager = WorkbenchManager()
    manager.register(MatcherTool(engine))
    board = manager.blackboard
    with manager.transaction():
        board.put_schema(source)
        board.put_schema(target)

    def invoke():
        return manager.invoke("harmony", source_schema=source.name,
                              target_schema=target.name,
                              matrix_name=matrix_name)

    # each round accepts the strongest undecided machine suggestion and
    # rejects the runner-up, so every round carries fresh decisions
    ranked = sorted(invoke().cells(), key=lambda c: (-c.confidence, c.pair))
    written = removed = 0
    for index in range(REFINE_ROUNDS):
        accept, reject = ranked[2 * index], ranked[2 * index + 1]
        with manager.transaction():
            board.update_cell(matrix_name, *accept.pair, 1.0,
                              user_defined=True)
            board.update_cell(matrix_name, *reject.pair, 0.0,
                              user_defined=True)
        before = board.store.snapshot()
        views, counts = board.stats(), serialization_stats()
        matrix = invoke()
        reads = {key: board.stats()[key] - views[key] for key in views}
        if reads != {"schema_view_hits": 2, "schema_view_misses": 0,
                     "matrix_view_hits": 1, "matrix_view_misses": 0,
                     "matrix_writes_viewed": 1, "matrix_writes_cold": 0}:
            raise AssertionError(
                f"refinement round {index + 1}: blackboard view counters "
                f"{reads} — a read parsed RDF or a write was not diffed "
                f"against the matrix view")
        oracle_store = TripleStore()
        oracle_store.add_many(sorted(before, key=Triple.sort_key))
        fresh, stale = oracle_changes(matrix, oracle_store)
        now = serialization_stats()
        wrote = now["matrix_triples_written"] - counts["matrix_triples_written"]
        dropped = now["matrix_triples_removed"] - counts["matrix_triples_removed"]
        if ((wrote, dropped) != (len(fresh), len(stale))
                or board.store.snapshot() != (before - set(stale)) | set(fresh)):
            raise AssertionError(
                f"refinement round {index + 1}: the matrix write added "
                f"{wrote} and removed {dropped} triples; the full diff "
                f"adds {len(fresh)} and removes {len(stale)}")
        written += wrote
        removed += dropped

    stats = engine.fastpath_stats()
    for counter, expected in (
        ("context_builds", 1),
        ("rematch_patches", 0),
        ("blocking_builds", 1),
        ("blocking_hits", REFINE_ROUNDS),
    ):
        if stats[counter] != expected:
            raise AssertionError(
                f"fastpath_stats[{counter!r}] == {stats[counter]} after "
                f"{REFINE_ROUNDS} refinement rounds (expected {expected}) "
                f"— the warm context stopped being reused across rounds")

    warm = board.get_matrix(matrix_name)
    source_now = board.get_schema(source.name)
    target_now = board.get_schema(target.name)
    decided = MappingMatrix.from_schemas(source_now, target_now)
    for cell in warm.cells():
        if cell.is_user_defined:
            decided.set_confidence(cell.source_id, cell.target_id,
                                   cell.confidence, user_defined=True)
    cold = HarmonyEngine(config=EngineConfig.fast(),
                         merger=copy.deepcopy(engine.merger))
    # the first cold run consumes every decision the warm engine learned
    # from in earlier rounds, so the compared run learns nothing new
    cold.match(source_now.copy(), target_now.copy(),
               matrix=copy.deepcopy(decided))
    cold.match(source_now, target_now, matrix=decided)

    def cells(matrix):
        return {(c.source_id, c.target_id): (c.confidence, c.is_user_defined)
                for c in matrix.cells()}

    if cells(warm) != cells(decided):
        raise AssertionError(
            "refinement rounds: the warm matrix differs from a cold match "
            "with the same decisions and merger weights")
    return {
        "refine_rounds": REFINE_ROUNDS,
        "refine_context_builds": stats["context_builds"],
        "refine_blocking_hits": stats["blocking_hits"],
        "refine_cells": len(cells(warm)),
        "refine_view_triples_written": written,
        "refine_view_triples_removed": removed,
    }


SWEEP_ROUNDS = 3


def _sweep_entries(compiled, initial):
    """Precompute the dense ``(index, value)`` entry list that
    ``CompiledPCG.run`` builds from the initial scores, so every backend
    arm times :meth:`SweepBackend.sweep_classic` alone — the fixpoint
    kernel — and not the shared entry-build/result-dict bookkeeping."""
    index = compiled.node_index
    structural_n = len(compiled.nodes)
    extra = {}
    for pair in initial:
        if pair not in index and pair not in extra:
            extra[pair] = structural_n + len(extra)
    n = structural_n + len(extra)
    entries = []
    for pair, value in initial.items():
        value = float(value)
        i = index.get(pair)
        if i is None:
            i = extra[pair]
        entries.append((i, value if value > 0.0 else 0.0))
    return entries, n


def _sweep_microbench(source, target):
    """The classic fixpoint kernel on the compiled A12-large edge arrays
    through every importable backend, on identical precomputed entries:
    pure-Python gather/scatter (always), the NumPy ``bincount`` sweep,
    and the C extension.  Every accelerated σ vector must agree with the
    python one to 1e-12.  An accelerator arm whose backend cannot import
    is skipped with a note — the smoke stays runnable on a
    dependency-free install."""
    compiled = compile_pcg(source, target)
    source_ids = sorted(e.element_id for e in source)
    target_ids = sorted(e.element_id for e in target)
    initial = {
        (s, t): 0.2 + ((i * 7) % 11) / 20.0
        for i, (s, t) in enumerate(zip(source_ids, target_ids))
    }
    entries, n = _sweep_entries(compiled, initial)
    # epsilon=0 disables the residual early-exit so every arm runs the
    # identical 50 iterations — the per-call setup overhead amortizes and
    # the backend ratios stop flapping with timer noise on ~1ms walls
    config = FloodingConfig(max_iterations=50, epsilon=0.0)

    def best_of_3(backend):
        wall = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(SWEEP_ROUNDS):
                sigma = backend.sweep_classic(compiled, entries, n, config)
            wall = min(wall, time.perf_counter() - t0)
        return wall, sigma

    python_backend = resolve_sweep_backend("python")
    python_wall, python_sigma = best_of_3(python_backend)

    result = {
        "sweep_pcg_edges": compiled.edge_count,
        "sweep_backend": resolve_sweep_backend("auto").name,
        "sweep_python_wall_s": round(python_wall, 4),
    }

    def accelerated_arm(selector):
        try:
            backend = resolve_sweep_backend(selector)
        except ImportError:
            return None
        wall, sigma = best_of_3(backend)
        worst = max(abs(sigma[i] - python_sigma[i]) for i in range(n))
        if worst > SPARSE_TOLERANCE:
            raise AssertionError(
                f"{selector} sweep drifted from the python loop by {worst} "
                f"(> {SPARSE_TOLERANCE})")
        return wall

    numpy_wall = accelerated_arm("numpy")
    if numpy_wall is None:
        print("note: numpy not importable; numpy sweep gate skipped")
    else:
        result.update({
            "sweep_numpy_wall_s": round(numpy_wall, 4),
            "sweep_speedup": round(python_wall / numpy_wall, 2),
        })

    c_wall = accelerated_arm("c")
    if c_wall is None:
        print("note: C sweep extension not importable; C sweep gate skipped")
    else:
        result.update({
            "sweep_c_wall_s": round(c_wall, 4),
            "sweep_c_speedup": round(python_wall / c_wall, 2),
        })
        if numpy_wall is not None:
            result["sweep_c_vs_numpy"] = round(numpy_wall / c_wall, 2)
    return result


BLOCKING_ROUNDS = 4


def _blocking_microbench(source, target):
    """A chain of single-element evolutions of the A12 source: each round
    the persistent ``BlockingIndex`` is patched from the evolution
    closure, while the reference rebuilds a fresh index from scratch on
    the evolved pair.  Retrieval must be order-identical."""
    blocker = CandidateBlocker(BlockingConfig())
    index = BlockingIndex()
    blocker.candidates(MatchContext(source, target), index)  # prime the cache

    current = source
    patched_wall = 0.0
    cold_wall = 0.0
    for round_no in range(BLOCKING_ROUNDS):
        evolved = current.copy()
        leaves = sorted(
            e.element_id for e in evolved
            if not evolved.children(e.element_id)
            and evolved.parent(e.element_id) is not None
        )
        evolved.element(leaves[round_no]).name += "_r"
        # copy() rebuilds through add_element and always lands on the
        # same revision; advance past the previous epoch explicitly
        evolved.revision = current.revision + 1
        delta = graph_delta(current, evolved)
        closure = evolution_closure(current, evolved, delta)
        index.note_evolution(closure | delta.removed, set())
        context = MatchContext(evolved, target)

        t0 = time.perf_counter()
        warm = blocker.candidates(context, index)
        patched_wall += time.perf_counter() - t0

        t0 = time.perf_counter()
        cold = blocker.candidates(context, BlockingIndex())
        cold_wall += time.perf_counter() - t0

        warm_pairs = [(s.element_id, t.element_id) for s, t in warm.pairs]
        cold_pairs = [(s.element_id, t.element_id) for s, t in cold.pairs]
        if warm_pairs != cold_pairs:
            raise AssertionError(
                "patched blocking retrieved a different candidate list")
        current = evolved

    if index.patches != BLOCKING_ROUNDS:
        raise AssertionError(
            f"blocking index patched {index.patches} times over "
            f"{BLOCKING_ROUNDS} evolutions — the patch path regressed")
    return {
        "blocking_rounds": BLOCKING_ROUNDS,
        "blocking_cold_wall_s": round(cold_wall, 4),
        "blocking_patched_wall_s": round(patched_wall, 4),
        "blocking_index_speedup": round(cold_wall / patched_wall, 2),
    }


def _embedding_microbench(source, target):
    """Two embedding gates plus exact counter accounting.

    (1) ANN retrieval: a registry-scale corpus (~4k element vectors from
    ``EMBED_CORPUS_MODELS`` models) is loaded into one :class:`AnnIndex`
    on the resolved backend; ``top_k_similar`` over sampled queries must
    beat ``exhaustive_top_k`` by the backend's factor while keeping
    tie-aware mean recall@k against the exhaustive oracle at
    ``EMBED_MIN_RECALL`` or better.  Every query must be answered by
    exactly one counted path (probe or fallback).

    (2) ANN blocking: the A12 pair end-to-end under
    ``BlockingConfig(strategy="ann")`` may cost at most
    ``ANN_BLOCKING_MAX_OVERHEAD`` times the inverted-index path
    (best-of-2 per arm, cold engines), and its candidate recall of
    strong links (post-flooding > ``ANN_STRONG_THRESHOLD`` in an
    unblocked run) must be equal or better.  A warm incremental engine
    then takes one match + one rematch: the persistent embedding index
    must build exactly once, patch exactly once, and answer every
    retrieval exhaustively (the blocker's floor exceeds the A12 family
    sizes — mid-cosine recall stays exact by construction)."""
    backend = resolve_embed_backend("auto")

    # -- (1) ANN retrieval vs exhaustive cosine --------------------------
    profile = RegistryProfile(
        model_count=EMBED_CORPUS_MODELS,
        elements_per_model=10,
        attributes_per_element=8,
        domain_values_per_attribute=0.5,
    )
    registry = generate_registry(seed=53, scale=1.0, profile=profile,
                                 name="embed-corpus")
    corpus_schemas = load_registry(registry).schemas
    snapshot = snapshot_embeddings(
        corpus_schemas,
        engine_config=EngineConfig(embedding=True, embed_backend="auto"),
    )
    doc_ids = snapshot.doc_ids()
    index = AnnIndex(len(snapshot.vector(doc_ids[0])), AnnConfig(),
                     backend=backend)
    index.add_batch([(doc, snapshot.vector(doc)) for doc in doc_ids])
    step = max(1, len(doc_ids) // EMBED_QUERY_COUNT)
    queries = doc_ids[::step][:EMBED_QUERY_COUNT]

    # warm both paths once (packed matrix, dense hyperplanes, sketches)
    index.exhaustive_top_k(snapshot.vector(queries[0]), EMBED_TOPK)
    index.top_k_similar(snapshot.vector(queries[0]), EMBED_TOPK)

    reset_ann_stats()
    t0 = time.perf_counter()
    oracle = [index.exhaustive_top_k(snapshot.vector(q), EMBED_TOPK)
              for q in queries]
    exhaustive_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    retrieved = [index.top_k_similar(snapshot.vector(q), EMBED_TOPK)
                 for q in queries]
    ann_wall = time.perf_counter() - t0

    stats = ann_stats()
    answered = stats["ann_probes"] + stats["ann_exhaustive_fallbacks"]
    if answered != len(queries):
        raise AssertionError(
            f"{answered} counted ANN answers for {len(queries)} queries "
            f"({stats}) — every top_k_similar call must count exactly one "
            f"probe or one fallback")

    recall_sum = 0.0
    for exact, approx in zip(oracle, retrieved):
        cutoff = exact[-1][1] - 1e-9  # tie-aware: any score at the
        # oracle's kth counts as a hit even if ids differ
        recall_sum += sum(
            1 for _, score in approx if score >= cutoff
        ) / len(exact)
    recall = recall_sum / len(queries)

    result = {
        "embed_backend": backend.name,
        "embed_corpus_vectors": len(index),
        "embed_ann_queries": len(queries),
        "embed_exhaustive_wall_s": round(exhaustive_wall, 4),
        "embed_ann_wall_s": round(ann_wall, 4),
        "embed_ann_speedup": round(exhaustive_wall / ann_wall, 2),
        "embed_ann_recall": round(recall, 4),
        "embed_ann_fallbacks": stats["ann_exhaustive_fallbacks"],
    }

    # -- (2) ANN blocking vs the inverted index --------------------------
    unblocked = HarmonyEngine(
        config=EngineConfig(embedding=True)).match(source, target)
    strong = {
        pair for pair, score in unblocked.post_flooding.items()
        if score > ANN_STRONG_THRESHOLD
    }

    walls = {}
    recalls = {}
    for strategy in ("inverted", "ann"):
        config = EngineConfig(
            embedding=True, blocking=BlockingConfig(strategy=strategy))
        best = None
        for _ in range(3):  # min-of-3: the two arms differ by only a few
            # percent, so a single noisy round can flip the overhead gate
            kernels.clear_caches()
            engine = HarmonyEngine(config=config)
            t0 = time.perf_counter()
            run = engine.match(source, target)
            wall = time.perf_counter() - t0
            best = wall if best is None else min(best, wall)
        kept = set(run.post_flooding)
        walls[strategy] = best
        recalls[strategy] = (
            len(kept & strong) / len(strong) if strong else 1.0
        )

    # exact counter accounting on a warm incremental engine: build once,
    # patch once, every family retrieval exhaustively exact
    reset_ann_stats()
    config = EngineConfig(
        embedding=True,
        blocking=BlockingConfig(strategy="ann"),
        reuse_context=True,
    )
    warm_engine = HarmonyEngine(config=config)
    warm_engine.match(source, target)
    evolved = source.copy()
    leaves = sorted(
        e.element_id for e in evolved
        if not evolved.children(e.element_id)
        and evolved.parent(e.element_id) is not None
    )
    evolved.element(leaves[0]).name += "_v2"
    evolved.revision = source.revision + 1
    warm_engine.rematch(evolved, target)

    budget = BlockingConfig().budget
    family_sizes = {}
    for element in target:
        if (element.element_id == target.root.element_id
                or element.kind is ElementKind.KEY):
            continue
        family = _family(element.kind)
        family_sizes[family] = family_sizes.get(family, 0) + 1
    retrievals = sum(
        1 for element in source
        if element.element_id != source.root.element_id
        and element.kind is not ElementKind.KEY
        and family_sizes.get(_family(element.kind), 0) > budget
    )
    stats = warm_engine.fastpath_stats()
    for counter, expected in (
        ("embedding_builds", 1),
        ("embedding_patches", 1),
        ("embedding_hits", 0),
        ("ann_probes", 0),
        ("ann_exhaustive_fallbacks", 2 * retrievals),
    ):
        if stats[counter] != expected:
            raise AssertionError(
                f"fastpath_stats[{counter!r}] == {stats[counter]} after a "
                f"warm ANN match + rematch (expected {expected}) — the "
                f"embedding index or ANN counter discipline regressed")

    result.update({
        "ann_blocking_inverted_wall_s": round(walls["inverted"], 4),
        "ann_blocking_wall_s": round(walls["ann"], 4),
        "ann_blocking_overhead": round(walls["ann"] / walls["inverted"], 3),
        "ann_blocking_strong_links": len(strong),
        "ann_blocking_recall_inverted": round(recalls["inverted"], 4),
        "ann_blocking_recall": round(recalls["ann"], 4),
    })
    return result


SERIALIZE_MATRIX_SIDE = 40
SERIALIZE_ROUNDS = 5


def _write_matrix_percell(matrix, store):
    """The pre-bulk generic path: every part re-derives its IRIs through
    the per-call helpers and lands one ``store.add`` per triple, with
    cells going through ``write_cell`` — exactly what ``matrix_to_rdf``
    amounted to before ``serialize_matrix``."""
    m_iri = matrix_iri(matrix.name)
    store.add(m_iri, V.RDF_TYPE, V.MATRIX_CLASS)
    store.add(m_iri, V.NAME, literal(matrix.name))
    for element_id in matrix.row_ids:
        header = matrix.row(element_id)
        r_iri = row_iri(matrix.name, element_id)
        store.add(m_iri, V.HAS_ROW, r_iri)
        store.add(r_iri, V.RDF_TYPE, V.ROW_CLASS)
        store.add(r_iri, V.ROW_ELEMENT, element_iri(header.schema_name, element_id))
        store.add(r_iri, V.NAME, literal(element_id))
        store.add(r_iri, V.IS_COMPLETE, literal(header.is_complete))
        if header.variable_name:
            store.add(r_iri, V.VARIABLE_NAME, literal(header.variable_name))
    for element_id in matrix.column_ids:
        header = matrix.column(element_id)
        c_iri = column_iri(matrix.name, element_id)
        store.add(m_iri, V.HAS_COLUMN, c_iri)
        store.add(c_iri, V.RDF_TYPE, V.COLUMN_CLASS)
        store.add(c_iri, V.COLUMN_ELEMENT, element_iri(header.schema_name, element_id))
        store.add(c_iri, V.NAME, literal(element_id))
        store.add(c_iri, V.IS_COMPLETE, literal(header.is_complete))
        if header.code:
            store.add(c_iri, V.CODE, literal(header.code))
    for cell in matrix.cells():
        write_cell(store, matrix.name, cell)


def _serialize_microbench():
    """The engine-loop refresh scenario: a blackboard store already holds
    the matrix, a rematch shifts a batch of confidences and retires a
    row, and the new state must land with no stale cell triples left
    behind.  The generic per-cell loop can only do that correctly by
    clearing and rewriting every part; ``serialize_matrix(delta=True)``
    — given no view, as here — reads the stored matrix, diffs the
    matrix against it and touches the changed triples alone.  Both must
    land the identical store state."""
    matrix = MappingMatrix("serialize-bench")
    for i in range(SERIALIZE_MATRIX_SIDE):
        matrix.add_row(f"s/e{i}")
        matrix.add_column(f"t/e{i}")
    for i in range(SERIALIZE_MATRIX_SIDE):
        for j in range(SERIALIZE_MATRIX_SIDE):
            if i == j and i % 8 == 0:
                matrix.set_confidence(f"s/e{i}", f"t/e{j}", 1.0, user_defined=True)
            elif (i + j) % 3 == 0:
                matrix.set_confidence(f"s/e{i}", f"t/e{j}", ((i * j) % 100) / 100.0)

    reference_store, delta_store = TripleStore(), TripleStore()
    serialize_matrix(matrix, reference_store)
    serialize_matrix(matrix, delta_store, delta=True)

    reference_wall = 0.0
    delta_wall = 0.0
    cells_touched = 0
    # the delta side is only a few ms per round, so a cyclic-GC pass
    # triggered by garbage from the *earlier* microbenches landing inside
    # it would swamp the measurement; drain that garbage once and keep
    # the collector out of the timed sections
    gc.collect()
    gc.disable()
    for round_no in range(SERIALIZE_ROUNDS):
        # a rematch-sized update: one row retires, a spread of
        # confidences move (the same script both stores must absorb)
        matrix.remove_row(f"s/e{round_no}")
        rows = matrix.row_ids
        for source_id in rows:
            i = int(source_id.rsplit("e", 1)[1])
            j = (i + round_no) % SERIALIZE_MATRIX_SIDE
            if (i + j) % 3 == 0 and i != j:
                matrix.set_confidence(
                    source_id, f"t/e{j}", ((i * j + round_no) % 100) / 100.0
                )
                cells_touched += 1

        t0 = time.perf_counter()
        remove_matrix(reference_store, matrix.name)
        _write_matrix_percell(matrix, reference_store)
        reference_wall += time.perf_counter() - t0

        t0 = time.perf_counter()
        serialize_matrix(matrix, delta_store, delta=True)
        delta_wall += time.perf_counter() - t0

        if set(delta_store) != set(reference_store):
            gc.enable()
            raise AssertionError(
                "delta serialization landed a different store state than "
                "the per-cell rewrite")
    gc.enable()

    restored = rdf_to_matrix(delta_store, matrix.name)
    want = {
        (c.source_id, c.target_id): (c.confidence, c.is_user_defined)
        for c in matrix.cells()
    }
    got = {
        (c.source_id, c.target_id): (c.confidence, c.is_user_defined)
        for c in restored.cells()
    }
    if got != want:
        raise AssertionError("delta serialization read back a different matrix")
    return {
        "serialize_cells": matrix.cell_count(),
        "serialize_rounds": SERIALIZE_ROUNDS,
        "serialize_cells_touched": cells_touched,
        "serialize_store_triples": len(delta_store),
        "serialize_percell_wall_s": round(reference_wall, 4),
        "serialize_delta_wall_s": round(delta_wall, 4),
        "serialize_speedup": round(reference_wall / delta_wall, 2),
    }


SCHEMA_ROUNDS = 6


def _schema_serialize_microbench(source):
    """A chain of small evolutions of the A12 source: the full arm
    re-lands each version with the remove + full-rewrite discipline
    ``put_schema`` used before delta mode; the delta arm diffs the new
    version against the stored subject slices through
    ``serialize_schema(delta=True, previous=...)``.  Both stores must
    hold the identical state after every round, and the serialization
    counters must show the delta arm left most triples untouched."""
    full_store, delta_store = TripleStore(), TripleStore()
    schema_to_rdf(source, full_store)
    serialize_schema(source, delta_store)
    if set(full_store) != set(delta_store):
        raise AssertionError(
            "bulk serialize_schema landed a different store state than "
            "schema_to_rdf")

    before = serialization_stats()
    current = source
    full_wall = 0.0
    delta_wall = 0.0
    gc.collect()
    gc.disable()
    for round_no in range(SCHEMA_ROUNDS):
        evolved = current.copy()
        leaves = sorted(
            e.element_id for e in evolved
            if not evolved.children(e.element_id)
            and evolved.parent(e.element_id) is not None
        )
        evolved.element(leaves[round_no]).name += "_r"
        evolved.element(leaves[-1 - round_no]).documentation = (
            f"Schema-delta bench documentation, round {round_no}.")
        evolved.revision = current.revision + 1

        t0 = time.perf_counter()
        remove_schema(full_store, evolved.name)
        schema_to_rdf(evolved, full_store)
        full_wall += time.perf_counter() - t0

        t0 = time.perf_counter()
        serialize_schema(evolved, delta_store, delta=True, previous=current)
        delta_wall += time.perf_counter() - t0

        if set(delta_store) != set(full_store):
            gc.enable()
            raise AssertionError(
                "delta schema serialization landed a different store state "
                "than the full rewrite")
        current = evolved
    gc.enable()

    after = serialization_stats()
    deltas = (after["schema_delta_serializations"]
              - before["schema_delta_serializations"])
    if deltas != SCHEMA_ROUNDS:
        raise AssertionError(
            f"{deltas} delta serializations counted over {SCHEMA_ROUNDS} "
            f"rounds — the delta path was bypassed")
    written = (after["schema_triples_written"]
               - before["schema_triples_written"])
    unchanged = (after["schema_triples_unchanged"]
                 - before["schema_triples_unchanged"])
    if written >= unchanged:
        raise AssertionError(
            f"the delta arm rewrote {written} triples but left only "
            f"{unchanged} untouched — the O(delta) path regressed to a "
            f"full rewrite")
    return {
        "schema_rounds": SCHEMA_ROUNDS,
        "schema_store_triples": len(delta_store),
        "schema_triples_written": written,
        "schema_triples_unchanged": unchanged,
        "schema_full_wall_s": round(full_wall, 4),
        "schema_delta_wall_s": round(delta_wall, 4),
        "schema_serialize_speedup": round(full_wall / delta_wall, 2),
    }


ALLPAIRS_MODELS = 12


def _allpairs_microbench():
    """The documentation voter's cross-partition sweep at registry scale:
    a 12-model registry's documentation corpus, partitioned the way
    ``warm_pair_sims`` does — one schema's docs as the source group
    against everything else.  The postings sorted-merge reference vs the
    CSR matmul route, best-of-2 after a warm pass, with identical pair
    membership and 1e-12 value agreement.  Skipped (with a note) when
    NumPy is not importable."""
    profile = RegistryProfile(
        model_count=ALLPAIRS_MODELS,
        elements_per_model=10,
        attributes_per_element=8,
        domain_values_per_attribute=0.5,
    )
    registry = generate_registry(seed=77, scale=1.0, profile=profile,
                                 name="allpairs-bench")
    loaded = load_registry(registry)
    corpus = TfIdfCorpus()
    group_a = set()
    first = loaded.schemas[0].name
    for graph in loaded.schemas:
        for element in graph:
            if element.documentation:
                doc = f"{graph.name}::{element.element_id}"
                corpus.add_document(doc, element.documentation)
                if graph.name == first:
                    group_a.add(doc)

    def group_of(doc):
        return doc in group_a

    reset_all_pairs_stats()
    merge = SparseTfIdf(corpus, all_pairs_backend="merge")
    merge_table = merge.all_pairs(group_of=group_of)  # warm the lazy pack
    merge_wall = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        merge.all_pairs(group_of=group_of)
        merge_wall = min(merge_wall, time.perf_counter() - t0)

    result = {
        "allpairs_docs": len(corpus),
        "allpairs_pairs": len(merge_table),
        "allpairs_merge_wall_s": round(merge_wall, 4),
    }
    csr = SparseTfIdf(corpus, all_pairs_backend="csr")
    try:
        csr_table = csr.all_pairs(group_of=group_of)
    except ImportError:
        print("note: numpy not importable; all-pairs CSR gate skipped")
        return result
    csr_wall = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        csr.all_pairs(group_of=group_of)
        csr_wall = min(csr_wall, time.perf_counter() - t0)

    if set(csr_table) != set(merge_table):
        raise AssertionError("CSR all_pairs scored a different pair set")
    worst = max(abs(csr_table[p] - merge_table[p]) for p in merge_table)
    if worst > SPARSE_TOLERANCE:
        raise AssertionError(
            f"CSR all_pairs drifted from the postings merge by {worst} "
            f"(> {SPARSE_TOLERANCE})")
    routing = all_pairs_stats()
    if routing["allpairs_merge_sweeps"] != 3 or routing["allpairs_csr_sweeps"] != 3:
        raise AssertionError(
            f"all_pairs routing counters {routing} — each arm must have "
            f"run its own backend exactly three times (warm + best-of-2)")
    if routing["allpairs_csr_oversize_fallbacks"] != 0:
        raise AssertionError(
            "the CSR arm fell back to the merge on an oversize guard — "
            "the bench corpus no longer fits the dense budget")
    result.update({
        "allpairs_csr_wall_s": round(csr_wall, 4),
        "allpairs_speedup": round(merge_wall / csr_wall, 2),
    })
    return result


PLANNER_MATRIX_SIDE = 40
PLANNER_ROUNDS = 20


def _planner_microbench():
    """A selective 3-pattern BGP over a blackboard-sized store: the
    reference evaluator scans every cell; the planner starts from the
    rare user-defined pattern and bind-joins the hasCell membership."""
    matrix = MappingMatrix("planner-bench")
    for i in range(PLANNER_MATRIX_SIDE):
        matrix.add_row(f"s/e{i}")
        matrix.add_column(f"t/e{i}")
    for i in range(PLANNER_MATRIX_SIDE):
        for j in range(PLANNER_MATRIX_SIDE):
            if i == j and i % 8 == 0:
                matrix.set_confidence(f"s/e{i}", f"t/e{j}", 1.0, user_defined=True)
            elif (i + j) % 3 == 0:
                matrix.set_confidence(f"s/e{i}", f"t/e{j}", ((i * j) % 100) / 100.0)
    store = TripleStore()
    matrix_to_rdf(matrix, store)

    cell, conf = Variable("cell"), Variable("conf")

    def query():
        return (
            Query()
            .where(matrix_iri("planner-bench"), V.HAS_CELL, cell)
            .where(cell, V.CONFIDENCE_SCORE, conf)
            .where(cell, V.IS_USER_DEFINED, literal(True))
        )

    t0 = time.perf_counter()
    for _ in range(PLANNER_ROUNDS):
        reference = evaluate_reference(store, query())
    reference_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(PLANNER_ROUNDS):
        planned = evaluate_planned(store, query())
    planned_wall = time.perf_counter() - t0

    def multiset(solutions):
        return sorted(
            tuple(sorted((v.name, str(t)) for v, t in b.items()))
            for b in solutions
        )

    if multiset(planned) != multiset(reference):
        raise AssertionError("planned solutions differ from reference")
    return {
        "planner_store_triples": len(store),
        "planner_solutions": len(planned),
        "planner_reference_wall_s": round(reference_wall, 4),
        "planner_wall_s": round(planned_wall, 4),
        "planner_speedup": round(reference_wall / planned_wall, 2),
    }


def _durability_microbench(source, target):
    """Two durability gates.

    **WAL overhead** — the engineer workflow (one A12 fast match, then
    persisting both schemas and the matrix) through an in-memory
    blackboard vs a WAL-backed durable one (``fsync="commit"``),
    best-of-2 per arm with cold kernel caches each run.

    **Recovery speedup** — a blackboard holding an 80-model registry's
    schemas plus the decided mappings of ``DURABILITY_MATCH_PAIRS``
    default-config matches (the one pipeline without blocking; ≥100k
    triples) is checkpointed, reopened
    (snapshot decode + ``bulk_load`` + WAL-tail replay), and the open
    time is compared against rebuilding the identical state from schema
    sources: re-importing the registry, re-running every match, and
    re-serializing.  Mappings are what the paper's blackboard stores, so
    losing the durable directory really does mean re-running matchers —
    that is the cost recovery must beat.
    """
    def persist_workload(board):
        run = HarmonyEngine(config=EngineConfig.fast()).match(source, target)
        board.put_schema(source)
        board.put_schema(target)
        board.put_matrix(run.matrix)

    memory_wall = float("inf")
    for _ in range(2):
        kernels.clear_caches()
        board = IntegrationBlackboard()
        t0 = time.perf_counter()
        persist_workload(board)
        memory_wall = min(memory_wall, time.perf_counter() - t0)

    durable_wall = float("inf")
    wal_bytes = 0
    with tempfile.TemporaryDirectory() as tmp:
        for attempt in range(2):
            kernels.clear_caches()
            board = IntegrationBlackboard(
                durable=os.path.join(tmp, f"ib{attempt}"), fsync="commit")
            t0 = time.perf_counter()
            persist_workload(board)
            board.durability.sync()
            durable_wall = min(durable_wall, time.perf_counter() - t0)
            wal_bytes = board.durability.wal_size
            board.close()

    # -- recovery arm ------------------------------------------------------
    profile = RegistryProfile(
        model_count=DURABILITY_MODELS,
        elements_per_model=12,
        attributes_per_element=8,
        domain_values_per_attribute=0.5,
    )
    registry = generate_registry(seed=41, scale=1.0, profile=profile,
                                 name="durability")

    def decided_mapping(run, name):
        mapping = MappingMatrix(name)
        for link in run.matrix.links(DURABILITY_LINK_THRESHOLD):
            if link.source_id not in mapping.row_ids:
                mapping.add_row(link.source_id)
            if link.target_id not in mapping.column_ids:
                mapping.add_column(link.target_id)
            mapping.set_confidence(
                link.source_id, link.target_id, link.confidence)
        return mapping

    def rebuild(store):
        loaded = load_registry(registry)
        for graph in loaded.schemas:
            schema_to_rdf(graph, store)
        for i in range(DURABILITY_MATCH_PAIRS):
            run = HarmonyEngine().match(
                loaded.schemas[2 * i], loaded.schemas[2 * i + 1])
            serialize_matrix(decided_mapping(run, f"mapping-{i}"), store)

    with tempfile.TemporaryDirectory() as tmp:
        directory = os.path.join(tmp, "ib")
        kernels.clear_caches()
        durable = DurableStore(directory, fsync="commit")
        rebuild(durable.store)
        durable.sync()
        durable.checkpoint()
        # a post-checkpoint tail so recovery replays WAL frames too
        durable.store.add_many([
            Triple(IRI(f"urn:bench:tail{i}"), V.NAME, literal(i))
            for i in range(100)
        ])
        durable.sync()
        triple_count = len(durable.store)
        revision = durable.revision
        durable.close()

        kernels.clear_caches()
        fresh = TripleStore()
        t0 = time.perf_counter()
        rebuild(fresh)
        rebuild_wall = time.perf_counter() - t0

        t0 = time.perf_counter()
        recovered = DurableStore(directory)
        recovery_wall = time.perf_counter() - t0
        if len(recovered.store) != triple_count:
            raise AssertionError(
                f"recovery lost triples: {len(recovered.store)} of "
                f"{triple_count}")
        if recovered.revision != revision:
            raise AssertionError(
                f"recovered revision {recovered.revision} != primary's "
                f"{revision}")
        if recovered.stats["recovered_frames"] != 1:
            raise AssertionError(
                "recovery did not replay the post-checkpoint WAL tail")
        recovered.close()

    return {
        "wal_memory_wall_s": round(memory_wall, 4),
        "wal_durable_wall_s": round(durable_wall, 4),
        "wal_overhead": round(durable_wall / memory_wall, 3),
        "wal_bytes": wal_bytes,
        "durability_store_triples": triple_count,
        "durability_rebuild_wall_s": round(rebuild_wall, 4),
        "durability_recovery_wall_s": round(recovery_wall, 4),
        "recovery_speedup": round(rebuild_wall / recovery_wall, 2),
    }


def _nway_parallel_microbench():
    """Serial vs process-pool ``match_all_pairs`` over the 50-schema
    family workload, same ``EngineConfig.fast()`` both arms.  The pool
    must be bit-identical and, given >=2 CPUs, at least
    ``NWAY_MIN_PARALLEL_SPEEDUP`` times faster."""
    schemas, _ = family_workload(NWAY_PARALLEL_TIER)
    pair_count = NWAY_PARALLEL_TIER * (NWAY_PARALLEL_TIER - 1) // 2
    config = EngineConfig.fast()

    t0 = time.perf_counter()
    serial = match_all_pairs(schemas, engine_config=config)
    serial_wall = time.perf_counter() - t0

    result = {
        "nway_schemas": NWAY_PARALLEL_TIER,
        "nway_pairs": pair_count,
        "nway_serial_wall_s": round(serial_wall, 4),
    }
    cpus = os.cpu_count() or 1
    if cpus < 2:
        print("note: single CPU; N-way parallel gate skipped")
        return result

    workers = min(4, cpus)
    t0 = time.perf_counter()
    parallel = match_all_pairs(
        schemas, engine_config=config, parallelism=workers)
    parallel_wall = time.perf_counter() - t0

    if list(parallel) != list(serial):
        raise AssertionError("parallel match_all_pairs changed the pair order")
    worst = 0.0
    for key in serial:
        want = {
            (c.source_id, c.target_id): c.confidence
            for c in serial[key].cells()
        }
        got = {
            (c.source_id, c.target_id): c.confidence
            for c in parallel[key].cells()
        }
        if set(want) != set(got):
            raise AssertionError(
                f"parallel matrix {key} scored a different cell set")
        worst = max(
            (abs(want[p] - got[p]) for p in want), default=worst)
    if worst > SPARSE_TOLERANCE:
        raise AssertionError(
            f"parallel matrices drifted from serial by {worst} "
            f"(> {SPARSE_TOLERANCE})")
    result.update({
        "nway_workers": workers,
        "nway_parallel_wall_s": round(parallel_wall, 4),
        "nway_parallel_speedup": round(serial_wall / parallel_wall, 2),
    })
    return result


def _serving_microbench(source, target):
    """Two serving gates (see the module docstring).

    **Overhead** — the same single-session sequential workload — match on
    a warm engine, write the matrix back in a transaction, run the
    ``strong_cells`` canned query, update one cell — once as direct
    ``WorkbenchManager`` + ``HarmonyEngine`` calls and once through the
    ``WorkbenchServer`` job queue (one worker, one job in flight at a
    time).  The direct arm mirrors the server handler exactly (existing
    matrix re-fetched from the blackboard each round), so the ratio
    isolates the queue hop, session lock, and future plumbing.

    **Throughput** — ``SERVING_LOAD_SESSIONS`` sessions each firing
    ``SERVING_LOAD_MATCHES`` matches, submitted all at once: the
    single-worker thread server vs 4 process-executor workers.  The
    matrices must be bit-identical; given >=2 CPUs the process pool must
    reach ``SERVING_MIN_PARALLEL_SPEEDUP`` times the aggregate
    throughput.
    """
    from repro.serving import ServingConfig, WorkbenchServer
    from repro.workbench import WorkbenchManager
    from repro.workbench.queries import strong_cells

    matrix_name = f"{source.name}->{target.name}"
    cell_source = sorted(e.element_id for e in source)[1]
    cell_target = sorted(e.element_id for e in target)[1]

    def direct_round(manager, engine):
        board = manager.blackboard
        if board.has_matrix(matrix_name):
            matrix = board.get_matrix(matrix_name)
            matrix.name = matrix_name
        else:
            matrix = MappingMatrix.from_schemas(source, target)
            matrix.name = matrix_name
        engine.match(source, target, matrix=matrix)
        with manager.transaction():
            board.put_matrix(matrix)
        strong_cells(board.store, matrix_name, 0.5)
        board.update_cell(matrix_name, cell_source, cell_target, 1.0,
                          user_defined=True)

    direct_wall = float("inf")
    for _ in range(2):
        kernels.clear_caches()
        manager = WorkbenchManager()
        manager.blackboard.put_schema(source)
        manager.blackboard.put_schema(target)
        engine = HarmonyEngine(config=EngineConfig.fast())
        t0 = time.perf_counter()
        for _ in range(SERVING_ROUNDS):
            direct_round(manager, engine)
        direct_wall = min(direct_wall, time.perf_counter() - t0)
        manager.close()

    served_wall = float("inf")
    for _ in range(2):
        kernels.clear_caches()
        server = WorkbenchServer(ServingConfig(workers=1))
        server.put_schema("smoke", source).result(60)
        server.put_schema("smoke", target).result(60)
        t0 = time.perf_counter()
        for _ in range(SERVING_ROUNDS):
            server.match("smoke", source.name, target.name).result(60)
            server.query("smoke", "strong_cells", matrix_name=matrix_name,
                         threshold=0.5).result(60)
            server.update_cell("smoke", matrix_name, cell_source,
                               cell_target, 1.0,
                               user_defined=True).result(60)
        served_wall = min(served_wall, time.perf_counter() - t0)
        server.close()

    result = {
        "serving_rounds": SERVING_ROUNDS,
        "serving_direct_wall_s": round(direct_wall, 4),
        "serving_served_wall_s": round(served_wall, 4),
        "serving_overhead": round(served_wall / direct_wall, 3),
    }

    # -- throughput arm ----------------------------------------------------
    def serve_load(config):
        kernels.clear_caches()
        server = WorkbenchServer(config)
        names = [f"s{i}" for i in range(SERVING_LOAD_SESSIONS)]
        for name in names:
            server.put_schema(name, source).result(60)
            server.put_schema(name, target).result(60)
        handles = []
        t0 = time.perf_counter()
        for _ in range(SERVING_LOAD_MATCHES):
            for name in names:
                handles.append(server.match(name, source.name, target.name))
        matrices = [handle.result(300) for handle in handles]
        wall = time.perf_counter() - t0
        server.close()
        cells = [
            {(c.source_id, c.target_id): c.confidence
             for c in matrix.cells()}
            for matrix in matrices
        ]
        return wall, cells

    serial_wall, serial_cells = serve_load(ServingConfig(workers=1))
    jobs = SERVING_LOAD_SESSIONS * SERVING_LOAD_MATCHES
    result.update({
        "serving_load_jobs": jobs,
        "serving_serial_wall_s": round(serial_wall, 4),
        "serving_serial_rps": round(jobs / serial_wall, 1),
    })
    cpus = os.cpu_count() or 1
    if cpus < 2:
        print("note: single CPU; serving throughput gate skipped")
        return result

    pool_wall, pool_cells = serve_load(
        ServingConfig(workers=4, executor="process"))
    if pool_cells != serial_cells:
        raise AssertionError(
            "process-executor serving changed some matrix bits vs the "
            "single-worker thread server")
    result.update({
        "serving_parallel_wall_s": round(pool_wall, 4),
        "serving_parallel_rps": round(jobs / pool_wall, 1),
        "serving_parallel_speedup": round(serial_wall / pool_wall, 2),
    })
    return result


def _nway_pruned_microbench():
    """Exhaustive vs hub-pruned N-way matching over the 100-schema family
    workload, both arms at the same parallelism.  Clustering quality is
    scored against the workload's ground truth; pruning must cost at
    most ``NWAY_MAX_F1_LOSS`` of it (it gains, in practice)."""
    schemas, truth = family_workload(NWAY_PRUNED_TIER)
    config = EngineConfig.fast()
    workers = min(4, os.cpu_count() or 1)
    parallelism = workers if workers >= 2 else 1

    t0 = time.perf_counter()
    exhaustive = match_all_pairs(
        schemas, engine_config=config, parallelism=parallelism)
    exhaustive_wall = time.perf_counter() - t0

    t0 = time.perf_counter()
    selection = select_pairs(schemas, hub_count=2, partners_per_schema=3)
    pruned = match_all_pairs(
        schemas, engine_config=config, parallelism=parallelism,
        selection=selection)
    pruned_wall = time.perf_counter() - t0

    exhaustive_f1 = cluster_pair_f1(
        cluster_elements(schemas, exhaustive, threshold=NWAY_THRESHOLD), truth)
    pruned_f1 = cluster_pair_f1(
        cluster_elements(schemas, pruned, threshold=NWAY_THRESHOLD), truth)
    return {
        "nway_pruned_schemas": NWAY_PRUNED_TIER,
        "nway_pruned_parallelism": parallelism,
        "nway_total_pairs": selection.total_pairs,
        "nway_kept_pairs": selection.kept_pairs,
        "nway_pruning_ratio": round(selection.pruning_ratio, 4),
        "nway_exhaustive_wall_s": round(exhaustive_wall, 4),
        "nway_pruned_wall_s": round(pruned_wall, 4),
        "nway_pruned_speedup": round(exhaustive_wall / pruned_wall, 2),
        "nway_exhaustive_truth_f1": round(exhaustive_f1, 4),
        "nway_pruned_truth_f1": round(pruned_f1, 4),
    }


def main(argv) -> int:
    write_baseline = "--write-baseline" in argv
    raw_tolerance = os.environ.get("PERF_SMOKE_TOLERANCE", "2.0")
    try:
        tolerance = float(raw_tolerance)
    except ValueError:
        print(f"error: PERF_SMOKE_TOLERANCE must be a number, "
              f"got {raw_tolerance!r}", file=sys.stderr)
        return 2
    source, target = _schema_pair()

    t0 = time.perf_counter()
    run_default = HarmonyEngine().match(source, target)
    default_wall = time.perf_counter() - t0

    kernels.clear_caches()
    t0 = time.perf_counter()
    run_fast = HarmonyEngine(config=EngineConfig.fast()).match(source, target)
    fast_wall = time.perf_counter() - t0

    speedup = default_wall / fast_wall
    blocking = run_fast.blocking
    result = {
        "default_wall_s": round(default_wall, 4),
        "fast_wall_s": round(fast_wall, 4),
        "speedup": round(speedup, 2),
        "fast_pairs": blocking.kept_pairs,
        "total_pairs": blocking.total_pairs,
        "pruning_ratio": round(blocking.pruning_ratio, 4),
        "default_cells": run_default.matrix.cell_count(),
        "fast_cells": run_fast.matrix.cell_count(),
        "engine_token_jw_hit_rate": kernels.cache_stats()["token_jw"]["hit_rate"],
    }
    result.update(_kernel_microbench(source, target))
    result.update(_sparse_microbench(source, target))
    result.update(_planner_microbench())
    result.update(_flooding_microbench(source, target))
    result.update(_rematch_microbench(source, target))
    result.update(_refine_rounds_microbench(source, target))
    result.update(_sweep_microbench(source, target))
    result.update(_blocking_microbench(source, target))
    result.update(_embedding_microbench(source, target))
    result.update(_serialize_microbench())
    result.update(_schema_serialize_microbench(source))
    result.update(_allpairs_microbench())
    result.update(_durability_microbench(source, target))
    result.update(_nway_parallel_microbench())
    result.update(_serving_microbench(source, target))
    result.update(_nway_pruned_microbench())
    print("perf smoke (A12-large pair):")
    for key, value in result.items():
        print(f"  {key:>16}: {value}")

    os.makedirs(os.path.dirname(BASELINE_PATH), exist_ok=True)
    # mirror conftest.perf_record's merge discipline: refresh this run's
    # entry without erasing the pytest benches' numbers
    merged = {}
    if os.path.exists(PERF_PATH):
        try:
            with open(PERF_PATH, "r", encoding="utf-8") as handle:
                merged = json.load(handle)
        except (OSError, ValueError):
            merged = {}
    merged["perf_smoke"] = result
    with open(PERF_PATH, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")

    if write_baseline:
        with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
            json.dump({"perf_smoke": result}, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    failures = []
    if speedup < MIN_SPEEDUP:
        failures.append(
            f"fast path only {speedup:.2f}x faster than default "
            f"(required >= {MIN_SPEEDUP}x)")
    if blocking.pruning_ratio < MIN_PRUNING:
        failures.append(
            f"blocking pruned only {blocking.pruning_ratio:.0%} of pairs "
            f"(required >= {MIN_PRUNING:.0%})")
    if result["kernel_warm_speedup"] < KERNEL_MIN_SPEEDUP:
        failures.append(
            f"warm kernel Jaro-Winkler only {result['kernel_warm_speedup']:.2f}x "
            f"faster than reference (required >= {KERNEL_MIN_SPEEDUP}x)")
    if result["kernel_hit_rate"] < KERNEL_MIN_HIT_RATE:
        failures.append(
            f"kernel token-cache hit rate {result['kernel_hit_rate']:.0%} "
            f"below {KERNEL_MIN_HIT_RATE:.0%} — memo cache regressed")
    if result["sparse_speedup"] < SPARSE_MIN_SPEEDUP:
        failures.append(
            f"sparse all_pairs only {result['sparse_speedup']:.2f}x faster "
            f"than per-pair dict cosine (required >= {SPARSE_MIN_SPEEDUP}x)")
    if result["planner_speedup"] < PLANNER_MIN_SPEEDUP:
        failures.append(
            f"planned BGP only {result['planner_speedup']:.2f}x faster "
            f"than the reference evaluator (required >= {PLANNER_MIN_SPEEDUP}x)")
    if result["flooding_speedup"] < FLOODING_MIN_SPEEDUP:
        failures.append(
            f"compiled flooding only {result['flooding_speedup']:.2f}x faster "
            f"than the dict reference (required >= {FLOODING_MIN_SPEEDUP}x)")
    if result["rematch_speedup"] < REMATCH_MIN_SPEEDUP:
        failures.append(
            f"warm rematch only {result['rematch_speedup']:.2f}x faster "
            f"than a cold match (required >= {REMATCH_MIN_SPEEDUP}x)")
    if "sweep_speedup" in result and result["sweep_speedup"] < SWEEP_MIN_SPEEDUP:
        failures.append(
            f"numpy sweep only {result['sweep_speedup']:.2f}x faster "
            f"than the python loop (required >= {SWEEP_MIN_SPEEDUP}x)")
    if ("sweep_c_speedup" in result
            and result["sweep_c_speedup"] < C_SWEEP_MIN_SPEEDUP):
        failures.append(
            f"C sweep only {result['sweep_c_speedup']:.2f}x faster than "
            f"the python loop (required >= {C_SWEEP_MIN_SPEEDUP}x)")
    if ("sweep_c_vs_numpy" in result
            and result["sweep_c_vs_numpy"] < C_SWEEP_MIN_VS_NUMPY):
        failures.append(
            f"C sweep only {result['sweep_c_vs_numpy']:.2f}x faster than "
            f"the numpy sweep (required >= {C_SWEEP_MIN_VS_NUMPY}x)")
    if result["schema_serialize_speedup"] < SCHEMA_SERIALIZE_MIN_SPEEDUP:
        failures.append(
            f"delta schema serialization only "
            f"{result['schema_serialize_speedup']:.2f}x faster than the "
            f"remove + full-rewrite path "
            f"(required >= {SCHEMA_SERIALIZE_MIN_SPEEDUP}x)")
    if ("allpairs_speedup" in result
            and result["allpairs_speedup"] < ALLPAIRS_MIN_SPEEDUP):
        failures.append(
            f"CSR all_pairs only {result['allpairs_speedup']:.2f}x faster "
            f"than the postings merge (required >= {ALLPAIRS_MIN_SPEEDUP}x)")
    if result["blocking_index_speedup"] < BLOCKING_MIN_SPEEDUP:
        failures.append(
            f"patched blocking only {result['blocking_index_speedup']:.2f}x "
            f"faster than a cold index build "
            f"(required >= {BLOCKING_MIN_SPEEDUP}x)")
    embed_min_speedup = (
        EMBED_MIN_SPEEDUP_NUMPY if result["embed_backend"] == "numpy"
        else EMBED_MIN_SPEEDUP_PYTHON)
    if result["embed_ann_speedup"] < embed_min_speedup:
        failures.append(
            f"ANN top-k only {result['embed_ann_speedup']:.2f}x faster than "
            f"exhaustive cosine on the {result['embed_backend']} backend "
            f"(required >= {embed_min_speedup}x)")
    if result["embed_ann_recall"] < EMBED_MIN_RECALL:
        failures.append(
            f"ANN recall@{EMBED_TOPK} {result['embed_ann_recall']:.3f} below "
            f"{EMBED_MIN_RECALL} against the exhaustive oracle")
    ann_blocking_bar = (
        ANN_BLOCKING_MAX_OVERHEAD if result["embed_backend"] == "numpy"
        else ANN_BLOCKING_MAX_OVERHEAD_PYTHON)
    if result["ann_blocking_overhead"] > ann_blocking_bar:
        failures.append(
            f"ANN blocking cost {result['ann_blocking_overhead']:.3f}x the "
            f"inverted-index path on the {result['embed_backend']} backend "
            f"(allowed <= {ann_blocking_bar}x)")
    if result["ann_blocking_recall"] < result["ann_blocking_recall_inverted"]:
        failures.append(
            f"ANN blocking candidate recall {result['ann_blocking_recall']:.3f} "
            f"below the inverted path's "
            f"{result['ann_blocking_recall_inverted']:.3f} — equal or better "
            f"is required at the same budget")
    if result["serialize_speedup"] < SERIALIZE_MIN_SPEEDUP:
        failures.append(
            f"delta re-serialization only {result['serialize_speedup']:.2f}x "
            f"faster than the per-cell rewrite "
            f"(required >= {SERIALIZE_MIN_SPEEDUP}x)")
    if result["wal_overhead"] > WAL_MAX_OVERHEAD:
        failures.append(
            f"WAL-on match+persist cost {result['wal_overhead']:.3f}x the "
            f"in-memory blackboard (allowed <= {WAL_MAX_OVERHEAD}x)")
    if result["durability_store_triples"] < DURABILITY_MIN_TRIPLES:
        failures.append(
            f"recovery-gate blackboard holds only "
            f"{result['durability_store_triples']} triples "
            f"(required >= {DURABILITY_MIN_TRIPLES}) — the scenario shrank")
    if result["recovery_speedup"] < RECOVERY_MIN_SPEEDUP:
        failures.append(
            f"snapshot+replay recovery only {result['recovery_speedup']:.2f}x "
            f"faster than rebuilding from schema sources "
            f"(required >= {RECOVERY_MIN_SPEEDUP}x)")
    if ("nway_parallel_speedup" in result
            and result["nway_parallel_speedup"] < NWAY_MIN_PARALLEL_SPEEDUP):
        failures.append(
            f"N-way process pool only {result['nway_parallel_speedup']:.2f}x "
            f"faster than the serial pair loop "
            f"(required >= {NWAY_MIN_PARALLEL_SPEEDUP}x)")
    if result["serving_overhead"] > SERVING_MAX_OVERHEAD:
        failures.append(
            f"serving layer cost {result['serving_overhead']:.3f}x the "
            f"direct WorkbenchManager calls on the sequential workload "
            f"(allowed <= {SERVING_MAX_OVERHEAD}x)")
    if ("serving_parallel_speedup" in result
            and result["serving_parallel_speedup"]
            < SERVING_MIN_PARALLEL_SPEEDUP):
        failures.append(
            f"4 process-executor serving workers only "
            f"{result['serving_parallel_speedup']:.2f}x the single-worker "
            f"thread server's throughput "
            f"(required >= {SERVING_MIN_PARALLEL_SPEEDUP}x)")
    if result["nway_pruned_speedup"] < NWAY_MIN_PRUNED_SPEEDUP:
        failures.append(
            f"hub-pruned N-way sweep only {result['nway_pruned_speedup']:.2f}x "
            f"faster than exhaustive (required >= {NWAY_MIN_PRUNED_SPEEDUP}x)")
    if (result["nway_pruned_truth_f1"]
            < result["nway_exhaustive_truth_f1"] - NWAY_MAX_F1_LOSS):
        failures.append(
            f"pruned clustering truth F1 {result['nway_pruned_truth_f1']:.3f} "
            f"fell more than {NWAY_MAX_F1_LOSS} below the exhaustive arm's "
            f"{result['nway_exhaustive_truth_f1']:.3f}")
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)["perf_smoke"]
        limit = baseline["fast_wall_s"] * tolerance
        if fast_wall > limit:
            failures.append(
                f"fast wall {fast_wall:.3f}s exceeds baseline "
                f"{baseline['fast_wall_s']:.3f}s x {tolerance} tolerance "
                f"(set PERF_SMOKE_TOLERANCE or rerun --write-baseline)")
    else:
        print(f"note: no baseline at {BASELINE_PATH}; absolute check skipped")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("perf smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
