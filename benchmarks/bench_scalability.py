"""A12 — matcher scalability vs schema size.

Not a paper artifact, but the number an adopter asks first: how does one
Harmony engine run scale with schema size?  Candidate-pair scoring is
O(|S|·|T|) within kind families, so the default engine — the one match
pipeline without candidate blocking — grows roughly quadratically in the
element count.  ``EngineConfig.fast()`` (candidate blocking + context
caching + the accelerated sweep backend, see docs/performance.md) prunes
the pair space to O(S·budget); this bench pins both down across three
sizes and records the wall times, pair counts and pruning ratio into
``results/BENCH_perf.json`` so the perf trajectory is tracked per commit.
"""

import time

import pytest

from repro.harmony import EngineConfig, HarmonyEngine
from repro.registry import RegistryProfile, generate_registry

#: (label, entities per model, attributes per entity)
SIZES = [("small", 3, 4), ("medium", 6, 6), ("large", 10, 8)]


def _schema_pair(entities: int, attributes: int, seed: int):
    profile = RegistryProfile(
        model_count=2,
        elements_per_model=entities,
        attributes_per_element=attributes,
        domain_values_per_attribute=0.5,
    )
    registry = generate_registry(seed=seed, scale=1.0, profile=profile,
                                 name="scale-bench")
    from repro.loaders import load_registry

    loaded = load_registry(registry)
    return loaded.schemas[0], loaded.schemas[1]


@pytest.mark.parametrize("label,entities,attributes", SIZES,
                         ids=[s[0] for s in SIZES])
def test_a12_engine_scalability(benchmark, label, entities, attributes):
    source, target = _schema_pair(entities, attributes, seed=99)
    engine = HarmonyEngine()
    run = benchmark(engine.match, source, target)
    # sanity: the run scored a quadratic-ish candidate space and produced cells
    assert len(run.matrix.row_ids) >= entities
    assert run.matrix.cell_count() > 0


@pytest.mark.parametrize("label,entities,attributes", SIZES,
                         ids=[s[0] for s in SIZES])
def test_a12_engine_scalability_fast(benchmark, label, entities, attributes):
    source, target = _schema_pair(entities, attributes, seed=99)
    engine = HarmonyEngine(config=EngineConfig.fast())
    run = benchmark(engine.match, source, target)
    assert run.blocking is not None
    assert run.matrix.cell_count() > 0


def test_a12_report(benchmark, report, perf_record):
    lines = [
        "A12 — engine wall time vs schema size (see pytest-benchmark table)",
        "",
        f"{'size':<8} {'elements (src x tgt)':>22} {'pairs (dflt)':>13} "
        f"{'pairs (fast)':>13} {'pruned':>7} {'unblocked s':>12} {'fast s':>8} {'x':>5}",
        "-" * 96,
    ]
    perf = {}
    for label, entities, attributes in SIZES:
        source, target = _schema_pair(entities, attributes, seed=99)
        t0 = time.perf_counter()
        run_default = HarmonyEngine().match(source, target)
        default_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        run_fast = HarmonyEngine(config=EngineConfig.fast()).match(source, target)
        fast_wall = time.perf_counter() - t0
        default_pairs = len({(v.source_id, v.target_id) for v in run_default.votes})
        blocking = run_fast.blocking
        lines.append(
            f"{label:<8} {f'{len(source)} x {len(target)}':>22} "
            f"{default_pairs:>13} {blocking.kept_pairs:>13} "
            f"{blocking.pruning_ratio:>7.0%} {default_wall:>12.3f} "
            f"{fast_wall:>8.3f} {default_wall / fast_wall:>5.1f}"
        )
        perf[label] = {
            "elements_source": len(source),
            "elements_target": len(target),
            "default_wall_s": round(default_wall, 4),
            "fast_wall_s": round(fast_wall, 4),
            "speedup": round(default_wall / fast_wall, 2),
            "default_pairs": default_pairs,
            "fast_pairs": blocking.kept_pairs,
            "pruning_ratio": round(blocking.pruning_ratio, 4),
        }
    lines.append("")
    lines.append(
        "dflt = EngineConfig(): the one match pipeline without candidate "
        "blocking; fast = EngineConfig.fast(): the same pipeline with "
        "blocking, context reuse and the accelerated sweep backend"
    )
    lines.append(
        "shape: default pair counts (and therefore wall time) grow "
        "quadratically with schema size within kind families; the fast "
        "path caps pairs at O(S*budget) via candidate blocking "
        "(docs/performance.md) — use sub-tree focus (Section 4.2) on top "
        "to keep interactive latency flat on very large schemata"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    report("A12_scalability", "\n".join(lines))
    perf_record("A12_scalability", perf)
