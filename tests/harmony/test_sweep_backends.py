"""Differential harness: the two sweep kernels of compiled flooding.

``CompiledPCG.run`` and ``directional_flooding_compiled`` delegate their
inner fixpoint to a kernel.  The Python kernel is bit-identical to the
``classic_flooding`` oracle (``tests/oracles``) on a cold compile — that
is already pinned by ``test_flooding_compiled_differential``; the C
kernel (``repro.harmony._csweep``) runs the Python loop
statement-for-statement over the flat buffers.  Both accumulate in edge
order, so they perform the same float additions in the same sequence —
this file holds them to ``TOLERANCE`` (they are bit-identical in
practice), covers the directional sweep the same way, and proves the
process picks C when the extension is built and degrades to Python
silently when it is not.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ElementKind, SchemaElement, SchemaGraph
from repro.harmony import EngineConfig, HarmonyEngine
from repro.harmony import flooding as flooding_mod
from repro.harmony.flooding import (
    PYTHON_SWEEP_BACKEND,
    CSweepBackend,
    DirectionalConfig,
    FloodingConfig,
    compile_pcg,
    default_sweep_backend,
    directional_flooding_compiled,
    reset_sweep_run_stats,
    sweep_run_stats,
)
from tests.oracles import classic_flooding, directional_flooding

TOLERANCE = 1e-12

seeds = st.integers(min_value=0, max_value=10_000)

HAS_CSWEEP = flooding_mod._probe_csweep() is not None
needs_csweep = pytest.mark.skipif(
    not HAS_CSWEEP, reason="_csweep extension not built"
)


def _random_graph(name, seed, size=14):
    rng = random.Random(seed)
    graph = SchemaGraph.create(name)
    ids = [name]
    for i in range(size):
        element_id = f"{name}/e{i}"
        kind = (
            ElementKind.ENTITY if i % 4 == 0
            else ElementKind.ATTRIBUTE if i % 4 in (1, 2)
            else ElementKind.DOMAIN
        )
        graph.add_child(rng.choice(ids), SchemaElement(element_id, f"elem{i}", kind))
        ids.append(element_id)
    for _ in range(3):
        a, b = rng.choice(ids), rng.choice(ids)
        if a != b:
            graph.add_edge(a, "references", b)
    return graph, ids


def _random_initial(source_ids, target_ids, seed, n=25):
    rng = random.Random(seed)
    return {
        (rng.choice(source_ids), rng.choice(target_ids)): rng.uniform(0.0, 1.0)
        for _ in range(n)
    }


def _random_scores(source_ids, target_ids, seed, n=25):
    rng = random.Random(seed)
    return {
        (rng.choice(source_ids), rng.choice(target_ids)): rng.uniform(-1.0, 1.0)
        for _ in range(n)
    }


def _cells(matrix):
    return {
        (c.source_id, c.target_id): (c.confidence, c.is_user_defined)
        for c in matrix.cells()
    }


@pytest.fixture
def no_extension(monkeypatch):
    """The process as it runs where the ``_csweep`` extension is not
    built: the kernel pick is redone with the probe failing."""
    monkeypatch.setattr(flooding_mod, "_probe_csweep", lambda: None)
    default_sweep_backend.cache_clear()
    yield
    default_sweep_backend.cache_clear()


# -- kernel selection ---------------------------------------------------------


class TestBackendSelection:
    @needs_csweep
    def test_default_is_c_when_built(self):
        kernel = default_sweep_backend()
        assert isinstance(kernel, CSweepBackend)
        assert kernel.name == "c"
        assert default_sweep_backend() is kernel

    def test_auto_degrades_to_python_without_accelerators(self, no_extension):
        assert default_sweep_backend() is PYTHON_SWEEP_BACKEND

    def test_explicit_c_raises_actionably_without_extension(self, no_extension):
        with pytest.raises(ImportError, match="build_ext"):
            CSweepBackend()

    def test_engine_auto_runs_without_accelerators(self, no_extension):
        """The full fast preset must work on an accelerator-free install."""
        source, sids = _random_graph("s", 3)
        target, tids = _random_graph("t", 4)
        engine = HarmonyEngine(config=EngineConfig.fast(flooding="classic"))
        run = engine.match(source, target)
        assert run.matrix.cell_count() > 0
        assert engine.fastpath_stats()["sweep_backend"] == "python"

    @needs_csweep
    def test_engine_reports_c_backend(self):
        engine = HarmonyEngine(config=EngineConfig.fast(flooding="classic"))
        assert engine.fastpath_stats()["sweep_backend"] == "c"


# -- sweep-run accounting -----------------------------------------------------


class TestSweepRunStats:
    def test_classic_runs_counted_per_backend(self):
        source, sids = _random_graph("s", 11)
        target, tids = _random_graph("t", 12)
        initial = _random_initial(sids, tids, 13)
        compiled = compile_pcg(source, target)
        reset_sweep_run_stats()
        compiled.run(initial, backend=PYTHON_SWEEP_BACKEND)
        compiled.run(initial, backend=PYTHON_SWEEP_BACKEND)
        stats = sweep_run_stats()
        assert stats["sweep_classic_runs_python"] == 2
        assert stats["sweep_directional_runs_python"] == 0

    def test_directional_runs_counted(self):
        source, sids = _random_graph("s", 14)
        target, tids = _random_graph("t", 15)
        scores = _random_scores(sids, tids, 16)
        reset_sweep_run_stats()
        directional_flooding_compiled(source, target, scores)
        stats = sweep_run_stats()
        name = default_sweep_backend().name
        assert stats[f"sweep_directional_runs_{name}"] == 1
        assert sum(stats.values()) == 1

    def test_stats_surface_in_engine_fastpath_stats(self):
        engine = HarmonyEngine(config=EngineConfig())
        stats = engine.fastpath_stats()
        for kind in ("classic", "directional"):
            for name in ("python", "c"):
                assert f"sweep_{kind}_runs_{name}" in stats


# -- c vs python vs reference -------------------------------------------------


@needs_csweep
class TestCSweepDifferential:
    @given(seeds, seeds, seeds)
    @settings(max_examples=40, deadline=None)
    def test_c_matches_python_and_reference(self, s1, s2, s3):
        source, sids = _random_graph("s", s1)
        target, tids = _random_graph("t", s2)
        initial = _random_initial(sids, tids, s3)
        reference = classic_flooding(source, target, initial)
        compiled = compile_pcg(source, target)
        python = compiled.run(initial, backend=PYTHON_SWEEP_BACKEND)
        native = compiled.run(initial, backend=CSweepBackend())
        assert python == reference
        assert native.keys() == python.keys()
        for pair, value in python.items():
            assert abs(value - native[pair]) <= TOLERANCE

    @given(seeds, seeds, seeds, st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_custom_config_matches(self, s1, s2, s3, iterations):
        source, sids = _random_graph("s", s1)
        target, tids = _random_graph("t", s2)
        initial = _random_initial(sids, tids, s3)
        config = FloodingConfig(max_iterations=iterations, epsilon=0.0)
        compiled = compile_pcg(source, target)
        python = compiled.run(initial, config, backend=PYTHON_SWEEP_BACKEND)
        native = compiled.run(initial, config, backend=CSweepBackend())
        for pair, value in python.items():
            assert abs(value - native[pair]) <= TOLERANCE

    def test_empty_initial_and_extra_pairs(self):
        source, _ = _random_graph("s", 1)
        target, _ = _random_graph("t", 2)
        compiled = compile_pcg(source, target)
        c_backend = CSweepBackend()
        python = PYTHON_SWEEP_BACKEND
        assert compiled.run({}, backend=c_backend) == compiled.run(
            {}, backend=python)
        lone = {("s/nowhere", "t/nowhere"): 0.7}
        assert compiled.run(lone, backend=c_backend) == compiled.run(
            lone, backend=python)

    def test_results_are_plain_floats(self):
        source, sids = _random_graph("s", 8)
        target, tids = _random_graph("t", 9)
        initial = _random_initial(sids, tids, 10)
        result = compile_pcg(source, target).run(
            initial, backend=CSweepBackend()
        )
        assert all(type(value) is float for value in result.values())

    @given(seeds, seeds, seeds)
    @settings(max_examples=8, deadline=None)
    def test_engine_matrix_identical_across_backends(self, s1, s2, s3):
        source, _ = _random_graph("s", s1)
        target, _ = _random_graph("t", s2)
        config = EngineConfig.fast(flooding="classic")
        with mock.patch.object(flooding_mod, "default_sweep_backend",
                               lambda: PYTHON_SWEEP_BACKEND):
            python_cells = _cells(
                HarmonyEngine(config=config).match(source, target).matrix)
        c_cells = _cells(HarmonyEngine(config=config).match(source, target).matrix)
        assert set(python_cells) == set(c_cells)
        for pair, (confidence, decided) in python_cells.items():
            c_confidence, c_decided = c_cells[pair]
            assert decided == c_decided
            assert abs(confidence - c_confidence) <= TOLERANCE


# -- directional sweep on both kernels ------------------------------------------


class TestDirectionalBackends:
    @given(seeds, seeds, seeds)
    @settings(max_examples=25, deadline=None)
    def test_compiled_python_matches_reference(self, s1, s2, s3):
        source, sids = _random_graph("s", s1)
        target, tids = _random_graph("t", s2)
        scores = _random_scores(sids, tids, s3)
        reference = directional_flooding(source, target, scores)
        compiled = directional_flooding_compiled(
            source, target, scores, backend=PYTHON_SWEEP_BACKEND)
        assert compiled.keys() == reference.keys()
        for pair, value in reference.items():
            assert abs(value - compiled[pair]) <= TOLERANCE

    @needs_csweep
    @given(seeds, seeds, seeds)
    @settings(max_examples=25, deadline=None)
    def test_c_matches_python(self, s1, s2, s3):
        source, sids = _random_graph("s", s1)
        target, tids = _random_graph("t", s2)
        scores = _random_scores(sids, tids, s3)
        python = directional_flooding_compiled(
            source, target, scores, backend=PYTHON_SWEEP_BACKEND
        )
        native = directional_flooding_compiled(
            source, target, scores, backend=CSweepBackend()
        )
        assert native.keys() == python.keys()
        for pair, value in python.items():
            assert abs(value - native[pair]) <= TOLERANCE

    @needs_csweep
    def test_pinned_pairs_survive_c_sweep(self):
        source, sids = _random_graph("s", 21)
        target, tids = _random_graph("t", 22)
        scores = _random_scores(sids, tids, 23)
        pinned = set(list(scores)[:5])
        config = DirectionalConfig()
        python = directional_flooding_compiled(
            source, target, scores, config, pinned=pinned,
            backend=PYTHON_SWEEP_BACKEND,
        )
        native = directional_flooding_compiled(
            source, target, scores, config, pinned=pinned,
            backend=CSweepBackend(),
        )
        for pair, value in python.items():
            assert abs(value - native[pair]) <= TOLERANCE

    @needs_csweep
    def test_empty_scores(self):
        source, _ = _random_graph("s", 1)
        target, _ = _random_graph("t", 2)
        assert directional_flooding_compiled(
            source, target, {}, backend=CSweepBackend()
        ) == {}
