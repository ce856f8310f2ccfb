"""``refine_loop`` — Section 4.3's refinement loop over the Figure 3
blackboard.

One warm, durable workbench holds ``air_traffic@7`` (41×37 elements,
29 true links).  Each op is one round: the source toggles between two
versions through ``evolve_and_rematch`` (perf_smoke's move / rename /
redocument script), a seeded oracle writes accept/reject decisions with
``update_cell``, the matcher tool runs again, and the canned queries run.
The round writes and reads the blackboard: warm voters and flooding,
rematch patching, delta schema RDF, WAL appends with auto-checkpoints
and the query planner.
"""

import copy
import os
import random
import shutil
import tempfile

from harness import Workload
from measure import cells_digest

from repro.core import CONTAINMENT_LABELS, CONTAINS_ELEMENT, top_correspondences
from repro.core.matrix import MappingMatrix
from repro.eval import (
    Alignment,
    ScenarioConfig,
    air_traffic_model,
    evaluate_pairs,
    generate_scenario,
)
from repro.harmony import EngineConfig, HarmonyEngine
from repro.workbench import (
    IntegrationBlackboard,
    MappingCellEvent,
    MatcherTool,
    WorkbenchManager,
    evolution,
    queries,
)

#: DurableStore fsync policy: "commit" flushes only at checkpoint and close
FSYNC = "commit"

#: auto-checkpoint threshold.  One evolve step appends ~490 KB, so the
#: log compacts once per round and its size levels off.
AUTO_CHECKPOINT_BYTES = 256 * 1024

#: true links the oracle accepts, and wrong links it rejects, over a
#: run; the rest of the 29 true links stay undecided for ``quality``
ACCEPTS = 10
REJECTS = 10

MATRIX = "air_traffic->air_traffic_prime"

#: where the durable blackboard lives while a run lasts
WORK_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), ".work")


def _evolved(source):
    """perf_smoke's scripted evolution: one attribute moved to another
    parent, one renamed, one redocumented."""
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
    return evolved


class RefineLoop(Workload):
    name = "refine_loop"
    nominal_op_ms = 250.0
    op_unit = "round"

    def __init__(self, seed, seconds):
        super().__init__(seed, seconds)
        scenario = generate_scenario(air_traffic_model(), ScenarioConfig(seed=7))
        self.v1, self.target = scenario.source, scenario.target
        self.v2 = _evolved(self.v1)
        self.truth = sorted(scenario.alignment.pairs)
        rng = random.Random(f"refine_loop:{seed}")
        accepts = rng.sample(self.truth, ACCEPTS)
        true_target = dict(self.truth)
        decided_sources = {s for s, _ in accepts}
        targets = sorted(e.element_id for e in self.target
                         if self.target.parent(e.element_id) is not None)
        rejects = []
        for source in rng.sample(sorted(true_target), len(true_target)):
            if source in decided_sources or len(rejects) == REJECTS:
                continue
            wrong = [t for t in targets if t != true_target[source]]
            rejects.append((source, rng.choice(wrong)))
            decided_sources.add(source)
        #: each round writes one accept and one reject, cycling
        self.decisions = [
            [(a[0], a[1], True), (r[0], r[1], False)]
            for a, r in zip(accepts, rejects)
        ]

    def script(self):
        return [self.truth, self.decisions, self.op_count]

    def settings(self):
        return dict(super().settings(), fsync=FSYNC,
                    auto_checkpoint_bytes=AUTO_CHECKPOINT_BYTES)

    def round_decisions(self, index):
        return self.decisions[index % len(self.decisions)]

    def setup(self):
        os.makedirs(WORK_DIR, exist_ok=True)
        directory = tempfile.mkdtemp(prefix="refine-", dir=WORK_DIR)
        blackboard = IntegrationBlackboard(
            durable=directory, fsync=FSYNC,
            auto_checkpoint_bytes=AUTO_CHECKPOINT_BYTES)
        manager = WorkbenchManager(blackboard=blackboard)
        tool = manager.register(
            MatcherTool(HarmonyEngine(config=EngineConfig.fast())))
        with manager.transaction():
            blackboard.put_schema(self.v1)
            blackboard.put_schema(self.target)
        manager.invoke("harmony", source_schema=self.v1.name,
                       target_schema=self.target.name, matrix_name=MATRIX)
        return {"manager": manager, "tool": tool, "directory": directory}

    def teardown(self, state):
        state["manager"].close()
        shutil.rmtree(state["directory"], ignore_errors=True)

    def op(self, state, index):
        old, new = (self.v1, self.v2) if index % 2 == 0 else (self.v2, self.v1)
        evolution.evolve_and_rematch(
            state["manager"], MATRIX, old, new, side="source",
            other_schema=self.target.name)
        return self._decide_match_query(state, index, new)

    def _decide_match_query(self, state, index, schema):
        """The rest of a round: the oracle's decisions, the matcher tool
        on the source *schema* and the target, and the canned queries."""
        manager = state["manager"]
        blackboard = manager.blackboard
        with manager.transaction():
            for source, target, accept in self.round_decisions(index):
                cell = blackboard.update_cell(
                    MATRIX, source, target, 1.0 if accept else 0.0,
                    user_defined=True)
                manager.events.publish(MappingCellEvent(
                    source_tool="oracle", matrix_name=MATRIX,
                    source_id=source, target_id=target,
                    confidence=cell.confidence, user_defined=True))
        manager.invoke("harmony", source_schema=schema.name,
                       target_schema=self.target.name, matrix_name=MATRIX)
        store = blackboard.store
        return (
            queries.strong_cells(store, MATRIX, 0.5),
            queries.user_decided_cells(store, MATRIX),
            queries.undocumented_elements(store, self.target.name),
            queries.elements_of_kind(store, self.target.name, "attribute"),
            queries.matrix_progress(store, MATRIX),
        )

    def check_op(self, state, index, answers):
        decided = answers[1]
        if len(decided) != 2 * min(index + 1, len(self.decisions)):
            return f"op {index}: {len(decided)} decided cells on the blackboard"
        return None

    def engines(self, state):
        return [state["tool"].engine]

    def stores(self, state):
        return [state["manager"].blackboard]

    def _final(self, state):
        return state["manager"].blackboard.get_matrix(MATRIX)

    def quality(self, state):
        matrix = self._final(state)
        decided = {c.pair for c in matrix.cells() if c.is_user_defined}
        machine = [c for c in matrix.cells()
                   if not c.is_user_defined and c.confidence > 0]
        predicted = [c.pair for c in top_correspondences(machine, per_source=True)]
        truth = Alignment({pair for pair in self.truth if pair not in decided})
        return evaluate_pairs(predicted, truth).f1

    def checks(self, state):
        """The warm matrix equals a cold ``fast()`` match of the schemas on
        the blackboard, carrying the same decisions and the same learned
        merger weights: once after the script and once more after one
        extra untimed round, so both source versions are checked."""
        def version(rounds):
            return "v2" if rounds % 2 else "v1"

        rounds = self.op_count
        results = {f"warm_equals_cold.source_{version(rounds)}":
                   self._warm_equals_cold(state)}
        self.op(state, rounds)
        results[f"warm_equals_cold.source_{version(rounds + 1)}"] = (
            self._warm_equals_cold(state))
        return results

    def _warm_equals_cold(self, state):
        blackboard = state["manager"].blackboard
        warm = self._final(state)
        source = blackboard.get_schema(self.v1.name)
        target = blackboard.get_schema(self.target.name)
        cold = HarmonyEngine(
            config=EngineConfig.fast(),
            merger=copy.deepcopy(state["tool"].engine.merger))
        decided = MappingMatrix.from_schemas(source, target)
        decided.name = MATRIX
        for cell in warm.cells():
            if cell.is_user_defined:
                decided.set_confidence(cell.source_id, cell.target_id,
                                       cell.confidence, user_defined=True)
        # the warm engine learned from every decision in earlier rounds;
        # a first cold run on copies consumes them the same way, so the
        # compared run learns nothing new either
        cold.match(source.copy(), target.copy(), matrix=copy.deepcopy(decided))
        cold.match(source, target, matrix=decided)

        def cells(matrix):
            return cells_digest(
                (c.source_id, c.target_id, c.confidence, c.is_user_defined)
                for c in matrix.cells())

        return cells(warm) == cells(decided)
