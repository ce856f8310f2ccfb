"""``match_cold`` — Figure 1's pipeline on a registry-scale pair, cold.

Each op loads a fresh pair of ER texts into a new in-memory workbench
through the loader tool and runs the ``harmony`` matcher tool under
``EngineConfig.fast()``, with the process-wide kernel caches cleared
first.  Every incremental cache is cold, so the op pays context build,
blocking build, voter scoring, flooding compile and the bulk matrix→RDF
write; it bypasses rematch, delta serialization, the WAL, serving and
multisource.
"""

import json
import random
import statistics

from harness import Workload
from measure import cells_digest

from repro.eval import evaluate_matrix, standard_suite
from repro.harmony import EngineConfig, HarmonyEngine
from repro.loaders import ErModelLoader
from repro.registry import RegistryProfile, generate_registry
from repro.text import kernels
from repro.workbench import LoaderTool, MatcherTool, WorkbenchManager

#: the A12-large model shape: ~10 entities of ~8 attributes
PROFILE = RegistryProfile(
    model_count=1,
    elements_per_model=10,
    attributes_per_element=8,
    domain_values_per_attribute=0.5,
)

#: element count of each pool slot's (source, target) models.  Fixing
#: the sizes keeps the op cost mix the same for every seed, while the
#: seed still draws every model's names, types, documentation and
#: domains; the sizes span 75-150 of the registry shape's usual 65-190.
SLOT_SIZES = (
    (75, 100), (85, 135), (100, 80), (110, 125), (125, 105),
    (135, 90), (90, 150), (115, 115), (150, 75), (105, 140),
)

#: a generated model is accepted for a slot within this many elements
SIZE_TOLERANCE = 4


def _element_count(model):
    return (1 + len(model["entities"])
            + sum(len(e["attributes"]) for e in model["entities"])
            + len(model["domains"])
            + sum(len(d["values"]) for d in model["domains"]))


def _model_of_size(rng, size):
    while True:
        model = generate_registry(
            seed=rng.randrange(2**31), scale=1.0, profile=PROFILE,
            name="pool")["models"][0]
        if abs(_element_count(model) - size) <= SIZE_TOLERANCE:
            return model


class MatchCold(Workload):
    name = "match_cold"
    nominal_op_ms = 380.0
    op_unit = "match"

    def __init__(self, seed, seconds):
        super().__init__(seed, seconds)
        rng = random.Random(f"match_cold:{seed}")
        self.pool = [
            (json.dumps(_model_of_size(rng, s)),
             json.dumps(_model_of_size(rng, t)))
            for s, t in SLOT_SIZES
        ]
        self.digests = {}

    def script(self):
        return [self.pool, [i % len(self.pool) for i in range(self.op_count)]]

    def settings(self):
        return dict(super().settings(), pool_pairs=len(self.pool))

    def _match(self, slot):
        source_text, target_text = self.pool[slot]
        manager = WorkbenchManager()
        manager.register(LoaderTool(ErModelLoader()))
        manager.register(MatcherTool(HarmonyEngine(config=EngineConfig.fast())))
        manager.invoke("load-er", text=source_text, schema_name="source")
        manager.invoke("load-er", text=target_text, schema_name="target")
        matrix = manager.invoke(
            "harmony", source_schema="source", target_schema="target")
        return manager, matrix

    def setup(self):
        kernels.clear_caches()
        self._match(0)
        return {"manager": None}

    def before_op(self, state, index):
        kernels.clear_caches()

    def op(self, state, index):
        manager, matrix = self._match(index % len(self.pool))
        state["manager"] = manager
        return matrix

    def check_op(self, state, index, matrix):
        slot = index % len(self.pool)
        digest = cells_digest(
            (c.source_id, c.target_id, c.confidence, c.is_user_defined)
            for c in matrix.cells())
        expected = self.digests.setdefault(slot, digest)
        if digest != expected:
            return f"op {index}: pool pair {slot} gave a different matrix"
        return None

    def engines(self, state):
        manager = state.get("manager")
        return [manager.tool("harmony").engine] if manager else []

    def stores(self, state):
        manager = state.get("manager")
        return [manager.blackboard] if manager else []

    def quality(self, state):
        scores = []
        for scenario in standard_suite():
            run = HarmonyEngine(config=EngineConfig.fast()).match(
                scenario.source, scenario.target)
            scores.append(evaluate_matrix(run.matrix, scenario.alignment).f1)
        return statistics.mean(scores)

    def checks(self, state):
        return {"every_pool_pair_checked": len(self.digests) == len(self.pool)}
