"""``nway_registry`` — Table 1 registry integration, serially.

Each op integrates a family registry from ``benchmarks/nway_workload.py``
(families of near-duplicate schemas against each other):
``select_pairs`` (hub pruning) → ``match_all_pairs(parallelism=1)`` →
``cluster_elements``.  Hundreds of tiny matches make per-match fixed
cost, multisource selection and clustering dominate — the opposite
regime from ``match_cold``.  It runs serially because a 2-process pool
on a 2-vCPU guest measures the scheduler more than the program.
"""

from harness import Workload

from nway_workload import NWAY_THRESHOLD, family_workload
from repro.harmony import EngineConfig, cluster_pair_f1, multisource

#: schemas per registry (6 families of 4 variants).  The 100-schema
#: tier takes ~2 s per op here, too few ops in a run for the tail rule;
#: 24 schemas keep ~75 pair matches per op.
SCHEMAS = 24


class NwayRegistry(Workload):
    name = "nway_registry"
    nominal_op_ms = 380.0
    op_unit = "element"

    def __init__(self, seed, seconds):
        super().__init__(seed, seconds)
        self.schemas, self.truth = family_workload(SCHEMAS, seed=9000 + seed)
        self.elements = sum(len(graph) for graph in self.schemas)
        self.f1 = None

    def script(self):
        return [
            [[graph.name, sorted(graph.element_ids)] for graph in self.schemas],
            self.truth,
            self.op_count,
        ]

    def settings(self):
        return dict(super().settings(), schemas=SCHEMAS,
                    elements=self.elements)

    def _integrate(self, config):
        selection = multisource.select_pairs(
            self.schemas, hub_count=2, partners_per_schema=3)
        matrices = multisource.match_all_pairs(
            self.schemas, engine_config=config, parallelism=1,
            selection=selection)
        clusters = multisource.cluster_elements(
            self.schemas, matrices, threshold=NWAY_THRESHOLD)
        return clusters

    def setup(self):
        config = EngineConfig.fast()
        self._integrate(config)
        return {"config": config}

    def op(self, state, index):
        return self._integrate(state["config"])

    def check_op(self, state, index, clusters):
        f1 = cluster_pair_f1(clusters, self.truth)
        if self.f1 is None:
            self.f1 = f1
        if f1 != self.f1:
            return f"op {index}: cluster F1 {f1} differs from {self.f1}"
        return None

    def op_size(self, state):
        return float(self.elements)

    def quality(self, state):
        return self.f1

    def checks(self, state):
        return {"cluster_f1_every_op": self.f1 is not None}
