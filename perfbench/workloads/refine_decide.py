"""``refine_decide`` — Section 4.3's refinement loop on a source that does
not evolve.

The same warm, durable ``air_traffic@7`` workbench, seeded oracle and
canned queries as ``refine_loop``; one op is one round without the
evolve step: the oracle's accept and reject through ``update_cell``, the
matcher tool, the canned queries.  The round writes and reads the
blackboard: warm voters and flooding, the matrix write path, WAL appends
with auto-checkpoints and the query planner.

It is the gated refinement workload while ``refine_loop`` cannot be:
``refine_loop``'s v2 rounds rematch on stale blocking keys (finding (d)
in ``NOTES.md``), so its warm-equals-cold check fails on most seeds.
Here the source stays at v1 and the same check runs after the script.
"""

from .refine_loop import RefineLoop


class RefineDecide(RefineLoop):
    name = "refine_decide"
    nominal_op_ms = 120.0

    def op(self, state, index):
        return self._decide_match_query(state, index, self.v1)

    def checks(self, state):
        """The warm matrix equals a cold ``fast()`` match of the schemas on
        the blackboard, carrying the same decisions and the same learned
        merger weights."""
        return {"warm_equals_cold": self._warm_equals_cold(state)}
