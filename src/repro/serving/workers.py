"""Per-process match workers (the N-way pool pattern, serving-side).

In ``executor="process"`` mode match compute is shipped to a
``ProcessPoolExecutor``.  The parent ships the picklable inputs — both
schema graphs and the current matrix, user decisions included — and
writes the returned matrix back to the session blackboard itself, so
durability and events stay in one place.

Each job runs on a fresh :class:`~repro.harmony.engine.HarmonyEngine`
(construction costs microseconds); only the process-wide kernel memo
caches stay warm across jobs.  A worker serves every session, and an
engine kept across jobs would carry one session's learned merger
weights, consumed decisions and match context into another session's
matrix.  So a process-mode match is a pure function of ``(source,
target, matrix, config)`` — neither scheduling nor another session can
leak into it — and, unlike thread mode's per-session warm engine,
process mode does not carry a session's merger learning from one job
to the next.
"""

from __future__ import annotations

from typing import Dict

#: per-worker-process state, set once by the pool initializer
_WORKER_STATE: Dict[str, object] = {}


def init_serving_worker(engine_config) -> None:
    """Pool initializer: remember the engine config for this worker."""
    _WORKER_STATE["engine_config"] = engine_config


def match_in_worker(source, target, matrix):
    """Run one match job on a fresh engine in this worker process.

    Returns the filled matrix (pickled back to the parent, which owns
    the blackboard write)."""
    from ..harmony.engine import HarmonyEngine

    engine = HarmonyEngine(config=_WORKER_STATE["engine_config"])
    engine.match(source, target, matrix=matrix)
    return matrix
