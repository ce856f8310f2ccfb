"""Serving-layer configuration.

Every knob the workbench server exposes lives on :class:`ServingConfig`,
mirroring the discipline :class:`~repro.harmony.engine.EngineConfig`
established for the match fast path: one dataclass, conservative
defaults, and CI-enforced documentation (``scripts/check_doc_flags.py``
fails the build if any field here is missing from the doc suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.errors import ToolError


@dataclass
class ServingConfig:
    """Knobs for :class:`~repro.serving.server.WorkbenchServer`.

    The defaults describe a small in-memory deployment: two worker
    threads, a bounded queue, fair round-robin across sessions, no
    durability.  Every field is documented in ``docs/SERVING.md`` (and
    summarized in the README serving table); ``check_doc_flags.py``
    enforces that coverage in CI.
    """

    #: worker threads; each runs a job's compute on the session's warm
    #: engine
    workers: int = 2
    #: bounded-queue capacity; a submit beyond it is rejected with
    #: ``retry_after_s`` instead of growing without bound
    queue_limit: int = 256
    #: the retry hint attached to a backpressure rejection
    retry_after_s: float = 0.05
    #: cap on concurrently open sessions (None = unbounded)
    max_sessions: Optional[int] = None
    #: directory under which each session gets a durable blackboard
    #: (``<durable_root>/<session>``); None = in-memory sessions
    durable_root: Optional[str] = None
    #: fsync policy for durable sessions ("always" / "commit" / "never"),
    #: passed through to :class:`~repro.rdf.durability.DurableStore`
    fsync: str = "commit"
    #: engine configuration for match/rematch jobs (None = the
    #: ``EngineConfig.fast()`` preset)
    engine_config: Optional[object] = None
    #: graceful-shutdown budget: how long ``close(drain=True)`` waits for
    #: queued + in-flight jobs to finish before cancelling the remainder
    drain_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ToolError("ServingConfig.workers must be >= 1")
        if self.queue_limit < 1:
            raise ToolError("ServingConfig.queue_limit must be >= 1")
        if self.retry_after_s < 0:
            raise ToolError("ServingConfig.retry_after_s must be >= 0")
        if self.max_sessions is not None and self.max_sessions < 1:
            raise ToolError("ServingConfig.max_sessions must be >= 1")
        if self.fsync not in ("always", "commit", "never"):
            raise ToolError(
                f"ServingConfig.fsync must be 'always', 'commit' or "
                f"'never', got {self.fsync!r}")
        if self.drain_timeout_s < 0:
            raise ToolError("ServingConfig.drain_timeout_s must be >= 0")

    def resolved_engine_config(self):
        """The engine configuration match jobs actually run under."""
        if self.engine_config is not None:
            return self.engine_config
        from ..harmony.engine import EngineConfig

        return EngineConfig.fast()
