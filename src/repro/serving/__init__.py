"""Match-as-a-service: the concurrent multi-session serving layer.

The ROADMAP's "millions of users" axis made concrete: named sessions
with isolated (optionally durable) blackboards, a bounded session-fair
job queue with priorities, cancellation and reject-with-retry-after
backpressure, and worker threads whose match compute stays warm across
jobs on one engine per session.  Transport is pluggable: the
in-process :class:`WorkbenchClient` is the reference, and
:mod:`repro.serving.tcp` wraps the same JSON gateway in length-prefixed
frames.  See ``docs/SERVING.md``.
"""

from .config import ServingConfig
from .client import WorkbenchClient, handle_request
from .jobs import (
    Job,
    JobCancelledError,
    JobHandle,
    JobStatus,
    QueueFullError,
    ServerClosedError,
    ServingError,
    SessionNotFoundError,
)
from .queue import JobQueue
from .server import WorkbenchServer
from .sessions import SessionRegistry, WorkbenchSession
from .tcp import TcpWorkbenchClient, TcpWorkbenchServer, serve_tcp

__all__ = [
    "Job",
    "JobCancelledError",
    "JobHandle",
    "JobQueue",
    "JobStatus",
    "QueueFullError",
    "ServerClosedError",
    "ServingConfig",
    "ServingError",
    "SessionNotFoundError",
    "SessionRegistry",
    "TcpWorkbenchClient",
    "TcpWorkbenchServer",
    "WorkbenchClient",
    "WorkbenchServer",
    "WorkbenchSession",
    "handle_request",
    "serve_tcp",
]
