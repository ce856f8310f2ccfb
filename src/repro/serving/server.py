"""The workbench server: sessions + queue + worker pool.

Request flow (traced in ``docs/ARCHITECTURE.md``)::

    client.submit() --> JobQueue (bounded, session-fair)
                          |
                    worker thread pops, session lock serializes the
                    session, compute runs on the warm engine (thread
                    mode) or a warm process-pool worker (process mode)
                          |
                    write-back: one transaction on the session's
                    blackboard + the §5.2.2 event, then the job's
                    future resolves

Every job resolves its future exactly once (DONE / FAILED / CANCELLED);
``stats()`` exposes the conservation law the CI smoke load asserts:
``submitted == completed + failed + cancelled + pending``.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, Optional

from ..core.matrix import MappingMatrix
from ..workbench import queries as canned
from ..workbench.events import (
    MappingCellEvent,
    MappingMatrixEvent,
    SchemaGraphEvent,
)
from ..workbench.evolution import apply_evolution
from ..workbench.versioning import diff_schemas
from .config import ServingConfig
from .jobs import (
    Job,
    JobCancelledError,
    JobHandle,
    QueueFullError,
    ServerClosedError,
    ServingError,
)
from .queue import JobQueue
from .sessions import SessionRegistry, WorkbenchSession
from .workers import init_serving_worker, match_in_worker

#: the canned queries the "query" job kind dispatches to (all take the
#: session's triple store as their first argument and return JSON-able
#: results, so they pass through the gateway unchanged)
QUERY_FUNCS: Dict[str, Callable] = {
    "strong_cells": canned.strong_cells,
    "user_decided_cells": canned.user_decided_cells,
    "undocumented_elements": canned.undocumented_elements,
    "elements_of_kind": canned.elements_of_kind,
    "matrix_progress": canned.matrix_progress,
}

_SERVING_TOOL = "serving"


class WorkbenchServer:
    """A concurrent, multi-session workbench."""

    def __init__(self, config: Optional[ServingConfig] = None) -> None:
        self.config = config if config is not None else ServingConfig()
        self.sessions = SessionRegistry(self.config)
        self.queue = JobQueue(
            self.config.queue_limit,
            retry_after_s=self.config.retry_after_s,
            fair=self.config.fair_scheduling,
        )
        self._seq = itertools.count()
        self._closed = False
        self._close_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._counters = {
            "submitted": 0, "rejected": 0, "completed": 0,
            "failed": 0, "cancelled": 0,
        }
        #: gateway-submitted jobs retained by id until fetched
        self._retained: Dict[str, Job] = {}
        self._retained_lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._handlers: Dict[str, Callable[[WorkbenchSession, Job], Any]] = {
            "put_schema": self._do_put_schema,
            "load_schema": self._do_load_schema,
            "match": self._do_match,
            "evolve": self._do_evolve,
            "query": self._do_query,
            "update_cell": self._do_update_cell,
            "get_matrix": self._do_get_matrix,
            "cell": self._do_cell,
            "ping": self._do_ping,
        }
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"workbench-worker-{i}",
                daemon=True)
            for i in range(self.config.workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        session: str,
        kind: str,
        priority: Optional[int] = None,
        retain: bool = False,
        **params: Any,
    ) -> JobHandle:
        """Queue one job against a session (created on first use).

        Raises :class:`~repro.serving.jobs.QueueFullError` (with
        ``retry_after_s``) when the bounded queue is full, and
        :class:`~repro.serving.jobs.ServerClosedError` after
        :meth:`close`.
        """
        if self._closed:
            raise ServerClosedError("server is closed")
        if kind not in self._handlers:
            raise ServingError(
                f"unknown job kind {kind!r}; one of "
                f"{sorted(self._handlers)}")
        self.sessions.get_or_create(session)
        job = Job(
            session=session,
            kind=kind,
            params=params,
            priority=(priority if priority is not None
                      else self.config.default_priority),
            seq=next(self._seq),
        )
        # every job resolves its future exactly once; counting there (and
        # only there) makes the conservation law exact:
        # submitted == completed + failed + cancelled + pending
        job.future.add_done_callback(self._on_job_done)
        try:
            self.queue.push(job)
        except QueueFullError:
            self._count("rejected")
            raise
        self._count("submitted")
        if retain:
            with self._retained_lock:
                self._retained[job.job_id] = job
        return JobHandle(job, self)

    # convenience wrappers — one per job kind

    def put_schema(self, session: str, graph, **kw) -> JobHandle:
        return self.submit(session, "put_schema", graph=graph, **kw)

    def load_schema(self, session: str, text: str, format: str,
                    schema_name: Optional[str] = None, **kw) -> JobHandle:
        return self.submit(session, "load_schema", text=text, format=format,
                           schema_name=schema_name, **kw)

    def match(self, session: str, source_schema: str, target_schema: str,
              matrix_name: Optional[str] = None, **kw) -> JobHandle:
        return self.submit(session, "match", source_schema=source_schema,
                           target_schema=target_schema,
                           matrix_name=matrix_name, **kw)

    def evolve(self, session: str, new_graph, matrix_name: str,
               side: str = "source", other_schema: Optional[str] = None,
               **kw) -> JobHandle:
        return self.submit(session, "evolve", new_graph=new_graph,
                           matrix_name=matrix_name, side=side,
                           other_schema=other_schema, **kw)

    def query(self, session: str, name: str, **kw) -> JobHandle:
        params = {k: kw.pop(k) for k in list(kw)
                  if k not in ("priority", "retain")}
        return self.submit(session, "query", name=name, params=params, **kw)

    def update_cell(self, session: str, matrix_name: str, source_id: str,
                    target_id: str, confidence: float,
                    user_defined: bool = False, **kw) -> JobHandle:
        return self.submit(session, "update_cell", matrix_name=matrix_name,
                           source_id=source_id, target_id=target_id,
                           confidence=confidence, user_defined=user_defined,
                           **kw)

    def get_matrix(self, session: str, matrix_name: str, **kw) -> JobHandle:
        return self.submit(session, "get_matrix", matrix_name=matrix_name,
                           **kw)

    def ping(self, session: str, delay_s: float = 0.0, **kw) -> JobHandle:
        return self.submit(session, "ping", delay_s=delay_s, **kw)

    # -- job registry (gateway transports poll by id) -------------------------

    def job(self, job_id: str) -> Job:
        with self._retained_lock:
            job = self._retained.get(job_id)
        if job is None:
            raise ServingError(f"no retained job {job_id!r}")
        return job

    def forget(self, job_id: str) -> None:
        with self._retained_lock:
            self._retained.pop(job_id, None)

    # -- execution ------------------------------------------------------------

    def _count(self, key: str, by: int = 1) -> None:
        with self._counter_lock:
            self._counters[key] += by

    def _on_job_done(self, future) -> None:
        error = future.exception()
        if error is None:
            self._count("completed")
        elif isinstance(error, JobCancelledError):
            self._count("cancelled")
        else:
            self._count("failed")

    def _worker_loop(self) -> None:
        while True:
            job = self.queue.pop()
            if job is None:
                return  # queue closed and drained
            if not job.start():
                # cancelled between push and pop (rare race; usually the
                # queue discards cancelled entries itself, and cancel()
                # already resolved the future)
                continue
            try:
                result = self._execute(job)
            except JobCancelledError:
                job.cancel()
                job.finish_cancelled()
                continue
            except BaseException as error:  # noqa: BLE001 — job isolation
                if not job.fail(error):
                    job.finish_cancelled()
                continue
            if not job.resolve(result):
                # cancel() won the race mid-run; the write-back already
                # checked the flag, so effects were skipped
                job.finish_cancelled()

    def _execute(self, job: Job) -> Any:
        session = self.sessions.get(job.session)
        handler = self._handlers[job.kind]
        with session.lock:
            if session.closed:
                raise ServingError(f"session {job.session!r} is closed")
            if job.cancel_event.is_set():
                raise JobCancelledError(f"{job.job_id} cancelled")
            return handler(session, job)

    def _check_cancel(self, job: Job) -> None:
        if job.cancel_event.is_set():
            raise JobCancelledError(
                f"{job.job_id} cancelled mid-flight; write-back skipped")

    # per-kind handlers (session lock held)

    def _store_graph(self, session: WorkbenchSession, job: Job, graph) -> str:
        self._check_cancel(job)
        with session.manager.transaction():
            session.manager.blackboard.put_schema(graph)
            session.manager.events.publish(SchemaGraphEvent(
                source_tool=_SERVING_TOOL, schema_name=graph.name))
        session.graphs[graph.name] = graph
        return graph.name

    def _do_put_schema(self, session: WorkbenchSession, job: Job) -> str:
        return self._store_graph(session, job, job.params["graph"])

    def _do_load_schema(self, session: WorkbenchSession, job: Job) -> str:
        from ..loaders import load_sql, load_xsd

        loaders = {"sql": load_sql, "xsd": load_xsd}
        format_name = job.params["format"]
        if format_name not in loaders:
            raise ServingError(
                f"unknown schema format {format_name!r}; one of "
                f"{sorted(loaders)}")
        graph = loaders[format_name](
            job.params["text"], job.params.get("schema_name"))
        return self._store_graph(session, job, graph)

    def _match_compute(
        self, session: WorkbenchSession, job: Job,
        source, target, matrix: MappingMatrix,
    ) -> MappingMatrix:
        """Compute + write-back shared by match and evolve jobs."""
        if self.config.executor == "process":
            matrix = self._pool_executor().submit(
                match_in_worker, source, target, matrix).result()
        else:
            session.engine().match(source, target, matrix=matrix)
        self._check_cancel(job)
        blackboard = session.manager.blackboard
        with session.manager.transaction():
            blackboard.put_matrix(matrix, delta=True)
            session.manager.events.publish(MappingMatrixEvent(
                source_tool=_SERVING_TOOL, matrix_name=matrix.name,
                cells_updated=matrix.cell_count()))
        return matrix

    def _do_match(self, session: WorkbenchSession, job: Job) -> MappingMatrix:
        source = session.get_graph(job.params["source_schema"])
        target = session.get_graph(job.params["target_schema"])
        matrix_name = (job.params.get("matrix_name")
                       or f"{source.name}->{target.name}")
        blackboard = session.manager.blackboard
        if blackboard.has_matrix(matrix_name):
            matrix = blackboard.get_matrix(matrix_name)
        else:
            matrix = MappingMatrix.from_schemas(source, target)
        matrix.name = matrix_name
        return self._match_compute(session, job, source, target, matrix)

    def _do_evolve(self, session: WorkbenchSession, job: Job):
        new_graph = job.params["new_graph"]
        matrix_name = job.params["matrix_name"]
        side = job.params.get("side", "source")
        other_schema = job.params.get("other_schema")
        old_graph = session.get_graph(new_graph.name)
        diff = diff_schemas(old_graph, new_graph)
        blackboard = session.manager.blackboard
        matrix = blackboard.get_matrix(matrix_name)
        matrix.name = matrix_name
        report = apply_evolution(
            matrix, diff, side=side, schema_name=new_graph.name)
        self._check_cancel(job)
        with session.manager.transaction():
            blackboard.put_schema(new_graph, delta=True, previous=old_graph)
            blackboard.put_matrix(matrix, delta=True)
            session.manager.events.publish(SchemaGraphEvent(
                source_tool=_SERVING_TOOL, schema_name=new_graph.name))
        session.graphs[new_graph.name] = new_graph
        if report.needs_rematch and other_schema is not None:
            if side == "source":
                source, target = new_graph, session.get_graph(other_schema)
            else:
                source, target = session.get_graph(other_schema), new_graph
            self._match_compute(session, job, source, target, matrix)
        return report

    def _do_query(self, session: WorkbenchSession, job: Job):
        name = job.params["name"]
        if name not in QUERY_FUNCS:
            raise ServingError(
                f"unknown canned query {name!r}; one of "
                f"{sorted(QUERY_FUNCS)}")
        store = session.manager.blackboard.store
        return QUERY_FUNCS[name](store, **job.params.get("params", {}))

    def _do_update_cell(self, session: WorkbenchSession, job: Job):
        params = job.params
        self._check_cancel(job)
        with session.manager.transaction():
            cell = session.manager.blackboard.update_cell(
                params["matrix_name"], params["source_id"],
                params["target_id"], params["confidence"],
                user_defined=params.get("user_defined", False))
            session.manager.events.publish(MappingCellEvent(
                source_tool=_SERVING_TOOL,
                matrix_name=params["matrix_name"],
                source_id=cell.source_id, target_id=cell.target_id,
                confidence=cell.confidence,
                user_defined=cell.is_user_defined))
        return (cell.confidence, cell.is_user_defined)

    def _do_get_matrix(self, session: WorkbenchSession, job: Job):
        return session.manager.blackboard.get_matrix(
            job.params["matrix_name"])

    def _do_cell(self, session: WorkbenchSession, job: Job):
        return session.manager.blackboard.cell_confidence(
            job.params["matrix_name"], job.params["source_id"],
            job.params["target_id"])

    def _do_ping(self, session: WorkbenchSession, job: Job) -> str:
        delay = float(job.params.get("delay_s", 0.0))
        deadline = time.monotonic() + delay
        while delay > 0 and time.monotonic() < deadline:
            if job.cancel_event.is_set():
                raise JobCancelledError(f"{job.job_id} cancelled mid-ping")
            time.sleep(min(0.005, max(0.0, deadline - time.monotonic())))
        return "pong"

    def _pool_executor(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.config.workers,
                    initializer=init_serving_worker,
                    initargs=(self.config.resolved_engine_config(),),
                )
            return self._pool

    # -- observability --------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._counter_lock:
            counters = dict(self._counters)
        counters["pending"] = self.queue.pending()
        counters["sessions"] = self.sessions.names()
        counters["workers"] = self.config.workers
        counters["executor"] = self.config.executor
        return counters

    # -- shutdown -------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, drain: bool = True,
              timeout: Optional[float] = None) -> None:
        """Graceful, idempotent shutdown.

        With ``drain=True`` (the default) queued and in-flight jobs run
        to completion (bounded by ``drain_timeout_s`` / *timeout*);
        with ``drain=False`` queued jobs are cancelled and only
        in-flight jobs finish.  Either way every unfinished job's
        future resolves (with :class:`JobCancelledError` when shed), no
        result is silently dropped, and sessions release their durable
        layers last.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        budget = (self.config.drain_timeout_s
                  if timeout is None else timeout)
        self.queue.close()
        if not drain:
            self.queue.cancel_pending()
        deadline = time.monotonic() + budget
        for thread in self._threads:
            remaining = max(0.0, deadline - time.monotonic())
            thread.join(timeout=remaining)
        if any(thread.is_alive() for thread in self._threads):
            # drain budget exhausted: shed what is still queued; the
            # stuck in-flight job keeps its daemon thread
            self.queue.cancel_pending()
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None
        self.sessions.close_all()

    def __enter__(self) -> "WorkbenchServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return (f"WorkbenchServer(workers={self.config.workers}, "
                f"executor={self.config.executor!r}, "
                f"sessions={self.sessions.names()}, "
                f"closed={self._closed})")
