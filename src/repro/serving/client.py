"""Client-side transports: the in-process reference client and the
JSON gateway every wire transport shares.

:class:`WorkbenchClient` is the reference transport — it talks to a
:class:`~repro.serving.server.WorkbenchServer` directly, in process,
and exposes both blocking sugar (``client.match(...)`` waits for the
result) and asyncio integration (``await client.result_async(handle)``
wraps the job future into the running event loop).

:func:`handle_request` is the transport seam: one JSON-able request
dict in, one JSON-able response dict out.  The TCP transport
(:mod:`repro.serving.tcp`) is nothing but length-prefixed frames around
this function, and any other wire protocol can reuse it the same way.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Any, Dict, Optional

from ..core.matrix import MappingMatrix
from ..rdf.term import IRI, BlankNode, Literal
from ..workbench.evolution import RematchReport
from .jobs import (
    JobHandle,
    QueueFullError,
    ServingError,
)
from .server import WorkbenchServer


class WorkbenchClient:
    """The in-process reference transport."""

    def __init__(self, server: WorkbenchServer) -> None:
        self.server = server

    # -- raw submission (returns handles) ------------------------------------

    def submit(self, session: str, kind: str, **params: Any) -> JobHandle:
        return self.server.submit(session, kind, **params)

    def submit_with_retry(
        self,
        session: str,
        kind: str,
        attempts: int = 8,
        **params: Any,
    ) -> JobHandle:
        """Submit, honouring backpressure: on :class:`QueueFullError`
        sleep the server's retry-after hint and try again."""
        for attempt in range(attempts):
            try:
                return self.server.submit(session, kind, **params)
            except QueueFullError as error:
                if attempt == attempts - 1:
                    raise
                time.sleep(error.retry_after_s)
        raise AssertionError("unreachable")

    # -- blocking sugar (submit + wait) ---------------------------------------

    def put_schema(self, session: str, graph,
                   timeout: Optional[float] = None) -> str:
        return self.server.put_schema(session, graph).result(timeout)

    def load_schema(self, session: str, text: str, format: str,
                    schema_name: Optional[str] = None,
                    timeout: Optional[float] = None) -> str:
        return self.server.load_schema(
            session, text, format, schema_name).result(timeout)

    def match(self, session: str, source_schema: str, target_schema: str,
              matrix_name: Optional[str] = None,
              timeout: Optional[float] = None) -> MappingMatrix:
        return self.server.match(
            session, source_schema, target_schema, matrix_name,
        ).result(timeout)

    def evolve(self, session: str, new_graph, matrix_name: str,
               side: str = "source", other_schema: Optional[str] = None,
               timeout: Optional[float] = None) -> RematchReport:
        return self.server.evolve(
            session, new_graph, matrix_name, side, other_schema,
        ).result(timeout)

    def query(self, session: str, name: str,
              timeout: Optional[float] = None, **params: Any):
        return self.server.query(session, name, **params).result(timeout)

    def update_cell(self, session: str, matrix_name: str, source_id: str,
                    target_id: str, confidence: float,
                    user_defined: bool = False,
                    timeout: Optional[float] = None):
        return self.server.update_cell(
            session, matrix_name, source_id, target_id, confidence,
            user_defined).result(timeout)

    def get_matrix(self, session: str, matrix_name: str,
                   timeout: Optional[float] = None) -> MappingMatrix:
        return self.server.get_matrix(session, matrix_name).result(timeout)

    def stats(self) -> Dict[str, Any]:
        return self.server.stats()

    # -- asyncio integration ---------------------------------------------------

    async def result_async(self, handle: JobHandle):
        """Await a job from inside an event loop without blocking it."""
        return await asyncio.wrap_future(handle.future)

    async def match_async(self, session: str, source_schema: str,
                          target_schema: str,
                          matrix_name: Optional[str] = None):
        handle = self.server.match(
            session, source_schema, target_schema, matrix_name)
        return await self.result_async(handle)


# -- the JSON gateway (the transport seam) ------------------------------------

#: job kinds whose parameters survive JSON — what wire transports accept
WIRE_KINDS = (
    "load_schema", "match", "evolve", "query", "update_cell", "cell",
    "get_matrix", "ping",
)


def _jsonify(result: Any) -> Any:
    """Job results as JSON-able values (summaries for rich objects)."""
    if isinstance(result, MappingMatrix):
        return {
            "matrix": result.name,
            "rows": len(result.row_ids),
            "columns": len(result.column_ids),
            "cells": result.cell_count(),
        }
    if isinstance(result, RematchReport):
        return {
            "axes_removed": len(result.axes_removed),
            "axes_added": len(result.axes_added),
            "suggestions_reset": len(result.suggestions_reset),
            "decisions_kept": len(result.decisions_kept),
            "decisions_lost": len(result.decisions_lost),
        }
    if isinstance(result, (IRI, BlankNode, Literal)):
        # terms are tuples too: send their N-Triples form, not their fields
        return str(result)
    if isinstance(result, tuple):
        return [_jsonify(item) for item in result]
    if isinstance(result, list):
        return [_jsonify(item) for item in result]
    return result


def _error(error: BaseException) -> Dict[str, Any]:
    response: Dict[str, Any] = {
        "ok": False,
        "error": type(error).__name__,
        "message": str(error),
    }
    if isinstance(error, QueueFullError):
        response["retry_after_s"] = error.retry_after_s
    return response


#: ``WorkbenchServer.submit``'s own arguments, which job params cannot name
_SUBMIT_ARGUMENTS = frozenset({"session", "kind", "priority", "retain"})


def _field(request: Dict[str, Any], key: str, kinds: Any, what: str,
           default: Any = None) -> Any:
    """``request[key]`` if it has a type in *kinds*, else ServingError."""
    value = request.get(key, default)
    if not isinstance(value, kinds):
        raise ServingError(
            f"{key!r} must be {what}, got {type(value).__name__}")
    return value


def handle_request(server: WorkbenchServer,
                   request: Dict[str, Any]) -> Dict[str, Any]:
    """One request dict in, one response dict out — both JSON-able.

    Operations: ``create_session``, ``close_session``, ``submit``
    (``kind`` limited to :data:`WIRE_KINDS`), ``status``, ``result``
    (blocks up to ``timeout`` seconds; a terminal result is returned
    once and then forgotten), ``cancel``, ``stats``.  A request that is
    not an object, or whose fields have the wrong JSON type, is refused
    with :class:`ServingError` before it reaches the server.
    """
    try:
        if not isinstance(request, dict):
            raise ServingError(
                f"a request must be a JSON object, got "
                f"{type(request).__name__}")
        op = request.get("op")
        if op == "create_session":
            session = server.sessions.get_or_create(
                _field(request, "session", str, "a string"))
            return {"ok": True, "session": session.name}
        if op == "close_session":
            server.sessions.close_session(
                _field(request, "session", str, "a string"))
            return {"ok": True}
        if op == "submit":
            session = _field(request, "session", str, "a string")
            kind = request.get("kind")
            if kind not in WIRE_KINDS:
                raise ServingError(
                    f"kind {kind!r} is not wire-transportable; one of "
                    f"{sorted(WIRE_KINDS)}")
            params = _field(request, "params", dict, "an object", {})
            clash = sorted(_SUBMIT_ARGUMENTS.intersection(params))
            if clash:
                raise ServingError(f"params may not set {clash}")
            handle = server.submit(
                session, kind, priority=request.get("priority"),
                retain=True, **params)
            return {"ok": True, "job_id": handle.job_id}
        if op in ("status", "result", "cancel"):
            job = server.job(_field(request, "job_id", str, "a string"))
        if op == "status":
            return {"ok": True, "status": job.status.value}
        if op == "result":
            timeout = _field(request, "timeout", (int, float, type(None)),
                             "a number", 30.0)
            try:
                result = job.future.result(timeout=timeout)
            except FuturesTimeoutError:
                # not terminal yet: keep the job retained for re-polling
                return {"ok": False, "error": "Timeout",
                        "message": "job still running",
                        "status": job.status.value}
            except BaseException as error:  # noqa: BLE001 — wire isolation
                server.forget(job.job_id)
                response = _error(error)
                response["status"] = job.status.value
                return response
            server.forget(job.job_id)
            return {"ok": True, "status": job.status.value,
                    "result": _jsonify(result)}
        if op == "cancel":
            return {"ok": True, "cancelled": job.cancel()}
        if op == "stats":
            return {"ok": True, "stats": server.stats()}
        raise ServingError(f"unknown op {op!r}")
    except BaseException as error:  # noqa: BLE001 — wire isolation
        return _error(error)
