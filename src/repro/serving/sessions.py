"""Named sessions: one isolated workbench per consumer.

Each session owns a :class:`~repro.workbench.manager.WorkbenchManager`
(and therefore its own blackboard — in-memory by default, durable under
``<durable_root>/<name>`` when the server is configured with one), a
lock serializing that session's jobs (cross-session jobs run in
parallel; within a session order is program order, which is what makes
the concurrent-vs-serial differential bit-identical), and the session's
warm match engine.
"""

from __future__ import annotations

import os
import re
import threading
from typing import Dict, List, Optional

from ..workbench.manager import WorkbenchManager
from .config import ServingConfig
from .jobs import ServingError, SessionNotFoundError

#: session names become directory names under durable_root
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class WorkbenchSession:
    """One named session: manager + lock + (lazily) a warm engine."""

    def __init__(self, name: str, config: ServingConfig) -> None:
        self.name = name
        self.config = config
        if config.durable_root is not None:
            directory = os.path.join(config.durable_root, name)
            self.manager = WorkbenchManager(
                durable=directory, fsync=config.fsync)
        else:
            self.manager = WorkbenchManager()
        #: serializes this session's job execution (program order)
        self.lock = threading.RLock()
        #: cached schema graphs, replaced by the session's own schema
        #: writes.  A blackboard read of an unchanged schema is a view
        #: hit (no RDF parsed) but still builds a new graph; handing the
        #: warm engine the same object every job also spares it the
        #: content diff against its cached context.
        self.graphs: Dict[str, object] = {}
        self._engine = None
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def engine(self):
        """The session's warm engine, built lazily."""
        if self._engine is None:
            from ..harmony.engine import HarmonyEngine

            self._engine = HarmonyEngine(
                config=self.config.resolved_engine_config())
        return self._engine

    def get_graph(self, schema_name: str):
        """A schema graph by name — session cache first, blackboard second."""
        graph = self.graphs.get(schema_name)
        if graph is None:
            if not self.manager.blackboard.has_schema(schema_name):
                raise ServingError(
                    f"session {self.name!r} has no schema {schema_name!r}")
            graph = self.manager.blackboard.get_schema(schema_name)
            self.graphs[schema_name] = graph
        return graph

    def close(self) -> None:
        """Idempotent: roll back open work and release the durable layer."""
        with self.lock:
            if self._closed:
                return
            self._closed = True
            self._engine = None
            self.graphs.clear()
            self.manager.close()


class SessionRegistry:
    """The server's session table."""

    def __init__(self, config: ServingConfig) -> None:
        self._config = config
        self._lock = threading.Lock()
        self._sessions: Dict[str, WorkbenchSession] = {}

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._sessions)

    def get(self, name: str) -> WorkbenchSession:
        with self._lock:
            session = self._sessions.get(name)
        if session is None or session.closed:
            raise SessionNotFoundError(f"no session named {name!r}")
        return session

    def get_or_create(self, name: str) -> WorkbenchSession:
        if not _NAME_RE.match(name):
            raise ServingError(
                f"invalid session name {name!r} (letters, digits, '._-', "
                f"max 64 chars)")
        with self._lock:
            session = self._sessions.get(name)
            if session is not None and not session.closed:
                return session
            limit = self._config.max_sessions
            live = sum(1 for s in self._sessions.values() if not s.closed)
            if limit is not None and live >= limit:
                raise ServingError(
                    f"session limit reached ({limit}); close one first")
            session = WorkbenchSession(name, self._config)
            self._sessions[name] = session
            return session

    def close_session(self, name: str) -> None:
        with self._lock:
            session = self._sessions.pop(name, None)
        if session is None:
            raise SessionNotFoundError(f"no session named {name!r}")
        session.close()

    def close_all(self) -> None:
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.close()
