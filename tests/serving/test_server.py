"""The workbench server: sessions, queue semantics, cancellation,
backpressure, shutdown, and the smoke load CI runs."""

import threading
import time

import pytest

from repro.core import ToolError
from repro.serving import (
    JobCancelledError,
    JobQueue,
    JobStatus,
    QueueFullError,
    ServerClosedError,
    ServingConfig,
    ServingError,
    WorkbenchClient,
)
from repro.serving.jobs import Job


def wait_running(handle, timeout=5.0):
    """Spin until the worker has actually picked the job up."""
    deadline = time.monotonic() + timeout
    while handle.status is JobStatus.QUEUED:
        if time.monotonic() > deadline:
            raise AssertionError(f"{handle.job_id} never started")
        time.sleep(0.002)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ToolError):
            ServingConfig(workers=0)
        with pytest.raises(ToolError):
            ServingConfig(queue_limit=0)
        with pytest.raises(ToolError):
            ServingConfig(retry_after_s=-1.0)
        with pytest.raises(ToolError):
            ServingConfig(max_sessions=0)
        with pytest.raises(ToolError):
            ServingConfig(fsync="sometimes")
        with pytest.raises(ToolError):
            ServingConfig(drain_timeout_s=-1.0)

    def test_defaults_resolve_fast_engine(self):
        config = ServingConfig()
        assert config.resolved_engine_config() is not None


class TestQueue:
    def _job(self, session, priority=0, seq=0):
        return Job(session=session, kind="ping", params={},
                   priority=priority, seq=seq)

    def test_priority_within_session(self):
        queue = JobQueue(limit=10)
        low = self._job("a", priority=5, seq=0)
        high = self._job("a", priority=-5, seq=1)
        mid = self._job("a", priority=0, seq=2)
        for job in (low, high, mid):
            queue.push(job)
        assert [queue.pop(0.1) for _ in range(3)] == [high, mid, low]

    def test_arrival_order_breaks_priority_ties(self):
        queue = JobQueue(limit=10)
        jobs = [self._job("a", seq=i) for i in range(4)]
        for job in jobs:
            queue.push(job)
        assert [queue.pop(0.1) for _ in range(4)] == jobs

    def test_fair_round_robin_across_sessions(self):
        queue = JobQueue(limit=32)
        # session "a" floods first; "b" and "c" each queue one job
        flood = [self._job("a", seq=i) for i in range(6)]
        b = self._job("b", seq=6)
        c = self._job("c", seq=7)
        for job in flood + [b, c]:
            queue.push(job)
        order = [queue.pop(0.1).session for _ in range(8)]
        # b and c each get a turn within the first rotation, despite
        # a's six earlier arrivals
        assert set(order[:3]) == {"a", "b", "c"}

    def test_backpressure_raises_with_retry_hint(self):
        queue = JobQueue(limit=2, retry_after_s=0.25)
        queue.push(self._job("a", seq=0))
        queue.push(self._job("a", seq=1))
        with pytest.raises(QueueFullError) as info:
            queue.push(self._job("a", seq=2))
        assert info.value.retry_after_s == 0.25

    def test_cancelled_entries_are_discarded(self):
        queue = JobQueue(limit=10)
        first = self._job("a", seq=0)
        second = self._job("a", seq=1)
        queue.push(first)
        queue.push(second)
        assert first.cancel()
        assert queue.pop(0.1) is second
        assert queue.pop(0.05) is None

    def test_closed_queue_rejects_push_and_drains(self):
        queue = JobQueue(limit=10)
        job = self._job("a")
        queue.push(job)
        queue.close()
        with pytest.raises(ServerClosedError):
            queue.push(self._job("a", seq=1))
        assert queue.pop(0.1) is job
        assert queue.pop(0.1) is None  # drained + closed


class TestSessions:
    def test_sessions_are_isolated(self, make_server, load_pair,
                                   orders_ddl_text):
        server = make_server()
        load_pair(server, "alice")
        client = WorkbenchClient(server)
        client.load_schema("bob", orders_ddl_text, "sql", "different")
        alice_board = server.sessions.get("alice").manager.blackboard
        assert alice_board.has_schema("orders")
        bob_board = server.sessions.get("bob").manager.blackboard
        assert bob_board.has_schema("different")
        assert not bob_board.has_schema("orders")

    def test_invalid_session_name_rejected(self, make_server):
        server = make_server()
        with pytest.raises(ServingError):
            server.ping("../escape")

    def test_max_sessions_enforced(self, make_server):
        server = make_server(max_sessions=2)
        server.ping("one").result(5)
        server.ping("two").result(5)
        with pytest.raises(ServingError):
            server.ping("three")
        server.sessions.close_session("one")
        server.ping("four").result(5)

    def test_durable_sessions_recover(self, make_server, load_pair,
                                      tmp_path):
        root = str(tmp_path / "sessions")
        server = make_server(durable_root=root)
        client = load_pair(server, "alice")
        matrix = client.match("alice", "orders", "notice")
        want = {(c.source_id, c.target_id): c.confidence
                for c in matrix.cells()}
        assert want
        server.close()

        reopened = make_server(durable_root=root)
        board = reopened.sessions.get_or_create("alice").manager.blackboard
        assert board.has_schema("orders")
        assert board.has_schema("notice")
        got = {(c.source_id, c.target_id): c.confidence
               for c in board.get_matrix("orders->notice").cells()}
        assert got == want


class TestCancellation:
    def test_cancel_queued_job_never_runs(self, make_server):
        server = make_server(workers=1)
        blocker = server.ping("s", delay_s=0.3)
        victim = server.ping("s")
        assert victim.cancel()
        with pytest.raises(JobCancelledError):
            victim.result(5)
        assert blocker.result(5) == "pong"
        assert server.stats()["cancelled"] == 1

    def test_cancel_mid_flight_discards_effects(self, make_server,
                                                load_pair):
        """A match cancelled while RUNNING writes nothing to the board."""
        server = make_server(workers=1)
        load_pair(server, "s")
        session = server.sessions.get("s")

        started = threading.Event()
        release = threading.Event()

        class GatedEngine:
            def match(self, source, target, matrix=None):
                started.set()
                release.wait(5)

        session._engine = GatedEngine()
        handle = server.match("s", "orders", "notice")
        assert started.wait(5)
        assert handle.status is JobStatus.RUNNING
        assert handle.cancel()
        release.set()
        with pytest.raises(JobCancelledError):
            handle.result(5)
        assert not session.manager.blackboard.has_matrix("orders->notice")

    def test_cancel_terminal_job_is_noop(self, make_server):
        server = make_server()
        handle = server.ping("s")
        assert handle.result(5) == "pong"
        assert not handle.cancel()


class TestBackpressure:
    def test_full_queue_rejects_submit(self, make_server):
        server = make_server(workers=1, queue_limit=3, retry_after_s=0.01)
        blocker = server.ping("s", delay_s=0.4)
        wait_running(blocker)  # queue is now empty, worker occupied
        handles = [server.ping("s") for _ in range(3)]
        with pytest.raises(QueueFullError) as info:
            server.ping("s")
        assert info.value.retry_after_s == 0.01
        assert server.stats()["rejected"] == 1
        # the rejected submit lost nothing that was accepted
        assert blocker.result(5) == "pong"
        assert all(h.result(5) == "pong" for h in handles)

    def test_submit_with_retry_rides_out_backpressure(self, make_server):
        server = make_server(workers=2, queue_limit=2, retry_after_s=0.01)
        client = WorkbenchClient(server)
        handles = [
            client.submit_with_retry("s", "ping", attempts=50,
                                     delay_s=0.01)
            for _ in range(20)
        ]
        assert all(h.result(10) == "pong" for h in handles)


class TestShutdown:
    def test_drain_finishes_queued_jobs(self, make_server):
        server = make_server(workers=1)
        handles = [server.ping("s", delay_s=0.02) for _ in range(5)]
        server.close(drain=True)
        assert all(h.result(1) == "pong" for h in handles)
        assert server.stats()["completed"] == len(handles)

    def test_no_drain_cancels_queued_jobs(self, make_server):
        server = make_server(workers=1)
        blocker = server.ping("s", delay_s=0.2)
        wait_running(blocker)
        queued = [server.ping("s") for _ in range(4)]
        server.close(drain=False)
        assert blocker.result(5) == "pong"  # in-flight always finishes
        for handle in queued:
            with pytest.raises(JobCancelledError):
                handle.result(1)

    def test_close_is_idempotent_and_final(self, make_server):
        server = make_server()
        server.ping("s").result(5)
        server.close()
        server.close()
        with pytest.raises(ServerClosedError):
            server.ping("s")

    def test_every_job_resolves_exactly_once(self, make_server):
        server = make_server(workers=1)
        blocker = server.ping("s", delay_s=0.1)
        queued = [server.ping("s") for _ in range(6)]
        queued[2].cancel()
        server.close(drain=True)
        for handle in [blocker] + queued:
            assert handle.future.done()
        stats = server.stats()
        assert (stats["submitted"]
                == stats["completed"] + stats["failed"]
                + stats["cancelled"])
        assert stats["pending"] == 0


class TestFailures:
    def test_failed_job_reraises_and_counts(self, make_server):
        server = make_server()
        handle = server.match("s", "ghost-source", "ghost-target")
        with pytest.raises(ServingError):
            handle.result(5)
        assert server.stats()["failed"] == 1

    def test_a_non_integer_priority_is_refused_at_submit(self, make_server):
        """It would otherwise sit in the session's heap and kill the
        worker that next compares it with an integer priority."""
        server = make_server(workers=1)
        first = server.submit("a", "ping", delay_s=0.1)
        with pytest.raises(ServingError):
            server.submit("a", "ping", priority="high")
        assert server.submit("a", "ping", priority=1).result(5) == "pong"
        assert first.result(5) == "pong"
        assert server.stats()["pending"] == 0

    def test_unknown_kind_rejected_at_submit(self, make_server):
        server = make_server()
        with pytest.raises(ServingError):
            server.submit("s", "transmogrify")


class TestSmokeLoad:
    """The CI smoke: 100 mixed requests, zero lost or duplicated."""

    def test_hundred_mixed_requests_conserved(self, make_server,
                                              load_pair):
        server = make_server(workers=4, queue_limit=256)
        sessions = [f"s{i}" for i in range(5)]
        for name in sessions:
            load_pair(server, name)
        handles = []
        for i in range(100):
            name = sessions[i % len(sessions)]
            kind = i % 4
            if kind == 0:
                handles.append(server.match(name, "orders", "notice"))
            elif kind == 1:
                handles.append(server.query(
                    name, "matrix_progress",
                    matrix_name="orders->notice"))
            elif kind == 2:
                handles.append(server.update_cell(
                    name, "orders->notice", "orders/customer",
                    "notice/shippingNotice/recipientName", 1.0,
                    user_defined=True))
            else:
                handles.append(server.ping(name))
        results = [h.result(120) for h in handles]
        assert len(results) == 100
        # exactly-once: every future resolved, and the counters obey the
        # conservation law with nothing pending
        stats = server.stats()
        assert stats["submitted"] == 100 + 2 * len(sessions)
        assert stats["failed"] == 0
        assert stats["cancelled"] == 0
        assert stats["pending"] == 0
        assert stats["completed"] == stats["submitted"]
