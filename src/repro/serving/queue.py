"""The bounded, session-fair job queue.

Scheduling policy (documented in ``docs/SERVING.md``):

* **fairness first** — sessions with queued work take turns
  round-robin, so one chatty session cannot starve the others however
  many jobs it submits;
* **priority second** — within a session, jobs run in ``(priority,
  arrival)`` order (lower priority value first);
* **backpressure** — the queue is bounded; a push beyond
  ``queue_limit`` raises :class:`~repro.serving.jobs.QueueFullError`
  with a retry-after hint instead of queueing unboundedly.

Jobs cancelled while queued stay in their heap (cancellation already
resolved their future) and are discarded, not returned, when a worker
reaches them.
"""

from __future__ import annotations

import heapq
import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from .jobs import Job, JobStatus, QueueFullError, ServerClosedError

#: heap entry: (priority, seq, job) — seq is unique, so jobs never compare
_Entry = Tuple[int, int, Job]


class JobQueue:
    """Bounded priority queue with per-session round-robin fairness."""

    def __init__(
        self,
        limit: int,
        retry_after_s: float = 0.05,
    ) -> None:
        self._limit = limit
        self._retry_after_s = retry_after_s
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._heaps: Dict[str, List[_Entry]] = {}
        #: sessions with a (possibly all-cancelled) non-empty heap, in
        #: round-robin order
        self._rotation: Deque[str] = deque()
        self._size = 0
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def pending(self) -> int:
        """Queued jobs, including cancelled-but-undrained entries."""
        with self._lock:
            return self._size

    def push(self, job: Job) -> None:
        with self._not_empty:
            if self._closed:
                raise ServerClosedError("server is shutting down")
            if self._size >= self._limit:
                raise QueueFullError(self._retry_after_s)
            heap = self._heaps.get(job.session)
            if heap is None:
                heap = self._heaps[job.session] = []
                self._rotation.append(job.session)
            heapq.heappush(heap, (job.priority, job.seq, job))
            self._size += 1
            self._not_empty.notify()

    def _pop_live(self, session: str) -> Optional[Job]:
        """Next non-cancelled job of one session; drops cancelled entries."""
        heap = self._heaps[session]
        while heap:
            _, _, job = heapq.heappop(heap)
            self._size -= 1
            if job.status is JobStatus.CANCELLED:
                continue
            return job
        return None

    def _take(self) -> Optional[Job]:
        """One scheduling decision; caller holds the lock."""
        while self._rotation:
            session = self._rotation.popleft()
            job = self._pop_live(session)
            if self._heaps[session]:
                self._rotation.append(session)
            else:
                del self._heaps[session]
            if job is not None:
                return job
        return None

    def pop(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Next job to run, or None on timeout / drained-and-closed.

        After :meth:`close`, remaining jobs keep coming out (so a
        draining shutdown can finish them); None means empty+closed.
        """
        with self._not_empty:
            while True:
                job = self._take()
                if job is not None:
                    return job
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout):
                    return self._take()

    def close(self) -> None:
        """Stop accepting pushes and wake every blocked pop."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    def cancel_pending(self) -> int:
        """Cancel every queued job (a non-draining shutdown). Returns
        how many were cancelled."""
        with self._not_empty:
            cancelled = 0
            for heap in self._heaps.values():
                for _, _, job in heap:
                    if job.cancel():
                        cancelled += 1
            self._not_empty.notify_all()
            return cancelled
