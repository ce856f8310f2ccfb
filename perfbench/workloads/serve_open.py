"""``serve_open`` — many engineers sharing one workbench server.

A ``WorkbenchServer`` (thread executor, ``WORKERS`` workers) holds 16
in-memory sessions of the A13 ORDERS/notice pair; load comes through the
in-process client from one generator thread, with the A13 request mix.

* Phase one is an open loop: Poisson arrivals at ``RATE``.  Each request
  is timed from its due time, so a stall charges the requests queued
  behind it; the generator's lateness is reported.  On a 2-vCPU guest
  this latency is mostly thread wake-up and hand-off, which follows the
  host's scheduling rather than CPU speed: run medians of identical
  code spread 1.4-3.3 ms, so the open loop is reported ungated
  (``diag.open_*``).
* Phase two is a closed loop with ``OUTSTANDING`` requests in flight.
  Its per-request latency (submit to result) gives ``p50_ms`` and
  ``tail_ms``, and its rate gives ``throughput`` (requests per second).

Both phases run in segments with a reference pass before and after each
while the server is idle.  Ops are tiny, so the queue, session locks,
futures and per-job transactions dominate.
"""

import math
import queue
import random
import statistics
import time

from harness import Timed, Workload
from measure import cells_digest, correction_factor, tail
from refloop import reference_ms

from repro.loaders import load_sql
from repro.serving import ServingConfig, WorkbenchServer

SESSIONS = 16
#: server worker threads.  One, not one per CPU: with the interpreter
#: lock two workers add little capacity for these Python-bound jobs, and
#: their lock hand-offs spread closed-loop throughput over 207-420 req/s
#: between runs of the same code (7.6% IQR with one worker)
WORKERS = 1
#: open-loop arrival rate (requests/s).  Closed-loop capacity here is
#: 180-310 req/s depending on the machine's phase; at 100 req/s a slow
#: phase pushed the queue near saturation and p50 up 5x, so the open
#: loop runs at a utilisation where latency is service time plus
#: moderate queueing
RATE = 50.0
#: share of ``--seconds`` spent in the open loop
OPEN_SHARE = 0.25
#: closed-loop requests per second of ``--seconds``: 2,400 in a 15 s run,
#: about 8 s of work, and the tail rule reports p99 with 24 samples
#: beyond it.  With 600 (about 2 s) a run saw the guest in one phase only,
#: and run medians spread 12-19% between runs
CLOSED_PER_SECOND = 160
#: closed-loop requests in flight: one per session, like sixteen
#: engineers who each wait for a reply before sending their next request.
#: Each request then waits behind ~15 others of the mix, so its latency
#: sums many service times and the median sits on a smooth part of the
#: distribution; with 4 in flight it fell on the steep edge between
#: light queries and heavy matches and moved 15-22% between runs
OUTSTANDING = SESSIONS
#: requests per measured segment
OPEN_SEGMENT = 100
CLOSED_SEGMENT = 100

#: the A13 request mix, in the order the requests are sent
MIX = ("query", "match", "query", "update_cell", "query",
       "match", "update_cell", "query", "evolve", "query")

MATRIX = "orders->notice"

#: cells the update requests accept
CELLS = (
    ("orders/orders/customer", "notice/shippingNotice/recipientName"),
    ("orders/orders/po_number", "notice/shippingNotice/poNo"),
    ("orders/orders/ship_date", "notice/shippingNotice/arrivalDate"),
    ("orders/orders/total", "notice/shippingNotice/amountDue"),
)

ORDERS_DDL = """
CREATE TABLE orders (
  po_number INT PRIMARY KEY,
  customer VARCHAR(40),
  ship_date DATE,
  total DECIMAL(10, 2)
);
CREATE TABLE order_lines (
  line_id INT PRIMARY KEY,
  po_number INT REFERENCES orders(po_number),
  sku VARCHAR(20),
  quantity INT
);
"""

ORDERS_DDL_V2 = ORDERS_DDL + """
CREATE TABLE carriers (
  carrier_id INT PRIMARY KEY,
  carrier_name VARCHAR(40)
);
"""

NOTICE_XSD = """
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="shippingNotice">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="poNo" type="xs:integer"/>
        <xs:element name="recipientName" type="xs:string"/>
        <xs:element name="arrivalDate" type="xs:date"/>
        <xs:element name="amountDue" type="xs:decimal"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>
"""


def _wait(handles):
    """Block until every handle resolved, whatever the outcome."""
    for handle in handles:
        try:
            handle.result(60)
        except Exception:  # noqa: BLE001 — outcomes are collected later
            pass


def _canonical(kind, result):
    """A comparable form of a job result."""
    if kind == "match":
        return cells_digest(
            (c.source_id, c.target_id, c.confidence, c.is_user_defined)
            for c in result.cells())
    if kind == "evolve":
        return repr((result.axes_removed, result.axes_added,
                     result.suggestions_reset, result.decisions_kept,
                     result.decisions_lost))
    return repr(result)


class ServeOpen(Workload):
    name = "serve_open"
    op_unit = "request"

    def __init__(self, seed, seconds):
        super().__init__(seed, seconds)
        rng = random.Random(f"serve_open:{seed}")
        self.sessions = [f"tenant-{i:02d}" for i in range(SESSIONS)]
        # per-session private v1/v2 graphs for the evolve requests
        self.graphs = {
            name: (load_sql(ORDERS_DDL, "orders"),
                   load_sql(ORDERS_DDL_V2, "orders"))
            for name in self.sessions
        }
        self._evolves = {name: 0 for name in self.sessions}
        self.setup_requests = []
        for name in self.sessions:
            self.setup_requests += [
                (name, "load_schema", {"text": ORDERS_DDL, "format": "sql",
                                       "schema_name": "orders"}),
                (name, "load_schema", {"text": NOTICE_XSD, "format": "xsd",
                                       "schema_name": "notice"}),
                (name, "match", {"source_schema": "orders",
                                 "target_schema": "notice",
                                 "matrix_name": MATRIX}),
            ]
        #: warm-up: one mix block per session
        self.warmup_requests = [
            self._request(name, kind, rng)
            for name in self.sessions for kind in MIX
        ]
        n_open = int(RATE * seconds * OPEN_SHARE)
        self.open_requests = self._requests(n_open, rng)
        # exponential inter-arrival gaps, stratified: every seed gets the
        # same set of gaps (the exponential quantiles at (i + 0.5) / n) in
        # its own order, so runs differ in arrival order, not in how
        # bursty the sample happened to be
        gaps = [-math.log(1.0 - (i + 0.5) / n_open) / RATE
                for i in range(n_open)]
        rng.shuffle(gaps)
        self.open_offsets = []
        for start in range(0, n_open, OPEN_SEGMENT):
            at = 0.0
            for gap in gaps[start:start + OPEN_SEGMENT]:
                at += gap
                self.open_offsets.append(at)
        self.closed_requests = self._requests(
            int(CLOSED_PER_SECOND * seconds), rng)
        self.op_count = n_open + len(self.closed_requests)

    def settings(self):
        return {"throughput_counts": self.op_unit,
                "workers": WORKERS, "sessions": SESSIONS,
                "open_requests": len(self.open_requests),
                "open_rate": RATE, "closed_requests": len(self.closed_requests),
                "outstanding": OUTSTANDING}

    def _request(self, name, kind, rng):
        if kind == "match":
            params = {"source_schema": "orders", "target_schema": "notice",
                      "matrix_name": MATRIX}
        elif kind == "query":
            params = {"name": "strong_cells",
                      "params": {"matrix_name": MATRIX, "threshold": 0.5}}
        elif kind == "update_cell":
            source, target = rng.choice(CELLS)
            params = {"matrix_name": MATRIX, "source_id": source,
                      "target_id": target, "confidence": 1.0,
                      "user_defined": True}
        else:
            self._evolves[name] += 1
            v1, v2 = self.graphs[name]
            params = {"new_graph": v2 if self._evolves[name] % 2 else v1,
                      "matrix_name": MATRIX, "side": "source",
                      "other_schema": "notice"}
        return (name, kind, params)

    def _requests(self, count, rng):
        """*count* requests: kinds in the A13 mix's own order, repeated,
        and sessions in shuffled blocks of all sessions, so every seed has
        the same sequence of kinds (a closed-loop request's latency
        depends on the kinds queued ahead of it) and the same share of
        each session."""
        kinds = list(MIX) * -(-count // len(MIX))
        sessions = []
        while len(sessions) < count:
            block = list(self.sessions)
            rng.shuffle(block)
            sessions += block
        return [self._request(name, kind, rng)
                for name, kind in zip(sessions[:count], kinds[:count])]

    def script(self):
        def describe(requests):
            return [
                [name, kind, {k: (len(v) if k == "new_graph" else v)
                              for k, v in params.items()}]
                for name, kind, params in requests
            ]
        return [describe(self.setup_requests), describe(self.warmup_requests),
                describe(self.open_requests), self.open_offsets,
                describe(self.closed_requests), OUTSTANDING]

    # -- lifecycle ------------------------------------------------------------

    @staticmethod
    def _submit(server, request):
        name, kind, params = request
        return server.submit(name, kind, **params)

    def setup(self):
        server = WorkbenchServer(ServingConfig(
            workers=WORKERS, queue_limit=100_000))
        for batch in (self.setup_requests, self.warmup_requests):
            handles = [self._submit(server, r) for r in batch]
            for handle in handles:
                handle.result(60)
        return {"server": server, "results": {}}

    def teardown(self, state):
        state["server"].close()

    def measure(self, state, tracer=None):
        server = state["server"]
        timed = Timed()
        lateness = []
        segment = 0

        def traced(index):
            return tracer is not None and index % 2 == 1

        # phase one: open loop (reported, not gated)
        open_ms = []
        for start in range(0, len(self.open_requests), OPEN_SEGMENT):
            requests = self.open_requests[start:start + OPEN_SEGMENT]
            offsets = self.open_offsets[start:start + OPEN_SEGMENT]
            done = [0.0] * len(requests)
            handles = []
            if traced(segment):
                tracer.begin_op(segment, state, units=len(requests))
            timed.refs_ms.append(reference_ms())
            origin = time.perf_counter()
            for slot, (request, offset) in enumerate(zip(requests, offsets)):
                due = origin + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                lateness.append(time.perf_counter() - due)
                handle = self._submit(server, request)
                handle.future.add_done_callback(
                    lambda _f, slot=slot: done.__setitem__(
                        slot, time.perf_counter()))
                handles.append((handle, due))
            _wait([h for h, _ in handles])
            timed.refs_ms.append(reference_ms())
            if traced(segment):
                tracer.end_op(segment, state, 0.0)
            self._collect(state, timed, start, requests,
                          [h for h, _ in handles])
            open_ms += [(done[slot] - due) * 1000.0
                        for slot, (handle, due) in enumerate(handles)
                        if handle.future.exception() is None]
            segment += 1

        # phase two: closed loop
        corrected_s = 0.0
        base = len(self.open_requests)
        for start in range(0, len(self.closed_requests), CLOSED_SEGMENT):
            requests = self.closed_requests[start:start + CLOSED_SEGMENT]
            completions = queue.Queue()
            handles = []
            submitted = []
            done = [0.0] * len(requests)
            if traced(segment):
                tracer.begin_op(segment, state, units=len(requests))
            ref_before = reference_ms()
            timed.refs_ms.append(ref_before)
            origin = time.perf_counter()

            def submit_next():
                slot = len(handles)
                submitted.append(time.perf_counter())
                handle = self._submit(server, requests[slot])

                def finished(future, slot=slot):
                    done[slot] = time.perf_counter()
                    completions.put(future)

                handle.future.add_done_callback(finished)
                handles.append(handle)

            for _ in range(min(OUTSTANDING, len(requests))):
                submit_next()
            for _ in range(len(requests)):
                completions.get(timeout=60)
                if len(handles) < len(requests):
                    submit_next()
            wall_s = time.perf_counter() - origin
            ref_after = reference_ms()
            timed.refs_ms.append(ref_after)
            if traced(segment):
                tracer.end_op(segment, state, 0.0)
            factor = correction_factor(ref_before, ref_after)
            corrected_s += wall_s * factor
            self._collect(state, timed, base + start, requests, handles)
            for slot, handle in enumerate(handles):
                if handle.future.exception() is None:
                    wall_ms = (done[slot] - submitted[slot]) * 1000.0
                    timed.raw_ms.append(wall_ms)
                    timed.latencies_ms.append(wall_ms * factor)
                    timed.traced.append(traced(segment))
            segment += 1

        ok = len(self.closed_requests) - sum(
            1 for i in range(len(self.closed_requests))
            if state["results"].get(base + i) is None)
        timed.throughput = ok / corrected_s
        open_pct, open_tail, _ = tail(open_ms)
        lateness.sort()
        timed.diag.update({
            "diag.open_p50_ms": statistics.median(open_ms),
            f"diag.open_p{open_pct:g}_ms": open_tail,
            "diag.generator_late_p50_ms": lateness[len(lateness) // 2] * 1000.0,
            "diag.generator_late_max_ms": lateness[-1] * 1000.0,
        })
        return timed

    def _collect(self, state, timed, first, requests, handles):
        """Wait for a segment's requests and keep their canonical results
        (``None`` for a failed request)."""
        for offset, (request, handle) in enumerate(zip(requests, handles)):
            timed.attempted += 1
            try:
                result = handle.result(60)
            except Exception as exc:  # noqa: BLE001 — a failed request is data
                timed.failed += 1
                if len(timed.errors) < 5:
                    timed.errors.append(
                        f"request {first + offset}: {type(exc).__name__}: {exc}")
                state["results"][first + offset] = None
                continue
            state["results"][first + offset] = _canonical(request[1], result)

    # -- correctness ----------------------------------------------------------

    def _replay(self, state):
        """Every session's script, serially, on a fresh one-worker server:
        per-request canonical results and each session's final matrix."""
        timed_requests = self.open_requests + self.closed_requests
        server = WorkbenchServer(ServingConfig(workers=1, queue_limit=100_000))
        try:
            for request in self.setup_requests + self.warmup_requests:
                self._submit(server, request)
            handles = [self._submit(server, r) for r in timed_requests]
            results = {
                index: _canonical(request[1], handle.result(120))
                for index, (request, handle)
                in enumerate(zip(timed_requests, handles))
            }
            finals = {
                name: self._final_digest(server, name)
                for name in self.sessions
            }
        finally:
            server.close()
        return results, finals

    @staticmethod
    def _final_digest(server, name):
        matrix = server.get_matrix(name, MATRIX).result(60)
        return cells_digest(
            (c.source_id, c.target_id, c.confidence, c.is_user_defined)
            for c in matrix.cells())

    def quality(self, state):
        results, finals = self._replay(state)
        state["replay_finals"] = finals
        equal = sum(1 for index, value in results.items()
                    if state["results"].get(index) == value)
        return equal / len(results)

    def checks(self, state):
        server = state["server"]
        finals = {name: self._final_digest(server, name)
                  for name in self.sessions}
        stats = server.stats()
        conserved = stats["submitted"] == (
            stats["completed"] + stats["failed"] + stats["cancelled"]
            + stats["pending"])
        return {
            "conservation": conserved and stats["pending"] == 0,
            "final_matrices_equal_replay":
                finals == state.get("replay_finals"),
        }

    def engines(self, state):
        server = state["server"]
        return [server.sessions.get(name).engine() for name in self.sessions]

    def stores(self, state):
        server = state["server"]
        return [server.sessions.get(name).manager.blackboard
                for name in self.sessions]

