"""A7 — the cost of the workbench manager's services (Section 5.2).

The manager promises transactional updates, event notification and ad hoc
queries.  This bench prices each service: event publish/deliver
throughput, transaction commit and rollback latency as a function of
change-set size, blackboard matrix write/read, and BGP query latency over
a populated store.  The point is that the coordination layer is cheap
relative to the matching work it coordinates (compare F1's pipeline time).
"""

import time

import pytest

from repro.core import MappingMatrix
from repro.rdf import IRI, TripleStore, literal
from repro.workbench import (
    EventBus,
    IntegrationBlackboard,
    MappingCellEvent,
    Transaction,
    strong_cells,
)

N_EVENTS = 1_000
N_TRIPLES = 1_000
MATRIX_SIDE = 40


def test_a7_event_throughput(benchmark, report):
    bus = EventBus()
    received = []
    bus.subscribe(MappingCellEvent, received.append)

    def publish_batch():
        for i in range(N_EVENTS):
            bus.publish(MappingCellEvent(
                source_tool="bench", matrix_name="m",
                source_id=f"s{i}", target_id="t", confidence=0.5))

    benchmark(publish_batch)
    assert len(received) >= N_EVENTS
    report("A7_event_throughput",
           f"A7a — {N_EVENTS} typed events published+delivered per round; "
           f"see pytest-benchmark table for the per-round latency")


def test_a7_transaction_commit(benchmark):
    subject = IRI("http://x/s")
    predicate = IRI("http://x/p")

    def txn_commit():
        store = TripleStore()
        with Transaction(store):
            for i in range(N_TRIPLES):
                store.add(subject, predicate, literal(i))
        return store

    store = benchmark(txn_commit)
    assert len(store) == N_TRIPLES


def test_a7_transaction_rollback(benchmark):
    subject = IRI("http://x/s")
    predicate = IRI("http://x/p")

    def txn_rollback():
        store = TripleStore()
        txn = Transaction(store)
        for i in range(N_TRIPLES):
            store.add(subject, predicate, literal(i))
        txn.rollback()
        return store

    store = benchmark(txn_rollback)
    assert len(store) == 0


@pytest.fixture(scope="module")
def populated_blackboard():
    blackboard = IntegrationBlackboard()
    matrix = MappingMatrix("bench-matrix")
    for i in range(MATRIX_SIDE):
        matrix.add_row(f"s/e{i}")
        matrix.add_column(f"t/e{i}")
    for i in range(MATRIX_SIDE):
        for j in range(MATRIX_SIDE):
            if (i + j) % 3 == 0:
                matrix.set_confidence(f"s/e{i}", f"t/e{j}", ((i * j) % 100) / 100.0)
    blackboard.put_matrix(matrix)
    return blackboard


def test_a7_matrix_write(benchmark):
    matrix = MappingMatrix("write-bench")
    for i in range(MATRIX_SIDE):
        matrix.add_row(f"s/e{i}")
        matrix.add_column(f"t/e{i}")
    for i in range(MATRIX_SIDE):
        matrix.set_confidence(f"s/e{i}", f"t/e{i}", 0.5)

    def write():
        blackboard = IntegrationBlackboard()
        blackboard.put_matrix(matrix)
        return blackboard

    blackboard = benchmark(write)
    assert blackboard.has_matrix("write-bench")


def test_a7_matrix_read(benchmark, populated_blackboard):
    matrix = benchmark(populated_blackboard.get_matrix, "bench-matrix")
    assert len(matrix.row_ids) == MATRIX_SIDE


def test_a7_bulk_store_mutation(benchmark, perf_record):
    """Bulk ``add_many`` vs one ``add`` per triple (same listener set)."""
    from repro.rdf.triple import Triple

    subject = IRI("http://x/s")
    predicate = IRI("http://x/p")
    triples = [Triple(subject, predicate, literal(i)) for i in range(N_TRIPLES)]

    t0 = time.perf_counter()
    single = TripleStore()
    seen_single = []
    single.subscribe(lambda added, triple: seen_single.append(triple))
    for triple in triples:
        single.add(triple.subject, triple.predicate, triple.object)
    single_wall = time.perf_counter() - t0

    def bulk_load():
        store = TripleStore()
        batches = []
        store.subscribe_batch(batches.append)
        store.add_many(triples)
        return store, batches

    t0 = time.perf_counter()
    store, batches = bulk_load()
    bulk_wall = time.perf_counter() - t0
    benchmark(bulk_load)
    assert len(store) == N_TRIPLES
    assert len(seen_single) == N_TRIPLES
    # one notification for the whole change set, not N_TRIPLES of them
    assert len(batches) == 1 and len(batches[0]) == N_TRIPLES
    perf_record("A7_bulk_store", {
        "triples": N_TRIPLES,
        "per_triple_wall_s": round(single_wall, 4),
        "bulk_wall_s": round(bulk_wall, 4),
        "batch_notifications": len(batches),
    })


def test_a7_durable_blackboard(benchmark, tmp_path, perf_record, report):
    """The durability tax and refund: WAL-on matrix writes vs in-memory,
    and snapshot+replay reopen."""

    matrix = MappingMatrix("durable-bench")
    for i in range(MATRIX_SIDE):
        matrix.add_row(f"s/e{i}")
        matrix.add_column(f"t/e{i}")
    for i in range(MATRIX_SIDE):
        for j in range(MATRIX_SIDE):
            if (i + j) % 3 == 0:
                matrix.set_confidence(f"s/e{i}", f"t/e{j}", ((i * j) % 100) / 100.0)

    t0 = time.perf_counter()
    memory_board = IntegrationBlackboard()
    memory_board.put_matrix(matrix)
    memory_wall = time.perf_counter() - t0

    directory = str(tmp_path / "ib")
    t0 = time.perf_counter()
    durable_board = IntegrationBlackboard(durable=directory, fsync="commit")
    durable_board.put_matrix(matrix)
    durable_board.durability.sync()
    durable_wall = time.perf_counter() - t0
    wal_bytes = durable_board.durability.wal_size
    triples = len(durable_board.store)
    durable_board.checkpoint()
    durable_board.close()

    def reopen():
        board = IntegrationBlackboard(durable=directory)
        board.close()
        return board

    t0 = time.perf_counter()
    board = reopen()
    reopen_wall = time.perf_counter() - t0
    assert len(board.store) == triples
    benchmark(reopen)

    perf_record("A7_durable_blackboard", {
        "store_triples": triples,
        "memory_write_wall_s": round(memory_wall, 4),
        "durable_write_wall_s": round(durable_wall, 4),
        "wal_bytes": wal_bytes,
        "reopen_wall_s": round(reopen_wall, 4),
    })
    report(
        "A7_durable_blackboard",
        f"A7d — durable blackboard ({triples} triples):\n"
        f"  in-memory matrix write: {memory_wall*1000:.1f} ms\n"
        f"  WAL-backed write (fsync=commit): {durable_wall*1000:.1f} ms "
        f"({wal_bytes} WAL bytes)\n"
        f"  snapshot reopen: {reopen_wall*1000:.1f} ms\n"
        "shape: logging adds a bounded constant to each write; recovery "
        "replays the same frames",
    )


def test_a7_query_latency(benchmark, populated_blackboard, report):
    rows = benchmark(
        strong_cells, populated_blackboard.store, "bench-matrix", 0.5)
    assert rows
    report(
        "A7_workbench_overhead",
        "A7 — manager service costs (see pytest-benchmark table):\n"
        f"  event delivery: {N_EVENTS} typed events per round\n"
        f"  transactions: commit/rollback of {N_TRIPLES}-triple change sets\n"
        f"  blackboard: write/read of a {MATRIX_SIDE}x{MATRIX_SIDE} matrix "
        f"({len(populated_blackboard.store)} triples)\n"
        f"  ad hoc query: strong-cells BGP over the same store → {len(rows)} rows\n"
        "shape: every coordination primitive is far cheaper than one engine "
        "run (F1 bench), so the workbench's interoperability is effectively free",
    )
