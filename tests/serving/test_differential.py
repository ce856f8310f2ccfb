"""The serving determinism contract: concurrency must not change a
single bit of any result.

N sessions, each with its own perturbed schema pair, matched through
the server with 4 workers running concurrently, must produce matrices
bit-identical to N serial runs on fresh, private engines."""

import pytest

from repro.core.matrix import MappingMatrix
from repro.harmony import HarmonyEngine
from repro.loaders import load_sql, load_xsd
from repro.serving import ServingConfig, WorkbenchClient


N_SESSIONS = 6


def _perturbed_pair(orders_ddl_text, notice_xsd_text, index):
    """A per-session variant of the Figure-3 pair: an extra table whose
    name and columns depend on the session index, so no two sessions
    share inputs and any cross-session leak changes some matrix."""
    ddl = orders_ddl_text + (
        f"\nCREATE TABLE audit_{index} ("
        f"  entry_id INT PRIMARY KEY,"
        f"  note_{index} VARCHAR(40),"
        f"  stamp_{index} DATE"
        f");\n"
    )
    return ddl, notice_xsd_text


def _serial_reference(orders_ddl_text, notice_xsd_text):
    """One fresh engine per session, strictly sequential."""
    config = ServingConfig()
    expected = {}
    for index in range(N_SESSIONS):
        ddl, xsd = _perturbed_pair(orders_ddl_text, notice_xsd_text, index)
        source = load_sql(ddl, "orders")
        target = load_xsd(xsd, "notice")
        matrix = MappingMatrix.from_schemas(source, target)
        engine = HarmonyEngine(config=config.resolved_engine_config())
        engine.match(source, target, matrix=matrix)
        expected[f"s{index}"] = {
            (c.source_id, c.target_id): c.confidence
            for c in matrix.cells()
        }
    return expected


def _served_concurrent(make_server, orders_ddl_text, notice_xsd_text):
    server = make_server(workers=4, queue_limit=256)
    client = WorkbenchClient(server)
    for index in range(N_SESSIONS):
        ddl, xsd = _perturbed_pair(orders_ddl_text, notice_xsd_text, index)
        client.load_schema(f"s{index}", ddl, "sql", "orders")
        client.load_schema(f"s{index}", xsd, "xsd", "notice")
    # submit every match before collecting any result, so the sessions
    # genuinely overlap on the worker pool
    handles = {
        f"s{index}": server.match(f"s{index}", "orders", "notice")
        for index in range(N_SESSIONS)
    }
    matrices = {name: handle.result(300) for name, handle in handles.items()}
    got = {
        name: {(c.source_id, c.target_id): c.confidence
               for c in matrix.cells()}
        for name, matrix in matrices.items()
    }
    server.close()
    return got


def test_concurrent_thread_mode_is_bit_identical_to_serial(
        make_server, orders_ddl_text, notice_xsd_text):
    expected = _serial_reference(orders_ddl_text, notice_xsd_text)
    got = _served_concurrent(make_server, orders_ddl_text, notice_xsd_text)
    assert got == expected  # dict equality on floats == bit-identical

    # the perturbation did its job: no two sessions agree
    maps = list(expected.values())
    assert all(maps[i] != maps[j]
               for i in range(len(maps)) for j in range(i + 1, len(maps)))


def test_repeat_match_on_warm_engine_is_stable(make_server, load_pair):
    """The same session matched twice on its warm engine: same bits."""
    server = make_server(workers=1)
    load_pair(server, "s")
    first = server.match("s", "orders", "notice").result(60)
    second = server.match("s", "orders", "notice").result(60)
    cells = lambda m: {(c.source_id, c.target_id): c.confidence
                       for c in m.cells()}
    assert cells(first) == cells(second)
