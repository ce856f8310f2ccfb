"""The transport seam: the JSON gateway, and the TCP framing around it."""

import json
import socket
import struct

import pytest

from repro.rdf import BlankNode, IRI, Literal, XSD_INTEGER
from repro.serving import (
    TcpWorkbenchClient,
    handle_request,
    serve_tcp,
)
from repro.serving.server import QUERY_FUNCS


def _frame(message):
    payload = json.dumps(message).encode("utf-8")
    return struct.pack(">I", len(payload)) + payload


class TestGateway:
    """handle_request: one JSON-able dict in, one out, errors inline."""

    def test_session_lifecycle(self, make_server):
        server = make_server()
        created = handle_request(server, {"op": "create_session",
                                          "session": "alice"})
        assert created == {"ok": True, "session": "alice"}
        assert handle_request(server, {"op": "close_session",
                                       "session": "alice"}) == {"ok": True}

    def test_submit_poll_result(self, make_server, orders_ddl_text,
                                notice_xsd_text):
        server = make_server()
        for text, format_name, name in (
            (orders_ddl_text, "sql", "orders"),
            (notice_xsd_text, "xsd", "notice"),
        ):
            response = handle_request(server, {
                "op": "submit", "session": "s", "kind": "load_schema",
                "params": {"text": text, "format": format_name,
                           "schema_name": name}})
            assert response["ok"]
            done = handle_request(server, {
                "op": "result", "job_id": response["job_id"],
                "timeout": 30})
            assert done["ok"] and done["status"] == "done"
        submitted = handle_request(server, {
            "op": "submit", "session": "s", "kind": "match",
            "params": {"source_schema": "orders",
                       "target_schema": "notice"}})
        job_id = submitted["job_id"]
        result = handle_request(server, {"op": "result", "job_id": job_id,
                                         "timeout": 60})
        assert result["ok"]
        assert result["result"]["matrix"] == "orders->notice"
        assert result["result"]["cells"] > 0
        # a fetched result is forgotten: polling again is an error
        again = handle_request(server, {"op": "result", "job_id": job_id})
        assert not again["ok"]

    def test_terms_in_a_query_result_go_out_as_n_triples(
            self, make_server, monkeypatch):
        """Terms are tuples; the gateway must not send their fields."""
        monkeypatch.setitem(QUERY_FUNCS, "terms", lambda store: [
            IRI("urn:a"), (BlankNode("b1"), Literal("7", XSD_INTEGER)),
            [Literal("x")]])
        server = make_server()
        submitted = handle_request(server, {
            "op": "submit", "session": "s", "kind": "query",
            "params": {"name": "terms"}})
        result = handle_request(server, {
            "op": "result", "job_id": submitted["job_id"], "timeout": 30})
        assert result["ok"]
        assert result["result"] == [
            "<urn:a>", ["_:b1", f'"7"^^<{XSD_INTEGER}>'], ['"x"']]
        json.dumps(result)

    def test_non_wire_kind_rejected(self, make_server):
        server = make_server()
        response = handle_request(server, {
            "op": "submit", "session": "s", "kind": "put_schema",
            "params": {}})
        assert not response["ok"]
        assert "not wire-transportable" in response["message"]

    def test_unknown_op_is_an_error_response(self, make_server):
        server = make_server()
        response = handle_request(server, {"op": "divide_by_zero"})
        assert not response["ok"]
        assert response["error"] == "ServingError"

    def test_queue_full_carries_retry_hint(self, make_server):
        server = make_server(workers=1, queue_limit=1, retry_after_s=0.2)
        first = handle_request(server, {
            "op": "submit", "session": "s", "kind": "ping",
            "params": {"delay_s": 0.3}})
        assert first["ok"]
        # flood until the bounded queue rejects
        rejected = None
        for _ in range(20):
            response = handle_request(server, {
                "op": "submit", "session": "s", "kind": "ping",
                "params": {}})
            if not response["ok"]:
                rejected = response
                break
        assert rejected is not None
        assert rejected["error"] == "QueueFullError"
        assert rejected["retry_after_s"] == 0.2

    def test_cancel_and_stats(self, make_server):
        server = make_server(workers=1)
        blocker = handle_request(server, {
            "op": "submit", "session": "s", "kind": "ping",
            "params": {"delay_s": 0.3}})
        victim = handle_request(server, {
            "op": "submit", "session": "s", "kind": "ping", "params": {}})
        cancelled = handle_request(server, {"op": "cancel",
                                            "job_id": victim["job_id"]})
        assert cancelled == {"ok": True, "cancelled": True}
        outcome = handle_request(server, {"op": "result",
                                          "job_id": victim["job_id"],
                                          "timeout": 5})
        assert not outcome["ok"]
        assert outcome["error"] == "JobCancelledError"
        done = handle_request(server, {"op": "result",
                                       "job_id": blocker["job_id"],
                                       "timeout": 5})
        assert done["ok"] and done["result"] == "pong"
        stats = handle_request(server, {"op": "stats"})
        assert stats["ok"]
        assert stats["stats"]["cancelled"] == 1


    @pytest.mark.parametrize("request_", [
        ["op", "stats"],
        "stats",
        7,
        None,
        {"op": "create_session", "session": ["a"]},
        {"op": "close_session"},
        {"op": "submit", "session": [1], "kind": "ping", "params": {}},
        {"op": "submit", "session": {"x": 1}, "kind": "ping"},
        {"op": "submit", "session": "s", "kind": "ping", "params": [1]},
        {"op": "submit", "session": "s", "kind": "ping", "params": "x"},
        {"op": "submit", "session": "s", "kind": "ping", "priority": "high"},
        {"op": "submit", "session": "s", "kind": "ping",
         "params": {"retain": False}},
        {"op": "status", "job_id": [1]},
        {"op": "result", "job_id": 3},
        {"op": "cancel", "job_id": None},
    ])
    def test_a_request_of_the_wrong_shape_is_a_serving_error(
            self, make_server, request_):
        server = make_server()
        response = handle_request(server, request_)
        assert response["ok"] is False
        assert response["error"] == "ServingError"
        # nothing reached the server
        assert server.stats()["submitted"] == 0
        assert server.stats()["sessions"] == []

    def test_a_bad_result_timeout_keeps_the_job(self, make_server):
        server = make_server(workers=1)
        job = handle_request(server, {
            "op": "submit", "session": "s", "kind": "ping",
            "params": {"delay_s": 0.2}})
        response = handle_request(server, {
            "op": "result", "job_id": job["job_id"], "timeout": "soon"})
        assert response["error"] == "ServingError"
        done = handle_request(server, {
            "op": "result", "job_id": job["job_id"], "timeout": 5})
        assert done["ok"] and done["result"] == "pong"


class TestTcp:
    """Length-prefixed frames over a real socket."""

    def test_round_trip_match(self, make_server, orders_ddl_text,
                              notice_xsd_text):
        server = make_server()
        tcp = serve_tcp(server)
        try:
            host, port = tcp.address
            with TcpWorkbenchClient(host, port) as client:
                assert client.create_session("wire")["ok"]
                for text, format_name, name in (
                    (orders_ddl_text, "sql", "orders"),
                    (notice_xsd_text, "xsd", "notice"),
                ):
                    submitted = client.submit(
                        "wire", "load_schema", text=text,
                        format=format_name, schema_name=name)
                    assert client.result(submitted["job_id"])["ok"]
                submitted = client.submit(
                    "wire", "match", source_schema="orders",
                    target_schema="notice")
                result = client.result(submitted["job_id"], timeout=60)
                assert result["ok"]
                assert result["result"]["matrix"] == "orders->notice"
                assert result["result"]["cells"] > 0
                stats = client.stats()
                assert stats["stats"]["failed"] == 0
        finally:
            tcp.close()

    def test_errors_cross_the_wire_as_responses(self, make_server):
        server = make_server()
        tcp = serve_tcp(server)
        try:
            host, port = tcp.address
            with TcpWorkbenchClient(host, port) as client:
                response = client.request({"op": "nonsense"})
                assert not response["ok"]
                assert response["error"] == "ServingError"
                # the connection survives an error response
                assert client.stats()["ok"]
        finally:
            tcp.close()

    def test_multiple_clients_share_one_server(self, make_server):
        server = make_server()
        tcp = serve_tcp(server)
        try:
            host, port = tcp.address
            with TcpWorkbenchClient(host, port) as one, \
                    TcpWorkbenchClient(host, port) as two:
                assert one.create_session("a")["ok"]
                assert two.create_session("b")["ok"]
                names = one.stats()["stats"]["sessions"]
                assert set(names) >= {"a", "b"}
        finally:
            tcp.close()

    @pytest.mark.parametrize("frame", [
        # invalid UTF-8 inside a well-formed frame
        struct.pack(">I", 2) + b"\xff\xfe",
        # a frame the peer cuts short: 10 bytes announced, 3 sent
        struct.pack(">I", 10) + b'{"o',
        # a JSON list and a JSON string instead of an object
        struct.pack(">I", 6) + b'[1, 2]',
        struct.pack(">I", 7) + b'"stats"',
        # a session that is not a string
        _frame({"op": "submit", "session": [1], "kind": "ping",
                "params": {}}),
    ], ids=["invalid-utf8", "cut-short", "json-list", "json-string",
            "list-session"])
    def test_a_bad_frame_takes_down_only_its_connection(
            self, make_server, frame):
        server = make_server()
        tcp = serve_tcp(server)
        errors = []
        tcp._loop.set_exception_handler(
            lambda loop, context: errors.append(context))
        try:
            host, port = tcp.address
            for _ in range(2):
                with socket.create_connection((host, port), timeout=10) as raw:
                    raw.sendall(frame)
                    raw.shutdown(socket.SHUT_WR)
                    answer = b""
                    while True:
                        chunk = raw.recv(4096)
                        if not chunk:
                            break
                        answer += chunk
                if answer:
                    # a JSON frame of the wrong shape is answered, not raised
                    assert b'"error": "ServingError"' in answer
                # the listener serves a new connection after the bad one
                with TcpWorkbenchClient(host, port) as client:
                    assert client.stats()["ok"]
            assert errors == []
            assert server.stats()["submitted"] == 0
        finally:
            tcp.close()
