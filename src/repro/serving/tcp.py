"""A thin length-prefixed TCP transport over the JSON gateway.

Framing: 4-byte big-endian payload length, then that many bytes of
UTF-8 JSON.  One request frame in, one response frame out, any number
of exchanges per connection.  Everything above the socket is
:func:`repro.serving.client.handle_request` — the TCP layer adds no
semantics of its own, which is the point of the transport seam.

The listener is stdlib ``asyncio`` (``asyncio.start_server``) running
on a dedicated daemon thread, so synchronous callers can host it
without owning an event loop; gateway calls that block (``result``)
run in the loop's default executor to keep the loop responsive.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import threading
from typing import Any, Dict, Optional, Tuple

from .client import handle_request
from .jobs import ServingError
from .server import WorkbenchServer

_HEADER = struct.Struct(">I")
#: refuse frames above this size (a corrupt header otherwise allocates GBs)
MAX_FRAME_BYTES = 64 * 1024 * 1024


def _encode(message: Dict[str, Any]) -> bytes:
    payload = json.dumps(message, sort_keys=True).encode("utf-8")
    return _HEADER.pack(len(payload)) + payload


async def _read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError:
        return None  # clean EOF between frames
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ServingError(f"frame of {length} bytes exceeds the limit")
    payload = await reader.readexactly(length)
    return json.loads(payload.decode("utf-8"))


class TcpWorkbenchServer:
    """The TCP listener around one :class:`WorkbenchServer`."""

    def __init__(self, server: WorkbenchServer,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.server = server
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._address: Optional[Tuple[str, int]] = None
        self._asyncio_server: Optional[asyncio.AbstractServer] = None
        self._thread = threading.Thread(
            target=self._run, args=(host, port),
            name="workbench-tcp", daemon=True)
        self._thread.start()
        self._started.wait()

    def _run(self, host: str, port: int) -> None:
        asyncio.set_event_loop(self._loop)

        async def start() -> None:
            self._asyncio_server = await asyncio.start_server(
                self._handle_connection, host, port)
            self._address = self._asyncio_server.sockets[0].getsockname()[:2]
            self._started.set()

        self._loop.run_until_complete(start())
        try:
            self._loop.run_forever()
        finally:
            # drain connection tasks before closing the loop, so their
            # transports see connection_lost instead of a dead loop
            tasks = asyncio.all_tasks(self._loop)
            for task in tasks:
                task.cancel()
            if tasks:
                self._loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True))
            self._loop.run_until_complete(self._loop.shutdown_asyncgens())
            self._loop.close()

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        loop = asyncio.get_event_loop()
        try:
            while True:
                request = await _read_frame(reader)
                if request is None:
                    break
                # handle_request can block (op=result waits on a job
                # future): keep it off the event loop
                response = await loop.run_in_executor(
                    None, handle_request, self.server, request)
                writer.write(_encode(response))
                await writer.drain()
        except (ConnectionError, ServingError, asyncio.IncompleteReadError,
                UnicodeDecodeError, json.JSONDecodeError):
            pass  # a broken peer takes down its connection, nothing else
        except asyncio.CancelledError:
            pass  # listener shutdown: finish cleanly so the task is not
            # left "cancelled" (asyncio's streams callback would log it)
        finally:
            try:
                writer.close()
            except RuntimeError:
                pass  # loop already torn down

    @property
    def address(self) -> Tuple[str, int]:
        assert self._address is not None
        return self._address

    def close(self) -> None:
        """Stop the listener (idempotent); the workbench server itself
        is left to its owner."""
        if not self._loop.is_closed():
            def _shutdown() -> None:
                if self._asyncio_server is not None:
                    self._asyncio_server.close()
                self._loop.stop()

            self._loop.call_soon_threadsafe(_shutdown)
            self._thread.join(timeout=5.0)


def serve_tcp(server: WorkbenchServer, host: str = "127.0.0.1",
              port: int = 0) -> TcpWorkbenchServer:
    """Expose a workbench server over TCP; ``port=0`` picks a free one."""
    return TcpWorkbenchServer(server, host=host, port=port)


class TcpWorkbenchClient:
    """A blocking socket client for the TCP transport."""

    def __init__(self, host: str, port: int,
                 timeout: Optional[float] = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self._sock.sendall(_encode(message))
        header = self._recv_exact(_HEADER.size)
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise ServingError(f"frame of {length} bytes exceeds the limit")
        return json.loads(self._recv_exact(length).decode("utf-8"))

    def _recv_exact(self, count: int) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            chunk = self._sock.recv(remaining)
            if not chunk:
                raise ConnectionError("server closed the connection")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    # thin convenience wrappers over the gateway ops

    def create_session(self, session: str) -> Dict[str, Any]:
        return self.request({"op": "create_session", "session": session})

    def submit(self, session: str, kind: str,
               priority: Optional[int] = None,
               **params: Any) -> Dict[str, Any]:
        return self.request({"op": "submit", "session": session,
                             "kind": kind, "priority": priority,
                             "params": params})

    def result(self, job_id: str,
               timeout: float = 30.0) -> Dict[str, Any]:
        return self.request({"op": "result", "job_id": job_id,
                             "timeout": timeout})

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self.request({"op": "cancel", "job_id": job_id})

    def stats(self) -> Dict[str, Any]:
        return self.request({"op": "stats"})

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "TcpWorkbenchClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
