"""Durable blackboard substrate: write-ahead log, snapshots, replication.

The paper's integration blackboard is *"a shared repository ... intended
to be accessed by multiple tools"* (Section 5.1); enterprise deployments
additionally expect the repository to survive crashes and to fan heavy
read traffic out across replicas.  This module adds both on top of the
in-memory :class:`~repro.rdf.store.TripleStore`, using the store's
existing change-capture seam (batch listeners + the mutation ``revision``
counter) so durability costs O(delta), never O(store):

* **Write-ahead log** — every mutation batch the store reports becomes
  one framed, CRC-checked :class:`WALFrame` appended to ``store.wal``.
  The fsync policy is configurable (``"always"`` / ``"commit"`` /
  ``"never"``).  Torn or corrupt tails are detected by framing + checksum
  and cut off: recovery always yields exactly the longest durable prefix.
* **Snapshots** — :meth:`DurableStore.checkpoint` writes the whole store
  as ``store.snapshot`` in a compact interned-term binary layout (each
  distinct term encoded once, triples as varint id-triples — the same
  idea as the matrix serializer's ``_matrix_slices`` bulk layout), then
  truncates the WAL.  Snapshot + truncate is the compaction step.
* **Crash recovery** — :class:`DurableStore` replays the WAL over the
  last snapshot, verifying each frame's recorded ``revision`` against
  the store's own counter (bulk and single mutations advance the counter
  identically — see ``TripleStore.revision`` — which is what makes the
  check sound).
* **Delta-shipping replication** — :class:`ReplicaStore` consumes the
  same encoded frames (via :class:`ReplicationLink` in-process, or any
  byte transport) to maintain a read-only copy answering the full
  query/planner API; frames arriving out of order are rejected.

File formats are versioned and golden-tested
(``tests/rdf/test_durability_golden.py``); crash behaviour is
property-tested at every byte boundary (``tests/rdf/test_wal_recovery.py``)
and replicas are differentially tested against their primary
(``tests/rdf/test_replication.py``).
"""

from __future__ import annotations

import gc
import os
import zlib
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)
from collections import deque

from ..core.errors import DurabilityError, ReplicationError, StoreError
from .faultfs import FileSystem, OS_FS
from .query import Binding, Query, evaluate_planned
from .store import TripleStore
from .term import XSD_STRING, BlankNode, IRI, Literal, Term
from .triple import Triple

__all__ = [
    "WAL_MAGIC",
    "SNAPSHOT_MAGIC",
    "FORMAT_VERSION",
    "WALFrame",
    "DurableStore",
    "ReplicaStore",
    "ReplicationLink",
    "encode_snapshot",
    "decode_snapshot",
    "scan_wal",
]

#: file magics — ASCII tags so a hexdump identifies the file instantly
WAL_MAGIC = b"IWWAL"
SNAPSHOT_MAGIC = b"IWSNAP"
#: current on-disk format version (shared by WAL and snapshot); readers
#: accept any version <= this and the goldens pin version 1 forever
FORMAT_VERSION = 1

#: sanity cap on a single frame payload: a length prefix larger than this
#: is treated as tail corruption, not an allocation request
_MAX_FRAME_BYTES = 1 << 28

#: term kind tags in the binary codec
_KIND_IRI = 0
_KIND_BLANK = 1
_KIND_PLAIN = 2
_KIND_TYPED = 3


# -- varint / term codec -------------------------------------------------------

def _write_uvarint(out: bytearray, value: int) -> None:
    """LEB128 unsigned varint."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarint(data: bytes, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    length = len(data)
    while True:
        if offset >= length:
            raise DurabilityError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise DurabilityError("varint overflow")


def _write_text(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    _write_uvarint(out, len(raw))
    out.extend(raw)


def _read_text(data: bytes, offset: int) -> Tuple[str, int]:
    size, offset = _read_uvarint(data, offset)
    end = offset + size
    if end > len(data):
        raise DurabilityError("truncated string")
    return data[offset:end].decode("utf-8"), end


def _encode_term(out: bytearray, term: Term) -> None:
    if isinstance(term, IRI):
        out.append(_KIND_IRI)
        _write_text(out, term.value)
    elif isinstance(term, BlankNode):
        out.append(_KIND_BLANK)
        _write_text(out, term.label)
    elif isinstance(term, Literal):
        if term.datatype == XSD_STRING:
            out.append(_KIND_PLAIN)
            _write_text(out, term.lexical)
        else:
            out.append(_KIND_TYPED)
            _write_text(out, term.lexical)
            _write_text(out, term.datatype)
    else:
        raise DurabilityError(f"cannot encode term {term!r}")


def _decode_term(data: bytes, offset: int) -> Tuple[Term, int]:
    if offset >= len(data):
        raise DurabilityError("truncated term")
    kind = data[offset]
    offset += 1
    if kind == _KIND_IRI:
        value, offset = _read_text(data, offset)
        return IRI(value), offset
    if kind == _KIND_BLANK:
        label, offset = _read_text(data, offset)
        return BlankNode(label), offset
    if kind == _KIND_PLAIN:
        lexical, offset = _read_text(data, offset)
        return Literal(lexical), offset
    if kind == _KIND_TYPED:
        lexical, offset = _read_text(data, offset)
        datatype, offset = _read_text(data, offset)
        return Literal(lexical, datatype), offset
    raise DurabilityError(f"unknown term kind {kind}")


def _encode_term_table(
    out: bytearray, triples: Iterable[Triple]
) -> Dict[Term, int]:
    """Write the interned-term table for ``triples``; returns term → id.

    Each distinct term is encoded exactly once, in first-appearance
    (subject, predicate, object) order, so a 100k-triple store whose
    statements share a few thousand IRIs pays for each IRI string once —
    the snapshot-level mirror of the matrix serializer's interned-IRI
    bulk layout.
    """
    table: Dict[Term, int] = {}
    for triple in triples:
        for term in (triple.subject, triple.predicate, triple.object):
            if term not in table:
                table[term] = len(table)
    _write_uvarint(out, len(table))
    for term in table:  # dicts preserve insertion order
        _encode_term(out, term)
    return table


def _decode_term_table(data: bytes, offset: int) -> Tuple[List[Term], int]:
    count, offset = _read_uvarint(data, offset)
    terms: List[Term] = []
    for _ in range(count):
        term, offset = _decode_term(data, offset)
        terms.append(term)
    return terms, offset


# -- WAL frames ----------------------------------------------------------------

@dataclass(frozen=True)
class WALFrame:
    """One durable mutation batch.

    ``seq`` is the frame's position in the global log (monotonic across
    compactions); ``revision`` is the primary store's mutation counter
    *after* the batch applied — replaying a frame must land the consumer
    on exactly this revision, or the log and the store have diverged.
    ``ops`` are the applied changes in order, as ``(added, triple)``.
    """

    seq: int
    revision: int
    ops: Tuple[Tuple[bool, Triple], ...]

    def encode(self) -> bytes:
        """The frame payload (framing bytes are added by the writer)."""
        out = bytearray()
        _write_uvarint(out, self.seq)
        _write_uvarint(out, self.revision)
        table = _encode_term_table(out, (triple for _, triple in self.ops))
        _write_uvarint(out, len(self.ops))
        for added, triple in self.ops:
            out.append(1 if added else 0)
            _write_uvarint(out, table[triple.subject])
            _write_uvarint(out, table[triple.predicate])
            _write_uvarint(out, table[triple.object])
        return bytes(out)

    @classmethod
    def decode(cls, payload: bytes) -> "WALFrame":
        seq, offset = _read_uvarint(payload, 0)
        revision, offset = _read_uvarint(payload, offset)
        terms, offset = _decode_term_table(payload, offset)
        op_count, offset = _read_uvarint(payload, offset)
        ops: List[Tuple[bool, Triple]] = []
        for _ in range(op_count):
            if offset >= len(payload):
                raise DurabilityError("truncated op")
            flag = payload[offset]
            offset += 1
            if flag not in (0, 1):
                raise DurabilityError(f"bad op flag {flag}")
            sid, offset = _read_uvarint(payload, offset)
            pid, offset = _read_uvarint(payload, offset)
            oid, offset = _read_uvarint(payload, offset)
            try:
                triple = Triple(terms[sid], terms[pid], terms[oid])
            except (IndexError, TypeError) as exc:
                raise DurabilityError(f"bad term reference: {exc}") from exc
            ops.append((bool(flag), triple))
        if offset != len(payload):
            raise DurabilityError("trailing bytes after frame ops")
        return cls(seq=seq, revision=revision, ops=tuple(ops))


def _frame_bytes(payload: bytes) -> bytes:
    """On-disk framing: u32-LE length, u32-LE CRC32, payload."""
    header = len(payload).to_bytes(4, "little")
    crc = (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "little")
    return header + crc + payload


def _wal_header(base_revision: int, base_seq: int) -> bytes:
    """WAL file header: magic, version, CRC-guarded base counters."""
    body = bytearray()
    _write_uvarint(body, base_revision)
    _write_uvarint(body, base_seq)
    crc = (zlib.crc32(bytes(body)) & 0xFFFFFFFF).to_bytes(4, "little")
    return (
        WAL_MAGIC
        + bytes([FORMAT_VERSION])
        + len(body).to_bytes(2, "little")
        + crc
        + bytes(body)
    )


def scan_wal(data: bytes) -> Tuple[int, int, List[WALFrame], int]:
    """Parse a WAL byte string up to its longest durable prefix.

    Returns ``(base_revision, base_seq, frames, durable_length)`` where
    ``durable_length`` is the byte offset after the last intact frame —
    everything past it (torn length word, short payload, CRC mismatch,
    undecodable frame, sequence gap) is a casualty of the crash and is
    ignored.  Only a *foreign* file — wrong magic, or a version newer
    than this reader — raises :class:`DurabilityError`: that is operator
    error, not crash damage, and must not be "recovered" into silence.

    A header too short or checksum-damaged is indistinguishable from a
    crash during initial WAL creation, so it yields an empty log.
    """
    fixed = len(WAL_MAGIC) + 1 + 2 + 4
    if len(data) >= len(WAL_MAGIC) and not data.startswith(WAL_MAGIC):
        raise DurabilityError("not a WAL file (bad magic)")
    if len(data) < fixed:
        return 0, 1, [], 0
    version = data[len(WAL_MAGIC)]
    if version > FORMAT_VERSION:
        raise DurabilityError(
            f"WAL format version {version} is newer than supported "
            f"version {FORMAT_VERSION}")
    body_len = int.from_bytes(data[len(WAL_MAGIC) + 1:len(WAL_MAGIC) + 3],
                              "little")
    crc_stored = int.from_bytes(data[len(WAL_MAGIC) + 3:fixed], "little")
    body_end = fixed + body_len
    if body_end > len(data):
        return 0, 1, [], 0
    body = data[fixed:body_end]
    if (zlib.crc32(body) & 0xFFFFFFFF) != crc_stored:
        return 0, 1, [], 0
    try:
        base_revision, offset = _read_uvarint(body, 0)
        base_seq, _ = _read_uvarint(body, offset)
    except DurabilityError:
        return 0, 1, [], 0

    frames: List[WALFrame] = []
    offset = body_end
    expected_seq = base_seq
    while True:
        if offset + 8 > len(data):
            break
        length = int.from_bytes(data[offset:offset + 4], "little")
        crc = int.from_bytes(data[offset + 4:offset + 8], "little")
        payload_end = offset + 8 + length
        if length > _MAX_FRAME_BYTES or payload_end > len(data):
            break
        payload = data[offset + 8:payload_end]
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            break
        try:
            frame = WALFrame.decode(payload)
        except (DurabilityError, ValueError):
            # ValueError covers term-model validation (empty IRI) and
            # undecodable UTF-8 — possible only for payloads that pass
            # CRC by construction, e.g. a deliberately crafted tail
            break
        if frame.seq != expected_seq:
            break
        frames.append(frame)
        expected_seq += 1
        offset = payload_end
    return base_revision, base_seq, frames, offset


# -- snapshots -----------------------------------------------------------------

def encode_snapshot(store: TripleStore, seq: int) -> bytes:
    """Serialize a store as the compact interned-term snapshot format.

    Deterministic: triples are emitted in the store's canonical sorted
    order and the term table in first-appearance order, so equal stores
    produce byte-identical snapshots (golden-testable).  ``seq`` records
    the next WAL sequence number at snapshot time, letting replicas
    bootstrap from a snapshot and join the frame stream without a gap.
    """
    body = bytearray()
    _write_uvarint(body, store.revision)
    _write_uvarint(body, seq)
    triples = list(store)  # sorted
    table = _encode_term_table(body, triples)
    _write_uvarint(body, len(triples))
    for triple in triples:
        _write_uvarint(body, table[triple.subject])
        _write_uvarint(body, table[triple.predicate])
        _write_uvarint(body, table[triple.object])
    crc = (zlib.crc32(bytes(body)) & 0xFFFFFFFF).to_bytes(4, "little")
    return SNAPSHOT_MAGIC + bytes([FORMAT_VERSION]) + crc + bytes(body)


def decode_snapshot(data: bytes) -> Tuple[int, int, List[Triple]]:
    """Parse a snapshot; returns ``(revision, next_seq, triples)``.

    Unlike the WAL, a snapshot is written atomically (temp file +
    rename), so *any* damage is a hard :class:`DurabilityError` — there
    is no meaningful prefix to salvage.
    """
    fixed = len(SNAPSHOT_MAGIC) + 1 + 4
    if not data.startswith(SNAPSHOT_MAGIC):
        raise DurabilityError("not a snapshot file (bad magic)")
    if len(data) < fixed:
        raise DurabilityError("snapshot header truncated")
    version = data[len(SNAPSHOT_MAGIC)]
    if version > FORMAT_VERSION:
        raise DurabilityError(
            f"snapshot format version {version} is newer than supported "
            f"version {FORMAT_VERSION}")
    crc_stored = int.from_bytes(
        data[len(SNAPSHOT_MAGIC) + 1:fixed], "little")
    body = data[fixed:]
    if (zlib.crc32(body) & 0xFFFFFFFF) != crc_stored:
        raise DurabilityError("snapshot checksum mismatch")
    revision, offset = _read_uvarint(body, 0)
    seq, offset = _read_uvarint(body, offset)
    terms, offset = _decode_term_table(body, offset)
    count, offset = _read_uvarint(body, offset)
    triples: List[Triple] = []
    append = triples.append
    # the id-triple loop dominates recovery of a large store, so the
    # three varint reads are inlined here instead of calling
    # _read_uvarint 3*count times; IndexError doubles as the
    # truncation check the helper does explicitly
    try:
        for _ in range(count):
            ids = []
            for _position in range(3):
                result = 0
                shift = 0
                while True:
                    byte = body[offset]
                    offset += 1
                    result |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
                    if shift > 63:
                        raise DurabilityError("varint overflow")
                ids.append(result)
            append(Triple(terms[ids[0]], terms[ids[1]], terms[ids[2]]))
    except IndexError as exc:
        raise DurabilityError(f"truncated or bad triple ids: {exc}") from exc
    except TypeError as exc:
        raise DurabilityError(f"bad term reference: {exc}") from exc
    if offset != len(body):
        raise DurabilityError("trailing bytes after snapshot triples")
    return revision, seq, triples


def _apply_ops(
    store: TripleStore, ops: Sequence[Tuple[bool, Triple]]
) -> int:
    """Replay one frame's ops, preserving order and bulk grouping.

    Consecutive runs of same-direction ops are applied through
    ``add_many`` / ``remove_many`` so the replayed store's revision
    counter advances exactly as the primary's did (both bulk and single
    mutations advance it by the number of applied changes).  Every
    logged op was an applied change on the primary, so a no-op here
    means the log and the base state have diverged.
    """
    applied = 0
    i = 0
    count = len(ops)
    while i < count:
        added = ops[i][0]
        j = i
        run: List[Triple] = []
        while j < count and ops[j][0] == added:
            run.append(ops[j][1])
            j += 1
        changed = store.add_many(run) if added else store.remove_many(run)
        if changed != len(run):
            raise DurabilityError(
                f"replayed {'insert' if added else 'removal'} run applied "
                f"{changed}/{len(run)} changes — log diverged from base state")
        applied += changed
        i = j
    return applied


# -- the durable primary -------------------------------------------------------

#: callback receiving each appended frame and its encoded payload
FrameListener = Callable[[WALFrame, bytes], None]

_FSYNC_POLICIES = ("always", "commit", "never")


class DurableStore:
    """A :class:`TripleStore` whose mutations survive crashes.

    Opening a directory recovers whatever is durable in it (snapshot +
    WAL prefix) and resumes logging; a fresh directory starts empty.
    All access to triples goes through :attr:`store` — the durable layer
    is a pure observer of the store's batch-listener seam, so every
    existing caller (blackboard, transactions, serializers) is logged
    without modification.

    ``fsync`` policies:

    * ``"always"`` — fsync after every frame: a crash loses nothing that
      any caller observed as written.
    * ``"commit"`` (default) — write-through to the OS per frame, fsync
      only at :meth:`sync`, :meth:`checkpoint` and :meth:`close`: a
      power loss may drop the un-synced tail (never a prefix, never a
      partial frame after recovery).
    * ``"never"`` — leave fsync to the OS entirely; cheapest, weakest.

    ``auto_checkpoint_bytes`` triggers compaction (snapshot + WAL
    truncate) whenever the log grows past the threshold.
    """

    SNAPSHOT_NAME = "store.snapshot"
    WAL_NAME = "store.wal"

    def __init__(
        self,
        directory: str,
        fsync: str = "commit",
        auto_checkpoint_bytes: Optional[int] = None,
        fs: Optional[FileSystem] = None,
    ) -> None:
        if fsync not in _FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {_FSYNC_POLICIES}, got {fsync!r}")
        self.directory = directory
        self.fsync_policy = fsync
        self.auto_checkpoint_bytes = auto_checkpoint_bytes
        self._fs = fs if fs is not None else OS_FS
        if self._fs is OS_FS:
            os.makedirs(directory, exist_ok=True)
        self.store = TripleStore()
        self._frame_listeners: List[FrameListener] = []
        self._wal_file = None
        self._wal_size = 0
        self._next_seq = 1
        self._closed = False
        self._in_checkpoint = False
        self.stats: Dict[str, int] = {
            "frames_appended": 0,
            "bytes_appended": 0,
            "fsyncs": 0,
            "checkpoints": 0,
            "recovered_snapshot_triples": 0,
            "recovered_frames": 0,
            "recovered_ops": 0,
            "truncated_tail_bytes": 0,
        }
        self._recover()
        self._unsubscribe = self.store.subscribe_batch(self._on_batch)

    # -- paths -----------------------------------------------------------------

    @property
    def snapshot_path(self) -> str:
        return os.path.join(self.directory, self.SNAPSHOT_NAME)

    @property
    def wal_path(self) -> str:
        return os.path.join(self.directory, self.WAL_NAME)

    @property
    def revision(self) -> int:
        return self.store.revision

    @property
    def next_seq(self) -> int:
        """The sequence number the next appended frame will carry."""
        return self._next_seq

    @property
    def wal_size(self) -> int:
        """Current WAL length in bytes (header + durable frames)."""
        return self._wal_size

    # -- recovery --------------------------------------------------------------

    def _read_file(self, path: str) -> bytes:
        handle = self._fs.open(path, "rb")
        try:
            return handle.read()
        finally:
            handle.close()

    def _recover(self) -> None:
        fs = self._fs
        for stale in (self.snapshot_path + ".tmp", self.wal_path + ".tmp"):
            if fs.exists(stale):
                fs.remove(stale)
        if fs.exists(self.snapshot_path):
            # decoding and indexing a snapshot allocates several objects
            # per triple, none of them in a reference cycle: pause the
            # cyclic collector, which would otherwise rescan the growing
            # heap many times over during the load
            collecting = gc.isenabled()
            gc.disable()
            try:
                revision, seq, triples = decode_snapshot(
                    self._read_file(self.snapshot_path))
                try:
                    self.store.bulk_load(triples)
                except StoreError as exc:  # duplicate triples in the file
                    raise DurabilityError(f"bad snapshot: {exc}") from exc
            finally:
                if collecting:
                    gc.enable()
            # the snapshot records the primary's revision, which counts
            # every mutation ever applied — not just surviving triples
            self.store._revision = revision
            self._next_seq = seq
            self.stats["recovered_snapshot_triples"] = len(triples)
        if fs.exists(self.wal_path):
            data = self._read_file(self.wal_path)
            base_revision, base_seq, frames, durable_len = scan_wal(data)
            for frame in frames:
                if frame.revision <= self.store.revision:
                    # already folded into the snapshot (a crash landed
                    # between snapshot rename and WAL truncation)
                    self._next_seq = max(self._next_seq, frame.seq + 1)
                    continue
                _apply_ops(self.store, frame.ops)
                if self.store.revision != frame.revision:
                    raise DurabilityError(
                        f"frame {frame.seq} replayed to revision "
                        f"{self.store.revision}, log says {frame.revision}")
                self._next_seq = frame.seq + 1
                self.stats["recovered_frames"] += 1
                self.stats["recovered_ops"] += len(frame.ops)
            self.stats["truncated_tail_bytes"] = len(data) - durable_len
            self._wal_file = fs.open(self.wal_path, "r+b")
            self._wal_file.seek(durable_len)
            self._wal_file.truncate(durable_len)
            self._wal_size = durable_len
            if durable_len == 0:
                # crash during initial WAL creation: rewrite the header
                self._write_wal_header()
        else:
            self._wal_file = fs.open(self.wal_path, "wb")
            self._write_wal_header()

    def _write_wal_header(self) -> None:
        header = _wal_header(self.store.revision, self._next_seq)
        self._wal_file.seek(0)
        self._wal_file.truncate(0)
        self._wal_file.write(header)
        self._wal_file.flush()
        if self.fsync_policy != "never":
            self._fs.fsync(self._wal_file)
            self.stats["fsyncs"] += 1
        self._wal_size = len(header)

    # -- logging ---------------------------------------------------------------

    def _on_batch(self, changes: Sequence[Tuple[bool, Triple]]) -> None:
        if self._closed:
            raise DurabilityError("mutation on a closed DurableStore")
        frame = WALFrame(
            seq=self._next_seq,
            revision=self.store.revision,
            ops=tuple(changes),
        )
        payload = frame.encode()
        self._wal_file.write(_frame_bytes(payload))
        self._wal_file.flush()
        if self.fsync_policy == "always":
            self._fs.fsync(self._wal_file)
            self.stats["fsyncs"] += 1
        self._next_seq += 1
        self._wal_size += 8 + len(payload)
        self.stats["frames_appended"] += 1
        self.stats["bytes_appended"] += 8 + len(payload)
        for listener in list(self._frame_listeners):
            listener(frame, payload)
        if (
            self.auto_checkpoint_bytes is not None
            and not self._in_checkpoint
            and self._wal_size >= self.auto_checkpoint_bytes
        ):
            self.checkpoint()

    def subscribe_frames(self, listener: FrameListener) -> Callable[[], None]:
        """Register a replication tap; returns an unsubscriber.

        The listener receives every appended :class:`WALFrame` together
        with its encoded payload — the bytes are the transport format,
        so shipping them over a socket instead of an in-process queue is
        a transport swap, not a new protocol.
        """
        self._frame_listeners.append(listener)

        def unsubscribe() -> None:
            if listener in self._frame_listeners:
                self._frame_listeners.remove(listener)

        return unsubscribe

    # -- durability controls ---------------------------------------------------

    def sync(self) -> None:
        """Force everything appended so far onto durable storage."""
        self._assert_open()
        self._wal_file.flush()
        self._fs.fsync(self._wal_file)
        self.stats["fsyncs"] += 1

    def checkpoint(self) -> None:
        """Compaction: snapshot the store, then truncate the WAL.

        The snapshot lands via temp-file + atomic rename *before* the
        WAL is reset, so a crash at any point leaves either the old
        (snapshot, long WAL) or the new (snapshot, truncated WAL) — the
        recovery path skips WAL frames already folded into a newer
        snapshot, covering the in-between window.
        """
        self._assert_open()
        fs = self._fs
        self._in_checkpoint = True
        try:
            data = encode_snapshot(self.store, self._next_seq)
            tmp = self.snapshot_path + ".tmp"
            handle = fs.open(tmp, "wb")
            try:
                handle.write(data)
                handle.flush()
                fs.fsync(handle)
            finally:
                handle.close()
            fs.replace(tmp, self.snapshot_path)
            self._wal_file.close()
            self._wal_file = fs.open(self.wal_path, "wb")
            self._write_wal_header()
            self.stats["checkpoints"] += 1
        finally:
            self._in_checkpoint = False

    def replication_bootstrap(self) -> bytes:
        """A snapshot of the current state for seeding a new replica.

        Encodes the live store (not the on-disk snapshot, which may lag)
        with the next frame sequence number, so a replica loading it
        joins the frame stream gap-free.
        """
        return encode_snapshot(self.store, self._next_seq)

    def close(self) -> None:
        """Detach from the store and release the WAL file."""
        if self._closed:
            return
        self._closed = True
        self._unsubscribe()
        if self._wal_file is not None:
            self._wal_file.flush()
            if self.fsync_policy != "never":
                self._fs.fsync(self._wal_file)
                self.stats["fsyncs"] += 1
            self._wal_file.close()
            self._wal_file = None

    def _assert_open(self) -> None:
        if self._closed:
            raise DurabilityError("DurableStore is closed")

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"DurableStore(dir={self.directory!r}, triples={len(self.store)}, "
            f"revision={self.revision}, next_seq={self._next_seq}, "
            f"fsync={self.fsync_policy!r})"
        )


# -- replicas ------------------------------------------------------------------

class ReplicaStore:
    """A read-only store maintained by consuming WAL frames.

    The replica owns a private :class:`TripleStore` that only
    :meth:`apply_frame` may mutate; reads go through the standard
    query/planner API (:meth:`query`, :attr:`store`), so a caller can
    point existing query code at a replica unchanged.

    Frame discipline: the next frame must carry exactly the expected
    sequence number.  Re-delivered old frames are ignored (idempotent
    transports stay simple); a *gap* — a frame from the future — raises
    :class:`ReplicationError`, because applying it would silently skip
    mutations.
    """

    def __init__(self, expected_seq: int = 1, base_revision: int = 0) -> None:
        self.store = TripleStore()
        if base_revision:
            self.store._revision = base_revision
        self._expected_seq = expected_seq
        self.frames_applied = 0
        self.frames_ignored = 0

    @classmethod
    def from_bootstrap(cls, snapshot: bytes) -> "ReplicaStore":
        """Seed a replica from :meth:`DurableStore.replication_bootstrap`."""
        revision, seq, triples = decode_snapshot(snapshot)
        replica = cls(expected_seq=seq)
        try:
            replica.store.bulk_load(triples)
        except StoreError as exc:
            raise ReplicationError(f"bad bootstrap snapshot: {exc}") from exc
        replica.store._revision = revision
        return replica

    @property
    def expected_seq(self) -> int:
        return self._expected_seq

    @property
    def revision(self) -> int:
        return self.store.revision

    def lag(self, primary: DurableStore) -> int:
        """How many frames behind the primary this replica is."""
        return primary.next_seq - self._expected_seq

    def apply_frame(self, frame) -> bool:
        """Apply one frame (a :class:`WALFrame` or its encoded payload).

        Returns True if the frame advanced the replica, False if it was
        an already-applied duplicate.  Raises :class:`ReplicationError`
        on a sequence gap or a post-apply revision mismatch.
        """
        if isinstance(frame, (bytes, bytearray, memoryview)):
            frame = WALFrame.decode(bytes(frame))
        if frame.seq < self._expected_seq:
            self.frames_ignored += 1
            return False
        if frame.seq > self._expected_seq:
            raise ReplicationError(
                f"out-of-order frame: got seq {frame.seq}, expected "
                f"{self._expected_seq} — refusing to skip mutations")
        try:
            _apply_ops(self.store, frame.ops)
        except DurabilityError as exc:
            raise ReplicationError(str(exc)) from exc
        if self.store.revision != frame.revision:
            raise ReplicationError(
                f"replica at revision {self.store.revision} after frame "
                f"{frame.seq}, primary recorded {frame.revision}")
        self._expected_seq += 1
        self.frames_applied += 1
        return True

    def query(self, query: Query) -> List[Binding]:
        """Evaluate a BGP query through the cost-based planner."""
        return evaluate_planned(self.store, query)

    def __len__(self) -> int:
        return len(self.store)

    def __repr__(self) -> str:
        return (
            f"ReplicaStore(triples={len(self.store)}, "
            f"revision={self.revision}, expected_seq={self._expected_seq})"
        )


class ReplicationLink:
    """In-process delta-shipping from a primary to its replicas.

    Subscribes to the primary's frame stream and buffers the encoded
    payloads per replica; :meth:`pump` delivers what is queued.  Keeping
    delivery explicit makes lag observable and lets tests (and batch
    topologies) ship deltas at their own cadence; a real transport would
    replace this class while reusing the same frame bytes.
    """

    def __init__(self, primary: DurableStore) -> None:
        self.primary = primary
        self._queues: Dict[ReplicaStore, Deque[bytes]] = {}
        self._unsubscribe = primary.subscribe_frames(self._on_frame)
        self.frames_shipped = 0

    def _on_frame(self, frame: WALFrame, payload: bytes) -> None:
        for queue in self._queues.values():
            queue.append(payload)

    def attach(self, replica: Optional[ReplicaStore] = None) -> ReplicaStore:
        """Attach (or create) a replica, bootstrapped from the primary."""
        if replica is None:
            replica = ReplicaStore.from_bootstrap(
                self.primary.replication_bootstrap())
        self._queues[replica] = deque()
        return replica

    def detach(self, replica: ReplicaStore) -> None:
        self._queues.pop(replica, None)

    def pending(self, replica: ReplicaStore) -> int:
        """Frames queued for a replica but not yet delivered."""
        return len(self._queues[replica])

    def pump(self, limit: Optional[int] = None) -> int:
        """Deliver up to ``limit`` queued frames per replica (all, if
        None); returns the total number of frames applied."""
        delivered = 0
        for replica, queue in self._queues.items():
            budget = len(queue) if limit is None else min(limit, len(queue))
            for _ in range(budget):
                replica.apply_frame(queue.popleft())
                delivered += 1
        self.frames_shipped += delivered
        return delivered

    def close(self) -> None:
        self._unsubscribe()
        self._queues.clear()
