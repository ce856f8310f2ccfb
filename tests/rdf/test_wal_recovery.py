"""Fault-injection harness: WAL crash recovery at every byte boundary.

The durability contract (``repro.rdf.durability``) is that recovering a
directory after a crash at *any* point yields exactly the longest
durable prefix of the mutation history: every fully-persisted frame is
replayed, no partial frame is ever applied, and the recovered store is
indistinguishable — triples, permutation indexes, ``count_matching``
counters, and the ``revision`` counter — from a store that only ever saw
the durable mutations.

The oracle is built by shadowing the durable store with a plain
:class:`TripleStore` and snapshotting its state at every frame boundary
(the WAL byte offset after each mutation).  Crashes are injected through
:class:`~repro.rdf.faultfs.FaultInjectingFS`: file truncation at each
byte boundary, fsync-dropped tails under the ``commit`` policy, torn
writes that persist part of the volatile tail, short writes from an
exhausted disk, and bit-flipped frames that must fail the checksum.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DurabilityError
from repro.rdf import (
    IRI,
    DurableStore,
    FaultInjectingFS,
    TripleStore,
    literal,
    scan_wal,
)
from repro.rdf.durability import WALFrame, _frame_bytes
from repro.rdf.triple import Triple

# a small universe so random mutations collide (duplicate adds, removals
# of absent triples) and exercise the no-op paths
SUBJECTS = [IRI(f"urn:s{i}") for i in range(3)]
PREDICATES = [IRI(f"urn:p{i}") for i in range(3)]
OBJECTS = [IRI(f"urn:o{i}") for i in range(2)] + [literal("x"), literal(7)]

triples_st = st.builds(
    Triple,
    st.sampled_from(SUBJECTS),
    st.sampled_from(PREDICATES),
    st.sampled_from(OBJECTS),
)

ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("add"), triples_st),
        st.tuples(st.just("remove"), triples_st),
        st.tuples(st.just("add_many"), st.lists(triples_st, max_size=4)),
        st.tuples(st.just("remove_many"), st.lists(triples_st, max_size=4)),
    ),
    min_size=1,
    max_size=6,
)

DB = "/db"
WAL = f"{DB}/store.wal"


def apply_op(store, op):
    kind, arg = op
    if kind == "add":
        store.add_triple(arg)
    elif kind == "remove":
        store.remove_triple(arg)
    elif kind == "add_many":
        store.add_many(arg)
    else:
        store.remove_many(arg)


def state_of(store):
    """The comparable state: triples, revision, every per-position counter."""
    counters = {}
    for term in SUBJECTS:
        counters[("s", term)] = store.count_matching(subject=term)
    for term in PREDICATES:
        counters[("p", term)] = store.count_matching(predicate=term)
    for term in OBJECTS:
        counters[("o", term)] = store.count_matching(obj=term)
    for s in SUBJECTS:
        for p in PREDICATES:
            counters[("sp", s, p)] = store.count_matching(subject=s, predicate=p)
    return (store.snapshot(), store.revision, counters, len(store))


def run_history(ops, fsync="always", fs=None):
    """Apply ops to a durable store; returns (fs, oracle states).

    The oracle maps each WAL byte length to the shadow store's state at
    that frame boundary; entry 0 is the pre-header empty state.
    """
    fs = fs if fs is not None else FaultInjectingFS()
    durable = DurableStore(DB, fsync=fsync, fs=fs)
    shadow = TripleStore()
    oracle = {0: state_of(shadow), durable.wal_size: state_of(shadow)}
    for op in ops:
        apply_op(durable.store, op)
        apply_op(shadow, op)
        oracle[durable.wal_size] = state_of(shadow)
    durable.close()
    return fs, oracle


def assert_longest_durable_prefix(fs, oracle):
    """Recover and compare against the oracle entry for the WAL length."""
    persisted = len(fs.read_bytes(WAL))
    boundaries = [b for b in oracle if b <= persisted]
    want = oracle[max(boundaries)]
    recovered = DurableStore(DB, fs=fs)
    got = state_of(recovered.store)
    recovered.close()
    assert got == want
    return recovered


class TestCrashAtEveryByte:
    @given(ops_st)
    @settings(max_examples=20, deadline=None)
    def test_recovery_equals_durable_prefix_oracle(self, ops):
        fs, oracle = run_history(ops)
        wal = fs.read_bytes(WAL)
        assert len(wal) == max(oracle)
        for boundary in range(len(wal) + 1):
            crashed = FaultInjectingFS()
            crashed.write_bytes(WAL, wal[:boundary])
            assert_longest_durable_prefix(crashed, oracle)

    def test_exhaustive_fixed_history(self):
        """Deterministic every-byte sweep over a longer mixed history."""
        ops = []
        for i in range(4):
            ops.append(("add_many", [
                Triple(SUBJECTS[i % 3], PREDICATES[j % 3], literal(i * 10 + j))
                for j in range(5)
            ]))
            ops.append(("remove", Triple(SUBJECTS[i % 3], PREDICATES[0],
                                         literal(i * 10))))
            ops.append(("add", Triple(SUBJECTS[0], PREDICATES[1],
                                      literal(f"round-{i}"))))
        fs, oracle = run_history(ops)
        wal = fs.read_bytes(WAL)
        # two empty-state baselines (offset 0, header end) + one per op
        assert len(oracle) == len(ops) + 2
        for boundary in range(len(wal) + 1):
            crashed = FaultInjectingFS()
            crashed.write_bytes(WAL, wal[:boundary])
            assert_longest_durable_prefix(crashed, oracle)

    @given(ops_st)
    @settings(max_examples=20, deadline=None)
    def test_recovery_is_idempotent(self, ops):
        """Recovering twice (crash during recovery) changes nothing."""
        fs, oracle = run_history(ops)
        wal = fs.read_bytes(WAL)
        boundary = len(wal) * 2 // 3
        crashed = FaultInjectingFS()
        crashed.write_bytes(WAL, wal[:boundary])
        first = DurableStore(DB, fs=crashed)
        state = state_of(first.store)
        first.close()
        again = DurableStore(DB, fs=crashed)
        assert state_of(again.store) == state
        again.close()


class TestFsyncPolicies:
    def test_commit_policy_loses_only_unsynced_tail(self):
        fs = FaultInjectingFS()
        durable = DurableStore(DB, fsync="commit", fs=fs)
        durable.store.add_many(
            [Triple(SUBJECTS[0], PREDICATES[0], literal(i)) for i in range(4)])
        durable.sync()
        synced_state = state_of(durable.store)
        durable.store.add(SUBJECTS[1], PREDICATES[1], literal("volatile"))
        fs.crash()

        recovered = DurableStore(DB, fs=fs)
        assert state_of(recovered.store) == synced_state
        recovered.close()

    def test_always_policy_loses_nothing(self):
        fs = FaultInjectingFS()
        durable = DurableStore(DB, fsync="always", fs=fs)
        durable.store.add_many(
            [Triple(SUBJECTS[0], PREDICATES[0], literal(i)) for i in range(4)])
        durable.store.remove(SUBJECTS[0], PREDICATES[0], literal(2))
        full_state = state_of(durable.store)
        fs.crash()  # no clean close: the crash is the point

        recovered = DurableStore(DB, fs=fs)
        assert state_of(recovered.store) == full_state
        recovered.close()

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            DurableStore(DB, fsync="sometimes", fs=FaultInjectingFS())


class TestTornAndShortWrites:
    def test_torn_tail_never_applies_a_partial_frame(self):
        """Persisting k bytes of the volatile tail, for every k, recovers
        exactly the frames that are fully inside the persisted prefix."""
        fs, oracle = run_history(
            [("add_many",
              [Triple(SUBJECTS[0], PREDICATES[0], literal(i)) for i in range(3)]),
             ("add", Triple(SUBJECTS[1], PREDICATES[1], literal("tail")))],
            fsync="always")
        wal = fs.read_bytes(WAL)
        boundaries = sorted(oracle)
        synced_len = boundaries[-2]  # pretend the last frame never synced
        tail = wal[synced_len:]
        for keep in range(len(tail) + 1):
            crashed = FaultInjectingFS()
            crashed.write_bytes(WAL, wal[:synced_len] + tail[:keep])
            recovered = DurableStore(DB, fs=crashed)
            want = oracle[len(wal)] if keep == len(tail) else oracle[synced_len]
            assert state_of(recovered.store) == want
            recovered.close()

    def test_short_write_surfaces_and_recovers_to_prefix(self):
        fs = FaultInjectingFS()
        durable = DurableStore(DB, fsync="always", fs=fs)
        durable.store.add_many(
            [Triple(SUBJECTS[0], PREDICATES[0], literal(i)) for i in range(3)])
        durable.sync()
        durable_state = state_of(durable.store)
        fs.fail_after_bytes = len(fs.read_bytes(WAL)) + 10  # room for 10 more
        with pytest.raises(OSError):
            durable.store.add_many(
                [Triple(SUBJECTS[1], PREDICATES[1], literal(i))
                 for i in range(20)])
        fs.crash()

        fs.fail_after_bytes = None
        recovered = DurableStore(DB, fs=fs)
        # the in-memory store had applied the batch before the disk
        # refused it; durable truth is the state before the failed write
        assert state_of(recovered.store) == durable_state
        recovered.close()


class TestCorruption:
    def test_corrupt_frame_cuts_the_log_there(self):
        fs, oracle = run_history(
            [("add", Triple(SUBJECTS[0], PREDICATES[0], literal(i)))
             for i in range(5)])
        wal = fs.read_bytes(WAL)
        boundaries = sorted(oracle)
        # flip one byte inside the third frame's span
        offset = boundaries[2] + (boundaries[3] - boundaries[2]) // 2
        fs.corrupt(WAL, offset)
        recovered = DurableStore(DB, fs=fs)
        # frames before the corruption survive; the corrupt frame and
        # everything after it — intact or not — are cut off
        assert state_of(recovered.store) == oracle[boundaries[2]]
        assert recovered.stats["truncated_tail_bytes"] == (
            len(wal) - boundaries[2])
        recovered.close()

    def test_corrupt_header_yields_empty_log(self):
        fs, oracle = run_history(
            [("add", Triple(SUBJECTS[0], PREDICATES[0], literal(1)))])
        fs.corrupt(WAL, len(b"IWWAL") + 3)  # inside the header checksum
        recovered = DurableStore(DB, fs=fs)
        assert state_of(recovered.store) == oracle[0]
        recovered.close()

    def test_foreign_magic_raises(self):
        fs = FaultInjectingFS()
        fs.write_bytes(WAL, b"NOTAWAL-at-all")
        with pytest.raises(DurabilityError):
            DurableStore(DB, fs=fs)

    def test_future_version_raises(self):
        fs, _ = run_history(
            [("add", Triple(SUBJECTS[0], PREDICATES[0], literal(1)))])
        data = bytearray(fs.read_bytes(WAL))
        data[len(b"IWWAL")] = 99
        fs.write_bytes(WAL, bytes(data))
        with pytest.raises(DurabilityError):
            DurableStore(DB, fs=fs)

    def test_revision_divergence_detected(self):
        """A CRC-valid frame whose recorded revision disagrees with the
        replayed store is corruption recovery must refuse to paper over."""
        fs, _ = run_history(
            [("add", Triple(SUBJECTS[0], PREDICATES[0], literal(1)))])
        wal = fs.read_bytes(WAL)
        rogue = WALFrame(
            seq=2, revision=17,  # the true post-apply revision would be 2
            ops=((True, Triple(SUBJECTS[1], PREDICATES[1], literal(2))),))
        fs.write_bytes(WAL, wal + _frame_bytes(rogue.encode()))
        with pytest.raises(DurabilityError):
            DurableStore(DB, fs=fs)

    def test_frame_re_adding_a_snapshot_triple_is_refused(self):
        """A CRC-valid frame that adds a triple the snapshot already
        holds would replay as a no-op: the log and its base state have
        diverged, and recovery refuses rather than drift."""
        fs = FaultInjectingFS()
        durable = DurableStore(DB, fsync="always", fs=fs)
        triple = Triple(SUBJECTS[0], PREDICATES[0], literal(1))
        durable.store.add_triple(triple)
        durable.checkpoint()
        revision, next_seq = durable.revision, durable.next_seq
        durable.close()
        wal = fs.read_bytes(WAL)
        stale = WALFrame(seq=next_seq, revision=revision + 1,
                         ops=((True, triple),))
        fs.write_bytes(WAL, wal + _frame_bytes(stale.encode()))
        with pytest.raises(DurabilityError):
            DurableStore(DB, fs=fs)

    def test_sequence_gap_cuts_the_log(self):
        fs, oracle = run_history(
            [("add", Triple(SUBJECTS[0], PREDICATES[0], literal(1)))])
        wal = fs.read_bytes(WAL)
        skipped = WALFrame(
            seq=5, revision=2,
            ops=((True, Triple(SUBJECTS[1], PREDICATES[1], literal(2))),))
        fs.write_bytes(WAL, wal + _frame_bytes(skipped.encode()))
        recovered = DurableStore(DB, fs=fs)
        assert state_of(recovered.store) == oracle[max(oracle)]
        recovered.close()


class TestCheckpointing:
    def test_checkpoint_compacts_and_recovers(self):
        fs = FaultInjectingFS()
        durable = DurableStore(DB, fsync="always", fs=fs)
        durable.store.add_many(
            [Triple(SUBJECTS[0], PREDICATES[0], literal(i)) for i in range(20)])
        durable.store.remove_many(
            [Triple(SUBJECTS[0], PREDICATES[0], literal(i)) for i in range(5)])
        wal_before = durable.wal_size
        durable.checkpoint()
        assert durable.wal_size < wal_before  # truncated to a bare header
        state = state_of(durable.store)
        durable.store.add(SUBJECTS[1], PREDICATES[1], literal("post"))
        post_state = state_of(durable.store)
        durable.close()

        recovered = DurableStore(DB, fs=fs)
        assert state_of(recovered.store) == post_state
        assert recovered.stats["recovered_snapshot_triples"] == 15
        assert recovered.stats["recovered_frames"] == 1
        recovered.close()
        assert state != post_state  # the test exercised both layers

    def test_crash_between_snapshot_and_wal_truncate(self):
        """The compaction crash window: new snapshot + old (long) WAL.
        Frames already folded into the snapshot must be skipped, by the
        frame-revision guard, not replayed twice."""
        fs = FaultInjectingFS()
        durable = DurableStore(DB, fsync="always", fs=fs)
        durable.store.add_many(
            [Triple(SUBJECTS[0], PREDICATES[0], literal(i)) for i in range(6)])
        durable.store.remove(SUBJECTS[0], PREDICATES[0], literal(3))
        old_wal = fs.read_bytes(WAL)
        durable.checkpoint()
        full_state = state_of(durable.store)
        next_seq = durable.next_seq
        durable.close()

        # resurrect the pre-checkpoint WAL next to the new snapshot
        fs.write_bytes(WAL, old_wal)
        recovered = DurableStore(DB, fs=fs)
        assert state_of(recovered.store) == full_state
        assert recovered.stats["recovered_frames"] == 0
        assert recovered.next_seq == next_seq  # seq continues, no reuse
        recovered.close()

    def test_auto_checkpoint_triggers_on_wal_growth(self):
        fs = FaultInjectingFS()
        durable = DurableStore(
            DB, fsync="always", auto_checkpoint_bytes=512, fs=fs)
        for i in range(50):
            durable.store.add(SUBJECTS[i % 3], PREDICATES[i % 3],
                              literal(f"value-{i}"))
        assert durable.stats["checkpoints"] >= 1
        assert durable.wal_size < 512 + 128  # compaction kept the log short
        state = state_of(durable.store)
        durable.close()
        recovered = DurableStore(DB, fs=fs)
        assert state_of(recovered.store) == state
        recovered.close()

    def test_corrupt_snapshot_raises(self):
        fs = FaultInjectingFS()
        durable = DurableStore(DB, fsync="always", fs=fs)
        durable.store.add(SUBJECTS[0], PREDICATES[0], literal(1))
        durable.checkpoint()
        durable.close()
        snap = f"{DB}/store.snapshot"
        fs.corrupt(snap, len(fs.read_bytes(snap)) // 2)
        with pytest.raises(DurabilityError):
            DurableStore(DB, fs=fs)
        # recovery pauses the cyclic collector; a failed load restores it
        assert gc.isenabled()


class TestRealFilesystem:
    """One pass over the genuine OS filesystem, so the MemoryFS model
    cannot drift from reality unnoticed."""

    def test_roundtrip_and_truncated_tail(self, tmp_path):
        directory = str(tmp_path / "db")
        durable = DurableStore(directory, fsync="always")
        durable.store.add_many(
            [Triple(SUBJECTS[0], PREDICATES[0], literal(i)) for i in range(8)])
        durable.store.remove(SUBJECTS[0], PREDICATES[0], literal(1))
        state = state_of(durable.store)
        durable.checkpoint()
        durable.store.add(SUBJECTS[1], PREDICATES[2], literal("tail"))
        final_state = state_of(durable.store)
        durable.close()

        recovered = DurableStore(directory)
        assert state_of(recovered.store) == final_state
        recovered.close()

        # chop the last 3 bytes off the WAL: the tail frame must vanish
        wal_path = tmp_path / "db" / "store.wal"
        data = wal_path.read_bytes()
        wal_path.write_bytes(data[:-3])
        reopened = DurableStore(directory)
        assert state_of(reopened.store) == state
        # ...and appending must work after the truncated reopen
        reopened.store.add(SUBJECTS[2], PREDICATES[2], literal("again"))
        reopened.close()
        final = DurableStore(directory)
        assert len(final.store) == len(state[0]) + 1
        final.close()

    def test_scan_wal_reports_durable_length(self, tmp_path):
        directory = str(tmp_path / "db")
        durable = DurableStore(directory, fsync="always")
        durable.store.add(SUBJECTS[0], PREDICATES[0], literal(1))
        durable.close()
        data = (tmp_path / "db" / "store.wal").read_bytes()
        base_revision, base_seq, frames, durable_len = scan_wal(data)
        assert (base_revision, base_seq) == (0, 1)
        assert [f.seq for f in frames] == [1]
        assert durable_len == len(data)
        assert frames[0].revision == 1
        assert frames[0].ops[0][0] is True
