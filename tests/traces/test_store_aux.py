"""Format-v2 aux sections: round-trip, degradation, in-place upgrade.

Aux sections carry *derived* data (the array engine's precomputed hash
columns), so the failure contract differs from the main trace: a corrupt
or alien aux section must never fail the trace load — it degrades to "the
columns are missing, recompute and republish", surfaced through
``trace.store_stale`` telemetry.  Only an unreadable *container* (future
format version) fails, and the cache turns even that into a regenerating
miss.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import telemetry
from repro.traces import store
from repro.traces.store import (
    TraceStoreError,
    TraceStoreVersionError,
    append_aux,
    pack_trace,
    read_packed,
    write_packed,
)


def _aux_arrays():
    return {
        "cols/tsl:deadbeef": np.arange(24, dtype=np.uint16).reshape(6, 4),
        "cols/gshare:14:14": np.arange(6, dtype=np.uint32),
    }


def _assert_aux_equal(actual, expected):
    assert sorted(actual) == sorted(expected)
    for key in expected:
        assert actual[key].dtype == expected[key].dtype
        assert actual[key].shape == expected[key].shape
        assert np.array_equal(actual[key], expected[key])


class TestAuxRoundTrip:
    def test_columns_survive_pack_cycle(self, mixed_trace, tmp_path):
        mixed_trace.aux.update(_aux_arrays())
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        _assert_aux_equal(read_packed(path).aux, _aux_arrays())

    def test_no_aux_reads_back_empty(self, mixed_trace, tmp_path):
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        assert read_packed(path).aux == {}

    def test_mmap_and_copy_agree(self, mixed_trace, tmp_path):
        mixed_trace.aux.update(_aux_arrays())
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        _assert_aux_equal(read_packed(path, use_mmap=True).aux,
                          read_packed(path, use_mmap=False).aux)

    def test_unsupported_dtype_rejected(self, mixed_trace, tmp_path):
        mixed_trace.aux["bad"] = np.zeros(4, dtype=np.float64)
        with pytest.raises(ValueError, match="unsupported dtype"):
            write_packed(mixed_trace, tmp_path / "t.rpt")


class TestVersionCompatibility:
    def test_v1_file_reads_with_empty_aux(self, mixed_trace, tmp_path,
                                          monkeypatch):
        monkeypatch.setattr(store, "_FORMAT_VERSION", 1)
        path = tmp_path / "v1.rpt"
        write_packed(mixed_trace, path)
        monkeypatch.undo()
        trace = read_packed(path)
        assert trace.aux == {}
        assert np.array_equal(trace.pcs, mixed_trace.pcs)

    def test_v1_rejects_trailing_bytes(self, mixed_trace, tmp_path,
                                       monkeypatch):
        """v1 predates aux sections: any trailing bytes are corruption."""
        monkeypatch.setattr(store, "_FORMAT_VERSION", 1)
        path = tmp_path / "v1.rpt"
        write_packed(mixed_trace, path)
        monkeypatch.undo()
        path.write_bytes(path.read_bytes() + b"\x00" * 64)
        with pytest.raises(TraceStoreError, match="truncated"):
            read_packed(path)

    def test_future_version_raises_version_error(self, mixed_trace,
                                                 tmp_path):
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        data = bytearray(path.read_bytes())
        data[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(TraceStoreVersionError):
            read_packed(path)

    def test_cache_degrades_future_version_to_stale_miss(
            self, mixed_trace, tmp_path, monkeypatch):
        trace_store = store.TraceStore(tmp_path / "root")
        path = trace_store.store(mixed_trace, "mixed", seed=1,
                                 instructions=100)
        data = bytearray(path.read_bytes())
        data[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        monkeypatch.setenv("REPRO_TELEMETRY", str(tmp_path / "events"))
        try:
            assert trace_store.load("mixed", seed=1, instructions=100) is None
        finally:
            telemetry.reset()
        assert not path.exists()  # dropped, so the caller regenerates
        events = {e["event"]: e
                  for e in telemetry.load_events(tmp_path / "events")}
        assert events["trace.store_stale"]["reason"] == "version"
        assert events["trace.store_miss"]["reason"] == "version"


class TestAuxDegradation:
    def test_corrupt_aux_keeps_trace_drops_columns(self, mixed_trace,
                                                   tmp_path, monkeypatch):
        mixed_trace.aux.update(_aux_arrays())
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        data = bytearray(path.read_bytes())
        data[-10] ^= 0xFF  # inside the last aux section
        path.write_bytes(bytes(data))
        monkeypatch.setenv("REPRO_TELEMETRY", str(tmp_path / "events"))
        try:
            trace = read_packed(path)
        finally:
            telemetry.reset()
        assert np.array_equal(trace.pcs, mixed_trace.pcs)
        # sections are ordered by key; the first verified one is kept
        first_key = sorted(_aux_arrays())[0]
        assert sorted(trace.aux) == [first_key]
        events = [e for e in telemetry.load_events(tmp_path / "events")
                  if e["event"] == "trace.store_stale"]
        assert events and events[0]["reason"] == "aux-corrupt"

    def test_truncated_aux_keeps_trace(self, mixed_trace, tmp_path):
        mixed_trace.aux.update(_aux_arrays())
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        trace = read_packed(path)
        assert np.array_equal(trace.takens, mixed_trace.takens)
        assert len(trace.aux) < len(_aux_arrays())


class TestAppendAux:
    def test_upgrades_file_in_place(self, mixed_trace, tmp_path):
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        assert append_aux(path, _aux_arrays())
        _assert_aux_equal(read_packed(path).aux, _aux_arrays())

    def test_merges_with_existing_columns(self, mixed_trace, tmp_path):
        mixed_trace.aux["cols/llbp:cafe"] = np.arange(8, dtype=np.uint16)
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        assert append_aux(path, _aux_arrays())
        merged = read_packed(path).aux
        assert sorted(merged) == sorted(
            list(_aux_arrays()) + ["cols/llbp:cafe"])

    def test_unreadable_file_returns_false(self, tmp_path):
        assert not append_aux(tmp_path / "absent.rpt", _aux_arrays())
        bad = tmp_path / "bad.rpt"
        bad.write_bytes(b"NOPE" * 20)
        assert not append_aux(bad, _aux_arrays())


def _section_size(key, array, offset):
    """Bytes one aux section takes when it starts at file ``offset``."""
    head = store._AUX_HEADER.size + len(key.encode("utf-8"))
    return (head + (-(offset + head)) % 16 + array.nbytes
            + store._DIGEST_BYTES)


def _verified_length(path):
    """Offset where the section walk of ``path`` stops verifying."""
    return store._unpack(path.read_bytes(), path)[1]


class TestAppendAuxInPlace:
    """A sound v2 file grows by the new sections alone, under the lock;
    v1 files and files with a torn or corrupt tail are rewritten whole."""

    def test_appends_without_touching_existing_bytes(self, mixed_trace,
                                                     tmp_path):
        mixed_trace.aux["cols/llbp:cafe"] = np.arange(8, dtype=np.uint16)
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        before = path.read_bytes()
        inode = os.stat(path).st_ino
        assert append_aux(path, _aux_arrays())
        after = path.read_bytes()
        assert os.stat(path).st_ino == inode  # not republished
        assert after[:len(before)] == before
        offset, grown = len(before), 0
        for key, array in _aux_arrays().items():
            size = _section_size(key, array, offset + grown)
            grown += size
        assert len(after) == len(before) + grown
        assert _verified_length(path) == len(after)
        merged = dict(_aux_arrays(), **{"cols/llbp:cafe": np.arange(
            8, dtype=np.uint16)})
        _assert_aux_equal(read_packed(path).aux, merged)

    def test_v1_file_is_rewritten_as_v2(self, mixed_trace, tmp_path,
                                        monkeypatch):
        monkeypatch.setattr(store, "_FORMAT_VERSION", 1)
        path = tmp_path / "v1.rpt"
        write_packed(mixed_trace, path)
        monkeypatch.undo()
        assert append_aux(path, _aux_arrays())
        data = path.read_bytes()
        assert int.from_bytes(data[4:6], "little") == 2
        mixed_trace.aux.update(_aux_arrays())
        assert data == pack_trace(mixed_trace)
        trace = read_packed(path)
        assert np.array_equal(trace.pcs, mixed_trace.pcs)
        _assert_aux_equal(trace.aux, _aux_arrays())

    @pytest.mark.parametrize("damage", ("truncate", "corrupt"))
    def test_damaged_tail_falls_back_to_rewrite(self, mixed_trace, tmp_path,
                                                damage):
        mixed_trace.aux.update(_aux_arrays())
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        data = bytearray(path.read_bytes())
        if damage == "truncate":
            del data[-7:]
        else:
            data[-40] ^= 0xFF  # data bytes of the last aux section
        path.write_bytes(bytes(data))
        inode = os.stat(path).st_ino
        fresh = {
            "cols/percep:3": np.arange(10, dtype=np.uint32).reshape(5, 2),
            "cols/zz:1": np.arange(4, dtype=np.uint64),
        }
        assert append_aux(path, fresh)
        assert os.stat(path).st_ino != inode  # republished
        # The damaged (last, by key order) section is gone; the sound
        # one before it and every new column read back.
        first_key = sorted(_aux_arrays())[0]
        expected = dict(fresh, **{first_key: _aux_arrays()[first_key]})
        _assert_aux_equal(read_packed(path).aux, expected)
        assert _verified_length(path) == path.stat().st_size

    def test_key_appended_twice_reads_back_last_value(self, mixed_trace,
                                                      tmp_path):
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        first = np.arange(6, dtype=np.uint32)
        assert append_aux(path, {"cols/gshare:14:14": first})
        assert append_aux(path, {"cols/gshare:14:14": first * 3})
        aux = read_packed(path).aux
        assert list(aux) == ["cols/gshare:14:14"]
        assert np.array_equal(aux["cols/gshare:14:14"], first * 3)


def _hammer_aux(path, tag, rounds):
    """Subprocess body: repeatedly merge a distinctly-named column."""
    wrote = 0
    for i in range(rounds):
        column = np.full(16, i, dtype=np.uint32)
        if append_aux(path, {f"cols/{tag}:{i % 4}": column}):
            wrote += 1
    return wrote


class TestAppendAuxConcurrency:
    def test_two_processes_never_corrupt_the_file(self, mixed_trace,
                                                  tmp_path):
        """Concurrent appenders never corrupt the container: after the
        storm the file must still read back with valid checksums and
        untouched base columns.  Appends are serialised on the file
        lock, so no appender loses another's columns either."""
        path = tmp_path / "t.rpt"
        write_packed(mixed_trace, path)
        with ProcessPoolExecutor(max_workers=2) as pool:
            counts = [f.result(timeout=120) for f in [
                pool.submit(_hammer_aux, str(path), "a", 25),
                pool.submit(_hammer_aux, str(path), "b", 25),
            ]]
        # Both processes made progress and none saw an unreadable file.
        assert counts == [25, 25]
        trace = read_packed(path, use_mmap=False)
        assert np.array_equal(trace.pcs, mixed_trace.pcs)
        assert np.array_equal(trace.takens, mixed_trace.takens)
        # At least the last writer's column survived, intact.
        assert any(key.startswith("cols/") for key in trace.aux)
        for array in trace.aux.values():
            assert array.dtype == np.uint32 and array.shape == (16,)
        # Every key survives, holding its writer's last value, and the
        # whole file verifies to its end.
        keys = {f"cols/{tag}:{k}" for tag in "ab" for k in range(4)}
        assert set(trace.aux) == keys
        for key in keys:
            last = max(i for i in range(25) if i % 4 == int(key[-1]))
            assert np.array_equal(trace.aux[key], np.full(16, last))
        assert _verified_length(path) == path.stat().st_size
