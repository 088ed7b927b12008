"""Tests of the content-addressed sweep result store (packfile layout)."""

import dataclasses
import json

import numpy as np
import pytest

from repro.circuits.adders import build_adder
from repro.core import store as store_module
from repro.obs import clock as obs_clock
from repro.core.packfile import encode_blobs
from repro.core.store import (
    FORMAT_FILE,
    PACKS_DIR,
    QUARANTINE_DIR,
    QUARANTINE_SUFFIX,
    STORE_VERSION,
    SweepResultStore,
    UnmigratedStoreError,
    decode_float64_array,
    decode_int64_array,
    encode_float64_array,
    encode_int64_array,
    library_fingerprint,
    netlist_fingerprint,
    operand_fingerprint,
    store_layout_version,
    write_legacy_entry,
)
from repro.technology.fdsoi28 import FDSOI28_LVT
from repro.technology.library import DEFAULT_LIBRARY, StandardCellLibrary


def _pack_files(store):
    return sorted((store.root / PACKS_DIR).glob("*.pack"))


def _idx_files(store):
    return sorted((store.root / PACKS_DIR).glob("*.idx"))


def _index_lines(store):
    """All add-lines of all index files, in file order."""
    lines = []
    for path in _idx_files(store):
        for raw in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(raw)
            if "k" in record:
                record["segment"] = path.name[: -len(".idx")]
                lines.append(record)
    return lines


def _corrupt_record(store, key):
    """Flip a byte inside ``key``'s record body on disk."""
    for line in _index_lines(store):
        if line["k"] == key:
            path = store.root / PACKS_DIR / (line["segment"] + ".pack")
            data = bytearray(path.read_bytes())
            data[line["o"] + 20] ^= 0xFF
            path.write_bytes(bytes(data))
            return line
    raise AssertionError(f"key {key} not found in any index")


class TestFingerprints:
    def test_netlist_fingerprint_is_stable(self):
        a = netlist_fingerprint(build_adder("rca", 8).netlist)
        b = netlist_fingerprint(build_adder("rca", 8).netlist)
        assert a == b

    def test_netlist_fingerprint_separates_architectures_and_widths(self):
        prints = {
            netlist_fingerprint(build_adder(arch, width).netlist)
            for arch, width in (("rca", 8), ("rca", 16), ("bka", 8), ("bka", 16))
        }
        assert len(prints) == 4

    def test_library_fingerprint_is_stable(self):
        assert library_fingerprint(DEFAULT_LIBRARY) == library_fingerprint(
            StandardCellLibrary()
        )

    def test_library_fingerprint_tracks_parameter_changes(self):
        retuned = StandardCellLibrary(
            tech=dataclasses.replace(FDSOI28_LVT, vt0=FDSOI28_LVT.vt0 * 1.01)
        )
        assert library_fingerprint(retuned) != library_fingerprint(DEFAULT_LIBRARY)

    def test_operand_fingerprint_tracks_content_and_shape(self):
        in1 = np.arange(100)
        in2 = np.arange(100)[::-1].copy()
        base = operand_fingerprint(in1, in2)
        assert base == operand_fingerprint(in1.copy(), in2.copy())
        assert base != operand_fingerprint(in2, in1)
        changed = in1.copy()
        changed[3] += 1
        assert base != operand_fingerprint(changed, in2)

    def test_int64_array_round_trip(self):
        values = np.array([0, 1, -5, 2**62, -(2**62)], dtype=np.int64)
        assert np.array_equal(decode_int64_array(encode_int64_array(values)), values)

    def test_float64_array_round_trip_is_bit_exact(self):
        values = np.array(
            [0.0, -0.0, 1e-300, np.pi, np.nextafter(1.0, 2.0), 7.25e12]
        )
        decoded = decode_float64_array(encode_float64_array(values))
        assert decoded.dtype == np.float64
        assert np.array_equal(
            decoded.view(np.uint64), values.view(np.uint64)
        )

    def test_float64_encoding_is_deterministic(self):
        values = np.random.default_rng(0).random(32)
        assert encode_float64_array(values) == encode_float64_array(values.copy())


class TestEntryKeys:
    def test_key_is_deterministic_and_order_insensitive(self):
        a = SweepResultStore.entry_key({"x": 1, "y": {"a": 2.5, "b": "s"}})
        b = SweepResultStore.entry_key({"y": {"b": "s", "a": 2.5}, "x": 1})
        assert a == b

    def test_key_changes_with_any_component(self):
        base = {"circuit": "f" * 64, "engine_version": 2, "triad": {"vdd": 0.8}}
        key = SweepResultStore.entry_key(base)
        assert key != SweepResultStore.entry_key({**base, "engine_version": 3})
        assert key != SweepResultStore.entry_key({**base, "circuit": "0" * 64})
        assert key != SweepResultStore.entry_key({**base, "triad": {"vdd": 0.7}})

    def test_key_distinguishes_close_floats(self):
        a = SweepResultStore.entry_key({"tclk": 2.8e-10})
        b = SweepResultStore.entry_key({"tclk": 2.8000000001e-10})
        assert a != b

    def test_keys_do_not_depend_on_the_container_version(self):
        # STORE_VERSION names the on-disk layout only; mixing it into keys
        # would orphan every migrated entry.
        key = SweepResultStore.entry_key({"n": 1})
        assert key == SweepResultStore.entry_key({"n": 1})
        payload = {"n": 1, "store_format": store_module.STORE_FORMAT_VERSION}
        import hashlib

        expected = hashlib.sha256(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        assert key == expected


class TestSweepResultStore:
    def test_round_trip(self, tmp_path):
        store = SweepResultStore(tmp_path)
        key = store.entry_key({"n": 1})
        assert store.get(key) is None
        store.put(key, {"ber": 0.25, "bitwise_error": [0.0, 0.5]})
        fetched = SweepResultStore(tmp_path).get(key)
        assert fetched == {"ber": 0.25, "bitwise_error": [0.0, 0.5]}

    def test_binary_array_fields_round_trip_byte_identically(self, tmp_path):
        store = SweepResultStore(tmp_path)
        key = store.entry_key({"n": "arrays"})
        words = np.arange(500, dtype=np.int64)
        samples = np.random.default_rng(1).random(64)
        payload = {
            "summary": {"ber": 0.5},
            "latched_words": encode_int64_array(words),
            "ber_samples": encode_float64_array(samples),
        }
        store.put(key, payload)
        fetched = SweepResultStore(tmp_path).get(key)
        # Warm reads hand the array fields back as raw bytes -- never
        # re-encoded to base64 -- and the codec decodes them bit-exactly.
        assert isinstance(fetched["latched_words"], bytes)
        assert np.array_equal(decode_int64_array(fetched["latched_words"]), words)
        assert np.array_equal(
            decode_float64_array(fetched["ber_samples"]), samples
        )
        # Through encode_blobs the payload is byte-identical to the input:
        # warm entries compare equal to fresh computations.
        assert encode_blobs(fetched) == payload

    def test_non_canonical_base64_field_survives_verbatim(self, tmp_path):
        # A blob-eligible field whose value is not canonical base64 must be
        # kept as the literal string, never rewritten through a decode.
        store = SweepResultStore(tmp_path)
        key = store.entry_key({"n": "odd"})
        payload = {"latched_words": "not base64!!", "energy_samples": 12.5}
        store.put(key, payload)
        assert SweepResultStore(tmp_path).get(key) == payload

    def test_missing_directory_reads_empty(self, tmp_path):
        store = SweepResultStore(tmp_path / "does-not-exist")
        assert len(store) == 0
        assert store.get("ab" + "0" * 62) is None

    def test_corrupted_record_is_dropped_and_recomputed(self, tmp_path):
        store = SweepResultStore(tmp_path)
        key = store.entry_key({"n": 2})
        store.put(key, {"ber": 0.5})
        _corrupt_record(store, key)
        fresh = SweepResultStore(tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats.corrupt == 1
        # The entry can be rewritten and read again afterwards.
        fresh.put(key, {"ber": 0.5})
        assert fresh.get(key) == {"ber": 0.5}

    def test_record_under_wrong_key_is_rejected(self, tmp_path):
        # Forge an index line that points a different key at a valid record:
        # the record embeds its own key, so the lookup is a corruption, not
        # a hit.
        store = SweepResultStore(tmp_path)
        key_a = store.entry_key({"n": "a"})
        key_b = store.entry_key({"n": "b"})
        store.put(key_a, {"ber": 0.5})
        (line,) = _index_lines(store)
        idx = store.root / PACKS_DIR / (line["segment"] + ".idx")
        forged = dict(line)
        forged.pop("segment")
        forged["k"] = key_b
        with open(idx, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(forged, sort_keys=True) + "\n")
        fresh = SweepResultStore(tmp_path)
        assert fresh.get(key_b) is None
        assert fresh.stats.corrupt == 1
        assert fresh.get(key_a) == {"ber": 0.5}

    def test_clear_and_len(self, tmp_path):
        store = SweepResultStore(tmp_path)
        for n in range(5):
            store.put(store.entry_key({"n": n}), {"n": n})
        assert len(store) == 5
        assert store.clear() == 5
        assert len(store) == 0

    def test_stats_count_hits_and_misses(self, tmp_path):
        store = SweepResultStore(tmp_path)
        key = store.entry_key({"n": 3})
        store.get(key)
        store.put(key, {"v": 1})
        store.get(key)
        assert store.stats.misses == 1
        assert store.stats.hits == 1
        assert store.stats.stores == 1

    def test_entries_live_in_pack_segments(self, tmp_path):
        store = SweepResultStore(tmp_path)
        for n in range(3):
            store.put(store.entry_key({"n": n}), {"n": n})
        packs = _pack_files(store)
        assert len(packs) == 1  # one writer = one segment
        assert packs[0].read_bytes().startswith(b"RPK2")
        # No per-entry JSON files anywhere.
        assert not list(store.root.glob("*/*.json"))
        marker = json.loads((store.root / FORMAT_FILE).read_text(encoding="utf-8"))
        assert marker == {"store_version": STORE_VERSION}
        assert store_layout_version(store.root) == STORE_VERSION

    def test_segments_rotate_at_the_size_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "MAX_SEGMENT_BYTES", 4096)
        store = SweepResultStore(tmp_path)
        keys = [store.entry_key({"n": n}) for n in range(8)]
        for key in keys:
            store.put(key, {"pad": "x" * 1024})
        assert len(_pack_files(store)) > 1
        fresh = SweepResultStore(tmp_path)
        assert all(fresh.get(key) == {"pad": "x" * 1024} for key in keys)

    def test_snapshot_and_entry_keys(self, tmp_path):
        store = SweepResultStore(tmp_path)
        keys = sorted(store.entry_key({"n": n}) for n in range(3))
        for n, key in enumerate(sorted(keys)):
            store.put(key, {"n": n})
        assert store.entry_keys() == keys
        snapshot = store.snapshot()
        assert set(snapshot) == set(keys)
        for text in snapshot.values():
            json.loads(text)

    def test_unwritable_root_degrades_to_uncached(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory", encoding="utf-8")
        store = SweepResultStore(blocker / "sub")
        key = store.entry_key({"n": 5})
        store.put(key, {"v": 1})  # must not raise
        assert store.get(key) is None

    def test_default_store_honours_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        store = SweepResultStore.default()
        assert store.root == tmp_path / "env-cache"


class _TickingClock:
    """Deterministic, strictly increasing stand-in for time.time()."""

    def __init__(self):
        self.now = 1_000_000.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.fixture
def ticking_clock(monkeypatch):
    clock = _TickingClock()
    monkeypatch.setattr(obs_clock, "wall_time", clock)
    return clock


class TestDiskStatsAndPrune:
    def _fill(self, store, count, payload_size=0):
        for index in range(count):
            key = SweepResultStore.entry_key({"index": index})
            store.put(key, {"index": index, "pad": "x" * payload_size})

    def test_disk_stats_empty_store(self, tmp_path):
        stats = SweepResultStore(tmp_path / "absent").disk_stats()
        assert stats.entries == 0
        assert stats.total_bytes == 0
        assert stats.oldest_mtime is None and stats.newest_mtime is None

    def test_disk_stats_counts_entries_and_bytes(self, tmp_path):
        store = SweepResultStore(tmp_path)
        self._fill(store, 5)
        stats = store.disk_stats()
        assert stats.entries == 5 == len(store)
        assert stats.total_bytes > 0
        assert stats.oldest_mtime is not None
        assert stats.newest_mtime >= stats.oldest_mtime

    def test_disk_stats_is_o_index_not_o_entries(self, tmp_path, monkeypatch):
        """10k-entry synthetic store: no per-entry filesystem calls."""
        store = SweepResultStore(tmp_path)
        count = 10_000
        for index in range(count):
            store.put(
                SweepResultStore.entry_key({"index": index}), {"index": index}
            )
        fresh = SweepResultStore(tmp_path)
        assert len(fresh) == count  # loads the index

        import os as os_module

        calls = {"stat": 0}
        real_stat = os_module.stat

        def counting_stat(*args, **kwargs):
            calls["stat"] += 1
            return real_stat(*args, **kwargs)

        monkeypatch.setattr(os_module, "stat", counting_stat)
        stats = fresh.disk_stats()
        monkeypatch.undo()
        assert stats.entries == count
        assert stats.total_bytes > 0
        # O(segments + directory listings), nowhere near O(entries).
        assert calls["stat"] < 100

    def test_prune_max_entries_keeps_newest(self, tmp_path, ticking_clock):
        store = SweepResultStore(tmp_path)
        keys = []
        for index in range(4):
            key = SweepResultStore.entry_key({"index": index})
            store.put(key, {"index": index})
            keys.append(key)
        removed = store.prune(max_entries=2)
        assert removed == 2
        assert store.get(keys[0]) is None and store.get(keys[1]) is None
        assert store.get(keys[2]) is not None and store.get(keys[3]) is not None
        # The survivors also survive a fresh index load.
        fresh = SweepResultStore(tmp_path)
        assert fresh.get(keys[2]) is not None and fresh.get(keys[3]) is not None
        assert len(fresh) == 2

    def test_prune_max_bytes(self, tmp_path):
        store = SweepResultStore(tmp_path)
        self._fill(store, 6, payload_size=100)
        total = store.disk_stats().total_bytes
        store.prune(max_bytes=total // 2)
        assert store.disk_stats().total_bytes <= total // 2
        assert store.disk_stats().entries > 0

    def test_prune_reclaims_pack_bytes_on_disk(self, tmp_path):
        store = SweepResultStore(tmp_path)
        self._fill(store, 6, payload_size=2000)
        before = sum(path.stat().st_size for path in _pack_files(store))
        store.prune(max_entries=2)
        after = sum(path.stat().st_size for path in _pack_files(store))
        assert after < before / 2

    def test_prune_without_limits_is_a_no_op(self, tmp_path):
        store = SweepResultStore(tmp_path)
        self._fill(store, 3)
        assert store.prune() == 0
        assert store.disk_stats().entries == 3

    def test_prune_to_zero_clears_everything(self, tmp_path):
        store = SweepResultStore(tmp_path)
        self._fill(store, 3)
        assert store.prune(max_entries=0) == 3
        assert store.disk_stats().entries == 0
        assert not _pack_files(store)

    def test_prune_rejects_negative_limits(self, tmp_path):
        store = SweepResultStore(tmp_path)
        with pytest.raises(ValueError):
            store.prune(max_entries=-1)
        with pytest.raises(ValueError):
            store.prune(max_bytes=-1)

    def test_prune_empty_store_is_a_no_op(self, tmp_path):
        store = SweepResultStore(tmp_path / "never-written")
        assert store.prune(max_entries=5) == 0
        assert store.prune(max_bytes=1) == 0
        assert store.prune(max_entries=0, max_bytes=0) == 0
        assert not (tmp_path / "never-written").exists()

    def test_prune_max_bytes_smaller_than_one_entry_clears_everything(
        self, tmp_path
    ):
        store = SweepResultStore(tmp_path)
        self._fill(store, 3, payload_size=50)
        removed = store.prune(max_bytes=1)
        assert removed == 3
        assert store.disk_stats().entries == 0
        assert store.disk_stats().total_bytes == 0

    def test_prune_max_bytes_zero_clears_everything(self, tmp_path):
        store = SweepResultStore(tmp_path)
        self._fill(store, 4)
        assert store.prune(max_bytes=0) == 4
        assert store.disk_stats().entries == 0


class TestQuarantine:
    def test_corrupt_record_moves_aside_instead_of_vanishing(self, tmp_path):
        store = SweepResultStore(tmp_path)
        key = store.entry_key({"n": "q1"})
        store.put(key, {"ber": 0.5})
        line = _corrupt_record(store, key)
        fresh = SweepResultStore(tmp_path)
        assert fresh.get(key) is None
        quarantine = store.root / QUARANTINE_DIR
        (moved,) = sorted(quarantine.glob(f"*{QUARANTINE_SUFFIX}"))
        # The quarantined file preserves the damaged record bytes verbatim.
        assert moved.stat().st_size == line["l"]
        assert fresh.quarantined_count() == 1

    def test_quarantined_entries_are_invisible_to_lookups_and_stats(
        self, tmp_path
    ):
        store = SweepResultStore(tmp_path)
        good = store.entry_key({"n": "good"})
        bad = store.entry_key({"n": "bad"})
        store.put(good, {"v": 1})
        store.put(bad, {"v": 2})
        _corrupt_record(store, bad)
        fresh = SweepResultStore(tmp_path)
        assert fresh.get(bad) is None  # quarantines
        assert len(fresh) == 1
        stats = fresh.disk_stats()
        assert stats.entries == 1
        assert stats.quarantined == 1
        assert fresh.get(good) == {"v": 1}

    def test_quarantine_is_durable_across_sessions(self, tmp_path):
        # The drop is recorded as an index tombstone: a later session
        # misses without re-detecting (or re-quarantining) the damage.
        store = SweepResultStore(tmp_path)
        key = store.entry_key({"n": "q3"})
        store.put(key, {"v": 1})
        _corrupt_record(store, key)
        first = SweepResultStore(tmp_path)
        assert first.get(key) is None
        assert first.stats.corrupt == 1
        second = SweepResultStore(tmp_path)
        assert second.get(key) is None
        assert second.stats.corrupt == 0
        assert second.quarantined_count() == 1

    def test_quarantined_entry_can_be_rewritten(self, tmp_path):
        store = SweepResultStore(tmp_path)
        key = store.entry_key({"n": "q2"})
        store.put(key, {"v": 1})
        _corrupt_record(store, key)
        fresh = SweepResultStore(tmp_path)
        assert fresh.get(key) is None
        fresh.put(key, {"v": 2})
        assert fresh.get(key) == {"v": 2}
        assert SweepResultStore(tmp_path).get(key) == {"v": 2}


class TestVerify:
    def test_clean_store_verifies_clean(self, tmp_path):
        store = SweepResultStore(tmp_path)
        for n in range(4):
            store.put(store.entry_key({"n": n}), {"n": n})
        report = store.verify()
        assert report.scanned == 4
        assert report.valid == 4
        assert report.quarantined == 0
        assert report.io_errors == 0

    def test_missing_directory_verifies_empty(self, tmp_path):
        report = SweepResultStore(tmp_path / "never-written").verify()
        assert report.scanned == 0
        assert report.valid == 0

    def test_corrupt_records_are_quarantined_by_the_pass(self, tmp_path):
        store = SweepResultStore(tmp_path)
        keys = [store.entry_key({"n": n}) for n in range(3)]
        for key in keys:
            store.put(key, {"k": key[:4]})
        _corrupt_record(store, keys[1])
        fresh = SweepResultStore(tmp_path)
        report = fresh.verify()
        assert report.scanned == 3
        assert report.valid == 2
        assert report.quarantined == 1
        assert fresh.quarantined_count() == 1
        # The pass leaves the store usable: the survivors still read back.
        assert fresh.get(keys[0]) is not None
        assert fresh.get(keys[1]) is None

    def test_record_under_wrong_key_is_corrupt(self, tmp_path):
        store = SweepResultStore(tmp_path)
        key_a = store.entry_key({"n": "a"})
        key_b = store.entry_key({"n": "b"})
        store.put(key_a, {"v": 1})
        (line,) = _index_lines(store)
        idx = store.root / PACKS_DIR / (line["segment"] + ".idx")
        forged = dict(line)
        forged.pop("segment")
        forged["k"] = key_b
        with open(idx, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(forged, sort_keys=True) + "\n")
        report = SweepResultStore(tmp_path).verify()
        assert report.valid == 1
        assert report.quarantined == 1

    def test_unreadable_segment_counts_io_errors(self, tmp_path):
        store = SweepResultStore(tmp_path)
        key = store.entry_key({"n": "dir"})
        store.put(key, {"v": 1})
        (pack,) = _pack_files(store)
        # A directory where the pack should be: read_bytes raises
        # IsADirectoryError (an OSError that is not FileNotFoundError),
        # which works even when the tests run as root and chmod 000 is
        # ineffective.
        fresh = SweepResultStore(tmp_path)
        assert len(fresh) == 1  # index loads fine
        pack.unlink()
        pack.mkdir()
        report = fresh.verify()
        assert report.scanned == 1
        assert report.io_errors == 1
        assert fresh.stats.io_errors == 1


class TestIoErrorObservability:
    def test_unwritable_put_counts_an_io_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory", encoding="utf-8")
        store = SweepResultStore(blocker / "sub")
        store.put(store.entry_key({"n": 1}), {"v": 1})
        assert store.stats.io_errors == 1
        assert store.stats.stores == 0

    def test_unreadable_segment_get_is_a_counted_miss(self, tmp_path):
        store = SweepResultStore(tmp_path)
        key = store.entry_key({"n": "dir"})
        store.put(key, {"v": 1})
        (pack,) = _pack_files(store)
        fresh = SweepResultStore(tmp_path)
        assert len(fresh) == 1
        pack.unlink()
        pack.mkdir()
        assert fresh.get(key) is None
        assert fresh.stats.misses == 1
        assert fresh.stats.io_errors == 1

    def test_plain_miss_is_not_an_io_error(self, tmp_path):
        store = SweepResultStore(tmp_path)
        assert store.get(store.entry_key({"n": 9})) is None
        assert store.stats.misses == 1
        assert store.stats.io_errors == 0


class TestCrashConsistency:
    """The append protocol survives crashes at every point."""

    def _fill(self, store, count):
        keys = [store.entry_key({"n": n}) for n in range(count)]
        for n, key in enumerate(keys):
            store.put(key, {"n": n})
        return keys

    def test_records_missing_index_lines_are_recovered(self, tmp_path):
        # Crash between the pack flush and the index flush: the tail scan
        # finds the orphaned records on the next open.
        store = SweepResultStore(tmp_path)
        keys = self._fill(store, 5)
        (idx,) = _idx_files(store)
        lines = idx.read_bytes().splitlines(keepends=True)
        idx.write_bytes(b"".join(lines[:2]))
        fresh = SweepResultStore(tmp_path)
        assert len(fresh) == 5
        assert all(fresh.get(key) == {"n": n} for n, key in enumerate(keys))

    def test_verify_makes_tail_recovery_durable(self, tmp_path):
        store = SweepResultStore(tmp_path)
        keys = self._fill(store, 4)
        (idx,) = _idx_files(store)
        lines = idx.read_bytes().splitlines(keepends=True)
        idx.write_bytes(b"".join(lines[:1]))
        fresh = SweepResultStore(tmp_path)
        report = fresh.verify()
        assert report.valid == 4
        # The index file regained the missing lines: a third session loads
        # everything without scanning the pack tail.
        assert len(idx.read_bytes().splitlines()) == 4
        third = SweepResultStore(tmp_path)
        assert all(third.get(key) is not None for key in keys)

    def test_torn_trailing_record_is_ignored(self, tmp_path):
        # Crash mid-append: the partial record fails its CRC and the store
        # carries on with every complete entry.
        store = SweepResultStore(tmp_path)
        keys = self._fill(store, 3)
        (pack,) = _pack_files(store)
        data = pack.read_bytes()
        pack.write_bytes(data + data[: len(data) // 3])
        fresh = SweepResultStore(tmp_path)
        assert len(fresh) == 3
        assert all(fresh.get(key) is not None for key in keys)
        assert fresh.verify().valid == 3

    def test_partial_index_line_is_left_for_the_writer(self, tmp_path):
        store = SweepResultStore(tmp_path)
        keys = self._fill(store, 2)
        (idx,) = _idx_files(store)
        with open(idx, "ab") as handle:
            handle.write(b'{"k": "incomplete')  # no newline: still in flight
        fresh = SweepResultStore(tmp_path)
        assert len(fresh) == 2
        assert all(fresh.get(key) is not None for key in keys)


class TestConcurrentSessions:
    """Stores on the same root owned by different sessions/processes."""

    def test_second_session_sees_first_sessions_appends(self, tmp_path):
        reader = SweepResultStore(tmp_path)
        assert len(reader) == 0  # index loaded while empty
        writer = SweepResultStore(tmp_path)
        key = writer.entry_key({"n": 1})
        writer.put(key, {"v": 1})
        # The reader refreshes its index and finds the foreign append.
        assert reader.get(key) == {"v": 1}

    def test_sessions_never_share_a_write_segment(self, tmp_path):
        a = SweepResultStore(tmp_path)
        b = SweepResultStore(tmp_path)
        a.put(a.entry_key({"s": "a"}), {"v": 1})
        b.put(b.entry_key({"s": "b"}), {"v": 2})
        assert len(_pack_files(a)) == 2

    def test_get_tolerates_concurrent_clear(self, tmp_path):
        writer = SweepResultStore(tmp_path)
        key = writer.entry_key({"n": 1})
        writer.put(key, {"v": 1})
        reader = SweepResultStore(tmp_path)
        assert len(reader) == 1
        writer.clear()
        # The segment vanished under the reader: a plain miss, not an error.
        assert reader.get(key) is None
        assert reader.stats.io_errors == 0

    def test_index_reload_after_foreign_rewrite(self, tmp_path, ticking_clock):
        writer = SweepResultStore(tmp_path)
        keys = [writer.entry_key({"n": n}) for n in range(4)]
        for n, key in enumerate(keys):
            writer.put(key, {"n": n})
        reader = SweepResultStore(tmp_path)
        assert len(reader) == 4
        # Another session compacts the segment (prune): the reader notices
        # the shrunken index file and rebuilds its view from scratch.
        other = SweepResultStore(tmp_path)
        assert other.prune(max_entries=2) == 2
        assert len(reader) == 2
        assert reader.get(keys[3]) == {"n": 3}
        assert reader.get(keys[0]) is None
        assert reader.stats.corrupt == 0


#: Every public read, write and maintenance call of the store, applied to
#: a store and a key it holds.
PUBLIC_CALLS = {
    "get": lambda store, key: store.get(key),
    "get_many": lambda store, key: store.get_many([key]),
    "put": lambda store, key: store.put(key, {"n": "new"}),
    "len": lambda store, key: len(store),
    "entry_keys": lambda store, key: store.entry_keys(),
    "snapshot": lambda store, key: store.snapshot(),
    "clear": lambda store, key: store.clear(),
    "quarantined_count": lambda store, key: store.quarantined_count(),
    "disk_stats": lambda store, key: store.disk_stats(),
    "verify": lambda store, key: store.verify(),
    "prune": lambda store, key: store.prune(max_entries=1),
    "prune_without_limits": lambda store, key: store.prune(),
}


class TestLegacyLayout:
    """v1 one-JSON-file-per-entry roots are refused until migrated."""

    def _legacy_fill(self, root, count):
        keys = []
        for n in range(count):
            key = SweepResultStore.entry_key({"n": n})
            write_legacy_entry(root, key, {"n": n})
            keys.append(key)
        return keys

    @pytest.mark.parametrize("call", sorted(PUBLIC_CALLS))
    def test_every_public_method_refuses_a_v1_root(self, tmp_path, call):
        from _store_helpers import tree

        (key,) = self._legacy_fill(tmp_path, 1)
        before = tree(tmp_path)
        store = SweepResultStore(tmp_path)
        hint = f"repro store migrate --cache-dir {tmp_path}"
        with pytest.raises(UnmigratedStoreError) as raised:
            PUBLIC_CALLS[call](store, key)
        assert hint in str(raised.value)
        assert "\n" not in str(raised.value)
        assert isinstance(raised.value, ValueError)
        # Refusal is sticky while the v1 file is there, and writes nothing.
        with pytest.raises(UnmigratedStoreError):
            PUBLIC_CALLS[call](store, key)
        assert tree(tmp_path) == before

    def test_leftover_v1_file_in_a_pack_store_refuses_until_migrated(
        self, tmp_path
    ):
        store = SweepResultStore(tmp_path)
        packed = [store.entry_key({"p": n}) for n in range(3)]
        for n, key in enumerate(packed):
            store.put(key, {"p": n})
        (leftover,) = self._legacy_fill(tmp_path, 1)
        mixed = SweepResultStore(tmp_path)
        with pytest.raises(UnmigratedStoreError):
            mixed.get(packed[0])
        with pytest.raises(UnmigratedStoreError):
            len(mixed)
        assert mixed.migrate().migrated == 1
        assert len(mixed) == 4
        assert mixed.get(leftover) == {"n": 0}
        assert all(mixed.get(key) == {"p": n} for n, key in enumerate(packed))
        fresh = SweepResultStore(tmp_path)
        assert fresh.entry_keys() == sorted(packed + [leftover])
        assert fresh.verify().valid == 4

    def test_a_root_migrated_elsewhere_opens(self, tmp_path):
        (key,) = self._legacy_fill(tmp_path, 1)
        store = SweepResultStore(tmp_path)
        with pytest.raises(UnmigratedStoreError):
            store.get(key)
        SweepResultStore(tmp_path).migrate()
        assert store.get(key) == {"n": 0}

    def test_migrate_hitting_an_io_error_leaves_the_store_unmigrated(
        self, tmp_path, monkeypatch
    ):
        keys = self._legacy_fill(tmp_path, 2)
        store = SweepResultStore(tmp_path)
        append = store._append_record

        def failing_append(key, payload, timestamp):
            if key == keys[1]:
                raise OSError("disk full")
            append(key, payload, timestamp)

        monkeypatch.setattr(store, "_append_record", failing_append)
        report = store.migrate()
        assert (report.migrated, report.io_errors) == (1, 1)
        # Stamped v2, yet one v1 file is left: reported (and refused) as v1.
        marker = json.loads((tmp_path / FORMAT_FILE).read_text(encoding="utf-8"))
        assert marker == {"store_version": STORE_VERSION}
        assert store_layout_version(tmp_path) == 1
        with pytest.raises(UnmigratedStoreError):
            store.get(keys[0])
        monkeypatch.undo()
        assert store.migrate().migrated == 1
        assert store_layout_version(tmp_path) == STORE_VERSION
        assert [store.get(key) for key in keys] == [{"n": 0}, {"n": 1}]


class TestMigration:
    def _legacy_store(self, root, count):
        keys = []
        for n in range(count):
            key = SweepResultStore.entry_key({"n": n})
            write_legacy_entry(
                root,
                key,
                {
                    "n": n,
                    "latched_words": encode_int64_array(
                        np.arange(n + 4, dtype=np.int64)
                    ),
                },
            )
            keys.append(key)
        return keys

    def test_migrate_is_lossless(self, tmp_path):
        from _store_helpers import v1_snapshot

        self._legacy_store(tmp_path, 5)
        before = v1_snapshot(tmp_path)
        assert len(before) == 5
        store = SweepResultStore(tmp_path)
        report = store.migrate()
        assert report.migrated == 5
        assert report.quarantined == 0
        assert report.io_errors == 0
        assert store.snapshot() == before
        # And from a cold index load too.
        fresh = SweepResultStore(tmp_path)
        assert fresh.snapshot() == before
        assert len(fresh) == 5

    def test_migrate_removes_the_v1_files(self, tmp_path):
        self._legacy_store(tmp_path, 3)
        store = SweepResultStore(tmp_path)
        store.migrate()
        assert not list(tmp_path.glob("*/*.json"))
        # Even the fan-out directories are gone.
        leftovers = [
            path
            for path in tmp_path.iterdir()
            if path.is_dir() and len(path.name) == 2
        ]
        assert leftovers == []
        assert store_layout_version(tmp_path) == STORE_VERSION

    def test_migrated_entries_stay_warm(self, tmp_path):
        keys = self._legacy_store(tmp_path, 3)
        SweepResultStore(tmp_path).migrate()
        fresh = SweepResultStore(tmp_path)
        for key in keys:
            assert fresh.get(key) is not None
        assert fresh.stats.hits == 3
        assert fresh.stats.misses == 0

    def test_migrate_is_idempotent(self, tmp_path):
        self._legacy_store(tmp_path, 2)
        store = SweepResultStore(tmp_path)
        assert store.migrate().migrated == 2
        second = store.migrate()
        assert second.migrated == 0
        assert second.quarantined == 0
        assert len(store) == 2

    def test_migrate_on_an_empty_root_just_stamps_the_format(self, tmp_path):
        store = SweepResultStore(tmp_path)
        report = store.migrate()
        assert report.migrated == 0
        assert store_layout_version(tmp_path) == STORE_VERSION

    @pytest.mark.parametrize("damage", ["garbage", "wrong_key"])
    def test_migrate_quarantines_corrupt_v1_entries(self, tmp_path, damage):
        keys = self._legacy_store(tmp_path, 3)
        victim = tmp_path / keys[1][:2] / f"{keys[1]}.json"
        if damage == "garbage":
            victim.write_text("{ truncated garbage", encoding="utf-8")
        else:
            # A well-formed entry of another key filed under this one.
            victim.write_bytes(
                (tmp_path / keys[0][:2] / f"{keys[0]}.json").read_bytes()
            )
        original = victim.read_bytes()
        store = SweepResultStore(tmp_path)
        report = store.migrate()
        assert report.migrated == 2
        assert report.quarantined == 1
        assert store.stats.corrupt == 1
        assert not victim.exists()
        moved = tmp_path / QUARANTINE_DIR / (victim.name + QUARANTINE_SUFFIX)
        assert moved.read_bytes() == original
        assert store.quarantined_count() == 1
        assert store.verify().valid == 2
        assert store.get(keys[1]) is None

    def test_migrate_preserves_prune_ordering(self, tmp_path, ticking_clock):
        import os

        keys = self._legacy_store(tmp_path, 3)
        for n, key in enumerate(keys):
            os.utime(tmp_path / key[:2] / f"{key}.json", (n + 1, n + 1))
        store = SweepResultStore(tmp_path)
        store.migrate()
        assert store.prune(max_entries=1) == 2
        assert store.get(keys[2]) is not None
        assert store.get(keys[0]) is None and store.get(keys[1]) is None
