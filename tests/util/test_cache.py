"""ResultCache behaviour: keys, roundtrips, inert mode, corruption,
interrupted writes."""

import json
import zipfile
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.util.cache import (
    CACHE_DIR_ENV,
    ResultCache,
    array_digest,
    stable_hash,
)
from repro.util.checkpoint import CheckpointStore
from repro.util.errors import EXIT_RESUMABLE, run_cli


KEY = {"engine": "test", "seed": 7, "config": {"n": 100}}


def _concurrent_put(root):
    """Worker for the concurrent-put race test (module-level: picklable)."""
    ResultCache(root).put(KEY, {"x": np.arange(64.0)})
    return True


@pytest.fixture
def interrupt_in_savez(monkeypatch):
    """Deliver a stand-in SIGINT inside the first zip-entry close.

    That leaves the zip with an open writing handle, so numpy's cleanup
    ``zipf.close()`` raises ``ValueError`` over the interrupt.
    """
    real_close = zipfile._ZipWriteFile.close
    interrupted = []

    def close(self):
        if not interrupted:
            interrupted.append(self._zipfile)
            raise KeyboardInterrupt
        return real_close(self)

    monkeypatch.setattr(zipfile._ZipWriteFile, "close", close)
    yield
    for archive in interrupted:
        # Half open, as a real interrupt leaves it: detach its file so
        # ZipFile.__del__ does not complain about the open handle.
        archive.fp = None


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(KEY) == stable_hash(dict(KEY))

    def test_key_order_does_not_matter(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_value_changes_change_hash(self):
        assert stable_hash({"seed": 1}) != stable_hash({"seed": 2})

    def test_numpy_scalars_canonicalised(self):
        assert stable_hash({"n": np.int64(5)}) == stable_hash({"n": 5})

    def test_seed_sequence_hashable_by_content(self):
        a = np.random.SeedSequence(2010).spawn(2)[1]
        b = np.random.SeedSequence(2010).spawn(2)[1]
        assert stable_hash({"seed": a}) == stable_hash({"seed": b})
        other = np.random.SeedSequence(2010).spawn(2)[0]
        assert stable_hash({"seed": a}) != stable_hash({"seed": other})

    def test_unserialisable_parts_rejected(self):
        with pytest.raises(TypeError):
            stable_hash({"rng": np.random.default_rng()})


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        arrays = {"gains": np.linspace(1.0, 2.0, 17),
                  "flags": np.array([True, False, True])}
        assert cache.get(KEY) is None
        cache.put(KEY, arrays)
        loaded = cache.get(KEY)
        assert set(loaded) == {"gains", "flags"}
        assert np.array_equal(loaded["gains"], arrays["gains"])
        assert np.array_equal(loaded["flags"], arrays["flags"])

    def test_writes_sidecar_metadata(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, {"x": np.zeros(3)})
        (meta,) = tmp_path.glob("*.json")
        assert '"engine": "test"' in meta.read_text()

    def test_distinct_keys_do_not_collide(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put({"seed": 1}, {"x": np.ones(2)})
        cache.put({"seed": 2}, {"x": np.zeros(2)})
        assert np.all(cache.get({"seed": 1})["x"] == 1.0)
        assert np.all(cache.get({"seed": 2})["x"] == 0.0)

    def test_inert_without_root(self):
        cache = ResultCache(None)
        assert not cache.enabled
        cache.put(KEY, {"x": np.ones(2)})  # must be a silent no-op
        assert cache.get(KEY) is None

    def test_corrupt_entry_is_a_miss_and_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, {"x": np.ones(4)})
        (entry,) = tmp_path.glob("*.npz")
        entry.write_bytes(b"not a zipfile")
        assert cache.get(KEY) is None
        assert cache.quarantined == 1
        # Quarantined, not deleted: both files moved under corrupt/,
        # renamed with a content-digest tag against repeat collisions.
        assert not entry.exists()
        (moved,) = (tmp_path / "corrupt").glob(f"{entry.stem}.*.npz")
        assert moved.read_bytes() == b"not a zipfile"
        assert list((tmp_path / "corrupt").glob("*.json"))

    def test_digest_mismatch_is_a_miss_and_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, {"x": np.ones(4)})
        (entry,) = tmp_path.glob("*.npz")
        np.savez_compressed(entry, x=np.zeros(4))  # loadable, wrong contents
        assert cache.get(KEY) is None
        assert cache.quarantined == 1

    def test_orphaned_sidecar_is_a_miss_and_quarantined(self, tmp_path):
        # Crash between sidecar and payload publish: json without npz.
        cache = ResultCache(tmp_path)
        cache.put(KEY, {"x": np.ones(4)})
        (entry,) = tmp_path.glob("*.npz")
        entry.unlink()
        assert cache.get(KEY) is None
        assert cache.quarantined == 1
        assert not list(tmp_path.glob("*.json"))  # swept, not left behind
        assert list((tmp_path / "corrupt").glob("*.json"))

    def test_orphaned_payload_is_a_miss_and_quarantined(self, tmp_path):
        # The opposite orientation: npz without json.
        cache = ResultCache(tmp_path)
        cache.put(KEY, {"x": np.ones(4)})
        (meta,) = tmp_path.glob("*.json")
        meta.unlink()
        assert cache.get(KEY) is None
        assert cache.quarantined == 1
        assert not list(tmp_path.glob("*.npz"))
        assert list((tmp_path / "corrupt").glob("*.npz"))

    def test_repeat_quarantine_keeps_every_generation(self, tmp_path):
        # The same entry name corrupted twice with different bytes must
        # land as two distinct files: digest-tagged names prevent the
        # second quarantine from clobbering the first (evidence loss).
        cache = ResultCache(tmp_path)
        cache.put(KEY, {"x": np.ones(4)})
        (entry,) = tmp_path.glob("*.npz")
        entry.write_bytes(b"first corruption")
        assert cache.get(KEY) is None
        cache.put(KEY, {"x": np.ones(4)})
        entry.write_bytes(b"second corruption")
        assert cache.get(KEY) is None
        moved = sorted((tmp_path / "corrupt").glob(f"{entry.stem}.*.npz"))
        assert len(moved) == 2
        assert {p.read_bytes() for p in moved} == \
            {b"first corruption", b"second corruption"}

    def test_sidecar_digest_matches_contents(self, tmp_path):
        cache = ResultCache(tmp_path)
        arrays = {"x": np.linspace(0, 1, 9)}
        cache.put(KEY, arrays)
        (meta,) = tmp_path.glob("*.json")
        assert json.loads(meta.read_text())["sha256"] == array_digest(arrays)

    def test_legacy_entry_without_digest_still_served(self, tmp_path):
        """Pre-integrity sidecars (no sha256) load unverified, no flag-day."""
        cache = ResultCache(tmp_path)
        arrays = {"x": np.ones(4)}
        cache.put(KEY, arrays)
        (meta,) = tmp_path.glob("*.json")
        legacy = json.loads(meta.read_text())
        del legacy["sha256"]
        meta.write_text(json.dumps(legacy))
        assert np.array_equal(cache.get(KEY)["x"], arrays["x"])

    def test_put_swallows_unwritable_root(self, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("file in the way")
        cache = ResultCache(blocker / "sub")
        cache.put(KEY, {"x": np.ones(2)})  # must not raise
        assert cache.get(KEY) is None

    def test_no_tmp_litter_after_put(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, {"x": np.ones(4)})
        assert not list(tmp_path.glob("*.tmp*"))

    def test_concurrent_puts_of_same_key_are_safe(self, tmp_path):
        """Racing writers may cost a hit, but never a crash or bad data."""
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(_concurrent_put, tmp_path)
                       for _ in range(2)]
            assert all(f.result() for f in futures)
        loaded = ResultCache(tmp_path).get(KEY)
        if loaded is not None:  # a digest race surfaces as a miss, not lies
            assert np.array_equal(loaded["x"], np.arange(64.0))
        # The cache self-heals: a fresh put/get roundtrip works.
        cache = ResultCache(tmp_path)
        cache.put(KEY, {"x": np.arange(64.0)})
        assert np.array_equal(cache.get(KEY)["x"], np.arange(64.0))

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put({"seed": 1}, {"x": np.ones(2)})
        cache.put({"seed": 2}, {"x": np.ones(2)})
        result = cache.clear()
        assert result.removed == 4  # two .npz + two .json
        assert result.quarantined == 0
        assert cache.get({"seed": 1}) is None

    def test_clear_skips_subdirectories_and_foreign_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put({"seed": 1}, {"x": np.ones(2)})
        (tmp_path / "subdir").mkdir()
        (tmp_path / "notes.txt").write_text("keep me")
        result = cache.clear()  # must not crash on the directory
        assert result.removed == 2
        assert (tmp_path / "subdir").is_dir()
        assert (tmp_path / "notes.txt").exists()

    def test_clear_reports_quarantined_separately(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put({"seed": 1}, {"x": np.ones(2)})
        cache.put({"seed": 2}, {"x": np.ones(2)})
        entry = next(tmp_path.glob("*.npz"))
        entry.write_bytes(b"junk")
        for seed in (1, 2):
            cache.get({"seed": seed})  # one of these quarantines
        result = cache.clear()
        assert result.removed == 2
        assert result.quarantined == 2  # .npz + .json of the bad entry

    def test_clear_tolerates_concurrent_deletion(self, tmp_path, monkeypatch):
        from pathlib import Path

        cache = ResultCache(tmp_path)
        cache.put({"seed": 1}, {"x": np.ones(2)})
        real_unlink = Path.unlink

        def racing_unlink(self, *args, **kwargs):
            real_unlink(self, *args, **kwargs)  # the "other process" wins
            raise FileNotFoundError(str(self))

        monkeypatch.setattr(Path, "unlink", racing_unlink)
        result = cache.clear()  # every unlink loses the race; no crash
        assert result.removed == 0
        monkeypatch.undo()
        assert list(tmp_path.glob("*.npz")) == []

    def test_from_env_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert not ResultCache.from_env().enabled

    def test_from_env_enabled_by_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        cache = ResultCache.from_env()
        assert cache.enabled
        assert cache.root == tmp_path


class TestPayloadFormat:
    """Entries are stored npz; deflated ones from earlier versions load."""

    def test_members_are_stored_not_deflated(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY, {"gains": np.linspace(1.0, 2.0, 17),
                        "flags": np.array([True, False, True])})
        (entry,) = tmp_path.glob("*.npz")
        with zipfile.ZipFile(entry) as archive:
            assert {info.compress_type for info in archive.infolist()} \
                == {zipfile.ZIP_STORED}

    def test_deflated_entry_loads_as_a_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        arrays = {"gains": np.linspace(1.0, 2.0, 17),
                  "codes": np.arange(9, dtype=np.uint8)}
        cache.put(KEY, arrays)
        (entry,) = tmp_path.glob("*.npz")
        np.savez_compressed(entry, **arrays)  # as earlier versions wrote
        with zipfile.ZipFile(entry) as archive:
            assert {info.compress_type for info in archive.infolist()} \
                == {zipfile.ZIP_DEFLATED}
        loaded = cache.get(KEY)
        assert loaded is not None
        for name in arrays:
            assert np.array_equal(loaded[name], arrays[name])
            assert loaded[name].dtype == arrays[name].dtype
        assert cache.quarantined == 0
        assert not (tmp_path / "corrupt").exists()

    def test_flipped_byte_is_a_miss_and_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        arrays = {"x": np.arange(64.0)}
        cache.put(KEY, arrays)
        (entry,) = tmp_path.glob("*.npz")
        payload = bytearray(entry.read_bytes())
        start = payload.find(arrays["x"].tobytes())  # stored verbatim
        assert start >= 0
        payload[start + 100] ^= 0x01
        entry.write_bytes(bytes(payload))
        assert cache.get(KEY) is None
        assert cache.quarantined == 1
        assert not entry.exists()
        assert list((tmp_path / "corrupt").glob(f"{entry.stem}.*.npz"))


class TestInterruptedWrite:
    """An interrupt inside ``np.savez`` stays an interrupt."""

    def test_checkpoint_put_reraises_interrupt(self, tmp_path,
                                               interrupt_in_savez):
        store = CheckpointStore(tmp_path, KEY, n_chunks=1)
        with pytest.raises(KeyboardInterrupt):
            store.put_chunk(0, {"x": np.ones(4)})
        assert store.completed_chunks() == []
        assert not list(tmp_path.rglob("*.tmp*"))

    def test_cache_put_reraises_interrupt(self, tmp_path,
                                          interrupt_in_savez):
        cache = ResultCache(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            cache.put(KEY, {"x": np.ones(4)})
        assert list(tmp_path.iterdir()) == []
        assert cache.get(KEY) is None

    def test_cli_exits_resumable(self, tmp_path, interrupt_in_savez):
        store = CheckpointStore(tmp_path, KEY, n_chunks=1)

        def body():
            store.put_chunk(0, {"x": np.ones(4)})
            return 0

        assert run_cli("prog", body) == EXIT_RESUMABLE
