"""ResultCache behaviour: keys, roundtrips, inert mode, corruption,
the entry rule both stores share, interrupted writes."""

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

    def test_from_env_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert not ResultCache.from_env().enabled

    def test_from_env_enabled_by_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        cache = ResultCache.from_env()
        assert cache.enabled
        assert cache.root == tmp_path


#: Sidecars that cannot vouch for their payload, built from the real
#: sidecar.  A missing sidecar is covered by
#: ``TestResultCache::test_orphaned_payload_is_a_miss_and_quarantined``
#: and ``test_checkpoint.py``'s ``test_missing_sidecar_treated_as_corrupt``.
UNVERIFIABLE_SIDECARS = {
    "not-json": lambda meta: "{",
    "json-list": lambda meta: "[]",
    "no-sha256": lambda meta: json.dumps(
        {k: v for k, v in meta.items() if k != "sha256"}),
    "numeric-sha256": lambda meta: json.dumps({**meta, "sha256": 7}),
}


@pytest.fixture(params=["cache", "checkpoint"])
def entry_store(request, tmp_path):
    """``(put, get, store, entry_dir)`` for one entry of either store."""
    if request.param == "cache":
        cache = ResultCache(tmp_path)
        return (lambda arrays: cache.put(KEY, arrays),
                lambda: cache.get(KEY), cache, tmp_path)
    store = CheckpointStore(tmp_path, KEY, n_chunks=1)
    return (lambda arrays: store.put_chunk(0, arrays),
            lambda: store.get_chunk(0), store, store.run_dir)


class TestEntryRule:
    """Both stores serve an entry only when its sidecar vouches for it."""

    @pytest.mark.parametrize("shape", list(UNVERIFIABLE_SIDECARS))
    def test_unverifiable_sidecar_quarantined_then_recomputed(
            self, entry_store, shape):
        put, get, store, entry_dir = entry_store
        reference = {"x": np.linspace(0.0, 1.0, 9),
                     "codes": np.arange(9, dtype=np.uint8)}
        put(reference)
        (data_path,) = entry_dir.glob("*.npz")
        meta_path = data_path.with_suffix(".json")
        meta_path.write_text(
            UNVERIFIABLE_SIDECARS[shape](json.loads(meta_path.read_text())))

        assert get() is None
        assert store.quarantined == 1
        assert not data_path.exists() and not meta_path.exists()
        moved = sorted((entry_dir / "corrupt").iterdir())
        assert sorted(p.suffix for p in moved) == [".json", ".npz"]
        assert all(p.name.startswith(data_path.stem + ".") for p in moved)

        put(reference)  # the caller recomputes
        loaded = get()
        assert loaded is not None and set(loaded) == set(reference)
        for name, array in reference.items():
            assert loaded[name].dtype == array.dtype
            assert loaded[name].tobytes() == array.tobytes()
        assert store.quarantined == 1

    @pytest.mark.parametrize("sidecar", ["{", "[]"],
                             ids=["not-json", "json-list"])
    def test_rewritten_payload_under_bad_sidecar_never_served(
            self, entry_store, sidecar):
        put, get, store, entry_dir = entry_store
        put({"x": np.arange(4)})
        (data_path,) = entry_dir.glob("*.npz")
        data_path.with_suffix(".json").write_text(sidecar)
        np.savez(data_path, x=np.array([99, 99, 99, 99]))
        assert get() is None
        assert store.quarantined == 1
        assert not data_path.exists()

    def test_bare_npy_payload_quarantined(self, entry_store):
        # np.load hands back an array, not an archive, for .npy bytes.
        put, get, store, entry_dir = entry_store
        put({"x": np.arange(4.0)})
        (data_path,) = entry_dir.glob("*.npz")
        with data_path.open("wb") as handle:
            np.save(handle, np.arange(4.0))
        assert get() is None
        assert store.quarantined == 1


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
