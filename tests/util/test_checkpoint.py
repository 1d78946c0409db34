"""CheckpointStore: atomic chunk persistence, integrity, quarantine."""

import json
import zipfile

import numpy as np
import pytest

from repro.util.cache import array_digest
from repro.util.checkpoint import (
    CHECKPOINT_DIR_ENV,
    CheckpointStore,
    checkpoint_dir_from_env,
)

RUN_KEY = {"engine": "test", "seed": 7, "chunk_sizes": [50, 50, 25]}


@pytest.fixture
def store(tmp_path):
    return CheckpointStore(tmp_path, RUN_KEY, n_chunks=3)


class TestEnvResolution:
    def test_unset_means_disabled(self, monkeypatch):
        monkeypatch.delenv(CHECKPOINT_DIR_ENV, raising=False)
        assert checkpoint_dir_from_env() is None

    def test_set_names_the_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CHECKPOINT_DIR_ENV, str(tmp_path))
        assert checkpoint_dir_from_env() == tmp_path


class TestManifest:
    def test_written_on_construction(self, store):
        manifest = json.loads(store.manifest_path.read_text())
        assert manifest["n_chunks"] == 3
        assert manifest["key"]["engine"] == "test"

    def test_run_dir_keyed_by_run_key(self, tmp_path):
        a = CheckpointStore(tmp_path, RUN_KEY, n_chunks=3)
        b = CheckpointStore(tmp_path, {**RUN_KEY, "seed": 8}, n_chunks=3)
        assert a.run_dir != b.run_dir


class TestChunkRoundtrip:
    def test_put_get_bit_identical(self, store):
        arrays = {"gains": np.linspace(0.0, 1.0, 50),
                  "codes": np.arange(50, dtype=np.uint8)}
        store.put_chunk(1, arrays)
        loaded = store.get_chunk(1)
        assert set(loaded) == set(arrays)
        for name in arrays:
            assert np.array_equal(loaded[name], arrays[name])
            assert loaded[name].dtype == arrays[name].dtype

    def test_missing_chunk_is_none(self, store):
        assert store.get_chunk(0) is None

    def test_no_tmp_litter_after_put(self, store):
        store.put_chunk(0, {"x": np.ones(4)})
        assert not list(store.run_dir.glob("*.tmp*"))

    def test_completed_chunks_ordering(self, store):
        store.put_chunk(2, {"x": np.ones(2)})
        store.put_chunk(0, {"x": np.ones(2)})
        assert store.completed_chunks() == [0, 2]

    def test_index_bounds_checked(self, store):
        with pytest.raises(IndexError):
            store.put_chunk(3, {"x": np.ones(1)})
        with pytest.raises(IndexError):
            store.get_chunk(-1)

    def test_resume_across_store_instances(self, tmp_path):
        first = CheckpointStore(tmp_path, RUN_KEY, n_chunks=3)
        first.put_chunk(0, {"x": np.full(5, 2.5)})
        second = CheckpointStore(tmp_path, RUN_KEY, n_chunks=3)
        assert np.array_equal(second.get_chunk(0)["x"], np.full(5, 2.5))


class TestIntegrity:
    def test_truncated_payload_quarantined(self, store):
        store.put_chunk(0, {"x": np.ones(8)})
        data_path, _ = store._chunk_paths(0)
        data_path.write_bytes(data_path.read_bytes()[:10])
        assert store.get_chunk(0) is None
        assert store.quarantined == 1
        assert list((store.run_dir / "corrupt").glob(
            f"{data_path.stem}.*.npz"))
        assert store.get_chunk(0) is None  # stays missing, no crash

    def test_digest_mismatch_quarantined(self, store):
        store.put_chunk(0, {"x": np.ones(8)})
        data_path, _ = store._chunk_paths(0)
        np.savez_compressed(data_path, x=np.zeros(8))  # loadable, wrong bits
        assert store.get_chunk(0) is None
        assert store.quarantined == 1

    def test_missing_sidecar_treated_as_corrupt(self, store):
        store.put_chunk(0, {"x": np.ones(8)})
        _, meta_path = store._chunk_paths(0)
        meta_path.unlink()
        assert store.get_chunk(0) is None
        assert store.quarantined == 1

    def test_orphaned_sidecar_quarantined(self, store):
        # The other orientation: json published, npz lost to a crash.
        store.put_chunk(0, {"x": np.ones(8)})
        data_path, meta_path = store._chunk_paths(0)
        data_path.unlink()
        assert store.get_chunk(0) is None
        assert store.quarantined == 1
        assert not meta_path.exists()  # swept into corrupt/, not left
        assert list((store.run_dir / "corrupt").glob(
            f"{meta_path.stem}.*.json"))
        assert 0 not in store.completed_chunks()

    def test_sidecar_records_content_digest(self, store):
        arrays = {"x": np.arange(6.0)}
        store.put_chunk(0, arrays)
        _, meta_path = store._chunk_paths(0)
        sidecar = json.loads(meta_path.read_text())
        assert sidecar["sha256"] == array_digest(arrays)
        assert sidecar["chunk_index"] == 0

    def test_put_swallows_unwritable_root(self, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("file in the way")
        store = CheckpointStore(blocker / "sub", RUN_KEY, n_chunks=1)
        store.put_chunk(0, {"x": np.ones(2)})  # must not raise
        assert store.get_chunk(0) is None


class TestPayloadFormat:
    """Chunks are stored npz; deflated ones from earlier versions load."""

    def test_members_are_stored_not_deflated(self, store):
        store.put_chunk(0, {"gains": np.linspace(0.0, 1.0, 50),
                            "codes": np.arange(50, dtype=np.uint8)})
        data_path, _ = store._chunk_paths(0)
        with zipfile.ZipFile(data_path) as archive:
            assert {info.compress_type for info in archive.infolist()} \
                == {zipfile.ZIP_STORED}

    def test_deflated_chunk_loads_as_a_hit(self, store):
        arrays = {"gains": np.linspace(0.0, 1.0, 50),
                  "codes": np.arange(50, dtype=np.uint8)}
        store.put_chunk(1, arrays)
        data_path, _ = store._chunk_paths(1)
        np.savez_compressed(data_path, **arrays)  # as earlier versions wrote
        with zipfile.ZipFile(data_path) as archive:
            assert {info.compress_type for info in archive.infolist()} \
                == {zipfile.ZIP_DEFLATED}
        loaded = store.get_chunk(1)
        assert loaded is not None
        for name in arrays:
            assert np.array_equal(loaded[name], arrays[name])
            assert loaded[name].dtype == arrays[name].dtype
        assert store.quarantined == 0
        assert not (store.run_dir / "corrupt").exists()

    def test_flipped_byte_is_a_miss_and_quarantined(self, store):
        arrays = {"x": np.arange(64.0)}
        store.put_chunk(0, arrays)
        data_path, _ = store._chunk_paths(0)
        payload = bytearray(data_path.read_bytes())
        start = payload.find(arrays["x"].tobytes())  # stored verbatim
        assert start >= 0
        payload[start + 100] ^= 0x01
        data_path.write_bytes(bytes(payload))
        assert store.get_chunk(0) is None
        assert store.quarantined == 1
        assert 0 not in store.completed_chunks()
        assert list((store.run_dir / "corrupt").glob(
            f"{data_path.stem}.*.npz"))
