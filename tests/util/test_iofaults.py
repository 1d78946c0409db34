"""I/O fault injector: determinism, fault semantics, site recording."""

import errno

import numpy as np
import pytest

from repro.util import iofaults
from repro.util.cache import ResultCache, atomic_write_text
from repro.util.iofaults import (
    CRASH,
    EACCES,
    ENOSPC,
    IOERROR,
    TORN,
    IoFaultInjector,
    IoFaultRule,
    SimulatedCrash,
    single_fault,
)


class TestRules:
    def test_negative_call_index_rejected(self):
        with pytest.raises(ValueError):
            IoFaultRule("s.write", -1, ENOSPC)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            IoFaultRule("s.write", 0, "meteor")


class TestWriteFaults:
    def _trip(self, kind, tmp_path):
        injector = single_fault("s.write", kind)
        injector.on_write("s.write", tmp_path / "t")

    def test_enospc_is_oserror(self, tmp_path):
        with pytest.raises(OSError) as info:
            self._trip(ENOSPC, tmp_path)
        assert info.value.errno == errno.ENOSPC

    def test_eacces_is_permissionerror(self, tmp_path):
        with pytest.raises(PermissionError):
            self._trip(EACCES, tmp_path)

    def test_ioerror_is_oserror(self, tmp_path):
        with pytest.raises(OSError) as info:
            self._trip(IOERROR, tmp_path)
        assert info.value.errno == errno.EIO

    def test_crash_is_not_an_exception_subclass(self, tmp_path):
        # `except Exception` recovery paths must NOT survive a simulated
        # process death — that is the whole point of the kind.
        with pytest.raises(SimulatedCrash) as info:
            self._trip(CRASH, tmp_path)
        assert not isinstance(info.value, Exception)
        assert info.value.site == "s.write"

    def test_torn_invalid_at_write_sites(self, tmp_path):
        injector = single_fault("s.write", TORN)
        with pytest.raises(ValueError):
            injector.on_write("s.write", tmp_path / "t")

    def test_only_the_planned_call_faults(self, tmp_path):
        injector = single_fault("s.write", ENOSPC, call_index=1)
        injector.on_write("s.write", tmp_path / "t")  # call 0: clean
        with pytest.raises(OSError):
            injector.on_write("s.write", tmp_path / "t")
        injector.on_write("s.write", tmp_path / "t")  # call 2: clean


class TestReplaceFaults:
    def test_torn_publishes_half_then_dies(self, tmp_path):
        src, dst = tmp_path / "src", tmp_path / "dst"
        src.write_bytes(b"0123456789")
        injector = single_fault("s.replace", TORN)
        with pytest.raises(SimulatedCrash):
            injector.on_replace("s.replace", src, dst)
        assert dst.read_bytes() == b"01234"  # truncated AND published
        assert not src.exists()

    def test_crash_leaves_destination_untouched(self, tmp_path):
        src, dst = tmp_path / "src", tmp_path / "dst"
        src.write_bytes(b"payload")
        injector = single_fault("s.replace", CRASH)
        with pytest.raises(SimulatedCrash):
            injector.on_replace("s.replace", src, dst)
        assert not dst.exists()
        assert src.exists()

    def test_clean_call_requests_the_replace(self, tmp_path):
        # No fault: the hook returns and leaves the replace to its caller.
        src, dst = tmp_path / "src", tmp_path / "dst"
        src.write_bytes(b"payload")
        injector = IoFaultInjector()
        injector.on_replace("s.replace", src, dst)
        assert src.read_bytes() == b"payload"
        assert not dst.exists()
        assert injector.observed == [("s.replace", 0, None)]


class TestRecording:
    def test_every_invocation_observed(self, tmp_path):
        injector = IoFaultInjector()
        injector.on_write("a.write", tmp_path / "t")
        injector.on_replace("b.replace", tmp_path / "s", tmp_path / "d")
        assert injector.observed == [("a.write", 0, None),
                                     ("b.replace", 0, None)]
        assert injector.observed_sites() == {"a.write", "b.replace"}
        assert injector.fired() == []

    def test_fired_lists_only_faults(self, tmp_path):
        injector = single_fault("a.write", ENOSPC, call_index=1)
        injector.on_write("a.write", tmp_path / "t")
        with pytest.raises(OSError):
            injector.on_write("a.write", tmp_path / "t")
        assert injector.fired() == [("a.write", 1, ENOSPC)]


class TestActivation:
    def test_inert_without_injection(self, tmp_path):
        # No active injector: the hooks are no-ops and writes succeed.
        target = tmp_path / "out.txt"
        atomic_write_text(target, "hello", site="s")
        assert target.read_text() == "hello"

    def test_nested_injection_rejected(self):
        with iofaults.inject(IoFaultInjector()):
            with pytest.raises(RuntimeError):
                with iofaults.inject(IoFaultInjector()):
                    pass

    def test_injector_uninstalled_after_crash(self, tmp_path):
        with pytest.raises(SimulatedCrash):
            with iofaults.inject(single_fault("s.write", CRASH)):
                iofaults.trip_write("s.write", tmp_path / "t")
        assert iofaults.active_injector() is None

    def test_cache_put_survives_enospc(self, tmp_path):
        # The documented contract: a failed cache write is swallowed and
        # the freshly computed result survives.
        cache = ResultCache(tmp_path)
        arrays = {"x": np.ones(4)}
        with iofaults.inject(single_fault("cache.payload.write", ENOSPC)):
            cache.put({"seed": 1}, arrays)  # must not raise
        assert cache.get({"seed": 1}) is None  # nothing half-written

    def test_cache_put_cannot_swallow_a_crash(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(SimulatedCrash):
            with iofaults.inject(single_fault("cache.payload.write", CRASH)):
                cache.put({"seed": 1}, {"x": np.ones(4)})

    def test_torn_cache_publish_is_caught_on_read(self, tmp_path):
        # The digest/orphan machinery must catch exactly the failure
        # mode TORN models: truncated bytes under the final name.
        cache = ResultCache(tmp_path)
        with pytest.raises(SimulatedCrash):
            with iofaults.inject(
                    single_fault("cache.payload.replace", TORN)):
                cache.put({"seed": 1}, {"x": np.ones(64)})
        recovered = ResultCache(tmp_path)
        assert recovered.get({"seed": 1}) is None
        assert recovered.quarantined == 1
