"""FaultInjector: deterministic, clock-free, picklable."""

import pickle

import pytest

from repro.util.faults import FaultInjector, InjectedFault, always_failing


class TestFaultInjector:
    def test_inert_by_default(self):
        injector = FaultInjector()
        assert not injector.should_fail("e", 0, 1)
        injector.check_chunk("e", 0, 1)  # must not raise

    def test_fail_first_attempts(self):
        injector = FaultInjector(fail_first_attempts=1)
        assert injector.should_fail("e", 3, 1)
        assert not injector.should_fail("e", 3, 2)

    def test_explicit_failure_triples(self):
        injector = FaultInjector(failures={("e", 2, 1), ("e", 2, 2)})
        assert injector.should_fail("e", 2, 1)
        assert injector.should_fail("e", 2, 2)
        assert not injector.should_fail("e", 2, 3)
        assert not injector.should_fail("other", 2, 1)

    def test_check_chunk_raises_injected_fault(self):
        injector = FaultInjector(fail_first_attempts=1)
        with pytest.raises(InjectedFault, match="chunk=4 attempt=1"):
            injector.check_chunk("e", 4, 1)

    def test_pool_break_rounds(self):
        injector = FaultInjector(pool_break_rounds={0, 2})
        assert injector.should_break_pool(0)
        assert not injector.should_break_pool(1)
        assert injector.should_break_pool(2)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(fail_first_attempts=-1)

    def test_picklable_across_process_boundary(self):
        injector = FaultInjector(fail_first_attempts=1,
                                 failures={("e", 1, 2)},
                                 pool_break_rounds={0})
        clone = pickle.loads(pickle.dumps(injector))
        assert clone == injector
        assert clone.should_fail("e", 1, 2)

    def test_always_failing_helper(self):
        injector = always_failing("e", 5, max_attempts=2)
        assert injector.should_fail("e", 5, 1)
        assert injector.should_fail("e", 5, 2)
        assert not injector.should_fail("e", 5, 3)
        assert not injector.should_fail("e", 4, 1)
