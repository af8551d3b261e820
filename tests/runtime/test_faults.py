"""Deterministic fault-injection plans (``repro.runtime.faults``)."""

import pytest

from repro.errors import ConvergenceError
from repro.runtime import faults, parallel_map


def _worker_plan(_item):
    """Module-level so it pickles: the plan a pool worker sees."""
    return faults.ACTIVE, faults.SPEC


@pytest.fixture(autouse=True)
def _disarm():
    """Every test starts and ends with no fault plan armed."""
    faults.disable()
    yield
    faults.disable()


class TestParseSpec:
    def test_single_clause(self):
        assert faults.parse_spec("scf@3") == {("scf", 3): None}

    def test_multiple_indices_and_sites(self):
        plan = faults.parse_spec("scf@3,17,40;worker@1")
        assert plan == {("scf", 3): None, ("scf", 17): None,
                        ("scf", 40): None, ("worker", 1): None}

    def test_attempt_cap(self):
        assert faults.parse_spec("scf@5x2") == {("scf", 5): 2}

    def test_whitespace_tolerated(self):
        assert faults.parse_spec(" scf@1 ; worker@0 ") == {
            ("scf", 1): None, ("worker", 0): None}

    @pytest.mark.parametrize("bad", [
        "bogus@1", "scf", "scf@", "scf@x2", "scf@1x0", "scf@-1",
        "scf@1.5", "scf@1,,2", "host@0", "stall@1", "lease@2", "sr@5",
        "checkpoint@1",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            faults.parse_spec(bad)


class TestArming:
    def test_enable_arms_workers_and_flag(self):
        faults.enable("scf@2")
        assert faults.ACTIVE
        assert parallel_map(_worker_plan, [0, 1], workers=2) == [
            (True, "scf@2")] * 2
        faults.disable()
        assert not faults.ACTIVE
        assert parallel_map(_worker_plan, [0, 1], workers=2) == [
            (False, "")] * 2

    def test_should_fire_only_at_armed_indices(self):
        faults.enable("scf@2")
        assert not faults.should_fire("scf", 1)
        assert faults.should_fire("scf", 2)
        assert not faults.should_fire("sr", 2)

    def test_uncapped_fires_every_attempt(self):
        faults.enable("scf@0")
        assert all(faults.should_fire("scf", 0) for _ in range(5))

    def test_capped_lets_later_attempt_succeed(self):
        faults.enable("scf@0x2")
        assert faults.should_fire("scf", 0)
        assert faults.should_fire("scf", 0)
        assert not faults.should_fire("scf", 0)

    def test_reset_attempts_rearms_caps(self):
        faults.enable("scf@0x1")
        assert faults.should_fire("scf", 0)
        assert not faults.should_fire("scf", 0)
        faults.reset_attempts()
        assert faults.should_fire("scf", 0)


class TestInject:
    def test_scf_raises_convergence_error_with_context(self):
        faults.enable("scf@4")
        with pytest.raises(ConvergenceError) as err:
            faults.inject("scf", 4, detail="VG=0.1")
        assert err.value.context["injected"] is True
        assert err.value.context["fault_site"] == "scf"
        assert err.value.context["task_index"] == 4
        assert "VG=0.1" in str(err.value)

    def test_unarmed_index_is_a_noop(self):
        faults.enable("scf@4")
        faults.inject("scf", 5)  # must not raise

