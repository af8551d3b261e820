"""Retry ladders, failure records, crash recovery (``runtime.resilience``)."""

import pytest

from repro import obs
from repro.config import RunConfig
from repro.errors import ConvergenceError, ParallelMapError
from repro.runtime.resilience import (
    FailureRecord,
    quarantine,
    recover_parallel,
    run_ladder,
)


@pytest.fixture(autouse=True)
def _clean_state():
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _failing(n_failures, value="ok"):
    """Thunk factory: fail the first ``n_failures`` calls, then succeed."""
    calls = {"n": 0}

    def thunk():
        calls["n"] += 1
        if calls["n"] <= n_failures:
            raise ConvergenceError(f"attempt {calls['n']} failed",
                                   residual=0.5)
        return value

    return thunk


class TestEnvDefaults:
    def test_strict_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_STRICT", raising=False)
        assert RunConfig.from_env().strict is False
        monkeypatch.setenv("REPRO_STRICT", "1")
        assert RunConfig.from_env().strict is True
        monkeypatch.setenv("REPRO_STRICT", "off")
        assert RunConfig.from_env().strict is False


class TestRunLadder:
    def test_first_rung_succeeds_without_counters(self):
        obs.enable()
        result, tried = run_ladder([("base", _failing(0))], site="scf")
        assert result == "ok"
        assert tried == ["base"]
        counters = obs.snapshot()["counters"]
        assert "resilience.retries" not in counters

    def test_escalation_counts_retries(self):
        obs.enable()
        thunk = _failing(1)
        result, tried = run_ladder([("base", thunk), ("retry", thunk)],
                                   site="scf", counter="scf.retries")
        assert result == "ok"
        assert tried == ["base", "retry"]
        counters = obs.snapshot()["counters"]
        assert counters["resilience.retries"] == 1
        assert counters["scf.retries"] == 1

    def test_exhaustion_reraises_with_context(self):
        obs.enable()
        thunk = _failing(10)
        with pytest.raises(ConvergenceError) as err:
            run_ladder([("a", thunk), ("b", thunk)], site="sr")
        assert err.value.context["ladder_site"] == "sr"
        assert err.value.context["rungs_tried"] == ["a", "b"]
        assert obs.snapshot()["counters"]["resilience.exhausted"] == 1

    def test_non_convergence_error_propagates_immediately(self):
        def boom():
            raise RuntimeError("not a convergence problem")

        with pytest.raises(RuntimeError):
            run_ladder([("a", boom), ("b", _failing(0))], site="scf")

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            run_ladder([], site="scf")


class TestFailureRecord:
    def test_from_exception_pulls_context_and_residual(self):
        exc = ConvergenceError("no luck", residual=1e-3,
                               context={"solver": "scf",
                                        "rungs_tried": ["a", "b"]})
        record = FailureRecord.from_exception(
            exc, site="scf", index=7, coords=(1, 2),
            bias={"vg": 0.1, "vd": 0.2})
        assert record.error == "ConvergenceError"
        assert record.index == 7
        assert record.coords == (1, 2)
        assert record.rungs_tried == ("a", "b")
        assert record.residual == pytest.approx(1e-3)
        assert "rungs_tried" not in record.context
        assert record.context["solver"] == "scf"

    def test_quarantine_records_to_obs(self):
        obs.enable()
        record = quarantine(ConvergenceError("x"), site="scf", index=5)
        assert record.index == 5
        snap = obs.snapshot()
        assert snap["counters"]["resilience.quarantined"] == 1
        assert snap["failures"][0]["index"] == 5


class TestRecoverParallel:
    def test_recomputes_only_missing_chunks(self):
        obs.enable()
        err = ParallelMapError("pool died",
                               completed={0: "r0", 1: "r1", 4: "r4"},
                               failed={2: "crash"}, n_tasks=5,
                               n_cancelled=1)
        recomputed = []

        def fn(task):
            recomputed.append(task)
            return f"re-{task}"

        results = recover_parallel(err, fn, ["t0", "t1", "t2", "t3", "t4"])
        assert results == ["r0", "r1", "re-t2", "re-t3", "r4"]
        assert recomputed == ["t2", "t3"]
        counters = obs.snapshot()["counters"]
        assert counters["resilience.worker_crash_recoveries"] == 1
        assert counters["resilience.rows_recomputed"] == 2
