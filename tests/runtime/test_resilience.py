"""Retry ladders, failure records, checkpoints (``runtime.resilience``)."""

import numpy as np
import pytest

from repro import obs
from repro.config import RunConfig
from repro.errors import CheckpointError, ConvergenceError, ParallelMapError
from repro.runtime.cache import ArtifactCache
from repro.runtime import faults
from repro.runtime.resilience import (
    FailureRecord,
    SweepCheckpoint,
    decode_failures,
    encode_failures,
    quarantine,
    recover_parallel,
    run_ladder,
)


@pytest.fixture(autouse=True)
def _clean_state():
    faults.disable()
    obs.reset()
    yield
    faults.disable()
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

    def test_checkpoint_interval(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKPOINT", raising=False)
        assert RunConfig.from_env().checkpoint == 0
        monkeypatch.setenv("REPRO_CHECKPOINT", "5")
        assert RunConfig.from_env().checkpoint == 5
        monkeypatch.setenv("REPRO_CHECKPOINT", "yes")
        assert RunConfig.from_env().checkpoint == 1
        monkeypatch.setenv("REPRO_CHECKPOINT", "0")
        assert RunConfig.from_env().checkpoint == 0

    def test_resume_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESUME", raising=False)
        assert RunConfig.from_env().resume is False
        monkeypatch.setenv("REPRO_RESUME", "1")
        assert RunConfig.from_env().resume is True


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

    def test_dict_round_trip(self):
        record = FailureRecord(site="scf", error="ConvergenceError",
                               message="m", index=3, coords=(0, 1),
                               bias={"vg": 0.4}, rungs_tried=("warm",),
                               residual=0.25, context={"injected": True})
        assert FailureRecord.from_dict(record.to_dict()) == record

    def test_encode_decode_array_round_trip(self):
        records = (FailureRecord(site="scf", error="E", message="m",
                                 index=0),
                   FailureRecord(site="sr", error="E", message="n",
                                 index=4, coords=(2,)))
        assert decode_failures(encode_failures(records)) == records

    def test_quarantine_records_to_obs(self):
        obs.enable()
        record = quarantine(ConvergenceError("x"), site="scf", index=5)
        assert record.index == 5
        snap = obs.snapshot()
        assert snap["counters"]["resilience.quarantined"] == 1
        assert snap["failures"][0]["index"] == 5


class TestSweepCheckpoint:
    @pytest.fixture()
    def cache(self, tmp_path):
        return ArtifactCache("checkpoints", root=tmp_path, enabled=True)

    def test_save_load_round_trip(self, cache):
        ckpt = SweepCheckpoint("key1", interval=2, cache=cache)
        done = np.array([True, False, True])
        arrays = {"a": np.arange(3.0)}
        failures = (FailureRecord(site="scf", error="E", message="m",
                                  index=1),)
        ckpt.save(done, arrays, failures)
        loaded = ckpt.load()
        assert loaded is not None
        got_done, got_arrays, got_failures = loaded
        assert np.array_equal(got_done, done)
        assert np.array_equal(got_arrays["a"], arrays["a"])
        assert got_failures == failures

    def test_due_counts_interval(self, cache):
        ckpt = SweepCheckpoint("key2", interval=2, cache=cache)
        assert not ckpt.due()
        assert ckpt.due()
        assert ckpt.due()  # still due until a save resets the counter
        ckpt.save(np.array([True]), {})
        assert not ckpt.due()
        assert ckpt.due()

    def test_disabled_interval_never_due_never_writes(self, cache):
        ckpt = SweepCheckpoint("key3", interval=0, cache=cache)
        assert not ckpt.enabled
        assert not ckpt.due()
        ckpt.save(np.array([True]), {"a": np.zeros(1)})
        assert ckpt.load() is None

    def test_reserved_array_names_rejected(self, cache):
        ckpt = SweepCheckpoint("key4", interval=1, cache=cache)
        with pytest.raises(CheckpointError):
            ckpt.save(np.array([True]), {"__done__": np.zeros(1)})

    def test_injected_write_fault_preserves_previous_snapshot(self, cache):
        ckpt = SweepCheckpoint("key5", interval=1, cache=cache)
        ckpt.save(np.array([True, False]), {"a": np.array([1.0, 0.0])})
        faults.enable("checkpoint@1")  # second write (ordinal 1) dies
        with pytest.raises(CheckpointError):
            ckpt.save(np.array([True, True]), {"a": np.array([1.0, 2.0])})
        loaded = ckpt.load()
        assert loaded is not None
        assert np.array_equal(loaded[0], [True, False])

    def test_clear_removes_snapshot(self, cache):
        ckpt = SweepCheckpoint("key6", interval=1, cache=cache)
        ckpt.save(np.array([True]), {})
        ckpt.clear()
        assert ckpt.load() is None


class TestRecoverParallel:
    def test_recomputes_only_missing_chunks(self):
        obs.enable()
        err = ParallelMapError("pool died",
                               completed={0: ["r0", "r1"], 2: ["r4"]},
                               failed={1: "crash"}, n_chunks=3,
                               n_cancelled=0, chunk_size=2)
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
