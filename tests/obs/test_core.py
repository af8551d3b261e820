"""Core recorder semantics: flag, spans, metrics, drain/absorb."""

from __future__ import annotations

from repro import obs
from repro.config import RunConfig
from repro.runtime import parallel_map


def _worker_flag(_item):
    """Module-level so it pickles: the tracing flag a pool worker sees."""
    return obs.ACTIVE


class TestFlag:
    def test_disabled_by_default(self):
        assert obs.ACTIVE is False
        assert obs.active() is False

    def test_enable_reaches_workers(self):
        obs.enable()
        assert obs.ACTIVE is True
        assert parallel_map(_worker_flag, [0, 1], workers=2) == [True, True]
        obs.disable()
        assert obs.ACTIVE is False
        assert parallel_map(_worker_flag, [0, 1], workers=2) == [False, False]
        obs.reset()

    def test_falsey_env_values_stay_disabled(self):
        for value in ("", "0", "false", "OFF", "No"):
            assert RunConfig.from_env({"REPRO_TRACE": value}).trace is False


class TestDisabledPath:
    def test_span_returns_the_null_singleton(self):
        # Identity, not just equality: the disabled path allocates nothing.
        assert obs.span("a") is obs.span("b", vg=0.4) is obs.NULL_SPAN

    def test_nothing_is_recorded_while_disabled(self):
        with obs.span("outer"):
            obs.incr("n.things")
            obs.gauge("g", 1.0)
            obs.observe("h", 2.0)
        snap = obs.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}
        assert snap["spans"] == {}


class TestSpans:
    def test_paths_nest_by_slash(self):
        obs.enable()
        with obs.span("a"):
            with obs.span("b"):
                with obs.span("c"):
                    pass
            with obs.span("b"):
                pass
        spans = obs.snapshot()["spans"]
        assert spans["a"]["count"] == 1
        assert spans["a/b"]["count"] == 2
        assert spans["a/b/c"]["count"] == 1
        assert obs.current_recorder().stack == []

    def test_durations_accumulate(self):
        obs.enable()
        for _ in range(3):
            with obs.span("tick"):
                pass
        s = obs.snapshot()["spans"]["tick"]
        assert s["count"] == 3
        assert s["total_s"] >= s["max_s"] >= s["min_s"] >= 0.0

    def test_attrs_last_wins(self):
        obs.enable()
        with obs.span("solve", vg=0.1):
            pass
        with obs.span("solve", vg=0.2, vd=0.5):
            pass
        attrs = obs.snapshot()["spans"]["solve"]["attrs"]
        assert attrs == {"vg": 0.2, "vd": 0.5}

    def test_exception_still_closes_span(self):
        obs.enable()
        try:
            with obs.span("outer"):
                with obs.span("boom"):
                    raise RuntimeError("x")
        except RuntimeError:
            pass
        spans = obs.snapshot()["spans"]
        assert spans["outer/boom"]["count"] == 1
        assert obs.current_recorder().stack == []


class TestMetrics:
    def test_counters_accumulate(self):
        obs.enable()
        obs.incr("scf.solves")
        obs.incr("scf.solves")
        obs.incr("scf.iterations", 12)
        counters = obs.snapshot()["counters"]
        assert counters["scf.solves"] == 2
        assert counters["scf.iterations"] == 12

    def test_gauges_last_wins(self):
        obs.enable()
        obs.gauge("temp", 1.0)
        obs.gauge("temp", 3.0)
        assert obs.snapshot()["gauges"]["temp"] == 3.0

    def test_histogram_statistics_are_exact(self):
        obs.enable()
        for v in (5.0, 1.0, 3.0):
            obs.observe("iters", v)
        h = obs.snapshot()["histograms"]["iters"]
        assert h["count"] == 3
        assert h["total"] == 9.0
        assert h["min"] == 1.0
        assert h["max"] == 5.0
        assert h["values"] == [5.0, 1.0, 3.0]

    def test_histogram_values_cap_but_stats_stay_exact(self):
        obs.enable()
        n = obs.HISTOGRAM_VALUE_CAP + 10
        for i in range(n):
            obs.observe("big", float(i))
        h = obs.snapshot()["histograms"]["big"]
        assert h["count"] == n
        assert h["max"] == float(n - 1)
        assert len(h["values"]) == obs.HISTOGRAM_VALUE_CAP



class TestDrainAbsorb:
    def test_drain_clears_the_recorder(self):
        obs.enable()
        obs.incr("n", 4)
        payload = obs.drain()
        assert payload["counters"]["n"] == 4
        assert obs.snapshot()["counters"] == {}

    def test_absorb_nests_under_the_open_span(self):
        obs.enable()
        obs.incr("work.items", 2)
        with obs.span("work.item"):
            pass
        payload = obs.drain()

        with obs.span("parent"):
            obs.absorb(payload)
        snap = obs.snapshot()
        assert snap["counters"]["work.items"] == 2
        assert snap["spans"]["parent/work.item"]["count"] == 1

    def test_absorb_without_nesting_keeps_paths(self):
        obs.enable()
        with obs.span("work.item"):
            pass
        payload = obs.drain()
        with obs.span("parent"):
            obs.absorb(payload, nest=False)
        assert "work.item" in obs.snapshot()["spans"]

    def test_absorb_none_is_a_noop(self):
        obs.enable()
        obs.absorb(None)
        assert obs.snapshot()["counters"] == {}

    def test_merge_is_order_independent_for_counters(self):
        obs.enable()
        obs.incr("n", 1)
        obs.observe("h", 2.0)
        a = obs.drain()
        obs.incr("n", 5)
        obs.observe("h", 7.0)
        b = obs.drain()

        obs.absorb(a)
        obs.absorb(b)
        fwd = obs.drain()
        obs.absorb(b)
        obs.absorb(a)
        rev = obs.drain()
        assert fwd["counters"] == rev["counters"] == {"n": 6}
        for snap in (fwd, rev):
            h = snap["histograms"]["h"]
            assert (h["count"], h["total"], h["min"], h["max"]) == \
                (2, 9.0, 2.0, 7.0)
