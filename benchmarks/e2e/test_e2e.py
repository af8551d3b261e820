"""Tests of the end-to-end benchmark: tracer, inputs, schema, gate.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import random
import re
import sys
import types

import pytest

import compare
import layers
import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class FakeClock:
    """Advances by one second per read, so every span length is exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


@pytest.fixture()
def fake_modules():
    """``repro._e2e_a`` defines functions and a class; ``repro._e2e_b``
    holds an alias bound as ``from repro._e2e_a import leaf``."""
    a = types.ModuleType("repro._e2e_a")

    def leaf(x):
        return x + 1

    def middle(x):
        return a.leaf(x) + a.leaf(x)

    def outer(x):
        return a.middle(x) * 2

    class Engine:
        def step(self, x):
            return a.leaf(x)

        @classmethod
        def build(cls):
            return cls()

    a.leaf, a.middle, a.outer, a.Engine = leaf, middle, outer, Engine
    b = types.ModuleType("repro._e2e_b")
    b.leaf = leaf
    sys.modules[a.__name__] = a
    sys.modules[b.__name__] = b
    try:
        yield a, b
    finally:
        del sys.modules[a.__name__], sys.modules[b.__name__]


def fake_tracer(clock=None) -> layers.Tracer:
    return layers.Tracer(
        boundaries=(
            layers.Boundary("top.outer", "repro._e2e_a:outer"),
            layers.Boundary("mid.middle", "repro._e2e_a:middle"),
            layers.Boundary("low.leaf", "repro._e2e_a:leaf"),
            layers.Boundary("low.step", "repro._e2e_a:Engine.step"),
            layers.Boundary("low.build", "repro._e2e_a:Engine.build"),
        ),
        count_only=(), clock=clock or FakeClock())


# --------------------------------------------------------------------- #
# tracer
# --------------------------------------------------------------------- #
def test_self_time_of_nested_calls(fake_modules):
    a, _ = fake_modules
    with fake_tracer() as tracer:
        assert a.outer(1) == 8
    # Clock reads: outer 1 | middle 2 | leaf 3,4 | leaf 5,6 | middle 7 |
    # outer 8: outer lasts 7 s around a 5 s middle, which holds 2 x 1 s.
    assert tracer.self_s == {"low.leaf": 2.0, "mid.middle": 3.0,
                             "top.outer": 2.0}
    assert [s[0] for s in tracer.spans] == [
        "top.outer", "mid.middle", "low.leaf", "low.leaf"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1]
    summary = tracer.summary(wall_s=10.0)
    assert summary["layer.top.self_s"] == 2.0
    assert summary["layer.mid.self_s"] == 3.0
    assert summary["layer.low.self_s"] == 2.0
    assert summary["unattributed.self_s"] == 3.0
    layer_total = sum(v for k, v in summary.items()
                      if k.startswith("layer."))
    assert layer_total + summary["unattributed.self_s"] == 10.0


def test_install_rebinds_and_restores_every_alias(fake_modules):
    a, b = fake_modules
    originals = (a.leaf, a.middle, a.outer, a.Engine.__dict__["step"],
                 a.Engine.__dict__["build"])
    with fake_tracer() as tracer:
        assert a.leaf is not originals[0]
        assert b.leaf is a.leaf  # the from-import alias is rebound too
        assert a.Engine.__dict__["step"] is not originals[3]
        assert isinstance(a.Engine.__dict__["build"], classmethod)
        assert isinstance(a.Engine.build(), a.Engine)
        assert a.Engine().step(1) == 2
        b.leaf(0)
    assert tracer.self_s["low.build"] > 0
    assert [s[0] for s in tracer.spans].count("low.leaf") == 2
    assert (a.leaf, a.middle, a.outer, a.Engine.__dict__["step"],
            a.Engine.__dict__["build"]) == originals
    assert b.leaf is originals[0]


def test_count_only_counts_outermost_lookup(fake_modules):
    a, _ = fake_modules
    tracer = layers.Tracer(
        boundaries=(),
        count_only=(layers.CountOnly(
            "low.calls", ("repro._e2e_a:middle", "repro._e2e_a:leaf")),))
    with tracer:
        a.middle(1)
        a.leaf(1)
    assert tracer.counts["low.calls"] == 2
    assert tracer.spans == []


def test_scheduler_tasks_land_in_the_handing_layer(fake_modules):
    a, _ = fake_modules
    a.run_tasks = lambda fn, items: [fn(i) for i in items]
    a.leaf.__module__ = "repro.mid._e2e"
    tracer = layers.Tracer(
        boundaries=(layers.Boundary("top.run", "repro._e2e_a:run_tasks",
                                    task_arg=0),
                    layers.Boundary("mid.tasks", "")),
        count_only=(), clock=FakeClock())
    with tracer:
        assert a.run_tasks(a.leaf, [1, 2]) == [2, 3]
    assert [s[0] for s in tracer.spans] == ["top.run", "mid.tasks",
                                            "mid.tasks"]
    assert tracer.self_s["mid.tasks"] == 2.0


def test_tail_quantile_keeps_ten_samples_beyond():
    assert layers.tail_quantile(99) is None
    assert layers.tail_quantile(100) == 0.9
    assert layers.tail_quantile(999) == 0.9
    assert layers.tail_quantile(1000) == 0.99
    assert layers.tail_quantile(10_000) == 0.999


# --------------------------------------------------------------------- #
# inputs and schema
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_seed_permutation_is_deterministic_and_complete(workload):
    ids = run.WORKLOADS[workload].ids
    orders = [run.experiment_order(workload, random.Random(7))
              for _ in range(2)]
    assert orders[0] == orders[1]
    assert sorted(orders[0]) == sorted(ids)
    seen = {tuple(run.experiment_order(workload, random.Random(s)))
            for s in range(40)}
    assert len(seen) > 1 or len(ids) == 1
    rounds = run.workload_order(list(run.WORKLOADS), 3, 1)
    assert rounds == run.workload_order(list(run.WORKLOADS), 3, 1)
    assert sorted(rounds) == sorted(run.WORKLOADS)


def test_names_match_benchmark_json():
    bench = json.loads(run.BENCHMARK_JSON.read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.E2E_METRICS)
    assert [m["unit"] for m in bench["end_to_end"]] == list(
        run.E2E_METRICS.values())
    names = layers.metric_names(run.EXPERIMENT_IDS)
    assert [m["name"] for m in bench["per_layer"]] == names
    for m in bench["per_layer"]:
        assert (m["unit"], m["better"]) == layers.metric_unit(m["name"])
    all_names = names + list(run.E2E_METRICS) + list(run.WORKLOADS)
    assert all(NAME.match(n) for n in all_names)
    assert len(set(all_names)) == len(all_names)
    assert 2 <= len(bench["workloads"]) <= 8
    assert len(bench["end_to_end"]) <= 16
    assert len(bench["per_layer"]) <= 128
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert bench["paths"] == ["benchmarks/e2e"]


# --------------------------------------------------------------------- #
# comparison gate
# --------------------------------------------------------------------- #
def _set(values: dict[str, list[float]], failed: int = 0) -> dict:
    n = len(next(iter(values.values())))
    runs = [{"attempted": 10, "failed": failed if i == 0 else 0,
             "metrics": {m: v[i] for m, v in values.items()}}
            for i in range(n)]
    return {"workloads": {"w": {"runs": runs}}}


def _steady(scale: float = 1.0) -> dict[str, list[float]]:
    return {m: [scale * (10.0 + 0.01 * i) for i in range(10)]
            for m in run.E2E_METRICS}


def _verdicts(base: dict, new: dict) -> tuple[dict, bool]:
    bench = json.loads(run.BENCHMARK_JSON.read_text())
    rows, ok = compare.compare(base, new, bench)
    return {r["metric"]: r["verdict"] for r in rows}, ok


def test_compare_flags_regression_beyond_bound():
    verdicts, ok = _verdicts(_set(_steady()), _set(_steady(1.3)))
    assert verdicts["wall_s"] == "regressed"
    assert verdicts["setup_s"] == "regressed"
    assert not ok
    verdicts, ok = _verdicts(_set(_steady()), _set(_steady(1.05)))
    assert verdicts["wall_s"] == "flat" and ok
    verdicts, ok = _verdicts(_set(_steady()), _set(_steady(0.8)))
    assert verdicts["wall_s"] == "improved" and ok


def test_compare_reports_unresolved_spread():
    noisy = _steady()
    noisy["wall_s"] = [10.0, 14.0] * 5
    verdicts, ok = _verdicts(_set(noisy), _set(_steady(1.02)))
    assert verdicts["wall_s"] == "unresolved" and ok
    verdicts, _ = _verdicts(_set(noisy), _set(_steady(0.5)))
    assert verdicts["wall_s"] == "improved"


def test_compare_fails_on_fail_frac_rise(tmp_path):
    verdicts, ok = _verdicts(_set(_steady()), _set(_steady(), failed=1))
    assert verdicts["fail_frac"] == "regressed" and not ok
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(_set(_steady())))
    new.write_text(json.dumps(_set(_steady(), failed=1)))
    assert compare.main([str(base), str(new)]) == 1
    assert compare.main([str(base), str(base)]) == 0


# --------------------------------------------------------------------- #
# end to end
# --------------------------------------------------------------------- #
def test_driver_smoke_run(tmp_path, monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "smoke",
                        run.Workload(("fig7", "table1"), "fast", warm=False))
    record = run.run_workload("smoke", seed=0, seconds=0.0, trace=False,
                              warm_dir=tmp_path)
    line = json.loads(run.result_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] == 12  # fig7: 4 + table1: 8 figures of merit
    assert set(line["metrics"]) == set(run.E2E_METRICS)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == run.E2E_METRICS[name]
        assert isinstance(metric["value"], float) and metric["value"] > 0


def test_every_boundary_is_reached_in_the_baseline():
    baseline = json.loads((run.BASELINE_DIR / "setA.json").read_text())
    traced = [w["traced"]["metrics"] for w in baseline["workloads"].values()]
    unreached = [b.name for b in layers.BOUNDARIES
                 if not any(t[f"{b.name}.calls"] >= 1 for t in traced)]
    assert unreached == []
