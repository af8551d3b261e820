"""Runtime scaling: experiments on 1 vs N workers, cold vs warm cache.

Measures the two pillars of :mod:`repro.runtime`:

* **parallel scaling** — ``runner.measure`` of two cheap fast
  experiments from an empty cache with ``REPRO_WORKERS`` (default 4)
  workers and with 1.  Whole experiments are the unit of parallel work,
  so the figures of merit must be equal, and with two experiments the
  pool can at best halve the time; on a host with >= 4 cores the
  speedup target is >= 1.3x (asserted only there and outside smoke
  mode, since a small container timeshares the pool);
* **cache scaling** — a cold build of the default 31 x 16 nominal table
  (empty ``REPRO_CACHE_DIR``) vs a warm rebuild from disk in a fresh
  in-process state, target >= 10x; both builds are traced, and the warm
  rebuild must solve no bias point.

The measured numbers land in ``benchmarks/output/runtime_scaling.txt``
so the speedups are tracked artifacts.  ``REPRO_BENCH_SMOKE=1`` (CI)
runs the same measurements with at least 2 workers and skips only the
parallel speed assertion.
"""

import os
import time

import numpy as np

from repro import obs
from repro.characterize.runner import measure
from repro.config import CACHE_DIR_ENV, RunConfig
from repro.device.geometry import GNRFETGeometry
from repro.device.tables import build_device_table, clear_table_cache
from repro.runtime import resolve_workers

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: Two cheap fast experiments that build their own small tables.
IDS = ["fig4", "ext-temperature"]


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _traced_bias_points(fn):
    """``(result, seconds, device.bias_points)`` of one traced call."""
    obs.enable()
    obs.reset()
    try:
        result, seconds = _timed(fn)
        points = obs.snapshot()["counters"].get("device.bias_points", 0)
    finally:
        obs.disable()
        obs.reset()
    return result, seconds, points


def test_runtime_scaling(tmp_path, monkeypatch, save_report):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    workers = max(2, resolve_workers(None)) if SMOKE else max(
        4, resolve_workers(None))
    cores = os.cpu_count() or 1

    # --- parallel scaling (both runs from an empty cache) -------------
    # The pooled run goes first: its workers warm no memo of this
    # process, so the serial run starts as cold as it did.
    clear_table_cache(disk=True)
    (pooled, _), t_parallel = _timed(lambda: measure(
        IDS, fast=True, config=RunConfig(workers=workers, cache_dir=tmp_path)))
    clear_table_cache(disk=True)
    (serial, _), t_serial = _timed(lambda: measure(
        IDS, fast=True, config=RunConfig(cache_dir=tmp_path)))
    assert serial == pooled
    speedup = t_serial / max(t_parallel, 1e-9)

    # --- cache scaling (default 31 x 16 nominal table) ----------------
    geom = GNRFETGeometry()
    clear_table_cache(disk=True)
    cold, t_cold, cold_points = _traced_bias_points(
        lambda: build_device_table(geom))
    clear_table_cache(disk=False)  # drop in-process layer, keep disk
    warm, t_warm, warm_points = _traced_bias_points(
        lambda: build_device_table(geom))
    assert np.array_equal(cold.current_a, warm.current_a)
    assert cold_points == cold.current_a.size
    assert warm_points == 0
    cache_speedup = t_cold / max(t_warm, 1e-9)

    report = "\n".join([
        f"runtime scaling{' (smoke)' if SMOKE else ''}",
        f"host cores:            {cores}",
        f"pool workers:          {workers}",
        "",
        f"experiments {','.join(IDS)} (fast, empty cache):",
        f"  serial:              {t_serial:8.3f} s",
        f"  {workers} workers:           {t_parallel:8.3f} s   "
        f"({speedup:.2f}x vs serial)",
        f"nominal table {cold.current_a.shape[0]}x{cold.current_a.shape[1]}:",
        f"  cold-cache build:    {t_cold:8.3f} s   "
        f"({cold_points} bias points)",
        f"  warm-cache rebuild:  {t_warm:8.4f} s   "
        f"({cache_speedup:.1f}x vs cold, {warm_points} bias points)",
        "",
        "figures of merit equal at 1 and N workers: True",
        "warm table bit-identical to cold:          True",
    ])
    save_report("runtime_scaling", report)

    assert cache_speedup >= 10.0, (
        f"warm-cache rebuild only {cache_speedup:.1f}x faster than cold")
    if cores >= 4 and not SMOKE:
        assert speedup >= 1.3, (
            f"two experiments only {speedup:.2f}x faster on {workers} "
            f"workers ({cores} cores)")
