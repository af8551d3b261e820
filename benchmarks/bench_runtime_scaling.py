"""Runtime scaling: serial vs parallel sweeps and cold vs warm cache.

Measures the two pillars of :mod:`repro.runtime` on a full
``build_device_table`` sweep (the hottest path in the repo — every
circuit-level experiment starts from one):

* **parallel scaling** — the same grid swept with 1 worker and with
  ``REPRO_WORKERS`` (default 4) workers; on a 4-core runner the speedup
  target is >= 2x (asserted only when the host actually has >= 4 cores,
  since a single-core container timeshares the pool);
* **cache scaling** — a cold build (empty ``REPRO_CACHE_DIR``) vs a warm
  rebuild in a fresh in-process state, target >= 10x.

The measured numbers land in ``benchmarks/output/runtime_scaling.txt``
so the speedups are tracked artifacts.  Smoke mode for CI: set
``REPRO_BENCH_SMOKE=1`` to shrink the grid (the assertions are
unchanged; only the wall-clock shrinks).
"""

import os
import time

import numpy as np

from repro.config import CACHE_DIR_ENV, RunConfig
from repro.device.geometry import GNRFETGeometry
from repro.device.iv import sweep_iv
from repro.device.tables import build_device_table, clear_table_cache
from repro.runtime import resolve_workers

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

if SMOKE:
    VG_GRID = np.round(np.arange(0.0, 0.4001, 0.1), 10)
    VD_GRID = np.array([0.0, 0.25, 0.5])
else:
    VG_GRID = np.round(np.arange(-0.40, 1.1001, 0.05), 10)
    VD_GRID = np.round(np.arange(0.0, 0.7501, 0.05), 10)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_runtime_scaling(tmp_path, monkeypatch, save_report):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    workers = max(2, resolve_workers(None)) if SMOKE else max(
        4, resolve_workers(None))
    cores = os.cpu_count() or 1

    # --- parallel scaling (cache bypassed so both runs really sweep) ----
    geom = GNRFETGeometry()
    serial_sweep, t_serial = _timed(
        lambda: sweep_iv(geom, VG_GRID, VD_GRID, config=RunConfig()))
    parallel_sweep, t_parallel = _timed(
        lambda: sweep_iv(geom, VG_GRID, VD_GRID,
                         config=RunConfig(workers=workers)))
    assert np.array_equal(serial_sweep.current_a, parallel_sweep.current_a)
    speedup = t_serial / max(t_parallel, 1e-9)

    # --- cache scaling --------------------------------------------------
    clear_table_cache(disk=True)
    cold, t_cold = _timed(
        lambda: build_device_table(geom, VG_GRID, VD_GRID))
    clear_table_cache(disk=False)  # drop in-process layer, keep disk
    warm, t_warm = _timed(
        lambda: build_device_table(geom, VG_GRID, VD_GRID))
    assert np.array_equal(cold.current_a, warm.current_a)
    cache_speedup = t_cold / max(t_warm, 1e-9)

    report = "\n".join([
        "runtime scaling: build_device_table sweep "
        f"({VG_GRID.size}x{VD_GRID.size} bias points"
        f"{', smoke' if SMOKE else ''})",
        f"host cores:            {cores}",
        f"pool workers:          {workers}",
        "",
        f"serial sweep:          {t_serial:8.3f} s",
        f"parallel sweep:        {t_parallel:8.3f} s   "
        f"({speedup:.2f}x vs serial)",
        f"cold-cache build:      {t_cold:8.3f} s",
        f"warm-cache rebuild:    {t_warm:8.3f} s   "
        f"({cache_speedup:.1f}x vs cold)",
        "",
        "parallel grids bit-identical to serial: True",
        "warm table bit-identical to cold:       True",
    ])
    save_report("runtime_scaling", report)

    assert cache_speedup >= 10.0, (
        f"warm-cache rebuild only {cache_speedup:.1f}x faster than cold")
    if cores >= 4 and not SMOKE:
        assert speedup >= 2.0, (
            f"parallel sweep only {speedup:.2f}x faster on {cores} cores")
