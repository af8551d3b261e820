"""Resilience overhead: disabled hooks must cost nothing measurable.

The resilience layer (:mod:`repro.runtime.resilience` /
:mod:`repro.runtime.faults`) threads two kinds of hooks through the
sweep hot paths: ``if faults.ACTIVE:`` guards in front of every
injectable site, and the retry-ladder wrapper around every ladder
solve.  The design claim — same as the sanitizer's — is that with
faults disabled, a sweep is indistinguishable from the pre-resilience
engine.  This bench pins that claim with the
``bench_sanitizer_overhead`` methodology:

* **micro** — the ``faults.ACTIVE`` guard and a single-rung
  ``run_ladder`` call are timed in tight loops with asserted ceilings;
* **macro** — a small ``sweep_iv`` runs repeatedly with the resilience
  machinery in its disabled state; two runs are asserted mutually
  consistent, and a run with an armed-but-never-firing fault plan (the
  worst realistic case: every guard taken but no injection) must stay
  within noise of the disabled runs.

Smoke mode (``REPRO_BENCH_SMOKE=1``) shrinks the grids for CI; the
assertions are unchanged.
"""

import os
import time
import timeit

import numpy as np

from repro.config import RunConfig
from repro.device.geometry import GNRFETGeometry
from repro.device.iv import sweep_iv
from repro.reporting.tables import format_table
from repro.runtime import faults
from repro.runtime.resilience import run_ladder

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

N_VG = 5 if SMOKE else 9
N_VD = 3 if SMOKE else 5
N_REPEATS = 3 if SMOKE else 5


def _time_sweep(repeats: int) -> list[float]:
    geom = GNRFETGeometry(n_index=12)
    vg = np.linspace(0.0, 0.6, N_VG)
    vd = np.linspace(0.0, 0.5, N_VD)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        sweep_iv(geom, vg, vd, config=RunConfig())
        times.append(time.perf_counter() - start)
    return times


def test_disabled_fault_guard_is_nanoseconds(save_report):
    """``if faults.ACTIVE:`` costs tens of ns when no plan is armed."""
    faults.disable()
    n = 200_000
    per_call = timeit.timeit("faults.ACTIVE and None",
                             globals={"faults": faults},
                             number=n) / n
    assert per_call < 0.5e-6, (
        f"disabled guard costs {per_call * 1e9:.0f} ns/site; "
        "expected tens of nanoseconds")


def test_single_rung_ladder_is_microseconds(save_report):
    """A ladder whose first rung succeeds adds only call overhead."""
    n = 50_000
    per_call = timeit.timeit(
        "run_ladder(rungs, site='scf')",
        globals={"run_ladder": run_ladder,
                 "rungs": [("base", lambda: 1.0)]},
        number=n) / n
    assert per_call < 20e-6, (
        f"single-rung ladder costs {per_call * 1e6:.1f} us/solve; "
        "expected single-digit microseconds")


def test_sweep_overhead(save_report):
    faults.disable()
    assert not faults.ACTIVE

    off_a = min(_time_sweep(N_REPEATS))
    off_b = min(_time_sweep(N_REPEATS))

    # Armed-but-silent plan: every guard branch taken, zero injections
    # (the fault indices sit far outside the grid).
    faults.enable("scf@999999;worker@999999")
    try:
        armed = min(_time_sweep(N_REPEATS))
    finally:
        faults.disable()

    rows = [
        ["disabled (run A)", f"{off_a * 1e3:.1f}", "1.000"],
        ["disabled (run B)", f"{off_b * 1e3:.1f}",
         f"{off_b / max(off_a, 1e-12):.3f}"],
        ["armed, never fires", f"{armed * 1e3:.1f}",
         f"{armed / max(off_a, 1e-12):.3f}"],
    ]
    report = format_table(
        ["configuration", "sweep (ms)", "vs disabled"], rows,
        title=f"Resilience overhead, {N_VG}x{N_VD} sweep_iv "
              "(best of repeated runs)")
    save_report("resilience_overhead", report)
    print(report)

    # Two disabled runs must agree: the hooks sit below the wall-clock
    # noise floor of the sweep itself.
    assert abs(off_a - off_b) <= 0.5 * max(off_a, off_b)
    # Taking every guard branch without firing must stay within noise.
    assert armed < 1.5 * max(off_a, off_b)
