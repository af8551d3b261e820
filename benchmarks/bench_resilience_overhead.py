"""Resilience overhead: a ladder that succeeds at once costs nothing.

Every ladder solve of the resilience layer
(:mod:`repro.runtime.resilience`) goes through :func:`run_ladder`, and
almost every one succeeds on its first rung.  This bench times that
common case, a single-rung ``run_ladder`` call, in a tight loop with an
asserted ceiling (the ``bench_sanitizer_overhead`` methodology).

Smoke mode (``REPRO_BENCH_SMOKE=1``) runs the same assertion.
"""

import timeit

from repro.runtime.resilience import run_ladder


def test_single_rung_ladder_is_microseconds():
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
