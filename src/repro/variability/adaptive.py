"""Variance-adaptive Monte Carlo for the Fig. 6 variability study.

The fixed-count study spends its whole sample budget even after every
reported statistic has converged.  This engine samples in batches and
stops as soon as a bootstrap confidence interval certifies each tracked
statistic — the mean frequency / dynamic-power / static-power shifts
and the frequency spread sigma that Fig. 6 reports — to a relative
half-width below ``target_ci``.

Prefix property (the determinism contract): the per-sample
``SeedSequence`` tree is spawned **up-front at n_max**, so stopping
after ``n`` samples yields bit-for-bit the first ``n`` samples of the
fixed-count run with the same seed — early stopping changes how *many*
samples exist, never what any sample *is*.  The convergence test uses
its own generator derived from ``(seed, n_done)``, so it never consumes
the sample stream and is independent of call history (a resumed run
makes the same stopping decision).

The sigma statistic dominates the stopping point: the bootstrap
half-width of a standard deviation shrinks as ``~1.96 / sqrt(2 n)``
regardless of the distribution, so ``target_ci=0.05`` certifies sigma
near ``n ~ 770`` — which is why the full-mode Fig. 6 study stops well
under half of its fixed 2000-sample budget, while the fast 200-sample
smoke grid (correctly) cannot certify sigma and runs to ``n_max``,
degenerating to the fixed study bit-for-bit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro import obs
from repro.device.engines import engine_version, resolve_engine
from repro.exploration.technology import GNRFETTechnology
from repro.runtime import (
    TABLE_ENGINE_VERSION,
    FailureRecord,
    Scheduler,
    SweepCheckpoint,
    batch_indices,
    checkpoint_interval,
    content_key,
    resolve_scheduler,
    resolve_workers,
    resume_enabled,
    spawn_seed_sequences,
    strict_default,
)
from repro.variability.montecarlo import (
    MonteCarloResult,
    _evaluate_batch,
    _RibbonCache,
    _surrogate_oscillator,
)
from repro.variability.variants import DeviceVariant

#: Environment variable: target relative CI half-width for the adaptive
#: Monte Carlo (CLI flag ``--mc-target-ci``).
MC_TARGET_CI_ENV = "REPRO_MC_TARGET_CI"

#: Bootstrap resamples per convergence check.
N_BOOTSTRAP = 256

#: Fixed entropy word mixed into the bootstrap generator's seed so it
#: can never collide with the sample tree spawned from the bare seed.
_BOOTSTRAP_STREAM = 0xB007


def mc_target_ci_default() -> float | None:
    """``REPRO_MC_TARGET_CI`` as a float, or None when unset."""
    raw = os.environ.get(MC_TARGET_CI_ENV, "").strip()
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ValueError(
            f"{MC_TARGET_CI_ENV} must be a float, got {raw!r}") from None


@dataclass(frozen=True)
class AdaptiveMonteCarloResult(MonteCarloResult):
    """Early-stopped Monte Carlo: a :class:`MonteCarloResult` prefix.

    The sample arrays hold exactly the ``n_used`` evaluated samples (a
    bitwise prefix of the ``n_max`` fixed-count stream).  ``converged``
    reports whether every tracked statistic met ``target_ci`` before
    the budget ran out; ``ci_halfwidths`` holds the final relative
    half-widths keyed by statistic name.
    """

    n_max: int = 0
    n_used: int = 0
    target_ci: float = 0.0
    converged: bool = False
    ci_halfwidths: dict = field(default_factory=dict)


def _bootstrap_halfwidths(freqs: np.ndarray, p_dyns: np.ndarray,
                          p_stats: np.ndarray, seed: int,
                          n_done: int) -> dict[str, float] | None:
    """Relative 95% bootstrap half-widths of the tracked statistics.

    Returns None when fewer than 8 valid samples exist (no meaningful
    resample).  The generator depends only on ``(seed, n_done)`` — not
    on how many checks ran before — so checkpoint/resume replays the
    same verdicts.
    """
    valid = np.isfinite(freqs)
    f = freqs[valid]
    pd = p_dyns[valid]
    ps = p_stats[valid]
    n = f.size
    if n < 8:
        return None
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, n_done, _BOOTSTRAP_STREAM]))
    idx = rng.integers(0, n, size=(N_BOOTSTRAP, n))
    stats = {
        "mean_frequency": (float(np.mean(f)), np.mean(f[idx], axis=1)),
        "mean_dynamic_power": (float(np.mean(pd)), np.mean(pd[idx], axis=1)),
        "mean_static_power": (float(np.mean(ps)), np.mean(ps[idx], axis=1)),
        "freq_sigma": (float(np.std(f)), np.std(f[idx], axis=1)),
    }
    out: dict[str, float] = {}
    for name, (value, resampled) in stats.items():
        half = 1.96 * float(np.std(resampled))
        scale = max(abs(value), 1e-30)
        out[name] = half / scale
    return out


def run_ring_oscillator_monte_carlo_adaptive(
    tech: GNRFETTechnology,
    n_max: int = 2000,
    target_ci: float = 0.05,
    batch: int | None = None,
    vdd: float = 0.4,
    vt: float = 0.13,
    n_stages: int = 15,
    width_levels: tuple[int, int, int] = (9, 12, 15),
    charge_levels: tuple[float, float, float] = (-1.0, 0.0, 1.0),
    seed: int = 2008,
    granularity: str = "ribbon",
    workers: int | None = None,  # repro: nokey[RPA601] parallelism degree; per-sample spawned RNG streams are worker-count independent
    strict: bool | None = None,  # repro: nokey[RPA601] failure policy only; surviving samples agree either way
    checkpoint: int | None = None,  # repro: nokey[RPA601] snapshot cadence only, not sample content
    resume: bool | None = None,  # repro: nokey[RPA601] whether to load the checkpoint this key names, not what it holds
    scheduler: Scheduler | None = None,  # repro: nokey[RPA601] dispatch policy; schedulers must return [fn(t) for t in tasks]
) -> AdaptiveMonteCarloResult:
    """Fig. 6 Monte Carlo with bootstrap-CI early stopping.

    Batches of ``batch`` samples (default ``max(25, n_max // 20)``) are
    dispatched through the scheduler seam; after each batch every
    tracked statistic's relative bootstrap half-width is compared to
    ``target_ci`` (default overridable via ``REPRO_MC_TARGET_CI``) and
    sampling stops when all pass.  The result arrays are the evaluated
    prefix of the fixed-count stream — see the module docstring for the
    exact prefix guarantee.

    ``checkpoint``/``resume`` snapshot after every batch (the interval
    counts batches on this path); a resumed run re-enters the batch
    loop at the recorded prefix and makes identical stopping decisions.
    """
    if granularity not in ("ribbon", "device"):
        raise ValueError(f"granularity must be 'ribbon' or 'device', "
                         f"got {granularity!r}")
    if not (0.0 < target_ci < 1.0):
        raise ValueError(f"target_ci must be in (0, 1), got {target_ci!r}")
    strict = strict_default() if strict is None else strict
    interval = (checkpoint_interval() if checkpoint is None
                else max(0, int(checkpoint)))
    resume = resume_enabled() if resume is None else resume
    n_workers = resolve_workers(workers)
    sched = resolve_scheduler(scheduler, workers=workers)
    batch_size = max(1, int(batch) if batch is not None
                     else max(25, n_max // 20))

    cache = _RibbonCache(tech, vdd, vt)
    n_ribbons = tech.params.n_ribbons
    nominal_variant = DeviceVariant()
    reachable = [nominal_variant] + [
        DeviceVariant(n_index=n, impurity_e=q)
        for n in width_levels for q in charge_levels]
    cache.prefetch(reachable, workers=workers, scheduler=scheduler)
    nom_n = cache.device([cache.ribbon(nominal_variant, +1)] * n_ribbons)
    nom_p = cache.device([cache.ribbon(nominal_variant, -1)] * n_ribbons)
    nominal = (nom_n, nom_p)
    f_nom, p_dyn_nom, p_stat_nom = _surrogate_oscillator(
        [nominal] * n_stages, nominal, vdd, tech.params)

    # The full seed tree exists before the first batch runs: stopping at
    # any n < n_max is a prefix of this exact stream.
    seeds = spawn_seed_sequences(seed, n_max)
    eval_fn = partial(_evaluate_batch, tech, vdd, vt, n_stages,
                      width_levels, charge_levels, granularity, cache.data,
                      nominal, strict)

    freqs = np.full(n_max, np.nan)
    p_dyns = np.full(n_max, np.nan)
    p_stats = np.full(n_max, np.nan)
    done = np.zeros(n_max, dtype=bool)
    counts: dict[str, int] = {}
    failures: list[FailureRecord] = []

    ckpt: SweepCheckpoint | None = None
    if interval > 0 or resume:
        engine = resolve_engine(None)
        key = content_key("adaptive_monte_carlo", tech.geometry,
                          tech.params, n_max, target_ci, batch_size, vdd,
                          vt, n_stages, tuple(width_levels),
                          tuple(charge_levels), seed, granularity,
                          TABLE_ENGINE_VERSION, engine,
                          engine_version(engine))
        ckpt = SweepCheckpoint(key, interval=interval)
        if resume:
            loaded = ckpt.load()
            if loaded is not None and loaded[0].shape == done.shape:
                done, arrays, saved_failures = loaded
                freqs = np.asarray(arrays["frequencies_hz"], dtype=float)
                p_dyns = np.asarray(arrays["dynamic_power_w"], dtype=float)
                p_stats = np.asarray(arrays["static_power_w"], dtype=float)
                counts = {str(k): int(v) for k, v in json.loads(
                    str(arrays["counts_json"])).items()}
                for record in saved_failures:
                    failures.append(record)
                    if obs.ACTIVE:
                        obs.incr("resilience.quarantined")
                        obs.record_failure(record.to_dict())

    def save_checkpoint() -> None:
        if ckpt is None or not ckpt.due():
            return
        ckpt.save(done, {
            "frequencies_hz": freqs, "dynamic_power_w": p_dyns,
            "static_power_w": p_stats,
            "counts_json": np.array(json.dumps(counts, sort_keys=True)),
        }, failures)

    n_done = int(done.sum())
    converged = False
    halfwidths: dict[str, float] = {}
    n_batches = 0
    with obs.span("variability.adaptive_monte_carlo", n_max=n_max,
                  target_ci=target_ci, batch=batch_size):
        while n_done < n_max:
            # Converged already at the resumed prefix?  Check before
            # sampling so resume cannot overshoot the fixed-run stop.
            if n_done >= 2 * batch_size:
                halfwidths = _bootstrap_halfwidths(
                    freqs[:n_done], p_dyns[:n_done], p_stats[:n_done],
                    seed, n_done) or {}
                if halfwidths and all(h <= target_ci
                                      for h in halfwidths.values()):
                    converged = True
                    break
            lo = n_done
            hi = min(n_max, n_done + batch_size)
            indices = list(range(lo, hi))
            # Sub-batch across the pool; the scheduler recovers crashed
            # workers so the batch always completes.
            n_sub = 1 if n_workers <= 1 else n_workers
            tasks = []
            for r in batch_indices(len(indices), n_sub):
                idx = tuple(indices[r.start:r.stop])
                tasks.append((idx, [seeds[i] for i in idx]))
            results = sched.run(eval_fn, tasks, strict=strict,
                                chunk_size=1)
            for task, result in zip(tasks, results):
                task_indices = task[0]
                b_freqs, b_dyns, b_stats, b_counts, b_failures = result
                for k, sample in enumerate(task_indices):
                    freqs[sample] = b_freqs[k]
                    p_dyns[sample] = b_dyns[k]
                    p_stats[sample] = b_stats[k]
                    done[sample] = True
                for label, c in b_counts.items():
                    counts[label] = counts.get(label, 0) + c
                failures.extend(b_failures)
            n_done = hi
            n_batches += 1
            save_checkpoint()
    if ckpt is not None:
        ckpt.clear()
    if not converged:
        # Report the budget-exhausted half-widths rather than stale ones.
        halfwidths = _bootstrap_halfwidths(
            freqs[:n_done], p_dyns[:n_done], p_stats[:n_done],
            seed, n_done) or {}

    if obs.ACTIVE:
        obs.incr("adaptive.mc_batches", n_batches)
        obs.incr("adaptive.mc_samples_used", n_done)
        obs.incr("adaptive.solves_saved", n_max - n_done)

    return AdaptiveMonteCarloResult(
        frequencies_hz=freqs[:n_done],
        dynamic_power_w=p_dyns[:n_done],
        static_power_w=p_stats[:n_done],
        nominal_frequency_hz=f_nom,
        nominal_dynamic_power_w=p_dyn_nom,
        nominal_static_power_w=p_stat_nom,
        n_stages=n_stages, vdd=vdd,
        calibration_factor=1.0,
        variant_counts=counts,
        failures=tuple(failures),
        n_max=n_max, n_used=n_done, target_ci=target_ci,
        converged=converged, ci_halfwidths=dict(halfwidths))
