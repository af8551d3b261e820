"""Monte Carlo over the 15-stage ring oscillator (paper Fig. 6).

Sampling granularity
--------------------
Every GNR ribbon of every device draws its own width and impurity from
the paper's discretized normal distributions ("Monte Carlo simulations
with independent variations in width (N=9/12/15) and charge impurities
(-q/0/+q) of all inverters").  Per-ribbon independence matters: the
4-ribbon array averages over draws, which is what keeps the mean
frequency shift at the paper's ~-10% instead of the several-times-larger
shift a whole-device draw would produce.  A ``granularity="device"``
mode (all four ribbons share the draw) is provided for the ablation
bench.

Per-sample evaluation uses a stage-delay surrogate rather than a full
transient: all per-ribbon electrical quantities (switched gate charge,
effective drive, Miller charge, off-leakage) compose *linearly* into
array quantities, so one cached evaluation per (variant, polarity) pair
serves every sample.  A single calibration factor — the ratio of the
full-transient nominal frequency to the surrogate nominal frequency —
maps surrogate frequencies onto the transient scale; distribution shapes
and mean shifts (the quantities Fig. 6 reports) are what the study
asserts.  The surrogate is validated against direct transients in
``benchmarks/bench_ablation_estimators.py``.

Parallel execution
------------------
Both expensive phases dispatch through :mod:`repro.runtime`: the variant
ribbon tables are prefetched across worker processes, and the sample
loop is batched across workers.  Every sample draws from its own
generator spawned (``np.random.SeedSequence.spawn``) from the root seed
by sample index, so a fixed seed gives bit-for-bit identical
distributions at any worker count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro import obs
from repro.circuit.ring_oscillator import simulate_ring_oscillator
from repro.device.engines import engine_version, resolve_engine
from repro.device.tables import DeviceTable
from repro.errors import ConvergenceError
from repro.exploration.technology import GNRFETTechnology
from repro.runtime import (
    TABLE_ENGINE_VERSION,
    FailureRecord,
    Scheduler,
    SweepCheckpoint,
    batch_indices,
    checkpoint_interval,
    content_key,
    in_worker,
    quarantine,
    resolve_scheduler,
    resolve_workers,
    resume_enabled,
    spawn_seed_sequences,
    strict_default,
)
from repro.runtime import faults
from repro.variability.sampling import discretized_normal_choice
from repro.variability.variants import DeviceVariant, variant_ribbon_table


@dataclass(frozen=True)
class MonteCarloResult:
    """Sampled oscillator metrics plus the nominal reference.

    Frequencies in Hz, powers in W; ``samples`` rows align across arrays.
    """

    frequencies_hz: np.ndarray
    dynamic_power_w: np.ndarray
    static_power_w: np.ndarray
    nominal_frequency_hz: float
    nominal_dynamic_power_w: float
    nominal_static_power_w: float
    n_stages: int
    vdd: float
    calibration_factor: float = 1.0
    variant_counts: dict = field(default_factory=dict)
    failures: tuple[FailureRecord, ...] = ()

    @property
    def mean_frequency_shift(self) -> float:
        """Relative shift of the mean frequency vs nominal (paper: ~ -10%).

        Quarantined samples are NaN rows and excluded from the mean
        (``failures`` lists them); with no failures this is a plain mean.
        """
        return float(np.nanmean(self.frequencies_hz)
                     / self.nominal_frequency_hz - 1.0)

    @property
    def mean_static_power_shift(self) -> float:
        """Relative shift of mean static power (paper: ~ +23%)."""
        return float(np.nanmean(self.static_power_w)
                     / self.nominal_static_power_w - 1.0)

    @property
    def mean_dynamic_power_shift(self) -> float:
        """Relative shift of mean dynamic power (paper: ~unchanged)."""
        return float(np.nanmean(self.dynamic_power_w)
                     / self.nominal_dynamic_power_w - 1.0)


def _ribbon_electricals(tech: GNRFETTechnology, offset: float, vdd: float,
                        variant: DeviceVariant, polarity: int) -> dict:
    """Electrical quantities of one ribbon (module-level so it pickles).

    Builds (or fetches from the device-table cache) the variant ribbon
    table and condenses it to the five linear-composable quantities the
    stage-delay surrogate needs.
    """
    table = variant_ribbon_table(
        variant, polarity, tech.geometry).with_gate_offset(offset)
    vs = np.linspace(0.0, vdd, 21)
    if polarity > 0:
        caps = [sum(table.capacitances(float(v), vdd - float(v)))
                for v in vs]
    else:
        caps = [sum(table.capacitances(vdd - float(v), float(v)))
                for v in vs]
    g_gate = float(np.trapezoid(caps, vs))
    cgd_ends = (table.capacitances(0.0, vdd)[1]
                + table.capacitances(vdd, 0.0)[1])
    return {
        "g_gate": g_gate,
        "q_self": cgd_ends * vdd,
        "i1": float(table.current(vdd, vdd)),
        "i2": float(table.current(vdd, vdd / 2.0)),
        "i_off": float(table.current(0.0, vdd)),
    }


def _ribbon_task(tech: GNRFETTechnology, offset: float, vdd: float,
                 key: tuple[DeviceVariant, int]
                 ) -> tuple[tuple[DeviceVariant, int], dict]:
    """Prefetch task: one (variant, polarity) pair -> its electricals."""
    variant, polarity = key
    return key, _ribbon_electricals(tech, offset, vdd, variant, polarity)


class _RibbonCache:
    """Per-(variant, polarity) electrical quantities of a single ribbon.

    Everything stored here composes linearly over the ribbons of an
    array (currents and charges add), so array- and pair-level values
    are cheap sums at sampling time.
    """

    def __init__(self, tech: GNRFETTechnology, vdd: float, vt: float,
                 data: dict[tuple[DeviceVariant, int], dict] | None = None):
        self.tech = tech
        self.vdd = vdd
        self.offset = tech.gate_offset_for_vt(vt)
        self._data: dict[tuple[DeviceVariant, int], dict] = dict(data or {})

    def ribbon(self, variant: DeviceVariant, polarity: int) -> dict:
        key = (variant, polarity)
        if key not in self._data:
            self._data[key] = _ribbon_electricals(
                self.tech, self.offset, self.vdd, variant, polarity)
        return self._data[key]

    def prefetch(self, variants: list[DeviceVariant],
                 workers: int | None = None,
                 scheduler: Scheduler | None = None) -> None:
        """Populate every (variant, polarity) entry, optionally fanning
        the expensive table builds across worker processes."""
        keys = [(v, pol) for v in dict.fromkeys(variants)
                for pol in (+1, -1) if (v, pol) not in self._data]
        sched = resolve_scheduler(scheduler, workers=workers)
        for key, data in sched.run(
                partial(_ribbon_task, self.tech, self.offset, self.vdd),
                keys):
            self._data[key] = data

    @property
    def data(self) -> dict[tuple[DeviceVariant, int], dict]:
        return self._data

    def device(self, ribbons: list[dict]) -> dict:
        """Linear composition of per-ribbon data into one device."""
        return {k: sum(r[k] for r in ribbons)
                for k in ("g_gate", "q_self", "i1", "i2", "i_off")}


def _drive_a(device: dict, vdd: float, r_contact: float) -> float:
    i_eff = 0.5 * (device["i1"] + device["i2"])
    r = 2.0 * r_contact
    return i_eff / (1.0 + r * i_eff / max(vdd, 1e-9))


def _surrogate_oscillator(stages: list[tuple[dict, dict]],
                          nominal: tuple[dict, dict],
                          vdd: float, params) -> tuple[float, float, float]:
    """(frequency, dynamic power, ring static power) of one sample.

    ``stages`` holds (n_device, p_device) composed dictionaries; replica
    loads are nominal.
    """
    n_stages = len(stages)
    nom_n, nom_p = nominal
    c_par4 = 4.0 * params.c_parasitic_f
    q_gate_nom = nom_n["g_gate"] + nom_p["g_gate"] + c_par4 * vdd
    p_stat_nom = vdd * (nom_n["i_off"] + nom_p["i_off"]) / 2.0

    total_delay = 0.0
    energy_per_cycle = 0.0
    p_stat = n_stages * (params.fanout - 1) * p_stat_nom
    for i, (dev_n, dev_p) in enumerate(stages):
        nxt_n, nxt_p = stages[(i + 1) % n_stages]
        q_gate_next = nxt_n["g_gate"] + nxt_p["g_gate"] + c_par4 * vdd
        q_load = (params.fanout - 1) * q_gate_nom + q_gate_next
        q_self = (dev_n["q_self"] + dev_p["q_self"]
                  + (2.0 * params.c_parasitic_f + params.c_wire_f) * vdd)
        q_total = q_load + q_self
        i_n = _drive_a(dev_n, vdd, params.contact_resistance_ohm)
        i_p = _drive_a(dev_p, vdd, params.contact_resistance_ohm)
        total_delay += 0.25 * q_total * (1.0 / i_n + 1.0 / i_p)
        energy_per_cycle += q_total * vdd
        p_stat += vdd * (dev_n["i_off"] + dev_p["i_off"]) / 2.0
    freq = 1.0 / (2.0 * total_delay)
    return freq, energy_per_cycle * freq, p_stat


def _draw_device(rng: np.random.Generator, cache: _RibbonCache,
                 granularity: str, n_ribbons: int,
                 width_levels, charge_levels,
                 counts: dict[str, int], polarity: int) -> dict:
    """Draw one device's ribbons and compose their electricals."""
    if granularity == "ribbon":
        ribbons = []
        for _ in range(n_ribbons):
            v = DeviceVariant(
                n_index=discretized_normal_choice(rng, width_levels),
                impurity_e=discretized_normal_choice(rng, charge_levels))
            counts[v.label()] = counts.get(v.label(), 0) + 1
            ribbons.append(cache.ribbon(v, polarity))
        return cache.device(ribbons)
    v = DeviceVariant(
        n_index=discretized_normal_choice(rng, width_levels),
        impurity_e=discretized_normal_choice(rng, charge_levels))
    counts[v.label()] = counts.get(v.label(), 0) + 1
    return cache.device([cache.ribbon(v, polarity)] * n_ribbons)


def _evaluate_batch(
    tech: GNRFETTechnology,
    vdd: float,
    vt: float,
    n_stages: int,
    width_levels,
    charge_levels,
    granularity: str,
    ribbon_data: dict,
    nominal: tuple[dict, dict],
    strict: bool,
    task: tuple[tuple[int, ...], list[np.random.SeedSequence]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, int],
           list[FailureRecord]]:
    """Evaluate one batch of samples (worker-side entry point).

    ``task`` is ``(sample_indices, seeds)`` — global sample indices plus
    the per-sample seed sequences spawned from the root seed by sample
    index, so results are independent of how samples are batched across
    workers — ``workers=1`` and ``workers=4`` are bit-for-bit identical,
    and a resumed run may re-batch the remaining samples freely.

    The ``scf`` fault-injection site fires per sample (keyed by the
    global sample index, before any draws, so variant counts stay
    exact); the ``worker`` site is keyed by the batch's first sample
    index.  A failed sample is NaN-masked and recorded unless
    ``strict``.
    """
    indices, seeds = task
    if faults.ACTIVE and in_worker():
        faults.inject("worker", indices[0] if indices else 0)
    cache = _RibbonCache(tech, vdd, vt, data=ribbon_data)
    n_ribbons = tech.params.n_ribbons
    n = len(seeds)
    freqs = np.full(n, np.nan)
    p_dyns = np.full(n, np.nan)
    p_stats = np.full(n, np.nan)
    counts: dict[str, int] = {}
    failures: list[FailureRecord] = []
    for k, seed_seq in enumerate(seeds):
        sample = int(indices[k])
        rng = np.random.default_rng(seed_seq)
        try:
            if faults.ACTIVE:
                faults.inject("scf", sample, detail=f"sample={sample}")
            stages = [
                (_draw_device(rng, cache, granularity, n_ribbons,
                              width_levels, charge_levels, counts, +1),
                 _draw_device(rng, cache, granularity, n_ribbons,
                              width_levels, charge_levels, counts, -1))
                for _ in range(n_stages)]
            f, p_dyn, p_stat = _surrogate_oscillator(stages, nominal, vdd,
                                                     tech.params)
        except ConvergenceError as exc:
            if strict:
                raise exc.with_context(sample_index=sample)
            failures.append(quarantine(
                exc, site="montecarlo", index=sample, coords=(sample,),
                bias={"vdd": float(vdd), "vt": float(vt)}))
            continue
        freqs[k] = f
        p_dyns[k] = p_dyn
        p_stats[k] = p_stat
    return freqs, p_dyns, p_stats, counts, failures


def run_ring_oscillator_monte_carlo(
    tech: GNRFETTechnology,
    n_samples: int = 1000,
    vdd: float = 0.4,
    vt: float = 0.13,
    n_stages: int = 15,
    width_levels: tuple[int, int, int] = (9, 12, 15),
    charge_levels: tuple[float, float, float] = (-1.0, 0.0, 1.0),
    seed: int = 2008,
    granularity: str = "ribbon",
    calibrate_against_transient: bool = False,  # repro: nokey[RPA601] rescales raw checkpointed frequencies at return time
    workers: int | None = None,  # repro: nokey[RPA601] parallelism degree; per-sample spawned RNG streams are worker-count independent
    strict: bool | None = None,  # repro: nokey[RPA601] failure policy only; surviving samples agree either way
    checkpoint: int | None = None,  # repro: nokey[RPA601] snapshot cadence only, not sample content
    resume: bool | None = None,  # repro: nokey[RPA601] whether to load the checkpoint this key names, not what it holds
    scheduler: Scheduler | None = None,  # repro: nokey[RPA601] dispatch policy; schedulers must return [fn(t) for t in tasks]
) -> MonteCarloResult:
    """Fig. 6: sample width/impurity variations of every inverter.

    ``granularity="ribbon"`` (default, the paper's physical situation)
    draws independently for each of the 4 ribbons of each device;
    ``"device"`` makes all ribbons of a device share one draw (the upper
    bound of Section 4's two scenarios - used by the ablation bench).

    ``calibrate_against_transient=True`` additionally runs one full
    nominal ring-oscillator transient and rescales all frequencies by the
    transient/surrogate ratio.

    ``workers`` (default from ``REPRO_WORKERS``) fans both the variant
    table builds and the sample batches across a process pool.  Every
    sample draws from its own generator spawned from ``seed`` by sample
    index, so the distributions are bit-for-bit identical at any worker
    count.

    ``strict`` (default from ``REPRO_STRICT``) re-raises the first
    failed sample; otherwise failed samples are NaN rows recorded on
    ``failures`` (the shift properties skip them).  ``checkpoint``
    (default from ``REPRO_CHECKPOINT``) is the interval in completed
    samples between atomic progress snapshots; ``resume`` (default from
    ``REPRO_RESUME``) reloads one and evaluates only the missing
    samples — bitwise-identical to an uninterrupted run because every
    sample is keyed by its global index.
    """
    if granularity not in ("ribbon", "device"):
        raise ValueError(f"granularity must be 'ribbon' or 'device', "
                         f"got {granularity!r}")
    strict = strict_default() if strict is None else strict
    interval = (checkpoint_interval() if checkpoint is None
                else max(0, int(checkpoint)))
    resume = resume_enabled() if resume is None else resume
    n_workers = resolve_workers(workers)
    sched = resolve_scheduler(scheduler, workers=workers)
    cache = _RibbonCache(tech, vdd, vt)
    n_ribbons = tech.params.n_ribbons

    # Prefetch every variant the discretized distributions can draw (the
    # expensive part when tables are cold: fans across workers).
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

    calibration = 1.0
    if calibrate_against_transient:
        nt, pt = tech.inverter_tables(vt)
        metrics = simulate_ring_oscillator(nt, pt, vdd, n_stages,
                                           tech.params)
        calibration = metrics.frequency_hz / f_nom

    seeds = spawn_seed_sequences(seed, n_samples)
    eval_fn = partial(_evaluate_batch, tech, vdd, vt, n_stages,
                      width_levels, charge_levels, granularity, cache.data,
                      nominal, strict)

    freqs = np.full(n_samples, np.nan)
    p_dyns = np.full(n_samples, np.nan)
    p_stats = np.full(n_samples, np.nan)
    done = np.zeros(n_samples, dtype=bool)
    counts: dict[str, int] = {}
    failures: list[FailureRecord] = []

    ckpt: SweepCheckpoint | None = None
    if interval > 0 or resume:
        # The samples are functions of the variant device tables, so
        # everything that selects a table variant — the resolved
        # transport engine (REPRO_ENGINE) and its version — must be in
        # the key, or a checkpoint written under one engine could
        # resume under another.
        engine = resolve_engine(None)
        key = content_key("monte_carlo", tech.geometry, tech.params,
                          n_samples, vdd, vt, n_stages,
                          tuple(width_levels), tuple(charge_levels), seed,
                          granularity, TABLE_ENGINE_VERSION, engine,
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
        assert ckpt is not None
        ckpt.save(done, {
            "frequencies_hz": freqs, "dynamic_power_w": p_dyns,
            "static_power_w": p_stats,
            "counts_json": np.array(json.dumps(counts, sort_keys=True)),
        }, failures)

    def store(task, result) -> None:
        indices = task[0]
        b_freqs, b_dyns, b_stats, b_counts, b_failures = result
        for k, sample in enumerate(indices):
            freqs[sample] = b_freqs[k]
            p_dyns[sample] = b_dyns[k]
            p_stats[sample] = b_stats[k]
            done[sample] = True
        for label, c in b_counts.items():
            counts[label] = counts.get(label, 0) + c
        failures.extend(b_failures)

    remaining = [i for i in range(n_samples) if not done[i]]
    checkpointing = ckpt is not None and ckpt.enabled and interval > 0
    if checkpointing:
        # One batch per checkpoint interval, independent of the worker
        # count, so a killed run can resume under any parallelism.
        n_batches = max(1, -(-len(remaining) // max(1, interval)))
    elif n_workers <= 1:
        n_batches = 1
    else:
        n_batches = n_workers * 4
    tasks = []
    if remaining:
        for r in batch_indices(len(remaining), n_batches):
            idx = tuple(remaining[r.start:r.stop])
            tasks.append((idx, [seeds[i] for i in idx]))

    if not checkpointing or n_workers <= 1:
        if n_workers <= 1 and checkpointing:
            for task in tasks:
                store(task, eval_fn(task))
                save_checkpoint()
        else:
            results = sched.run(eval_fn, tasks, strict=strict,
                                chunk_size=1)
            for task, result in zip(tasks, results):
                store(task, result)
    else:
        # Parallel + checkpointing: dispatch one pool-width of batches
        # per wave so a snapshot lands between waves.
        wave_size = max(1, n_workers)
        for w in range(0, len(tasks), wave_size):
            wave = tasks[w:w + wave_size]
            results = sched.run(eval_fn, wave, strict=strict,
                                chunk_size=1)
            for task, result in zip(wave, results):
                store(task, result)
            save_checkpoint()
    if ckpt is not None:
        ckpt.clear()

    return MonteCarloResult(
        frequencies_hz=freqs * calibration,
        dynamic_power_w=p_dyns * calibration,
        static_power_w=p_stats,
        nominal_frequency_hz=f_nom * calibration,
        nominal_dynamic_power_w=p_dyn_nom * calibration,
        nominal_static_power_w=p_stat_nom,
        n_stages=n_stages, vdd=vdd,
        calibration_factor=calibration,
        variant_counts=counts,
        failures=tuple(failures))
