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

Array evaluation
----------------
The electricals of every reachable variant sit in one ``(2, 9, 5)``
array indexed by (polarity, ``3 * width_level + charge_level``,
quantity).  Each sample draws one block of standard normals ordered
(stage, n- then p-device, ribbon, width then charge) — the order, and
so the values, of one scalar draw per trait — and maps it to level
indices with the +-sigma/2 rule.  Devices are summed ribbon by ribbon
and the surrogate walks the stages on vectors spanning every sample,
keeping the float operations of a one-sample-at-a-time
evaluation in their order, so samples, nominal values and variant
counts are bitwise those of the scalar formulation
(``tests/variability/test_mc_parity.py``).

Every sample draws from its own generator spawned
(``np.random.SeedSequence.spawn``) from the root seed by sample index,
so the first ``n`` samples of a longer run equal a run of ``n``.  The
study runs in-process: the variant tables are built (or read from the
cache) one after another and every sample is evaluated in one batch
(parallelism lives one level up, in the experiment fan-out).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuit.ring_oscillator import simulate_ring_oscillator
from repro.config import RunConfig
from repro.errors import ConvergenceError
from repro.exploration.technology import GNRFETTechnology
from repro.runtime import FailureRecord, quarantine, spawn_seed_sequences
from repro.runtime import faults
from repro.variability.sampling import (
    discretized_normal_indices,
    require_three_levels,
)
from repro.variability.variants import DeviceVariant, variant_ribbon_table

#: Per-ribbon electrical quantities, in the order of the last axis of
#: the electricals arrays; all of them add linearly over ribbons.
QUANTITIES = ("g_gate", "q_self", "i1", "i2", "i_off")
G_GATE, Q_SELF, I1, I2, I_OFF = range(len(QUANTITIES))

#: Device polarities along axis 0 of the electricals arrays.
POLARITIES = (+1, -1)


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
                        variant: DeviceVariant, polarity: int,
                        config: RunConfig | None = None) -> dict:
    """Electrical quantities of one ribbon.

    Builds (or fetches from the device-table cache) the variant ribbon
    table and condenses it to the five linear-composable quantities the
    stage-delay surrogate needs.
    """
    table = variant_ribbon_table(
        variant, polarity, tech.geometry, config).with_gate_offset(offset)
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


def _variant_electricals(tech: GNRFETTechnology, vdd: float, vt: float,
                         width_levels, charge_levels, config: RunConfig
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Per-ribbon electricals of every variant the levels can draw.

    Returns ``(electricals, nominal)``: ``electricals[polarity, code]``
    holds the :data:`QUANTITIES` of the ribbon with width level ``w``
    and charge level ``q`` at ``code = 3 * w + q``, and
    ``nominal[polarity]`` those of the nominal ribbon (polarity 0 is
    the n-device, 1 the p-device).  The variant table builds behind
    them are the expensive part when tables are cold.
    """
    variants = [DeviceVariant(n_index=n, impurity_e=q)
                for n in width_levels for q in charge_levels]
    offset = tech.gate_offset_for_vt(vt)
    data = {(v, pol): _ribbon_electricals(tech, offset, vdd, v, pol, config)
            for v in dict.fromkeys([DeviceVariant()] + variants)
            for pol in POLARITIES}

    def quantities(variant: DeviceVariant, polarity: int) -> list[float]:
        return [data[variant, polarity][q] for q in QUANTITIES]

    electricals = np.array([[quantities(v, pol) for v in variants]
                            for pol in POLARITIES])
    nominal = np.array([quantities(DeviceVariant(), pol)
                        for pol in POLARITIES])
    return electricals, nominal


def _compose(electricals: np.ndarray, codes: np.ndarray,
             n_ribbons: int) -> np.ndarray:
    """Linear composition of ribbons into devices.

    ``codes[..., polarity, r]`` selects the ``electricals`` row of drawn
    ribbon ``r``; a single drawn ribbon stands for all ``n_ribbons``
    (whole-device draws).  Ribbons are added one at a time from 0, as
    ``sum()`` over a ribbon list adds them, so every device is bitwise
    the scalar composition.  Returns ``codes.shape[:-1] + (5,)``.
    """
    polarity = np.arange(len(electricals))
    n_drawn = codes.shape[-1]
    device = 0 + electricals[polarity, codes[..., 0]]
    for r in range(1, n_ribbons):
        device = device + electricals[polarity, codes[..., r % n_drawn]]
    return device


def _surrogate_oscillator(devices: np.ndarray, nominal: np.ndarray,
                          vdd: float, params
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(frequency, dynamic power, ring static power) of each sample.

    ``devices[sample, stage, polarity]`` holds the composed quantities
    of every stage's n- and p-device; replica loads are the ``nominal``
    (n, p) devices.  The stages accumulate one at a time in ring order,
    so each sample sees exactly the float operations of a scalar
    evaluation; only the operands are vectors over samples.
    """
    n_samples, n_stages = devices.shape[:2]
    dev_n, dev_p = devices[:, :, 0], devices[:, :, 1]
    nom_n, nom_p = nominal
    c_par4 = 4.0 * params.c_parasitic_f
    q_gate_nom = nom_n[G_GATE] + nom_p[G_GATE] + c_par4 * vdd
    p_stat_nom = vdd * (nom_n[I_OFF] + nom_p[I_OFF]) / 2.0

    q_gate = dev_n[..., G_GATE] + dev_p[..., G_GATE] + c_par4 * vdd
    q_self = (dev_n[..., Q_SELF] + dev_p[..., Q_SELF]
              + (2.0 * params.c_parasitic_f + params.c_wire_f) * vdd)
    i_eff = 0.5 * (devices[..., I1] + devices[..., I2])
    r = 2.0 * params.contact_resistance_ohm
    drive = i_eff / (1.0 + r * i_eff / max(vdd, 1e-9))

    total_delay = np.zeros(n_samples)
    energy_per_cycle = np.zeros(n_samples)
    p_stat = np.full(n_samples, n_stages * (params.fanout - 1) * p_stat_nom)
    for i in range(n_stages):
        q_load = ((params.fanout - 1) * q_gate_nom
                  + q_gate[:, (i + 1) % n_stages])
        q_total = q_load + q_self[:, i]
        total_delay += 0.25 * q_total * (1.0 / drive[:, i, 0]
                                         + 1.0 / drive[:, i, 1])
        energy_per_cycle += q_total * vdd
        p_stat += vdd * (dev_n[:, i, I_OFF] + dev_p[:, i, I_OFF]) / 2.0
    freq = 1.0 / (2.0 * total_delay)
    return freq, energy_per_cycle * freq, p_stat


def _evaluate_samples(
    params,
    vdd: float,
    vt: float,
    n_stages: int,
    labels: tuple[str, ...],
    granularity: str,
    electricals: np.ndarray,
    nominal: np.ndarray,
    strict: bool,
    seeds: list[np.random.SeedSequence],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, int],
           list[FailureRecord]]:
    """Evaluate every sample; ``seeds[k]`` is sample ``k``'s sequence.

    Each sample draws one block of standard normals ordered (stage,
    polarity n then p, ribbon, width then charge) — the order of the
    scalar draws it replaces, so the values are the same.  ``labels``
    names the variant of each code for ``variant_counts``, which keep
    first-draw order.

    The ``scf`` fault-injection site fires per sample (keyed by the
    sample index, before any draws, so variant counts stay exact).  A
    failed sample draws nothing and is NaN-masked and recorded unless
    ``strict``.
    """
    n = len(seeds)
    freqs = np.full(n, np.nan)
    p_dyns = np.full(n, np.nan)
    p_stats = np.full(n, np.nan)
    failures: list[FailureRecord] = []
    ok = list(range(n))
    if faults.ACTIVE:
        ok = []
        for k in range(n):
            try:
                faults.inject("scf", k, detail=f"sample={k}")
            except ConvergenceError as exc:
                if strict:
                    raise exc.with_context(sample_index=k)
                failures.append(quarantine(
                    exc, site="montecarlo", index=k, coords=(k,),
                    bias={"vdd": float(vdd), "vt": float(vt)}))
            else:
                ok.append(k)

    n_drawn = params.n_ribbons if granularity == "ribbon" else 1
    shape = (n_stages, len(POLARITIES), n_drawn, 2)
    draws = np.empty((len(ok),) + shape)
    for row, k in enumerate(ok):
        draws[row] = np.random.default_rng(seeds[k]).standard_normal(shape)
    levels = discretized_normal_indices(draws)
    codes = 3 * levels[..., 0] + levels[..., 1]
    devices = _compose(electricals, codes, params.n_ribbons)
    freqs[ok], p_dyns[ok], p_stats[ok] = _surrogate_oscillator(
        devices, nominal, vdd, params)

    counts: dict[str, int] = {}
    drawn, first, tally = np.unique(codes, return_index=True,
                                    return_counts=True)
    for j in np.argsort(first):
        label = labels[drawn[j]]
        counts[label] = counts.get(label, 0) + int(tally[j])
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
    calibrate_against_transient: bool = False,
    config: RunConfig | None = None,
) -> MonteCarloResult:
    """Fig. 6: sample width/impurity variations of every inverter.

    ``granularity="ribbon"`` (default, the paper's physical situation)
    draws independently for each of the 4 ribbons of each device;
    ``"device"`` makes all ribbons of a device share one draw (the upper
    bound of Section 4's two scenarios - used by the ablation bench).

    ``calibrate_against_transient=True`` additionally runs one full
    nominal ring-oscillator transient and rescales all frequencies by the
    transient/surrogate ratio.

    Every sample draws from its own generator spawned from ``seed`` by
    sample index.  ``config`` (default :meth:`RunConfig.from_env`) says
    how the study executes: ``strict`` re-raises the first failed
    sample; otherwise failed samples are NaN rows recorded on
    ``failures`` (the shift properties skip them).
    """
    if granularity not in ("ribbon", "device"):
        raise ValueError(f"granularity must be 'ribbon' or 'device', "
                         f"got {granularity!r}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if n_stages < 3 or n_stages % 2 == 0:
        raise ValueError(f"ring needs an odd number of stages >= 3, "
                         f"got {n_stages}")
    require_three_levels(width_levels, "width_levels")
    require_three_levels(charge_levels, "charge_levels")
    config = RunConfig.from_env() if config is None else config
    strict = config.strict

    electricals, nominal_ribbon = _variant_electricals(
        tech, vdd, vt, width_levels, charge_levels, config)
    nominal = _compose(nominal_ribbon[:, None],
                       np.zeros((len(POLARITIES), 1), dtype=int),
                       tech.params.n_ribbons)
    nominal_ring = np.broadcast_to(nominal, (1, n_stages) + nominal.shape)
    f_nom, p_dyn_nom, p_stat_nom = (float(x[0]) for x in _surrogate_oscillator(
        nominal_ring, nominal, vdd, tech.params))

    calibration = 1.0
    if calibrate_against_transient:
        nt, pt = tech.inverter_tables(vt)
        metrics = simulate_ring_oscillator(nt, pt, vdd, n_stages,
                                           tech.params)
        calibration = metrics.frequency_hz / f_nom

    labels = tuple(DeviceVariant(n_index=n, impurity_e=q).label()
                   for n in width_levels for q in charge_levels)
    freqs, p_dyns, p_stats, counts, failures = _evaluate_samples(
        tech.params, vdd, vt, n_stages, labels, granularity, electricals,
        nominal, strict, spawn_seed_sequences(seed, n_samples))

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
