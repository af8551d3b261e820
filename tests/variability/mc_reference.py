"""Frozen reference formulation of the Fig. 6 Monte Carlo sampler.

This is the sample phase ``run_ring_oscillator_monte_carlo`` ran before
it became array code: every ribbon drew its width and its charge with
two scalar ``discretized_normal_choice`` calls, became a
``DeviceVariant`` looked up in a dict of per-(variant, polarity)
electricals, devices were dict sums over their ribbons, and the
stage-delay surrogate walked the ring on scalars, one sample at a time.
It is kept (the ``_RibbonCache`` methods lifted out into functions over
the electricals dict) as the oracle the parity tests and
``benchmarks/bench_solver_accel.py`` hold the production sampler to.
Do not optimise it: its value is that it is the obvious transcription
of the study, and the production sampler must reproduce it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError
from repro.runtime import quarantine, spawn_seed_sequences
from repro.variability.montecarlo import _ribbon_electricals
from repro.variability.sampling import discretized_normal_choice
from repro.variability.variants import DeviceVariant

QUANTITIES = ("g_gate", "q_self", "i1", "i2", "i_off")


def ribbon_electricals(tech, vdd, vt, width_levels, charge_levels) -> dict:
    """``{(variant, polarity): electricals}`` of every reachable variant."""
    offset = tech.gate_offset_for_vt(vt)
    reachable = [DeviceVariant()] + [
        DeviceVariant(n_index=n, impurity_e=q)
        for n in width_levels for q in charge_levels]
    return {(v, pol): _ribbon_electricals(tech, offset, vdd, v, pol)
            for v in dict.fromkeys(reachable) for pol in (+1, -1)}


def device(ribbons: list[dict]) -> dict:
    """Linear composition of per-ribbon data into one device."""
    return {k: sum(r[k] for r in ribbons) for k in QUANTITIES}


def drive_a(device: dict, vdd: float, r_contact: float) -> float:
    i_eff = 0.5 * (device["i1"] + device["i2"])
    r = 2.0 * r_contact
    return i_eff / (1.0 + r * i_eff / max(vdd, 1e-9))


def surrogate_oscillator(stages: list[tuple[dict, dict]],
                         nominal: tuple[dict, dict],
                         vdd: float, params) -> tuple[float, float, float]:
    """(frequency, dynamic power, ring static power) of one sample."""
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
        i_n = drive_a(dev_n, vdd, params.contact_resistance_ohm)
        i_p = drive_a(dev_p, vdd, params.contact_resistance_ohm)
        total_delay += 0.25 * q_total * (1.0 / i_n + 1.0 / i_p)
        energy_per_cycle += q_total * vdd
        p_stat += vdd * (dev_n["i_off"] + dev_p["i_off"]) / 2.0
    freq = 1.0 / (2.0 * total_delay)
    return freq, energy_per_cycle * freq, p_stat


def draw_device(rng: np.random.Generator, data: dict, granularity: str,
                n_ribbons: int, width_levels, charge_levels,
                counts: dict[str, int], polarity: int) -> dict:
    """Draw one device's ribbons and compose their electricals."""
    if granularity == "ribbon":
        ribbons = []
        for _ in range(n_ribbons):
            v = DeviceVariant(
                n_index=discretized_normal_choice(rng, width_levels),
                impurity_e=discretized_normal_choice(rng, charge_levels))
            counts[v.label()] = counts.get(v.label(), 0) + 1
            ribbons.append(data[v, polarity])
        return device(ribbons)
    v = DeviceVariant(
        n_index=discretized_normal_choice(rng, width_levels),
        impurity_e=discretized_normal_choice(rng, charge_levels))
    counts[v.label()] = counts.get(v.label(), 0) + 1
    return device([data[v, polarity]] * n_ribbons)


def nominal_devices(data: dict, n_ribbons: int) -> tuple[dict, dict]:
    """The nominal (n, p) devices."""
    return (device([data[DeviceVariant(), +1]] * n_ribbons),
            device([data[DeviceVariant(), -1]] * n_ribbons))


def evaluate_samples(data: dict, params, vdd: float, vt: float,
                     n_stages: int, width_levels, charge_levels,
                     granularity: str, strict: bool, indices, seeds):
    """The per-sample loop over one batch of samples."""
    nominal = nominal_devices(data, params.n_ribbons)
    n = len(seeds)
    freqs = np.full(n, np.nan)
    p_dyns = np.full(n, np.nan)
    p_stats = np.full(n, np.nan)
    counts: dict[str, int] = {}
    failures = []
    for k, seed_seq in enumerate(seeds):
        sample = int(indices[k])
        rng = np.random.default_rng(seed_seq)
        try:
            stages = [
                (draw_device(rng, data, granularity, params.n_ribbons,
                             width_levels, charge_levels, counts, +1),
                 draw_device(rng, data, granularity, params.n_ribbons,
                             width_levels, charge_levels, counts, -1))
                for _ in range(n_stages)]
            f, p_dyn, p_stat = surrogate_oscillator(stages, nominal, vdd,
                                                    params)
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


def monte_carlo(tech, n_samples: int = 1000, vdd: float = 0.4,
                vt: float = 0.13, n_stages: int = 15,
                width_levels=(9, 12, 15), charge_levels=(-1.0, 0.0, 1.0),
                seed: int = 2008, granularity: str = "ribbon",
                strict: bool = False, samples=None) -> dict:
    """A serial uncalibrated run, as ``run_ring_oscillator_monte_carlo``
    returned it: the sample arrays, the nominal values, the variant
    counts and the failure records.  ``samples`` restricts the run to
    those sample indices of the ``n_samples`` seed tree."""
    data = ribbon_electricals(tech, vdd, vt, width_levels, charge_levels)
    nominal = nominal_devices(data, tech.params.n_ribbons)
    f_nom, p_dyn_nom, p_stat_nom = surrogate_oscillator(
        [nominal] * n_stages, nominal, vdd, tech.params)
    seeds = spawn_seed_sequences(seed, n_samples)
    indices = range(n_samples) if samples is None else samples
    freqs, p_dyns, p_stats, counts, failures = evaluate_samples(
        data, tech.params, vdd, vt, n_stages, width_levels, charge_levels,
        granularity, strict, list(indices), [seeds[i] for i in indices])
    return {
        "frequencies_hz": freqs,
        "dynamic_power_w": p_dyns,
        "static_power_w": p_stats,
        "nominal_frequency_hz": f_nom,
        "nominal_dynamic_power_w": p_dyn_nom,
        "nominal_static_power_w": p_stat_nom,
        "variant_counts": counts,
        "failures": tuple(failures),
    }
