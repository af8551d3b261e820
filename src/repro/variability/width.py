"""Width-variation study: the paper's Table 2.

For every pair of n-/p-device width indices (N in {9, 12, 15, 18}) and
both array scenarios (one of four / all four GNRs affected), characterize
the FO4 inverter at the nominal operating point (V_DD = 0.4 V,
V_T = 0.13 V) and report percentage changes of delay, static power,
dynamic power and SNM relative to the nominal (N=12/N=12) inverter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.inverter import (
    InverterMetrics,
    characterize_inverter,
    inverter_snm,
    inverter_static_power_w,
)
from repro.config import RunConfig
from repro.errors import AnalysisError
from repro.exploration.technology import GNRFETTechnology
from repro.variability.variants import DeviceVariant, variant_array_table


@dataclass
class VariabilityEntry:
    """One (n-variant, p-variant) cell of a sensitivity table.

    Each metric holds ``(one_affected_pct, all_affected_pct)`` percentage
    changes relative to the nominal inverter, matching the paper's
    comma-separated table cells.
    """

    n_label: str
    p_label: str
    delay_pct: tuple[float, float]
    static_power_pct: tuple[float, float]
    dynamic_power_pct: tuple[float, float]
    snm_pct: tuple[float, float]
    metrics_one: InverterMetrics
    metrics_all: InverterMetrics


def _pct(value: float, nominal: float) -> float:
    if nominal == 0.0:
        return float("inf") if value else 0.0
    return 100.0 * (value - nominal) / nominal


def characterize_variant_inverter(
    tech: GNRFETTechnology,
    n_variant: DeviceVariant,
    p_variant: DeviceVariant,
    n_affected: int,
    vdd: float,
    vt: float,
    degenerate_ok: bool = False,
    config: RunConfig | None = None,
) -> InverterMetrics:
    """Characterize one variant inverter against a nominal FO4 load.

    With ``degenerate_ok=True``, a variant whose output never completes
    both logic transitions (an inverter broken by the anomaly - possible
    at the most asymmetric corners of Table 4) is reported with NaN
    delay/dynamic power instead of raising; its static power and SNM are
    still measured (the SNM of a collapsed cell is 0 by the bistability
    rule).  ``config`` is passed on to the variant table builds.
    """
    config = RunConfig.from_env() if config is None else config
    offset = tech.gate_offset_for_vt(vt)
    nt = variant_array_table(n_variant, +1, n_affected, offset,
                             tech.params.n_ribbons, tech.geometry, config)
    pt = variant_array_table(p_variant, -1, n_affected, offset,
                             tech.params.n_ribbons, tech.geometry, config)
    nominal = tech.inverter_tables(vt)
    try:
        return characterize_inverter(nt, pt, vdd, tech.params,
                                     load_tables=nominal)
    except AnalysisError:
        if not degenerate_ok:
            raise
        return InverterMetrics(
            delay_s=np.nan, t_plh_s=np.nan, t_phl_s=np.nan,
            static_power_w=inverter_static_power_w(nt, pt, vdd,
                                                   tech.params),
            dynamic_power_w=np.nan,
            snm_v=inverter_snm(nt, pt, vdd, tech.params),
            vdd=vdd)


def sensitivity_entry(
    tech: GNRFETTechnology,
    n_variant: DeviceVariant,
    p_variant: DeviceVariant,
    nominal: InverterMetrics,
    vdd: float,
    vt: float,
    scenarios: tuple[int, int] = (1, 4),
    degenerate_ok: bool = True,
    config: RunConfig | None = None,
) -> VariabilityEntry:
    """Both scenarios of one variant pair, as percentage deltas.

    Broken (swing-less) cells surface as NaN percentages (rendered as
    ``-`` by the reporting layer) rather than aborting the study.
    """
    config = RunConfig.from_env() if config is None else config
    m_one = characterize_variant_inverter(tech, n_variant, p_variant,
                                          scenarios[0], vdd, vt,
                                          degenerate_ok, config)
    m_all = characterize_variant_inverter(tech, n_variant, p_variant,
                                          scenarios[1], vdd, vt,
                                          degenerate_ok, config)
    return VariabilityEntry(
        n_label=n_variant.label(), p_label=p_variant.label(),
        delay_pct=(_pct(m_one.delay_s, nominal.delay_s),
                   _pct(m_all.delay_s, nominal.delay_s)),
        static_power_pct=(_pct(m_one.static_power_w, nominal.static_power_w),
                          _pct(m_all.static_power_w, nominal.static_power_w)),
        dynamic_power_pct=(
            _pct(m_one.dynamic_power_w, nominal.dynamic_power_w),
            _pct(m_all.dynamic_power_w, nominal.dynamic_power_w)),
        snm_pct=(_pct(m_one.snm_v, nominal.snm_v),
                 _pct(m_all.snm_v, nominal.snm_v)),
        metrics_one=m_one, metrics_all=m_all)


def width_variation_study(
    tech: GNRFETTechnology,
    vdd: float = 0.4,
    vt: float = 0.13,
    indices: tuple[int, ...] = (9, 12, 15, 18),
    config: RunConfig | None = None,
) -> tuple[InverterMetrics, dict[tuple[int, int], VariabilityEntry]]:
    """Full Table 2: nominal metrics plus every (N_p, N_n) cell.

    Returns ``(nominal_metrics, entries)`` with entries keyed by
    ``(p_index, n_index)`` to match the paper's row/column layout.
    ``config`` is passed on to the variant table builds.
    """
    config = RunConfig.from_env() if config is None else config
    nominal = characterize_inverter(*tech.inverter_tables(vt), vdd,
                                    tech.params)
    entries: dict[tuple[int, int], VariabilityEntry] = {}
    for n_p in indices:
        for n_n in indices:
            if n_p == 12 and n_n == 12:
                continue
            entry = sensitivity_entry(
                tech, DeviceVariant(n_index=n_n), DeviceVariant(n_index=n_p),
                nominal, vdd, vt, config=config)
            entries[(n_p, n_n)] = entry
    return nominal, entries
