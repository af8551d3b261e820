"""Latch variability study: butterfly curves and static power (Fig. 7).

The paper's three cases: nominal latch, single GNR affected, all GNRs
affected, with the worst-case anomaly combination "when the nGNRFET has
N=9 and a +q charge impurity, and the pGNRFET has N=18 and a -q charge
impurity".  Due to the n/p asymmetry one eye of the butterfly collapses
(near-zero SNM) and static power rises over 5x.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.inverter import inverter_vtc
from repro.circuit.latch import latch_static_power
from repro.circuit.snm import ButterflyData, butterfly_curves, static_noise_margin
from repro.config import RunConfig
from repro.exploration.technology import GNRFETTechnology
from repro.variability.variants import DeviceVariant, variant_array_table

#: The paper's worst-case latch anomaly.
WORST_CASE_N = DeviceVariant(n_index=9, impurity_e=+1.0)
WORST_CASE_P = DeviceVariant(n_index=18, impurity_e=-1.0)


@dataclass
class LatchCase:
    """One latch configuration's butterfly and summary metrics."""

    label: str
    butterfly: ButterflyData
    snm_v: float
    static_power_w: float


def latch_case(
    tech: GNRFETTechnology,
    label: str,
    n_variant: DeviceVariant,
    p_variant: DeviceVariant,
    n_affected: int,
    vdd: float,
    vt: float,
    config: RunConfig | None = None,
) -> LatchCase:
    """Evaluate one latch configuration (both inverters identical)."""
    config = RunConfig.from_env() if config is None else config
    offset = tech.gate_offset_for_vt(vt)
    nt = variant_array_table(n_variant, +1, n_affected, offset,
                             tech.params.n_ribbons, tech.geometry, config)
    pt = variant_array_table(p_variant, -1, n_affected, offset,
                             tech.params.n_ribbons, tech.geometry, config)
    vin, vout = inverter_vtc(nt, pt, vdd, tech.params)
    butterfly = butterfly_curves(vin, vout)
    return LatchCase(
        label=label,
        butterfly=butterfly,
        snm_v=static_noise_margin(butterfly),
        static_power_w=latch_static_power(nt, pt, vdd, tech.params))


def latch_variability_study(
    tech: GNRFETTechnology,
    vdd: float = 0.4,
    vt: float = 0.13,
    n_variant: DeviceVariant = WORST_CASE_N,
    p_variant: DeviceVariant = WORST_CASE_P,
    config: RunConfig | None = None,
) -> list[LatchCase]:
    """The paper's three Fig. 7 cases in order: nominal / single / all.

    ``config`` is passed on to the variant table builds.
    """
    config = RunConfig.from_env() if config is None else config
    nominal = DeviceVariant()
    return [
        latch_case(tech, "nominal", nominal, nominal, 0, vdd, vt, config),
        latch_case(tech, "single GNR affected", n_variant, p_variant,
                   1, vdd, vt, config),
        latch_case(tech, "all GNRs affected", n_variant, p_variant,
                   tech.params.n_ribbons, vdd, vt, config),
    ]
