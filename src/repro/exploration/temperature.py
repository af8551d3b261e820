"""Temperature dependence of GNRFET device and circuit metrics.

The paper simulates at room temperature; temperature is nonetheless a
first-order knob for a Schottky-barrier technology, because both the
thermionic contribution over the barriers and the ambipolar leakage
floor are activated processes (~exp(-E_b / kT)).  This study quantifies
the resulting leakage/performance temperature coefficients, giving the
paper's static-power story its thermal margin.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.circuit.inverter import (
    CircuitParameters,
    estimate_inverter_delay,
    inverter_static_power_w,
)
from repro.config import RunConfig
from repro.constants import ROOM_TEMPERATURE_K
from repro.device.geometry import GNRFETGeometry
from repro.device.tables import build_device_table
from repro.device.vt_extraction import extract_vt_linear


@dataclass
class TemperaturePoint:
    """Device + inverter metrics at one temperature."""

    temperature_k: float
    i_on_a: float
    i_min_a: float
    vt_v: float
    inverter_delay_s: float
    inverter_static_power_w: float


def temperature_study(
    base_geometry: GNRFETGeometry | None = None,
    temperatures_k: tuple[float, ...] = (
        250.0, ROOM_TEMPERATURE_K, 350.0, 400.0),
    params: CircuitParameters | None = None,
    vdd: float = 0.4,
    vt_target: float = 0.13,
    config: RunConfig | None = None,
) -> list[TemperaturePoint]:
    """Sweep lattice/contact temperature; device re-simulated per point.

    The gate work-function offset is re-derived at each temperature from
    that temperature's extracted V_T (a real design would fix the metal;
    both conventions give the same leakage activation, and re-extraction
    keeps the operating point comparable across T).  ``config`` is
    passed on to the table builds.
    """
    base_geometry = base_geometry or GNRFETGeometry()
    config = RunConfig.from_env() if config is None else config
    params = params or CircuitParameters()

    points = []
    for t_k in temperatures_k:
        geometry = replace(base_geometry, temperature_k=float(t_k))
        table = build_device_table(geometry, config=config)
        vgs = table.vg[(table.vg >= 0.0) & (table.vg <= 0.8)]
        j_low = 1  # lowest non-zero V_D column
        curve = np.array([table.current(float(v), float(table.vd[j_low]))
                          for v in vgs])
        vt0 = extract_vt_linear(vgs, curve, vd=float(table.vd[j_low]))

        array = table.scaled(params.n_ribbons).with_gate_offset(
            vt0 - vt_target)
        j_half = int(np.argmin(np.abs(table.vd - 0.5)))
        on = float(table.current(0.75, float(table.vd[j_half])))
        sweep = np.array([table.current(float(v), float(table.vd[j_half]))
                          for v in vgs])

        points.append(TemperaturePoint(
            temperature_k=float(t_k),
            i_on_a=on,
            i_min_a=float(sweep.min()),
            vt_v=float(vt0),
            inverter_delay_s=estimate_inverter_delay(array, array, vdd,
                                                     params),
            inverter_static_power_w=inverter_static_power_w(
                array, array, vdd, params)))
    return points


def leakage_activation_energy_ev(points: list[TemperaturePoint]) -> float:
    """Arrhenius fit of the ambipolar leakage floor.

    ``I_min ~ exp(-E_a / kT)``: returns ``E_a`` from a linear fit of
    ``ln I_min`` vs ``1/kT``.  For the N=12 SBFET the expectation is a
    sizeable fraction of the half-gap (~0.3 eV) reduced by tunneling.
    """
    from repro.constants import K_B_EV

    if len(points) < 2:
        raise ValueError("need at least two temperatures")
    inv_kt = np.array([1.0 / (K_B_EV * p.temperature_k) for p in points])
    ln_i = np.array([np.log(max(p.i_min_a, 1e-30)) for p in points])
    slope = float(np.polyfit(inv_kt, ln_i, 1)[0])
    return -slope
