"""Inverter builder and characterization (delay, power, SNM).

The extrinsic GNRFET of the paper's Fig. 3(a) is assembled here: intrinsic
table device, contact resistances ``R_S = R_D`` on both terminals, and the
parasitic junction capacitances folded into the FET element.  The
characterized configuration matches Section 5: "an inverter with a
fanout-of-4 load", the load being four replica inverter inputs.  The
replicas share one input and drive nothing, so their outputs move
together; :func:`add_replica_load` simulates them as one inverter whose
tables and junction capacitances are four times larger.

Two characterization paths:

* :func:`characterize_inverter` — full transient + DC: the reference path
  used for the paper's Tables 2-4 and the headline operating points.
* :func:`estimate_inverter_delay` / :func:`estimate_inverter_energy` —
  quasi-static estimators (effective-current / total-switched-charge),
  two orders of magnitude faster, used for the dense V_DD-V_T exploration
  sweeps of Fig. 3(b) and validated against the transient path in an
  ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.dc import solve_dc
from repro.circuit.elements import Capacitor, Resistor, TableFET
from repro.circuit.metrics import propagation_delays
from repro.circuit.netlist import Circuit
from repro.circuit.snm import butterfly_curves, static_noise_margin
from repro.circuit.transient import simulate_transient
from repro.circuit.vtc import compute_vtc
from repro.device.tables import DeviceTable
from repro.errors import AnalysisError


@dataclass(frozen=True)
class CircuitParameters:
    """Extrinsic parasitics and array configuration (paper Fig. 3a).

    Attributes
    ----------
    contact_resistance_ohm:
        ``R_S = R_D`` per device; paper range 1-100 kOhm, nominal 10 kOhm.
    c_parasitic_af_per_nm:
        Junction capacitance per unit contact width; paper range
        0.01-0.1 aF/nm.
    contact_width_nm:
        Total array contact width (4 GNRs x 10 nm pitch = 40 nm).
    n_ribbons:
        Ribbons per GNRFET channel.
    fanout:
        Load inverters per driving inverter (the multiplier of the
        replica load's tables).
    c_wire_f:
        Fixed load on every driven (non-replica) inverter output: local
        interconnect plus contact-pad capacitance.  The paper's absolute
        per-stage switched energy (its inverter dynamic power and ring
        EDP) implies an effective output load well above the stated
        device parasitics alone; this knob is calibrated once so the
        nominal 15-stage ring oscillator lands at the paper's point-B
        frequency (~3.3 GHz), after which delay, dynamic power and EDP
        all fall onto the paper's scale (see EXPERIMENTS.md).

    The constructor raises ``ValueError`` unless ``n_ribbons`` and
    ``fanout`` are ints >= 1, the contact resistance and width are
    positive and both capacitances are non-negative (NaN fails).
    """

    contact_resistance_ohm: float = 10e3
    c_parasitic_af_per_nm: float = 0.05
    contact_width_nm: float = 40.0
    n_ribbons: int = 4
    fanout: int = 4
    c_wire_f: float = 45e-18

    def __post_init__(self) -> None:
        for name in ("n_ribbons", "fanout"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, int)
                    or value < 1):
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")
        # ``not value > 0`` rather than ``value <= 0``, so that NaN fails.
        for name in ("contact_resistance_ohm", "contact_width_nm"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be > 0, got {value!r}")
        for name in ("c_parasitic_af_per_nm", "c_wire_f"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")

    @property
    def c_parasitic_f(self) -> float:
        """``C_GS,e = C_GD,e`` in farads."""
        return self.c_parasitic_af_per_nm * 1e-18 * self.contact_width_nm


@dataclass(frozen=True)
class InverterMetrics:
    """Characterization output of one inverter configuration."""

    delay_s: float
    t_plh_s: float
    t_phl_s: float
    static_power_w: float
    dynamic_power_w: float
    snm_v: float
    vdd: float


def add_inverter(
    circuit: Circuit,
    prefix: str,
    input_node: int,
    output_node: int,
    vdd_node: int,
    n_table: DeviceTable,
    p_table: DeviceTable,
    params: CircuitParameters,
) -> tuple[TableFET, TableFET]:
    """Wire one extrinsic inverter; returns its (n, p) FET elements."""
    cp = params.c_parasitic_f
    gnd = circuit.node("0")
    if params.c_wire_f > 0.0:
        circuit.add(Capacitor(output_node, gnd, params.c_wire_f))
    r = params.contact_resistance_ohm
    nd = circuit.node(f"{prefix}.nd")
    ns = circuit.node(f"{prefix}.ns")
    pd = circuit.node(f"{prefix}.pd")
    ps = circuit.node(f"{prefix}.ps")
    circuit.add(Resistor(output_node, nd, r))
    circuit.add(Resistor(ns, gnd, r))
    circuit.add(Resistor(output_node, pd, r))
    circuit.add(Resistor(ps, vdd_node, r))
    nfet = TableFET(nd, input_node, ns, n_table, polarity=+1,
                    c_par_gs_f=cp, c_par_gd_f=cp)
    pfet = TableFET(pd, input_node, ps, p_table, polarity=-1,
                    c_par_gs_f=cp, c_par_gd_f=cp)
    circuit.add(nfet)
    circuit.add(pfet)
    return nfet, pfet


def add_replica_load(
    circuit: Circuit,
    prefix: str,
    input_node: int,
    vdd_node: int,
    n_table: DeviceTable,
    p_table: DeviceTable,
    params: CircuitParameters,
    copies: int,
) -> None:
    """Wire ``copies`` replica inverters on ``input_node`` as one inverter.

    A replica is a load inverter that nothing reads: its FETs sit
    directly on the rails (no contact resistors, parasitic caps kept),
    and only its gate capacitance loads the input node.  Identical
    replicas on one input all follow the same output waveform, so one
    inverter whose tables (current and charge, hence both intrinsic
    capacitances) and junction capacitances are ``copies`` times larger
    draws the same current from every node it shares with them.  Its
    output ``f"{prefix}.out"`` stands for every replica's output, so the
    solvers' ``gmin`` shunt to ground sits on one node instead of
    ``copies``.  ``copies == 0`` adds nothing.
    """
    if isinstance(copies, bool) or not isinstance(copies, int) or copies < 0:
        raise ValueError(f"copies must be an int >= 0, got {copies!r}")
    if copies == 0:
        return
    cp = copies * params.c_parasitic_f
    out = circuit.node(f"{prefix}.out")
    circuit.add(TableFET(out, input_node, circuit.node("0"),
                         n_table.scaled(copies), polarity=+1,
                         c_par_gs_f=cp, c_par_gd_f=cp))
    circuit.add(TableFET(out, input_node, vdd_node, p_table.scaled(copies),
                         polarity=-1, c_par_gs_f=cp, c_par_gd_f=cp))


def build_inverter_chain(
    n_table: DeviceTable,
    p_table: DeviceTable,
    vdd: float,
    params: CircuitParameters | None = None,
    load_tables: tuple[DeviceTable, DeviceTable] | None = None,
) -> Circuit:
    """DUT inverter with a fanout-of-``params.fanout`` replica load.

    Nodes: ``in`` (fixed input), ``out`` (DUT output), ``vdd``.  The
    load hangs on ``out`` as one ``params.fanout``-fold replica inverter
    (:func:`add_replica_load`); its output ``load.out`` is simulated but
    unloaded.  ``load_tables`` lets the load be a different (e.g.
    nominal) device than the DUT, which is how the variability studies
    keep the load fixed while varying the DUT.
    """
    params = params or CircuitParameters()
    load_tables = load_tables or (n_table, p_table)
    circuit = Circuit("inverter-fo4")
    vin = circuit.node("in")
    vout = circuit.node("out")
    vdd_node = circuit.node("vdd")
    circuit.fix(vdd_node, vdd)
    circuit.fix(vin, 0.0)

    add_inverter(circuit, "dut", vin, vout, vdd_node,
                 n_table, p_table, params)
    add_replica_load(circuit, "load", vout, vdd_node, load_tables[0],
                     load_tables[1], params, copies=params.fanout)
    return circuit


def inverter_static_power_w(
    n_table: DeviceTable,
    p_table: DeviceTable,
    vdd: float,
    params: CircuitParameters | None = None,
) -> float:
    """Average leakage power over the two input states.

    ``P_stat = V_DD (I_leak(in=0) + I_leak(in=V_DD)) / 2`` from DC solves
    of a single (unloaded) inverter.
    """
    params = params or CircuitParameters()
    circuit = Circuit("inverter-dc")
    vin = circuit.node("in")
    vout = circuit.node("out")
    vdd_node = circuit.node("vdd")
    circuit.fix(vdd_node, vdd)
    circuit.fix(vin, 0.0)
    add_inverter(circuit, "dut", vin, vout, vdd_node,
                 n_table, p_table, params)

    leak = 0.0
    for vin_val in (0.0, vdd):
        circuit.fixed[vin] = vin_val
        result = solve_dc(circuit)
        leak += abs(result.source_current(vdd_node))
    return vdd * leak / 2.0


def inverter_vtc(
    n_table: DeviceTable,
    p_table: DeviceTable,
    vdd: float,
    params: CircuitParameters | None = None,
    n_points: int = 61,
) -> tuple[np.ndarray, np.ndarray]:
    """Voltage transfer curve of a single inverter."""
    params = params or CircuitParameters()
    circuit = Circuit("inverter-vtc")
    vin = circuit.node("in")
    vout = circuit.node("out")
    vdd_node = circuit.node("vdd")
    circuit.fix(vdd_node, vdd)
    circuit.fix(vin, 0.0)
    add_inverter(circuit, "dut", vin, vout, vdd_node,
                 n_table, p_table, params)
    grid = np.linspace(0.0, vdd, n_points)
    return grid, compute_vtc(circuit, vin, vout, grid)


def inverter_snm(
    n_table: DeviceTable,
    p_table: DeviceTable,
    vdd: float,
    params: CircuitParameters | None = None,
) -> float:
    """SNM of an inverter pair (both inverters identical)."""
    vin, vout = inverter_vtc(n_table, p_table, vdd, params)
    return static_noise_margin(butterfly_curves(vin, vout))


def characterize_inverter(
    n_table: DeviceTable,
    p_table: DeviceTable,
    vdd: float,
    params: CircuitParameters | None = None,
    load_tables: tuple[DeviceTable, DeviceTable] | None = None,
    dt_s: float = 0.25e-12,
    cycle_s: float | None = None,
) -> InverterMetrics:
    """Full characterization: FO4 transient delay, powers, SNM.

    Dynamic power is the supply energy of one full output cycle (one fall
    + one rise of the DUT output) in excess of the static leakage energy,
    divided by the cycle period.  The period defaults to 16x a
    quasi-static delay estimate so that every variant is compared at the
    same activity (the paper compares variants at a fixed operating
    point).
    """
    params = params or CircuitParameters()
    est = estimate_inverter_delay(n_table, p_table, vdd, params)
    if not (np.isfinite(est) and est > 0.0):
        raise AnalysisError("drive current is zero; the inverter cannot "
                            "switch its FO4 load")
    if cycle_s is None:
        cycle_s = max(16.0 * est, 40e-12)
    ramp = max(2.0 * est, 2e-12)
    half = cycle_s / 2.0

    def vin_waveform(t: float) -> float:
        # Low for the first half-cycle (output falls after the initial
        # rise edge), then high.  Start low->high at t=ramp.
        t_mod = t % cycle_s
        if t_mod < ramp:
            return vdd * (t_mod / ramp)
        if t_mod < half:
            return vdd
        if t_mod < half + ramp:
            return vdd * (1.0 - (t_mod - half) / ramp)
        return 0.0

    circuit = build_inverter_chain(n_table, p_table, vdd, params,
                                   load_tables)
    vin = circuit.node("in")
    vout = circuit.node("out")
    vdd_node = circuit.node("vdd")

    # Initial condition: DC with input low; also record the two static
    # output levels so delays can be measured at the *actual* mid-swing
    # (degraded variants may not reach the rails).
    circuit.fixed[vin] = 0.0
    dc0 = solve_dc(circuit)
    v_out_high = dc0.voltage(vout)
    circuit.fixed[vin] = vdd
    v_out_low = solve_dc(circuit, v0=dc0.voltages).voltage(vout)
    out_threshold = 0.5 * (v_out_high + v_out_low)
    circuit.fixed[vin] = 0.0
    circuit.fixed[vin] = vin_waveform

    # Simulate two full cycles; measure on the second (settled) cycle.
    # Heavily degraded variants can settle slower than the quasi-static
    # estimate suggests; retry with a doubled cycle if an edge is missed.
    for _attempt in range(3):
        result = simulate_transient(circuit, 2.0 * cycle_s, dt_s,
                                    dc0.voltages,
                                    monitor_supplies=(vdd_node,))
        t = result.time_s
        second = t >= cycle_s
        try:
            t_plh, t_phl = propagation_delays(
                t[second], result.v(vin)[second], result.v(vout)[second],
                vdd, out_threshold_v=out_threshold)
            break
        except AnalysisError:
            cycle_s *= 2.0
            half = cycle_s / 2.0
            dt_s *= 1.5
    else:
        raise AnalysisError(
            "inverter output never completed both transitions; the "
            "variant may have lost its logic swing")
    delay = 0.5 * (t_plh + t_phl)

    p_stat = inverter_static_power_w(n_table, p_table, vdd, params)
    # Energy of the second cycle from the DUT supply (includes the loads;
    # they switch with the DUT, which is the realistic FO4 context).
    i_vdd = result.supply_currents[circuit.node("vdd")]
    e_cycle = float(np.trapezoid(i_vdd[second] * vdd, t[second]))
    # Subtract leakage of the whole circuit: the DUT leaks at its own
    # rate; the replicas leak at the (possibly different) load-device
    # rate.
    lt = load_tables or (n_table, p_table)
    p_stat_load = (p_stat if lt[0] is n_table and lt[1] is p_table
                   else inverter_static_power_w(lt[0], lt[1], vdd, params))
    leak_total = p_stat + params.fanout * p_stat_load
    p_dyn = max(e_cycle / cycle_s - leak_total, 0.0)

    snm = inverter_snm(n_table, p_table, vdd, params)
    return InverterMetrics(delay_s=delay, t_plh_s=t_plh, t_phl_s=t_phl,
                           static_power_w=p_stat, dynamic_power_w=p_dyn,
                           snm_v=snm, vdd=vdd)


# --------------------------------------------------------------------- #
# Quasi-static estimators (for dense sweeps)
# --------------------------------------------------------------------- #
def switched_gate_charge_c(
    n_table: DeviceTable, p_table: DeviceTable, vdd: float,
    params: CircuitParameters,
) -> float:
    """Total gate charge switched at an inverter input over a full swing.

    Integrates ``C_G(V) = C_GS + C_GD`` of both devices (intrinsic +
    parasitic) along the input transition; used as the per-fanout load
    charge of the quasi-static delay estimator.
    """
    vs = np.linspace(0.0, vdd, 21)
    c_tot = np.zeros_like(vs)
    for k, v in enumerate(vs):
        cgs_n, cgd_n = n_table.capacitances(v, vdd - v)
        cgs_p, cgd_p = p_table.capacitances(vdd - v, v)
        c_tot[k] = (float(cgs_n) + float(cgd_n) + float(cgs_p)
                    + float(cgd_p) + 4.0 * params.c_parasitic_f)
    return float(np.trapezoid(c_tot, vs))


def estimate_inverter_delay(
    n_table: DeviceTable, p_table: DeviceTable, vdd: float,
    params: CircuitParameters | None = None,
) -> float:
    """Quasi-static FO4 delay estimate.

    ``t_p ~ Q_sw / (2 I_eff)`` with the switched charge of the
    fanout-of-4 load plus the driver's own output charge, and the
    standard effective drive current
    ``I_eff = (I(V_DD, V_DD) + I(V_DD, V_DD/2)) / 2`` averaged over the
    n- and p-type devices (contact resistance degrades the drive through
    the IR drop at ``I_eff``).
    """
    params = params or CircuitParameters()
    q_load = params.fanout * switched_gate_charge_c(
        n_table, p_table, vdd, params)
    # Driver self-loading: drain-side charge of both devices plus the
    # output wire/pad load.
    q_self = params.c_wire_f * vdd
    for v in (0.0, vdd):
        _, cgd_n = n_table.capacitances(v, vdd - v)
        _, cgd_p = p_table.capacitances(vdd - v, v)
        q_self += (float(cgd_n) + float(cgd_p)
                   + 2.0 * params.c_parasitic_f) * vdd

    def drive(table: DeviceTable) -> float:
        i1 = float(table.current(vdd, vdd))
        i2 = float(table.current(vdd, vdd / 2.0))
        i_eff = 0.5 * (i1 + i2)
        # First-order contact-resistance degradation: the source IR drop
        # reduces V_GS.
        r = 2.0 * params.contact_resistance_ohm
        return i_eff / (1.0 + r * i_eff / max(vdd, 1e-9))

    i_n = drive(n_table)
    i_p = drive(p_table)
    if i_n <= 0.0 or i_p <= 0.0:
        return np.inf
    # 50% output swing: half the full-swing charge, delivered at I_eff.
    q_total = q_load + q_self
    t_fall = 0.5 * q_total / i_n
    t_rise = 0.5 * q_total / i_p
    return 0.5 * (t_fall + t_rise)


def estimate_inverter_energy(
    n_table: DeviceTable, p_table: DeviceTable, vdd: float,
    params: CircuitParameters | None = None,
) -> float:
    """Quasi-static switching energy per full cycle, ``Q_sw V_DD``."""
    params = params or CircuitParameters()
    q_load = params.fanout * switched_gate_charge_c(
        n_table, p_table, vdd, params)
    q_out = (4.0 * params.c_parasitic_f + params.c_wire_f) * vdd
    return (q_load + q_out) * vdd
