"""Table-lookup circuit simulator for GNRFET (and CMOS baseline) circuits.

Implements the paper's Section 3 simulator: a nodal-analysis engine whose
transistors are lookup tables of intrinsic ``I_D(V_GS, V_DS)`` and channel
charge (differentiated into ``C_GS,i`` / ``C_GD,i``), wrapped in the
extrinsic parasitics of Fig. 3(a): contact resistances ``R_S = R_D``
(1-100 kOhm, nominal 10 kOhm) and parasitic junction capacitances
``C_GS,e = C_GD,e`` (0.01-0.1 aF/nm x 40 nm contact width).

Engines: DC operating point (damped Newton with source stepping), transient
(trapezoidal with per-step Newton), voltage transfer curves, butterfly /
static-noise-margin extraction, and metric extraction (delay, static and
dynamic power, energy, frequency, EDP).  Both solvers evaluate a netlist
through the straight-line Newton steps its topology is compiled into
(:class:`repro.circuit.netlist.Kernel`), built once per topology and
shared by every circuit with that topology.

Circuit builders for the paper's three representative circuits, and no
others: inverter (fanout-of-4), 15-stage ring oscillator, and latch (its
netlist and hold-state static power; Fig. 7's SNM is the butterfly of
two inverter VTCs).  Multi-input gates are test topologies only
(``tests/circuit/gate_netlists.py``).
"""

from repro.circuit.netlist import Circuit, GROUND
from repro.circuit.elements import (
    Resistor,
    Capacitor,
    TableFET,
    CompactMOSFET,
)
from repro.circuit.dc import solve_dc, DCResult
from repro.circuit.transient import simulate_transient, TransientResult
from repro.circuit.vtc import compute_vtc
from repro.circuit.snm import butterfly_curves, static_noise_margin
from repro.circuit.metrics import (
    crossing_times,
    propagation_delays,
    oscillation_frequency,
    average_power_w,
)
from repro.circuit.inverter import (
    CircuitParameters,
    add_inverter,
    add_replica_load,
    build_inverter_chain,
    characterize_inverter,
    estimate_inverter_delay,
    estimate_inverter_energy,
    inverter_snm,
    inverter_static_power_w,
    inverter_vtc,
    InverterMetrics,
)
from repro.circuit.ring_oscillator import (
    build_ring_oscillator,
    simulate_ring_oscillator,
    RingOscillatorMetrics,
    estimate_ring_oscillator,
)
from repro.circuit.latch import build_latch, latch_static_power

__all__ = [
    "Circuit",
    "GROUND",
    "Resistor",
    "Capacitor",
    "TableFET",
    "CompactMOSFET",
    "solve_dc",
    "DCResult",
    "simulate_transient",
    "TransientResult",
    "compute_vtc",
    "butterfly_curves",
    "static_noise_margin",
    "crossing_times",
    "propagation_delays",
    "oscillation_frequency",
    "average_power_w",
    "CircuitParameters",
    "add_inverter",
    "add_replica_load",
    "estimate_inverter_delay",
    "estimate_inverter_energy",
    "inverter_snm",
    "inverter_static_power_w",
    "inverter_vtc",
    "build_inverter_chain",
    "characterize_inverter",
    "InverterMetrics",
    "build_ring_oscillator",
    "simulate_ring_oscillator",
    "RingOscillatorMetrics",
    "estimate_ring_oscillator",
    "build_latch",
    "latch_static_power",
]
