"""Circuit elements: linear R/C, current sources, table-lookup FETs and
compact-model MOSFETs.

The five classes here are the closed set of netlist records that a
:class:`repro.circuit.netlist.Circuit` accepts.  They hold terminals and
parameters only; :meth:`Circuit.program` splits them into a topology,
which is compiled into the Newton steps that the DC and transient engines
run, and the instance data those steps read, so the element physics
(branch currents, Jacobian entries, capacitor branches) lives in one
kernel emitter in :mod:`repro.circuit.netlist`.  The program copies each
record's fields when it is built, so an element must not be changed after
it is added to a circuit.

The table FET implements the paper's extrinsic GNRFET of Fig. 3(a): the
intrinsic lookup-table device plus parasitic junction capacitances.  The
contact resistances of the figure are separate :class:`Resistor` elements
added by the circuit builders (they need their own internal nodes).

The :class:`CompactMOSFET` hosts the scaled-CMOS baseline: any object with
``ids(vgs, vds) -> (i, di_dvgs, di_dvds)`` and
``capacitances(vgs, vds) -> (cgs, cgd)`` works, which is how the
PTM-calibrated alpha-power model of :mod:`repro.cmos` plugs into the same
engine.
"""

from __future__ import annotations

from repro.device.tables import DeviceTable


class Resistor:
    """Linear resistor between two nodes."""

    def __init__(self, n1: int, n2: int, resistance_ohm: float):
        if resistance_ohm <= 0.0:
            raise ValueError(f"resistance must be positive, got {resistance_ohm}")
        self.nodes = (n1, n2)
        self.resistance_ohm = float(resistance_ohm)


class Capacitor:
    """Linear capacitor between two nodes."""

    def __init__(self, n1: int, n2: int, capacitance_f: float):
        if capacitance_f < 0.0:
            raise ValueError(f"capacitance must be >= 0, got {capacitance_f}")
        self.nodes = (n1, n2)
        self.capacitance_f = float(capacitance_f)


class CurrentSource:
    """Constant current injected from ``n_from`` into ``n_to``.

    It counts as a current flowing *out of* ``n_from`` into the
    element, so its static residual is ``+I`` at ``n_from`` and ``-I`` at
    ``n_to``.
    """

    def __init__(self, n_from: int, n_to: int, current_a: float):
        self.nodes = (n_from, n_to)
        self.current_a = float(current_a)


class TableFET:
    """Extrinsic GNRFET: lookup-table intrinsic device + parasitic caps.

    Parameters
    ----------
    drain, gate, source:
        Node indices (the builders put the contact resistors outside, so
        these are the *intrinsic* terminals).
    table:
        The intrinsic :class:`DeviceTable` (already composed over the GNR
        array and carrying the gate work-function offset).
    polarity:
        ``+1`` for n-type, ``-1`` for p-type.  A p-device is the
        electron-hole mirror of its table:
        ``I_p(v_gs, v_ds) = -I_table(-v_gs, -v_ds)``.
    c_par_gs_f, c_par_gd_f:
        Extrinsic junction capacitances (``C_GS,e``, ``C_GD,e``), added
        to the table's intrinsic ``C_GS,i`` / ``C_GD,i``.
    """

    def __init__(self, drain: int, gate: int, source: int,
                 table: DeviceTable, polarity: int = +1,
                 c_par_gs_f: float = 0.0, c_par_gd_f: float = 0.0):
        if polarity not in (+1, -1):
            raise ValueError(f"polarity must be +1 or -1, got {polarity}")
        self.nodes = (drain, gate, source)
        self.table = table
        self.polarity = polarity
        self.c_par_gs_f = float(c_par_gs_f)
        self.c_par_gd_f = float(c_par_gd_f)


class CompactMOSFET:
    """FET driven by a compact model (the scaled-CMOS baseline).

    ``model`` must provide ``ids(vgs, vds)`` returning
    ``(i, di_dvgs, di_dvds)`` for an n-type device in its first quadrant,
    and ``capacitances(vgs, vds)`` returning ``(cgs, cgd)`` in farads.
    p-type devices mirror the model exactly like :class:`TableFET`.
    """

    def __init__(self, drain: int, gate: int, source: int, model,
                 polarity: int = +1):
        if polarity not in (+1, -1):
            raise ValueError(f"polarity must be +1 or -1, got {polarity}")
        self.nodes = (drain, gate, source)
        self.model = model
        self.polarity = polarity


Element = Resistor | Capacitor | CurrentSource | TableFET | CompactMOSFET
"""The closed set of records :meth:`repro.circuit.netlist.Circuit.program`
compiles; any other object raises :class:`repro.errors.CircuitError`."""
