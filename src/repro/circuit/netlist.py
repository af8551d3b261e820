"""Netlists and their compiled stamp program.

The engine uses nodal analysis with *fixed nodes* instead of explicit
voltage-source branches: every voltage source in the paper's circuits
(supply rails, input drivers) is ground-referenced, so pinning node
voltages is equivalent to full MNA and keeps the Jacobian square in the
free node voltages.  The current delivered by a source is recovered after
the solve by evaluating the KCL residual at its node.

A :class:`Circuit` holds elements from the closed set of
:mod:`repro.circuit.elements` (``Resistor``, ``Capacitor``,
``CurrentSource``, ``TableFET``, ``CompactMOSFET``).  The solvers never
walk those objects: :meth:`Circuit.program` compiles them once into a
:class:`StampProgram`, a flat list of records with precomputed voltage
slots and Jacobian positions, and :meth:`StampProgram.assemble` is the
one kernel that stamps every element.  Voltages, residuals and Jacobians
live in Python lists inside the kernel (numpy only sees the assembled
vector and matrix), because for the paper's gates (a handful of FETs)
per-call numpy overhead costs more than the scalar work it would replace
(see docs/performance.md, "Why not array assembly").
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.circuit.elements import (
    Capacitor,
    CompactMOSFET,
    CurrentSource,
    Element,
    Resistor,
    TableFET,
)
from repro.errors import CircuitError

GROUND = -1
"""Node index of the reference node (0 V)."""

# Record kinds of the stamp program.
_RESISTOR, _SOURCE, _TABLE_FET, _MOSFET, _FIXED_CAP = range(5)


class StampProgram:
    """A circuit compiled for the assembly kernel.

    Voltages are held in *slots*: slot ``i < n`` is node ``i`` and slot
    ``n`` is ground, which always holds ``0.0``.  Residuals use the same
    slots and the Jacobian is a flat ``(n+1)**2`` row-major list, so
    ground rows and columns are real positions that the solvers simply
    never read.

    ``static`` has one record per element with a static current, in
    element order: resistors and current sources carry their
    conductance or current, FETs their device and polarity.
    ``cap_sources`` lists the capacitive elements in element order, and
    ``branches`` the two-terminal capacitor branches they expand to
    (a fixed capacitor gives one branch, a FET its gate-source then
    gate-drain branch).
    """

    def __init__(self, circuit: "Circuit"):
        n = circuit.n_nodes
        width = n + 1

        def slot(node: int) -> int:
            return n if node == GROUND else node

        def pos(row: int, col: int) -> int:
            return slot(row) * width + slot(col)

        static: list[tuple] = []
        cap_sources: list[tuple] = []
        branches: list[tuple[int, int, int, int, int, int]] = []

        def branch(a: int, b: int) -> None:
            branches.append((slot(a), slot(b), pos(a, a), pos(a, b),
                             pos(b, b), pos(b, a)))

        for el in circuit.elements:
            if isinstance(el, Resistor):
                a, b = el.nodes
                static.append((_RESISTOR, slot(a), slot(b),
                               1.0 / el.resistance_ohm, pos(a, a),
                               pos(a, b), pos(b, a), pos(b, b)))
            elif isinstance(el, CurrentSource):
                a, b = el.nodes
                static.append((_SOURCE, slot(a), slot(b), el.current_a))
            elif isinstance(el, Capacitor):
                a, b = el.nodes
                cap_sources.append((_FIXED_CAP, el.capacitance_f))
                branch(a, b)
            elif isinstance(el, (TableFET, CompactMOSFET)):
                d, g, s = el.nodes
                if isinstance(el, TableFET):
                    kind, device = _TABLE_FET, el.table
                    parasitics = (el.c_par_gs_f, el.c_par_gd_f)
                else:
                    kind, device = _MOSFET, el.model
                    parasitics = None
                static.append((kind, slot(d), slot(g), slot(s), device,
                               el.polarity, pos(d, d), pos(d, g),
                               pos(d, s), pos(s, d), pos(s, g), pos(s, s)))
                cap_sources.append((kind, slot(d), slot(g), slot(s),
                                    device, el.polarity, parasitics))
                branch(g, s)
                branch(g, d)
            else:
                raise CircuitError(
                    f"{el!r} is not a circuit element (Resistor, Capacitor, "
                    "CurrentSource, TableFET or CompactMOSFET)")

        free = circuit.free_nodes().tolist()
        self.n_nodes = n
        self.n_elements = len(circuit.elements)
        self.fixed_nodes = frozenset(circuit.fixed)
        self.static = static
        self.cap_sources = cap_sources
        self.branches = branches
        #: Free node indices, and ``(node, diagonal position)`` pairs.
        self.free = free
        self.free_diag = [(i, i * width + i) for i in free]
        free_idx = np.array(free, dtype=np.intp)
        self._free_block = free_idx[:, None] * width + free_idx[None, :]
        self._n_slots = width
        self._n_jac = width * width

    # --- kernel -------------------------------------------------------------
    def assemble(self, v: list[float]) -> tuple[list[float], list[float]]:
        """Static residual and Jacobian at slot voltages ``v``.

        ``f[i]`` is the net static current flowing out of slot ``i`` into
        the elements; ``jac[i*(n+1) + j]`` is its derivative with respect
        to ``v[j]``.  Each slot accumulates its contributions in element
        order.
        """
        f = [0.0] * self._n_slots
        jac = [0.0] * self._n_jac
        for rec in self.static:
            kind = rec[0]
            if kind == _RESISTOR:
                _, a, b, g, paa, pab, pba, pbb = rec
                i = g * (v[a] - v[b])
                f[a] += i
                f[b] -= i
                jac[paa] += g
                jac[pab] -= g
                jac[pba] -= g
                jac[pbb] += g
            elif kind == _SOURCE:
                _, a, b, i = rec
                f[a] += i
                f[b] -= i
            else:
                _, d, g, s, dev, p, pdd, pdg, pds, psd, psg, pss = rec
                vs = v[s]
                if kind == _TABLE_FET:
                    i, di_dvgs, di_dvds = dev.current_and_derivatives(
                        p * (v[g] - vs), p * (v[d] - vs))
                else:
                    i, di_dvgs, di_dvds = dev.ids(
                        p * (v[g] - vs), p * (v[d] - vs))
                # Current flows drain -> source inside the device for
                # i > 0; dI/dVs = -(dI/dVd + dI/dVg).
                i = p * i
                f[d] += i
                f[s] -= i
                di_sum = di_dvds + di_dvgs
                jac[pdd] += di_dvds
                jac[pdg] += di_dvgs
                jac[pds] -= di_sum
                jac[psd] -= di_dvds
                jac[psg] -= di_dvgs
                jac[pss] += di_sum
        return f, jac

    def capacitances(self, v: list[float]) -> list[float]:
        """Capacitance of every branch (farads) at slot voltages ``v``."""
        caps: list[float] = []
        for rec in self.cap_sources:
            kind = rec[0]
            if kind == _FIXED_CAP:
                caps.append(rec[1])
                continue
            _, d, g, s, dev, p, parasitics = rec
            vs = v[s]
            cgs, cgd = dev.capacitances(p * (v[g] - vs), p * (v[d] - vs))
            if kind == _TABLE_FET:
                # Intrinsic table capacitance plus the extrinsic junction.
                caps.append(float(cgs) + parasitics[0])
                caps.append(float(cgd) + parasitics[1])
            else:
                caps.append(float(cgs))
                caps.append(float(cgd))
        return caps

    def add_companions(self, v: list[float], f: list[float],
                       jac: list[float], geqs: list[float],
                       dv_old: list[float], i_prev: list[float]
                       ) -> list[float]:
        """Stamp each branch's companion current; returns the currents.

        Branch ``k`` carries ``geqs[k] * (v_a - v_b - dv_old[k]) -
        i_prev[k]`` from ``a`` to ``b``, with conductance ``geqs[k]``.
        """
        currents = []
        for (a, b, paa, pab, pbb, pba), geq, dv0, i0 in zip(
                self.branches, geqs, dv_old, i_prev):
            i = geq * ((v[a] - v[b]) - dv0) - i0
            currents.append(i)
            f[a] += i
            jac[paa] += geq
            jac[pab] -= geq
            f[b] -= i
            jac[pbb] += geq
            jac[pba] -= geq
        return currents

    def add_gmin(self, v: list[float], f: list[float], jac: list[float],
                 gmin: float) -> None:
        """Conductance ``gmin`` from every free node to ground."""
        for i, pd in self.free_diag:
            f[i] += gmin * v[i]
            jac[pd] += gmin

    def newton_update(self, v: list[float], f: list[float],
                      jac: list[float], tol_a: float,
                      damping_v: float) -> bool | None:
        """One damped Newton update of the free slots of ``v``, in place.

        Returns ``True`` when the free residual is already below
        ``tol_a`` (``v`` untouched), ``False`` when the linear solve
        fails or yields a non-finite step, and ``None`` after a step.
        """
        residual = [f[i] for i in self.free]
        # A NaN residual never converges (as with ``max(|r|) < tol``).
        if all(abs(r) < tol_a for r in residual):
            return True
        try:
            j_ff = np.fromiter(jac, np.float64, self._n_jac)[self._free_block]
            dv = np.linalg.solve(j_ff, np.negative(residual)).tolist()
        except np.linalg.LinAlgError:
            return False
        if not all(map(math.isfinite, dv)):
            return False
        # Voltage-step damping keeps table FETs in a sane region.
        max_step = max(map(abs, dv))
        if max_step > damping_v:
            scale = damping_v / max_step
            dv = [step * scale for step in dv]
        for i, step in zip(self.free, dv):
            v[i] += step
        return None


class Circuit:
    """A flat netlist of elements over named nodes."""

    def __init__(self, name: str = "circuit"):
        self.name = name
        self._node_ids: dict[str, int] = {}
        self.elements: list[Element] = []
        #: Fixed node voltages: node index -> value or callable(t) -> value.
        self.fixed: dict[int, float | Callable[[float], float]] = {}
        self._program: StampProgram | None = None

    # --- nodes ----------------------------------------------------------------
    def node(self, name: str) -> int:
        """Return (creating if needed) the index of a named node.

        The names ``"0"``, ``"gnd"`` and ``"ground"`` refer to the
        reference node.
        """
        if name in ("0", "gnd", "ground"):
            return GROUND
        if name not in self._node_ids:
            self._node_ids[name] = len(self._node_ids)
        return self._node_ids[name]

    @property
    def n_nodes(self) -> int:
        """Number of non-ground nodes."""
        return len(self._node_ids)

    def node_name(self, index: int) -> str:
        """Inverse lookup (for diagnostics)."""
        if index == GROUND:
            return "gnd"
        for name, idx in self._node_ids.items():
            if idx == index:
                return name
        raise CircuitError(f"unknown node index {index}")

    # --- construction -----------------------------------------------------------
    def add(self, element: Element) -> None:
        """Add an element (one of the :mod:`repro.circuit.elements` records)."""
        self.elements.append(element)

    def fix(self, node: int | str,
            value: float | Callable[[float], float]) -> None:
        """Pin a node to a voltage (number) or waveform (callable of time)."""
        idx = self.node(node) if isinstance(node, str) else node
        if idx == GROUND:
            raise CircuitError("cannot fix the ground node")
        if not 0 <= idx < self.n_nodes:
            raise CircuitError(f"cannot fix unknown node index {idx}")
        self.fixed[idx] = value

    # --- solver support -----------------------------------------------------------
    def fixed_voltages(self, t: float = 0.0) -> dict[int, float]:
        """Evaluate all fixed nodes at time ``t``."""
        out = {}
        for node, value in self.fixed.items():
            out[node] = float(value(t)) if callable(value) else float(value)
        return out

    def free_nodes(self) -> np.ndarray:
        """Indices of nodes solved for (not ground, not fixed)."""
        return np.array([i for i in range(self.n_nodes) if i not in self.fixed],
                        dtype=int)

    def program(self) -> StampProgram:
        """The compiled stamp program, validated and built on first use.

        It is rebuilt whenever elements, nodes or the set of fixed nodes
        changed since it was compiled (``add()``, ``fix()`` of a new node,
        or a direct write of a new key into :attr:`fixed`); changing a
        fixed node's value needs no recompile.
        """
        prog = self._program
        if (prog is None or prog.n_elements != len(self.elements)
                or prog.n_nodes != self.n_nodes
                or prog.fixed_nodes != self.fixed.keys()):
            prog = StampProgram(self)
            self.validate()
            self._program = prog
        return prog

    def validate(self) -> None:
        """Sanity-check the netlist before solving."""
        if self.n_nodes == 0:
            raise CircuitError("circuit has no nodes")
        if not self.elements:
            raise CircuitError("circuit has no elements")
        for node in self.fixed:
            if isinstance(node, str) or not 0 <= node < self.n_nodes:
                raise CircuitError(f"fixed node {node!r} is not a node index "
                                   f"in [0, {self.n_nodes})")
        touched = np.zeros(self.n_nodes, dtype=bool)
        for el in self.elements:
            for n in el.nodes:
                if n != GROUND:
                    if n >= self.n_nodes or n < 0:
                        raise CircuitError(
                            f"element {el!r} references unknown node {n}")
                    touched[n] = True
        untouched = [self.node_name(i) for i in range(self.n_nodes)
                     if not touched[i] and i not in self.fixed]
        if untouched:
            raise CircuitError(f"dangling nodes with no elements: {untouched}")
