"""Netlists and their compiled kernels.

The engine uses nodal analysis with *fixed nodes* instead of explicit
voltage-source branches: every voltage source in the paper's circuits
(supply rails, input drivers) is ground-referenced, so pinning node
voltages is equivalent to full MNA and keeps the Jacobian square in the
free node voltages.  The current delivered by a source is recovered after
the solve by evaluating the KCL residual at its node.

A :class:`Circuit` holds elements from the closed set of
:mod:`repro.circuit.elements` (``Resistor``, ``Capacitor``,
``CurrentSource``, ``TableFET``, ``CompactMOSFET``).  The solvers never
walk those objects: :meth:`Circuit.program` turns them into a
:class:`StampProgram`, which splits the netlist into a *topology* (the
element kinds and their node slots) and the instance *data* (element
values, lookup callables, polarities).  Each topology is emitted once as
straight-line Python source and compiled into a :class:`Kernel`: every
slot of the residual and every Jacobian entry becomes one expression that
adds its element contributions in element order, so the kernel performs
the float operations of a record-by-record assembly in the same order
without its loops, tuple unpacking or kind dispatch.  Circuits with the
same topology (every inverter of a VTC sweep, every variant of an FO4
chain) share one kernel.  For the paper's gates (a handful of FETs)
per-call numpy overhead costs more than the scalar work it would replace
(see docs/performance.md, "Why not array assembly"), so numpy only sees
the assembled free-node system.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Callable, NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from repro import obs
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

_GROUND_NAMES = ("0", "gnd", "ground")

# Element kinds of a topology signature.
_RESISTOR, _SOURCE, _CAPACITOR, _TABLE_FET, _MOSFET = range(5)

#: The LAPACK gufunc ``np.linalg.solve`` dispatches to for a vector
#: right-hand side.  Called bare it reports a singular matrix as a NaN
#: solution (with the invalid flag, which the solvers' ``np.errstate``
#: silences) instead of raising ``LinAlgError``.
_solve1 = _umath_linalg.solve1


class Kernel(NamedTuple):
    """The compiled functions of one topology.

    Voltages live in *slots*: slot ``i < n`` is node ``i`` and slot ``n``
    is ground, which always holds ``0.0``.  Every function takes the slot
    voltages ``v`` and the instance ``data`` tuple of a
    :class:`StampProgram`.

    * ``dc_step(v, data, gmin)`` -> ``(residual, jacobian)`` over the
      free nodes (ascending), the Jacobian flat and row-major; ``gmin``
      is stamped only when positive.
    * ``transient_step(v, data, geqs, dv_old, i_prev, gmin)`` ->
      ``(residual, jacobian, branch_currents, fixed_residual)``: the
      static stamps, then every capacitor branch's trapezoidal companion
      (conductance ``geqs[k]``, current
      ``geqs[k] * (v_a - v_b - dv_old[k]) - i_prev[k]``), then ``gmin``;
      ``fixed_residual`` is the static residual at each fixed node
      (ascending), which is the current its source delivers.
    * ``branches(v, data)`` -> ``(capacitances, voltages)`` of the
      capacitor branches.
    * ``assemble(v, data)`` -> static ``(residual, jacobian)`` over every
      slot, ground included; the Jacobian is flat ``(n+1)**2``.
    """

    source: str
    dc_step: Callable
    transient_step: Callable
    branches: Callable
    assemble: Callable


#: Compiled kernels by topology signature, for the life of the process.
_KERNELS: dict[tuple, Kernel] = {}


def _kernel(signature: tuple) -> Kernel:
    kernel = _KERNELS.get(signature)
    if kernel is None:
        source = _kernel_source(*signature)
        namespace: dict = {}
        exec(compile(source, "<circuit kernel>", "exec"), namespace)
        kernel = Kernel(source, namespace["dc_step"],
                        namespace["transient_step"], namespace["branches"],
                        namespace["assemble"])
        _KERNELS[signature] = kernel
        if obs.ACTIVE:
            obs.incr("circuit.kernels_compiled")
    return kernel


def _sum(terms: list[str]) -> str:
    """An accumulator started at ``0.0`` (not at its first term, so a
    signed zero comes out as the record-by-record assembly left it)."""
    return "0.0" + "".join(terms)


def _kernel_source(n: int, fixed: tuple[int, ...],
                   elements: tuple[tuple[int, ...], ...]) -> str:
    """Python source of the :class:`Kernel` functions of one topology.

    ``elements`` holds ``(kind, *slots)`` per element in netlist order;
    ``fixed`` the fixed node slots, ascending.  Each residual slot and
    Jacobian entry collects its terms in element order (capacitor
    companions after every static stamp, ``gmin`` last); only the entries
    a function returns are emitted.
    """
    width = n + 1
    free = [i for i in range(n) if i not in fixed]
    n_free = len(free)
    data: list[str] = []
    statics: list[str] = []   # element currents and derivatives
    caps: list[str] = []
    cap_values: list[str] = []
    branches: list[tuple[int, int]] = []
    f_terms: dict[int, list[str]] = defaultdict(list)
    j_terms: dict[tuple[int, int], list[str]] = defaultdict(list)

    for k, (kind, *slots) in enumerate(elements):
        if kind == _RESISTOR:
            a, b = slots
            data.append(f"G{k}")
            statics.append(f"    e{k} = G{k} * (v{a} - v{b})")
            f_terms[a].append(f" + e{k}")
            f_terms[b].append(f" - e{k}")
            j_terms[a, a].append(f" + G{k}")
            j_terms[a, b].append(f" - G{k}")
            j_terms[b, a].append(f" - G{k}")
            j_terms[b, b].append(f" + G{k}")
        elif kind == _SOURCE:
            a, b = slots
            data.append(f"I{k}")
            f_terms[a].append(f" + I{k}")
            f_terms[b].append(f" - I{k}")
        elif kind == _CAPACITOR:
            data.append(f"C{k}")
            cap_values.append(f"C{k}")
            branches.append((slots[0], slots[1]))
        else:
            d, g, s = slots
            data += [f"IV{k}", f"CV{k}", f"P{k}"]
            bias = f"P{k} * (v{g} - v{s}), P{k} * (v{d} - v{s})"
            # Current flows drain -> source inside the device for i > 0;
            # dI/dVs = -(dI/dVd + dI/dVg).
            statics += [f"    e{k}, x{k}, y{k} = IV{k}({bias})",
                        f"    e{k} = P{k} * e{k}",
                        f"    u{k} = y{k} + x{k}"]
            f_terms[d].append(f" + e{k}")
            f_terms[s].append(f" - e{k}")
            j_terms[d, d].append(f" + y{k}")
            j_terms[d, g].append(f" + x{k}")
            j_terms[d, s].append(f" - u{k}")
            j_terms[s, d].append(f" - y{k}")
            j_terms[s, g].append(f" - x{k}")
            j_terms[s, s].append(f" + u{k}")
            caps.append(f"    a{k}, b{k} = CV{k}({bias})")
            if kind == _TABLE_FET:
                # Intrinsic table capacitance plus the extrinsic junction.
                data += [f"PS{k}", f"PD{k}"]
                cap_values += [f"a{k} + PS{k}", f"b{k} + PD{k}"]
            else:
                cap_values += [f"float(a{k})", f"float(b{k})"]
            branches += [(g, s), (g, d)]

    # Transient terms: each capacitor branch's companion after the statics.
    companions: list[str] = []
    t_f = defaultdict(list, {i: list(t) for i, t in f_terms.items()})
    t_j = defaultdict(list, {p: list(t) for p, t in j_terms.items()})
    for k, (a, b) in enumerate(branches):
        companions.append(f"    c{k} = B{k} * ((v{a} - v{b}) - O{k}) - Q{k}")
        t_f[a].append(f" + c{k}")
        t_j[a, a].append(f" + B{k}")
        t_j[a, b].append(f" - B{k}")
        t_f[b].append(f" - c{k}")
        t_j[b, b].append(f" + B{k}")
        t_j[b, a].append(f" - B{k}")

    def unpack(names: list[str], value: str) -> list[str]:
        return [f"    {', '.join(names)}, = {value}"] if names else []

    def header(signature: str) -> list[str]:
        return ([f"def {signature}:"]
                + unpack([f"v{i}" for i in range(width)], "v")
                + unpack(data, "data"))

    def free_jacobian(terms: dict, diagonal: Callable[[int], str]
                      ) -> list[str]:
        lines = [f"    jac = [0.0] * {n_free * n_free}"]
        for fi, row in enumerate(free):
            for fj, col in enumerate(free):
                if row == col:
                    value = diagonal(row)
                elif (row, col) in terms:
                    value = _sum(terms[row, col])
                else:
                    continue
                lines.append(f"    jac[{fi * n_free + fj}] = {value}")
        return lines

    residual = "[" + ", ".join(f"r{i}" for i in free) + "]"
    src: list[str] = []

    # DC Newton step: gmin only when positive (adding 0.0 could flip a
    # signed zero).
    lines = []
    for i in free:
        lines.append(f"    r{i} = {_sum(f_terms.get(i, []))}")
        lines.append(f"    q{i} = {_sum(j_terms.get((i, i), []))}")
    if free:
        lines.append("    if gmin > 0.0:")
        for i in free:
            lines.append(f"        r{i} = r{i} + gmin * v{i}")
            lines.append(f"        q{i} = q{i} + gmin")
    lines += free_jacobian(j_terms, lambda i: f"q{i}")
    src += header("dc_step(v, data, gmin)") + statics + lines
    src += [f"    return {residual}, jac", ""]

    # Transient Newton step.
    lines = [f"    r{i} = {_sum(t_f.get(i, []))} + gmin * v{i}" for i in free]
    lines += free_jacobian(t_j, lambda i: f"{_sum(t_j.get((i, i), []))}"
                                          " + gmin")
    fixed_rows = ", ".join(_sum(f_terms.get(m, [])) for m in fixed)
    currents = ", ".join(f"c{k}" for k in range(len(branches)))
    src += header("transient_step(v, data, geqs, dv_old, i_prev, gmin)")
    for name, value in (("B", "geqs"), ("O", "dv_old"), ("Q", "i_prev")):
        src += unpack([f"{name}{k}" for k in range(len(branches))], value)
    src += statics + companions + lines
    src += [f"    return {residual}, jac, [{currents}], [{fixed_rows}]", ""]

    # Branch capacitances and voltages.
    voltages = ", ".join(f"v{a} - v{b}" for a, b in branches)
    src += header("branches(v, data)") + caps
    src += [f"    return [{', '.join(cap_values)}], [{voltages}]", ""]

    # Full-slot static assembly.
    lines = [f"    jac = [0.0] * {width * width}"]
    lines += [f"    jac[{row * width + col}] = {_sum(terms)}"
              for (row, col), terms in sorted(j_terms.items())]
    rows = ", ".join(_sum(f_terms.get(i, [])) for i in range(width))
    src += header("assemble(v, data)") + statics + lines
    src += [f"    return [{rows}], jac", ""]
    return "\n".join(src)


class StampProgram:
    """A circuit split into its topology's :class:`Kernel` and its data.

    ``data`` holds, in element order, each resistor's conductance, each
    current source's current, each capacitor's capacitance, and for each
    FET its scalar ``current_and_derivatives`` and ``capacitances``
    callables and polarity (table FETs also their two parasitic
    capacitances).  ``branches`` lists the two-terminal capacitor
    branches as slot pairs, in element order (a fixed capacitor gives one
    branch, a FET its gate-source then gate-drain branch); ``fixed`` the
    fixed node slots in the kernel's order.
    """

    def __init__(self, circuit: "Circuit"):
        n = circuit.n_nodes

        def slot(node: int) -> int:
            return n if node == GROUND else node

        elements: list[tuple[int, ...]] = []
        data: list = []
        branches: list[tuple[int, int]] = []
        for el in circuit.elements:
            if isinstance(el, Resistor):
                a, b = el.nodes
                elements.append((_RESISTOR, slot(a), slot(b)))
                data.append(1.0 / el.resistance_ohm)
            elif isinstance(el, CurrentSource):
                a, b = el.nodes
                elements.append((_SOURCE, slot(a), slot(b)))
                data.append(el.current_a)
            elif isinstance(el, Capacitor):
                a, b = el.nodes
                elements.append((_CAPACITOR, slot(a), slot(b)))
                data.append(el.capacitance_f)
                branches.append((slot(a), slot(b)))
            elif isinstance(el, (TableFET, CompactMOSFET)):
                d, g, s = (slot(node) for node in el.nodes)
                if isinstance(el, TableFET):
                    lookups = el.table.scalar_lookups()
                    elements.append((_TABLE_FET, d, g, s))
                    data += [lookups.current_and_derivatives,
                             lookups.capacitances, el.polarity,
                             el.c_par_gs_f, el.c_par_gd_f]
                else:
                    elements.append((_MOSFET, d, g, s))
                    data += [el.model.ids, el.model.capacitances,
                             el.polarity]
                branches += [(g, s), (g, d)]
            else:
                raise CircuitError(
                    f"{el!r} is not a circuit element (Resistor, Capacitor, "
                    "CurrentSource, TableFET or CompactMOSFET)")

        fixed = tuple(i for i in range(n) if i in circuit.fixed)
        #: The topology: ``(n_nodes, fixed slots, (kind, *slots) per element)``.
        self.signature = (n, fixed, tuple(elements))
        self.n_nodes = n
        self.n_elements = len(circuit.elements)
        self.fixed_nodes = frozenset(circuit.fixed)
        self.fixed = fixed
        #: Free node indices (ascending).
        self.free = [i for i in range(n) if i not in circuit.fixed]
        self.branches = branches
        self.data = tuple(data)
        self.kernel = _kernel(self.signature)
        # The free-node Jacobian handed to LAPACK, refilled in place.
        self._jac = np.empty((len(self.free), len(self.free)))
        self._jac_flat = self._jac.reshape(-1)

    def assemble(self, v: list[float]) -> tuple[list[float], list[float]]:
        """Static residual and Jacobian at slot voltages ``v``.

        ``f[i]`` is the net static current flowing out of slot ``i`` into
        the elements; ``jac[i*(n+1) + j]`` is its derivative with respect
        to ``v[j]``.  Each slot accumulates its contributions in element
        order.
        """
        return self.kernel.assemble(v, self.data)

    def capacitances(self, v: list[float]) -> list[float]:
        """Capacitance of every branch (farads) at slot voltages ``v``."""
        return self.kernel.branches(v, self.data)[0]

    def newton_update(self, v: list[float], residual: list[float],
                      jac: list[float], tol_a: float,
                      damping_v: float) -> bool | None:
        """One damped Newton update of the free slots of ``v``, in place.

        ``residual`` and ``jac`` are a kernel step's free-node system.
        Returns ``True`` when the residual is already below ``tol_a``
        (``v`` untouched), ``False`` when the linear solve fails (a
        singular or non-finite system gives a non-finite step), and
        ``None`` after a step.  The caller holds the ``np.errstate`` that
        silences the solver's floating-point flags.
        """
        # A NaN residual never converges (as with ``max(|r|) < tol``).
        for r in residual:
            if not abs(r) < tol_a:
                break
        else:
            return True
        self._jac_flat[:] = jac
        dv = _solve1(self._jac, np.negative(residual)).tolist()
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
        if name in _GROUND_NAMES:
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

    def source_node(self, node: int | str) -> int:
        """Index of a node driven by a source, i.e. a fixed node.

        Ground, free nodes and unknown nodes raise :class:`CircuitError`;
        a name is looked up without creating a node.
        """
        if isinstance(node, str):
            idx = GROUND if node in _GROUND_NAMES else self._node_ids.get(node)
        else:
            idx = node
        if idx not in self.fixed:
            raise CircuitError(f"node {node!r} is not driven by a source "
                               "(only fixed nodes are)")
        return idx

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
