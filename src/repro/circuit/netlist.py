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
without its loops, tuple unpacking or kind dispatch.  The kernel runs a
whole damped Newton loop and solves each iteration's free-node system by
sparse elimination in an order fixed at emit time, also as straight-line
code.  Circuits with the same topology (every inverter of a VTC sweep,
every variant of an FO4 chain) share one kernel.  For the paper's gates
(a handful of FETs) per-call numpy overhead costs more than the scalar
work it would replace (see docs/performance.md, "Why not array
assembly"), so numpy only sees a free-node system the elimination
declines.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Collection
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

#: Largest multiplier magnitude the generated elimination accepts.  It
#: does not pivot, so a larger multiplier (or a NaN) sends that Newton
#: iteration to LAPACK, which does.
MAX_MULTIPLIER = 10.0

#: The LAPACK gufunc ``np.linalg.solve`` dispatches to for a vector
#: right-hand side.  Called bare it reports a singular matrix as a NaN
#: solution (with the invalid flag, which the solvers' ``np.errstate``
#: silences) instead of raising ``LinAlgError``.
_solve1 = _umath_linalg.solve1


def _lapack(jac: list[float], residual: list[float]) -> list[float]:
    """``J^-1 r`` for the flat, row-major free-node Jacobian ``jac`` by
    LAPACK (partial pivoting): the kernels' fallback.  The kernels step
    by ``-J^-1 r``, and negating the right-hand side negates every
    intermediate exactly, so this is the step of ``solve(J, -r)`` bit for
    bit."""
    m = len(residual)
    return _solve1(np.array(jac).reshape(m, m), residual).tolist()


class Elimination(NamedTuple):
    """The symbolic LU factorization of one free-node Jacobian pattern.

    ``order`` lists the free slots in elimination order and ``pattern``
    the structurally nonzero ``(row, column)`` slot pairs, diagonal
    included; ``multipliers`` counts the entries of ``L`` below the
    diagonal, ``updates`` the multiply-subtract operations of forward
    elimination on the augmented system ``[J | r]`` and ``fill`` the
    entries of ``L + U`` outside the pattern.
    """

    order: tuple[int, ...]
    pattern: frozenset
    multipliers: int
    updates: int
    fill: int


class Kernel(NamedTuple):
    """The compiled functions of one topology.

    Voltages live in *slots*: slot ``i < n`` is node ``i`` and slot ``n``
    is ground, which always holds ``0.0``.  Every function takes the slot
    voltages ``v`` and the instance ``data`` tuple of a
    :class:`StampProgram`.

    * ``dc_newton(v, data, gmin, tol_a, max_iter, damping_v, fallbacks)``
      -> ``(iterations, converged, fallbacks)``: damped Newton on the
      free slots of ``v``, updated in place.  Each iteration evaluates
      the free residual, returns once every entry is below ``tol_a`` in
      magnitude (a NaN never is), then evaluates the free-block Jacobian
      and steps by ``-J^-1 r``, scaled down to ``damping_v`` in its
      largest entry; a non-finite step fails.  ``gmin`` is stamped only
      when positive.
    * ``transient_newton(v, data, geqs, dv_old, i_prev, gmin, tol_a,
      max_iter, damping_v, fallbacks)`` -> ``(converged, branch_currents,
      fixed_residual, fallbacks)``, both lists empty when the step fails
      (``v`` then holds the last iterate):
      the same loop over the static stamps, then every capacitor branch's
      trapezoidal companion (conductance ``geqs[k]``, current
      ``geqs[k] * (v_a - v_b - dv_old[k]) - i_prev[k]``), then ``gmin``.
      ``fixed_residual`` is the static residual at each fixed node
      (ascending) of the converged iterate, which is the current its
      source delivers.
    * ``branches(v, data)`` -> ``(capacitances, voltages)`` of the
      capacitor branches.
    * ``assemble(v, data)`` -> static ``(residual, jacobian)`` over every
      slot, ground included; the Jacobian is flat ``(n+1)**2``.

    The Newton functions solve by elimination without pivoting in the
    order of ``dc_elimination`` / ``transient_elimination``.  A
    multiplier above :data:`MAX_MULTIPLIER` in magnitude (or NaN), a zero
    pivot or a non-finite step sends that iteration to LAPACK on the
    dense free block instead, and adds one to ``fallbacks``.
    """

    source: str
    dc_newton: Callable
    transient_newton: Callable
    branches: Callable
    assemble: Callable
    dc_elimination: Elimination
    transient_elimination: Elimination


#: Compiled kernels by topology signature, for the life of the process.
_KERNELS: dict[tuple, Kernel] = {}


def _kernel(signature: tuple) -> Kernel:
    kernel = _KERNELS.get(signature)
    if kernel is None:
        source, dc_lu, transient_lu = _kernel_source(*signature)
        namespace: dict = {"lapack": _lapack}
        exec(compile(source, "<circuit kernel>", "exec"), namespace)
        kernel = Kernel(source, namespace["dc_newton"],
                        namespace["transient_newton"], namespace["branches"],
                        namespace["assemble"], dc_lu, transient_lu)
        _KERNELS[signature] = kernel
        if obs.ACTIVE:
            obs.incr("circuit.kernels_compiled")
    return kernel


def _sum(terms: list[str]) -> str:
    """An accumulator started at ``0.0`` (not at its first term, so a
    signed zero comes out as the record-by-record assembly left it)."""
    return "0.0" + "".join(terms)


def _min_degree_order(free: list[int],
                      pattern: Collection[tuple[int, int]]) -> list[int]:
    """``free`` in minimum-degree order on the symmetrized ``pattern``
    (slot pairs): repeatedly take the slot with the fewest neighbours
    (the lowest slot on a tie), then join its neighbours into a clique,
    as eliminating it fills them in."""
    neighbours: dict[int, set[int]] = {i: set() for i in free}
    for i, j in pattern:
        if i != j:
            neighbours[i].add(j)
            neighbours[j].add(i)
    order: list[int] = []
    while neighbours:
        k = min(neighbours, key=lambda i: (len(neighbours[i]), i))
        order.append(k)
        clique = neighbours.pop(k)
        for i in clique:
            neighbours[i] |= clique
            neighbours[i] -= {i, k}
    return order


def _symbolic_lu(order: list[int], pattern: Collection[tuple[int, int]]
                 ) -> tuple[dict[tuple[int, int], list[int]], set]:
    """The pivots that update each entry of the LU factors of a matrix
    with nonzero ``pattern`` eliminated in ``order`` without pivoting.

    Returns ``terms``, mapping every entry of ``L + U`` to its pivots in
    elimination order (``[]`` for an entry no pivot updates), and the
    pattern of ``L + U`` (``pattern`` plus fill).
    """
    pos = {slot: p for p, slot in enumerate(order)}
    lower: dict[int, set[int]] = {k: set() for k in order}
    upper: dict[int, set[int]] = {k: set() for k in order}
    for i, j in pattern:
        if pos[i] > pos[j]:
            lower[j].add(i)
        elif pos[i] < pos[j]:
            upper[i].add(j)
    filled = set(pattern)
    terms: dict[tuple[int, int], list[int]] = {entry: [] for entry in filled}
    for k in order:
        for i in lower[k]:
            for j in upper[k]:
                if (i, j) not in filled:
                    filled.add((i, j))
                    terms[i, j] = []
                    if pos[i] > pos[j]:
                        lower[j].add(i)
                    else:
                        upper[i].add(j)
                terms[i, j].append(k)
    return terms, filled


def _kernel_source(n: int, fixed: tuple[int, ...],
                   elements: tuple[tuple[int, ...], ...]
                   ) -> tuple[str, Elimination, Elimination]:
    """Python source of the :class:`Kernel` functions of one topology,
    and the eliminations of its DC and transient Newton functions.

    ``elements`` holds ``(kind, *slots)`` per element in netlist order;
    ``fixed`` the fixed node slots, ascending.  Each residual slot and
    Jacobian entry collects its terms in element order (capacitor
    companions after every static stamp, ``gmin`` last); only the entries
    a function reads are emitted.  Both Newton functions eliminate the
    free slots in minimum-degree order on the transient Jacobian's
    pattern, which contains the DC pattern.
    """
    width = n + 1
    free = [i for i in range(n) if i not in fixed]
    data: list[str] = []
    currents: list[str] = []   # element currents and their derivatives
    slopes: list[str] = []     # derivatives only the Jacobian reads
    caps: list[str] = []
    cap_values: list[str] = []
    branches: list[tuple[int, int]] = []
    f_terms: dict[int, list[str]] = defaultdict(list)
    j_terms: dict[tuple[int, int], list[str]] = defaultdict(list)

    for k, (kind, *slots) in enumerate(elements):
        if kind == _RESISTOR:
            a, b = slots
            data.append(f"G{k}")
            currents.append(f"e{k} = G{k} * (v{a} - v{b})")
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
            currents += [f"e{k}, x{k}, y{k} = IV{k}({bias})",
                         f"e{k} = P{k} * e{k}"]
            slopes.append(f"u{k} = y{k} + x{k}")
            f_terms[d].append(f" + e{k}")
            f_terms[s].append(f" - e{k}")
            j_terms[d, d].append(f" + y{k}")
            j_terms[d, g].append(f" + x{k}")
            j_terms[d, s].append(f" - u{k}")
            j_terms[s, d].append(f" - y{k}")
            j_terms[s, g].append(f" - x{k}")
            j_terms[s, s].append(f" + u{k}")
            caps.append(f"a{k}, b{k} = CV{k}({bias})")
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
        companions.append(f"c{k} = B{k} * ((v{a} - v{b}) - O{k}) - Q{k}")
        t_f[a].append(f" + c{k}")
        t_j[a, a].append(f" + B{k}")
        t_j[a, b].append(f" - B{k}")
        t_f[b].append(f" - c{k}")
        t_j[b, b].append(f" + B{k}")
        t_j[b, a].append(f" - B{k}")

    # Free-block Jacobians, diagonal always present.  The DC diagonal
    # takes ``gmin`` at run time, only when it is positive (adding 0.0
    # could flip a signed zero).
    def free_block(terms: dict) -> dict[tuple[int, int], str]:
        return {(i, j): _sum(terms.get((i, j), [])) for i in free
                for j in free if i == j or (i, j) in terms}

    dc_jac = free_block(j_terms)
    t_jac = {(i, j): value + " + gmin" if i == j else value
             for (i, j), value in free_block(t_j).items()}
    order = _min_degree_order(free, t_jac)

    def unpack(names: list[str], value: str) -> list[str]:
        return [f"{', '.join(names)}, = {value}"] if names else []

    def indent(lines: list[str], depth: int) -> list[str]:
        return ["    " * depth + line for line in lines]

    write_back = [f"v[{i}] = v{i}" for i in free]
    header = (unpack([f"v{i}" for i in range(width)], "v")
              + unpack(data, "data"))

    def newton(signature: str, prologue: list[str], loop: str,
               body: list[str], done: list[str], jacobian: dict,
               dc_gmin: bool, failed: str) -> tuple[list[str], Elimination]:
        """A Newton function: ``body`` evaluates the free residual, and
        ``done`` returns once it is below ``tol_a`` in every entry (a NaN
        never is), which with no free slot is at once."""
        lines = [f"def {signature}:"] + indent(header + prologue + [loop], 1)
        if not free:
            return lines + indent(body + done, 2) + [""], Elimination(
                (), frozenset(), 0, 0, 0)
        step, lu = _newton_lines(width, free, order, jacobian, dc_gmin)
        test = " and ".join(f"abs(r{i}) < tol_a" for i in free)
        lines += indent(body + [f"if {test}:"] + indent(write_back + done, 1)
                        + slopes + step, 2)
        return lines + indent(write_back + [failed], 1) + [""], lu

    # One DC solve attempt.
    body = currents + [f"r{i} = {_sum(f_terms.get(i, []))}" for i in free]
    if free:
        body += ["if gmin > 0.0:"]
        body += indent([f"r{i} = r{i} + gmin * v{i}" for i in free], 1)
    src, dc_lu = newton(
        "dc_newton(v, data, gmin, tol_a, max_iter, damping_v, fallbacks)",
        [], "for iteration in range(1, max_iter + 1):", body,
        ["return iteration, True, fallbacks"], dc_jac, True,
        "return iteration, False, fallbacks")

    # One integration step.
    fixed_rows = ", ".join(_sum(f_terms.get(m, [])) for m in fixed)
    step_currents = ", ".join(f"c{k}" for k in range(len(branches)))
    prologue: list[str] = []
    for name, value in (("B", "geqs"), ("O", "dv_old"), ("Q", "i_prev")):
        prologue += unpack([f"{name}{k}" for k in range(len(branches))],
                           value)
    lines, transient_lu = newton(
        "transient_newton(v, data, geqs, dv_old, i_prev, gmin, tol_a, "
        "max_iter, damping_v, fallbacks)", prologue,
        "for iteration in range(max_iter):",
        currents + companions + [
            f"r{i} = {_sum(t_f.get(i, []))} + gmin * v{i}" for i in free],
        [f"return True, [{step_currents}], [{fixed_rows}], fallbacks"],
        t_jac, False, "return False, [], [], fallbacks")
    src += lines

    # Branch capacitances and voltages.
    voltages = ", ".join(f"v{a} - v{b}" for a, b in branches)
    src += ["def branches(v, data):"] + indent(header + caps, 1)
    src += [f"    return [{', '.join(cap_values)}], [{voltages}]", ""]

    # Full-slot static assembly.
    lines = [f"jac = [0.0] * {width * width}"]
    lines += [f"jac[{row * width + col}] = {_sum(terms)}"
              for (row, col), terms in sorted(j_terms.items())]
    rows = ", ".join(_sum(f_terms.get(i, [])) for i in range(width))
    src += ["def assemble(v, data):"]
    src += indent(header + currents + slopes + lines, 1)
    src += [f"    return [{rows}], jac", ""]
    return "\n".join(src), dc_lu, transient_lu


def _elimination(width: int, order: list[int],
                 pattern: Collection[tuple[int, int]]
                 ) -> tuple[list[str], list[str], Elimination]:
    """Straight-line solve of the free-node system with nonzero
    ``pattern`` (slot pairs), eliminated in ``order`` without pivoting.

    Entry ``(i, j)`` of the system lives in ``q{i * width + j}``, and
    column ``n = width - 1`` (the ground slot, never free) holds the
    right-hand side, which starts as the residual ``r{i}``.  The lines
    run the elimination row by row in ``order`` (Doolittle), overwriting
    each entry with its ``L`` or ``U`` factor; every factor is one
    expression that subtracts its updates in elimination order, the
    order of a right-looking LU.  Back substitution leaves ``J^-1 r`` in
    column ``n``.  A zero pivot raises ``ZeroDivisionError``.  Returns
    the lines, the names of the multipliers and the symbolic
    factorization.
    """
    n = width - 1

    def q(i: int, j: int) -> str:
        return f"q{i * width + j}"

    terms, filled = _symbolic_lu(order, pattern)
    pos = {slot: p for p, slot in enumerate(order)}
    rows: dict[int, list[int]] = {i: [] for i in order}
    for i, j in filled:
        rows[i].append(j)
    lines: list[str] = []
    multipliers: list[str] = []
    rhs = {i: f"r{i}" for i in order}
    for i in order:
        row = sorted(rows[i], key=pos.__getitem__)
        for j in row:
            updates = "".join(f" - {q(i, k)} * {q(k, j)}"
                              for k in terms[i, j])
            value = (q(i, j) + updates if (i, j) in pattern
                     else "-" + updates[3:])
            if pos[j] < pos[i]:
                if updates:
                    value = f"({value})"
                lines.append(f"{q(i, j)} = {value} / {q(j, j)}")
                multipliers.append(q(i, j))
            elif updates:
                lines.append(f"{q(i, j)} = {value}")
        lower = [k for k in row if pos[k] < pos[i]]
        if lower:
            lines.append(f"{q(i, n)} = r{i}" + "".join(
                f" - {q(i, k)} * {rhs[k]}" for k in lower))
            rhs[i] = q(i, n)
    for i in reversed(order):
        upper = sorted((j for j in rows[i] if pos[j] > pos[i]),
                       key=pos.__getitem__, reverse=True)
        updates = "".join(f" - {q(i, j)} * {q(j, n)}" for j in upper)
        value = f"({rhs[i]}{updates})" if updates else rhs[i]
        lines.append(f"{q(i, n)} = {value} / {q(i, i)}")
    lu = Elimination(
        order=tuple(order),
        pattern=frozenset(pattern),
        multipliers=len(multipliers),
        updates=sum(map(len, terms.values())) + len(multipliers),
        fill=len(filled) - len(pattern))
    return lines, multipliers, lu


def _newton_lines(width: int, free: list[int], order: list[int],
                  jacobian: dict[tuple[int, int], str], dc_gmin: bool
                  ) -> tuple[list[str], Elimination]:
    """One Newton step after the residual: Jacobian, solve, damped update.

    ``jacobian`` maps each free-block entry to its expression; with
    ``dc_gmin`` the diagonal also takes ``gmin`` when it is positive.
    The system is solved by :func:`_elimination`.  On a zero pivot, a
    multiplier above :data:`MAX_MULTIPLIER` in magnitude (or NaN) or a
    non-finite solution, LAPACK solves the same iteration from the dense
    free block, rebuilt from the same expressions.  A non-finite step
    leaves the loop.
    """
    m = len(free)
    lines = [f"q{i * width + j} = {value}"
             for (i, j), value in jacobian.items()]
    if dc_gmin:
        lines += ["if gmin > 0.0:"] + [
            f"    q{i * (width + 1)} = q{i * (width + 1)} + gmin"
            for i in free]
    solve, multipliers, lu = _elimination(width, order, jacobian)
    step = [f"q{i * width + width - 1}" for i in free]
    # A sum is finite only if every term is (an overflowing sum only
    # costs a LAPACK solve).
    finite = f"0.0 * ({' + '.join(step)}) == 0.0"
    checks = [f"abs({x}) <= {MAX_MULTIPLIER!r}" for x in multipliers]
    checks.append(finite)
    solve.append(f"solved = ({checks[0]}")
    solve += [f"          and {check}" for check in checks[1:]]
    solve[-1] += ")"

    # The dense free block, ascending free order, for LAPACK.
    index = {slot: fi for fi, slot in enumerate(free)}
    dense = [f"jac = [0.0] * {m * m}"]
    dense += [f"jac[{index[i] * m + index[j]}] = {value}"
              for (i, j), value in sorted(jacobian.items())]
    if dc_gmin:
        dense += ["if gmin > 0.0:"]
        dense += [f"    jac[{index[i] * (m + 1)}] = "
                  f"jac[{index[i] * (m + 1)}] + gmin" for i in free]
    residual = ", ".join(f"r{i}" for i in free)
    fallback = ["fallbacks += 1"] + dense + [
        f"{', '.join(step)}, = lapack(jac, [{residual}])",
        f"if not {finite}:", "    break"]

    largest = (f"max({', '.join(f'abs({x})' for x in step)})" if m > 1
               else f"abs({step[0]})")
    lines += ["try:"] + ["    " + line for line in solve]
    lines += ["except ZeroDivisionError:", "    solved = False",
              "if not solved:"] + ["    " + line for line in fallback]
    # Voltage-step damping keeps table FETs in a sane region.
    lines += [f"max_step = {largest}", "if max_step > damping_v:",
              "    scale = damping_v / max_step"]
    lines += [f"    {x} = {x} * scale" for x in step]
    lines += [f"v{i} = v{i} - {x}" for i, x in zip(free, step)]
    return lines, lu


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
