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
without its loops, tuple unpacking or kind dispatch.  The kernel's
``dc_newton`` runs a whole damped Newton loop, and its ``transient_run``
a whole transient (every step's Newton loop, with the table lookups of
uniform-grid tables inlined); each Newton iteration solves its free-node
system by sparse elimination in an order fixed at emit time, also as
straight-line code.  Circuits with the same topology (every inverter of
a VTC sweep, every variant of an FO4 chain) share one kernel.  For the
paper's gates (a handful of FETs) per-call numpy overhead costs more
than the scalar work it would replace (see docs/performance.md, "Why not
array assembly"), so numpy only sees a free-node system the elimination
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
from repro.errors import CircuitError, ConvergenceError

GROUND = -1
"""Node index of the reference node (0 V)."""

_GROUND_NAMES = ("0", "gnd", "ground")

# Element kinds of a topology signature.  A table FET on a uniform grid
# is a ``_GRID_FET``, whose lookups ``transient_run`` inlines; any other
# table FET is a ``_TABLE_FET``, which calls its lookup closures.
_RESISTOR, _SOURCE, _CAPACITOR, _TABLE_FET, _MOSFET, _GRID_FET = range(6)

#: Largest multiplier magnitude the generated elimination accepts.  It
#: does not pivot, so a larger multiplier (or a NaN) sends that Newton
#: iteration to LAPACK, which does.
MAX_MULTIPLIER = 10.0

#: The LAPACK gufunc ``np.linalg.solve`` dispatches to for a vector
#: right-hand side.  Called bare it reports a singular matrix as a NaN
#: solution (with the invalid flag, which the solvers' ``np.errstate``
#: silences) instead of raising ``LinAlgError``.
_solve1 = _umath_linalg.solve1


def _lapack(entries: tuple[float, ...], positions: tuple[int, ...],
            residual: list[float]) -> list[float]:
    """``J^-1 r`` by LAPACK (partial pivoting): the kernels' fallback.

    ``entries`` are the structurally nonzero entries of the free-node
    Jacobian and ``positions`` their flat, row-major indices in the dense
    block (an emit-time table); every other entry is zero.  The kernels
    step by ``-J^-1 r``, and negating the right-hand side negates every
    intermediate exactly, so this is the step of ``solve(J, -r)`` bit for
    bit."""
    m = len(residual)
    jac = np.zeros(m * m)
    jac[list(positions)] = entries
    return _solve1(jac.reshape(m, m), residual).tolist()


def _diverged(t: float, halvings: int) -> ConvergenceError:
    """The error a transient run raises for a step that no halving
    saves."""
    return ConvergenceError(
        f"transient step failed to converge at t = {t:.3e} s "
        f"even after {halvings} step halvings")


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


class Kernel:
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
    * ``transient_run(v, data, waves, t_end, dt, gmin, tol_a, max_iter,
      damping_v, max_halvings, check)`` -> ``(times, states, rows,
      halvings, fallbacks)``: the whole trapezoidal integration of
      :func:`repro.circuit.transient.simulate_transient` from the slot
      voltages ``v`` at ``t = 0``.  Each step takes the capacitor
      branches' capacitances at the last accepted state, then tries
      ``h = min(dt, t_end - t)``, halved up to ``max_halvings`` times:
      the first step by backward Euler from ``v``, every later one by
      trapezoidal companions from the last state extrapolated over ``h``
      (by at most one step), the fixed slots at ``t + h`` (``waves``
      holds one callable per fixed slot, ascending, or ``None`` for a
      constant, which keeps its value in ``v``), and the Newton loop of
      ``dc_newton`` over the static stamps, then every branch's companion
      (conductance ``B``, current ``B * (v_a - v_b - O) - Q``), then
      ``gmin``.  ``times`` lists the accepted times (``0.0`` first),
      ``states`` the node voltages at each as a tuple and ``rows`` the
      static residual at each fixed slot of each accepted state (the
      current its source delivers); ``check``, unless ``None``, is called
      as ``check(t, voltages)`` on every accepted state before it is
      recorded.  A step that fails every halving raises
      :class:`repro.errors.ConvergenceError`.  On return or that error
      the free slots of ``v`` hold the last iterate.
    * ``assemble(v, data)`` -> static ``(residual, jacobian)`` over every
      slot, ground included; the Jacobian is flat ``(n+1)**2``.

    The Newton loops solve by elimination without pivoting in the order
    of ``dc_elimination`` / ``transient_elimination``.  A multiplier
    above :data:`MAX_MULTIPLIER` in magnitude (or NaN), a zero pivot or a
    non-finite step sends that iteration to LAPACK on the dense free
    block instead, and adds one to ``fallbacks``.  ``transient_run``
    inlines the current and capacitance lookups of every table FET on a
    uniform grid; every other FET calls its callables.

    ``dc_newton`` and ``assemble`` are compiled with the kernel;
    ``transient_run``, the bulk of the source, on its first use, so a
    topology that only ever runs DC (a VTC inverter, a latch) never
    compiles it.  ``source`` is the whole text either way.
    """

    def __init__(self, dc_source: str, transient_source: str,
                 dc_elimination: Elimination,
                 transient_elimination: Elimination):
        self.dc_elimination = dc_elimination
        self.transient_elimination = transient_elimination
        self._dc_source = dc_source
        self._transient_source = transient_source
        namespace = _compiled(dc_source)
        self.dc_newton: Callable = namespace["dc_newton"]
        self.assemble: Callable = namespace["assemble"]
        self._transient_run: Callable | None = None

    @property
    def source(self) -> str:
        """The Python source of all three functions."""
        return self._dc_source + self._transient_source

    @property
    def transient_run(self) -> Callable:
        if self._transient_run is None:
            self._transient_run = _compiled(
                self._transient_source)["transient_run"]
            if obs.ACTIVE:
                obs.incr("circuit.transient_kernels_compiled")
        return self._transient_run


def _compiled(source: str) -> dict:
    """The namespace that executing kernel ``source`` defines."""
    namespace: dict = {"lapack": _lapack, "diverged": _diverged}
    exec(compile(source, "<circuit kernel>", "exec"), namespace)
    return namespace


#: Kernels by topology signature, for the life of the process.
_KERNELS: dict[tuple, Kernel] = {}


def _kernel(signature: tuple) -> Kernel:
    kernel = _KERNELS.get(signature)
    if kernel is None:
        kernel = Kernel(*_kernel_source(*signature))
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


def _grid_index(k: int, grid: str) -> list[str]:
    """Lines that place FET ``k``'s mapped bias ``(gs<k>, ds<k>)`` on its
    table's uniform grid and read the four corners ``z00 .. z11`` of its
    cell from the nested list ``grid``: the opening of the table's scalar
    lookups (:func:`repro.device.tables._scalar_lookups`), negative
    ``V_DS`` mirrored, both axes clamped to the grid, the same float
    operations in the same order.  The constants are FET ``k``'s unpacked
    :class:`repro.device.tables.UniformGrid`."""
    return [
        f"if ds{k} < 0.0:",
        f"    fx = (gs{k} - ds{k} + OF{k} - VG{k}) / DG{k}",
        f"    fy = (-ds{k} - VD{k}) / DD{k}",
        "else:",
        f"    fx = (gs{k} + OF{k} - VG{k}) / DG{k}",
        f"    fy = (ds{k} - VD{k}) / DD{k}",
        "if fx < 0.0:", "    fx = 0.0", f"elif fx > FX{k}:", f"    fx = FX{k}",
        "ix = int(fx)", f"if ix > IX{k}:", f"    ix = IX{k}", "tx = fx - ix",
        "if fy < 0.0:", "    fy = 0.0", f"elif fy > FY{k}:", f"    fy = FY{k}",
        "iy = int(fy)", f"if iy > IY{k}:", f"    iy = IY{k}", "ty = fy - iy",
        f"row0 = {grid}[ix]", f"row1 = {grid}[ix + 1]",
        "z00 = row0[iy]", "z01 = row0[iy + 1]",
        "z10 = row1[iy]", "z11 = row1[iy + 1]",
    ]


def _grid_current(k: int) -> list[str]:
    """``e<k>, x<k>, y<k>``: FET ``k``'s table current and its
    derivatives at ``(gs<k>, ds<k>)``, the table's
    ``current_and_derivatives`` inlined."""
    return _grid_index(k, f"CU{k}") + [
        "sx = 1.0 - tx",
        "sy = 1.0 - ty",
        f"e{k} = z00 * sx * sy + z10 * tx * sy + z01 * sx * ty + z11 * tx * ty",
        f"x{k} = ((z10 - z00) * sy + (z11 - z01) * ty) / DG{k}",
        f"y{k} = ((z01 - z00) * sx + (z11 - z10) * tx) / DD{k}",
        f"if ds{k} < 0.0:",
        f"    e{k}, x{k}, y{k} = -e{k}, -x{k}, x{k} + y{k}",
    ]


def _grid_capacitances(k: int) -> list[str]:
    """``a<k>, b<k>``: FET ``k``'s intrinsic ``C_GS,i`` (clamped at zero)
    and ``C_GD,i`` at ``(gs<k>, ds<k>)``, the table's ``capacitances``
    inlined."""
    return _grid_index(k, f"CH{k}") + [
        f"b{k} = abs(((z01 - z00) * (1.0 - tx) + (z11 - z10) * tx) / DD{k})",
        f"a{k} = abs(((z10 - z00) * (1.0 - ty) + (z11 - z01) * ty) / DG{k})"
        f" - b{k}",
        f"if not a{k} > 0.0:",
        f"    a{k} = 0.0",
    ]


def _grid_constants(k: int) -> str:
    """The line that unpacks FET ``k``'s grid constants ``T<k>``."""
    return (f"OF{k}, VG{k}, DG{k}, FX{k}, IX{k}, VD{k}, DD{k}, FY{k}, "
            f"IY{k}, CU{k}, CH{k} = T{k}")


def _kernel_source(n: int, fixed: tuple[int, ...],
                   elements: tuple[tuple[int, ...], ...]
                   ) -> tuple[str, str, Elimination, Elimination]:
    """Python sources of the :class:`Kernel` functions of one topology
    (``dc_newton`` with ``assemble``, then ``transient_run``), and the
    eliminations of its DC and transient Newton loops.

    ``elements`` holds ``(kind, *slots)`` per element in netlist order;
    ``fixed`` the fixed node slots, ascending.  Each residual slot and
    Jacobian entry collects its terms in element order (capacitor
    companions after every static stamp, ``gmin`` last); only the entries
    a function reads are emitted.  Both Newton loops eliminate the free
    slots in minimum-degree order on the transient Jacobian's pattern,
    which contains the DC pattern.
    """
    width = n + 1
    free = [i for i in range(n) if i not in fixed]
    data: list[str] = []
    currents: list[str] = []   # element currents and their derivatives
    slopes: list[str] = []     # derivatives only the Jacobian reads
    # ``transient_run``'s element currents, FET capacitances and grid
    # constants: the lookups of table FETs on a uniform grid inlined.
    run_currents: list[str] = []
    caps: list[str] = []
    grids: list[str] = []
    cap_values: list[str] = []
    branches: list[tuple[int, int]] = []
    f_terms: dict[int, list[str]] = defaultdict(list)
    j_terms: dict[tuple[int, int], list[str]] = defaultdict(list)

    for k, (kind, *slots) in enumerate(elements):
        if kind == _RESISTOR:
            a, b = slots
            data.append(f"G{k}")
            currents.append(f"e{k} = G{k} * (v{a} - v{b})")
            run_currents.append(currents[-1])
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
            call = f"e{k}, x{k}, y{k} = IV{k}({bias})"
            polarity = f"e{k} = P{k} * e{k}"
            currents += [call, polarity]
            slopes.append(f"u{k} = y{k} + x{k}")
            f_terms[d].append(f" + e{k}")
            f_terms[s].append(f" - e{k}")
            j_terms[d, d].append(f" + y{k}")
            j_terms[d, g].append(f" + x{k}")
            j_terms[d, s].append(f" - u{k}")
            j_terms[s, d].append(f" - y{k}")
            j_terms[s, g].append(f" - x{k}")
            j_terms[s, s].append(f" + u{k}")
            if kind == _MOSFET:
                cap_values += [f"float(a{k})", f"float(b{k})"]
            else:
                # Intrinsic table capacitance plus the extrinsic junction.
                data += [f"PS{k}", f"PD{k}"]
                cap_values += [f"a{k} + PS{k}", f"b{k} + PD{k}"]
            if kind == _GRID_FET:
                data.append(f"T{k}")
                grids.append(_grid_constants(k))
                at_bias = [f"gs{k} = P{k} * (v{g} - v{s})",
                           f"ds{k} = P{k} * (v{d} - v{s})"]
                run_currents += at_bias + _grid_current(k) + [polarity]
                caps += at_bias + _grid_capacitances(k)
            else:
                run_currents += [call, polarity]
                caps.append(f"a{k}, b{k} = CV{k}({bias})")
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
    converged = " and ".join(f"abs(r{i}) < tol_a" for i in free)
    no_lu = Elimination((), frozenset(), 0, 0, 0)

    # One DC solve attempt: returns once the residual is below ``tol_a``
    # (at once with no free slot).
    body = currents + [f"r{i} = {_sum(f_terms.get(i, []))}" for i in free]
    src = ["def dc_newton(v, data, gmin, tol_a, max_iter, damping_v, "
           "fallbacks):"]
    src += indent(header + ["for iteration in range(1, max_iter + 1):"], 1)
    done = ["return iteration, True, fallbacks"]
    if free:
        body += ["if gmin > 0.0:"]
        body += indent([f"r{i} = r{i} + gmin * v{i}" for i in free], 1)
        step, dc_lu = _newton_lines(width, free, order, dc_jac, True)
        src += indent(body + [f"if {converged}:"]
                      + indent(write_back + done, 1) + slopes + step, 2)
        src += indent(write_back + ["return iteration, False, fallbacks"], 1)
    else:
        src += indent(body + done, 2)
        dc_lu = no_lu
    src.append("")

    # The transient run.  Locals carry the state between steps: the
    # slots ``v<i>`` (the accepted state, then each attempt's iterate),
    # the accepted free state ``w<i>`` and the one before it ``o<i>``,
    # and each branch's capacitance ``CB<k>``, voltage ``O<k>`` and
    # companion current ``Q<k>`` at the accepted state.
    nb = len(branches)
    nodes = ", ".join(f"v{i}" for i in range(n)) + ","
    fixed_rows = "".join(f"{_sum(f_terms.get(m, []))}," for m in fixed)
    body = run_currents + companions + [
        f"r{i} = {_sum(t_f.get(i, []))} + gmin * v{i}" for i in free]
    if free:
        step, transient_lu = _newton_lines(width, free, order, t_jac, False)
        newton = (["converged = False",
                   "for iteration in range(max_iter):"]
                  + indent(body + [f"if {converged}:", "    converged = True",
                                   "    break"] + slopes + step, 1))
    else:
        newton, transient_lu = body + ["converged = True"], no_lu
    # Backward Euler from the accepted state on the first step (the
    # companion currents are not known yet, and subtracting their 0.0
    # leaves the BE current bit for bit); trapezoidal from the state
    # extrapolated over ``h``, by at most one step, on every later one.
    attempt = ["if first:"] + indent(
        [f"v{i} = w{i}" for i in free]
        + [f"B{k} = CB{k} / h" for k in range(nb)] or ["pass"], 1)
    attempt += ["else:"] + indent(
        ["ratio = min(h / h_old, 1.0)"]
        + [f"v{i} = w{i} + ratio * (w{i} - o{i})" for i in free]
        + [f"B{k} = 2.0 * CB{k} / h" for k in range(nb)], 1)
    if fixed:
        attempt.append("t_next = t + h")
    for m in fixed:
        attempt += [f"if W{m} is not None:", f"    v{m} = float(W{m}(t_next))"]
    attempt += newton + ["if converged:", "    halvings += attempt",
                         "    break", "h *= 0.5"]
    # Branch capacitances and voltages depend only on the accepted state,
    # so every halving reuses them.
    step_lines = (["h = min(dt, t_end - t)"] + caps
                  + [f"CB{k} = {value}" for k, value in enumerate(cap_values)]
                  + [f"O{k} = v{a} - v{b}"
                     for k, (a, b) in enumerate(branches)]
                  + [f"w{i} = v{i}" for i in free]
                  + ["for attempt in range(max_halvings + 1):"]
                  + indent(attempt, 1)
                  + ["else:"]
                  + indent(write_back + ["raise diverged(t, max_halvings)"], 1)
                  + ["t += h"] + [f"o{i} = w{i}" for i in free] + ["h_old = h"]
                  + [f"Q{k} = c{k}" for k in range(nb)]
                  + ["first = False",
                     "if check is not None:", f"    check(t, ({nodes}))",
                     "times.append(t)", f"states.append(({nodes}))",
                     f"rows.append(({fixed_rows}))"])
    prologue = (header + grids + unpack([f"W{m}" for m in fixed], "waves")
                + ["times = [0.0]", f"states = [({nodes})]", "rows = []",
                   "halvings = 0", "fallbacks = 0", "t = 0.0", "h_old = dt",
                   "first = True"]
                + [f"o{i} = v{i}" for i in free]
                + [f"Q{k} = 0.0" for k in range(nb)])
    run = ["def transient_run(v, data, waves, t_end, dt, gmin, tol_a, "
           "max_iter, damping_v, max_halvings, check):"]
    run += indent(prologue + ["while t < t_end - 1e-21:"], 1)
    run += indent(step_lines, 2)
    run += indent(write_back
                  + ["return times, states, rows, halvings, fallbacks"], 1)
    run.append("")

    # Full-slot static assembly.
    lines = [f"jac = [0.0] * {width * width}"]
    lines += [f"jac[{row * width + col}] = {_sum(terms)}"
              for (row, col), terms in sorted(j_terms.items())]
    rows = ", ".join(_sum(f_terms.get(i, [])) for i in range(width))
    src += ["def assemble(v, data):"]
    src += indent(header + currents + slopes + lines, 1)
    src += [f"    return [{rows}], jac", ""]
    return "\n".join(src), "\n".join(run), dc_lu, transient_lu


def _elimination(width: int, order: list[int],
                 pattern: Collection[tuple[int, int]]
                 ) -> tuple[list[str], list[str], Elimination]:
    """Straight-line solve of the free-node system with nonzero
    ``pattern`` (slot pairs), eliminated in ``order`` without pivoting.

    Entry ``(i, j)`` of the system is read from ``q{i * width + j}``,
    and column ``n = width - 1`` (the ground slot, never free) holds the
    right-hand side, which starts as the residual ``r{i}``.  The lines
    run the elimination row by row in ``order`` (Doolittle), writing
    each ``L`` or ``U`` factor that differs from its entry to
    ``f{i * width + j}`` (so the entries survive for the LAPACK
    fallback); every factor is one expression that subtracts its updates
    in elimination order, the order of a right-looking LU.  Back
    substitution leaves ``J^-1 r`` in ``q`` column ``n``.  A zero pivot
    raises ``ZeroDivisionError``.  Returns the lines, the names of the
    multipliers and the symbolic factorization.
    """
    n = width - 1

    def q(i: int, j: int) -> str:
        return f"q{i * width + j}"

    terms, filled = _symbolic_lu(order, pattern)
    pos = {slot: p for p, slot in enumerate(order)}
    rows: dict[int, list[int]] = {i: [] for i in order}
    for i, j in filled:
        rows[i].append(j)
    #: The name holding each entry of ``L + U`` once it is computed.
    factor = {(i, j): q(i, j) for i, j in pattern}
    lines: list[str] = []
    multipliers: list[str] = []
    rhs = {i: f"r{i}" for i in order}
    for i in order:
        row = sorted(rows[i], key=pos.__getitem__)
        for j in row:
            updates = "".join(f" - {factor[i, k]} * {factor[k, j]}"
                              for k in terms[i, j])
            value = (q(i, j) + updates if (i, j) in pattern
                     else "-" + updates[3:])
            if pos[j] < pos[i]:
                if updates:
                    value = f"({value})"
                factor[i, j] = f"f{i * width + j}"
                lines.append(f"{factor[i, j]} = {value} / {factor[j, j]}")
                multipliers.append(factor[i, j])
            elif updates:
                factor[i, j] = f"f{i * width + j}"
                lines.append(f"{factor[i, j]} = {value}")
        lower = [k for k in row if pos[k] < pos[i]]
        if lower:
            lines.append(f"{q(i, n)} = r{i}" + "".join(
                f" - {factor[i, k]} * {rhs[k]}" for k in lower))
            rhs[i] = q(i, n)
    for i in reversed(order):
        upper = sorted((j for j in rows[i] if pos[j] > pos[i]),
                       key=pos.__getitem__, reverse=True)
        updates = "".join(f" - {factor[i, j]} * {q(j, n)}" for j in upper)
        value = f"({rhs[i]}{updates})" if updates else rhs[i]
        lines.append(f"{q(i, n)} = {value} / {factor[i, i]}")
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
    non-finite solution, LAPACK solves the same iteration from the same
    Jacobian entries, placed in the dense free block by an emit-time
    position table.  A non-finite step leaves the loop.
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
    entries = "".join(f"q{i * width + j}," for i, j in jacobian)
    positions = "".join(f"{index[i] * m + index[j]}," for i, j in jacobian)
    residual = ", ".join(f"r{i}" for i in free)
    fallback = ["fallbacks += 1",
                f"{', '.join(step)}, = lapack(({entries}), ({positions}), "
                f"[{residual}])",
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
    capacitances, and on a uniform grid the
    :class:`repro.device.tables.UniformGrid` their lookups read).  The
    capacitor branches are, in element order, each capacitor's terminals
    and each FET's gate-source then gate-drain pair.  ``fixed`` lists the
    fixed node slots in the kernel's order.
    """

    def __init__(self, circuit: "Circuit"):
        n = circuit.n_nodes

        def slot(node: int) -> int:
            return n if node == GROUND else node

        elements: list[tuple[int, ...]] = []
        data: list = []
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
            elif isinstance(el, (TableFET, CompactMOSFET)):
                d, g, s = (slot(node) for node in el.nodes)
                if isinstance(el, TableFET):
                    lookups = el.table.scalar_lookups()
                    data += [lookups.current_and_derivatives,
                             lookups.capacitances, el.polarity,
                             el.c_par_gs_f, el.c_par_gd_f]
                    if lookups.grid is None:
                        elements.append((_TABLE_FET, d, g, s))
                    else:
                        elements.append((_GRID_FET, d, g, s))
                        data.append(lookups.grid)
                else:
                    elements.append((_MOSFET, d, g, s))
                    data += [el.model.ids, el.model.capacitances,
                             el.polarity]
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
