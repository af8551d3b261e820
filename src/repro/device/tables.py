"""Device lookup tables: the interface between device and circuit layers.

Section 3 of the paper: "A simulator based on table lookup techniques was
implemented ... The simulator uses the drain current I_D(V_G, V_D) and
channel charge Q(V_G, V_D) computed for the intrinsic GNRFET ... These
values were used to populate a lookup table at discrete voltage steps ...
The intrinsic gate and drain capacitances ... can be computed and stored
in the lookup table by differentiating the channel charge w.r.t V_GS and
V_DS respectively.  Thus, C_GD,i = |dQ/dV_DS| and
C_G,i = C_GS,i + C_GD,i = |dQ/dV_GS|."

A :class:`DeviceTable` holds one intrinsic device (a single ribbon or a
whole multi-ribbon array), supports bilinear interpolation with analytic
derivatives (for circuit Newton iterations), gate work-function offsets
(the paper's V_T engineering knob), source/drain mirroring for negative
V_DS, and composition of per-ribbon tables into array tables (the
mechanism behind the "one of four GNRs affected" variability scenarios).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from repro import obs
from repro.config import RunConfig
from repro.device.engines import DEFAULT_ENGINE, engine_version, resolve_engine
from repro.device.geometry import GNRFETGeometry
from repro.device.iv import IVSweep, sweep_iv
from repro.device.sbfet import BIAS_DECIMALS
from repro.runtime import ArtifactCache, content_key, load_or_build


def _bilinear(axis_x: np.ndarray, axis_y: np.ndarray, grid: np.ndarray,
              x: np.ndarray, y: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bilinear interpolation with analytic partial derivatives.

    Returns ``(value, d/dx, d/dy)``; queries are clamped to the table
    edges (the caller decides whether clamping is acceptable).
    """
    x = np.clip(x, axis_x[0], axis_x[-1])
    y = np.clip(y, axis_y[0], axis_y[-1])
    ix = np.clip(np.searchsorted(axis_x, x) - 1, 0, axis_x.size - 2)
    iy = np.clip(np.searchsorted(axis_y, y) - 1, 0, axis_y.size - 2)
    x0, x1 = axis_x[ix], axis_x[ix + 1]
    y0, y1 = axis_y[iy], axis_y[iy + 1]
    tx = (x - x0) / (x1 - x0)
    ty = (y - y0) / (y1 - y0)
    f00 = grid[ix, iy]
    f10 = grid[ix + 1, iy]
    f01 = grid[ix, iy + 1]
    f11 = grid[ix + 1, iy + 1]
    value = (f00 * (1 - tx) * (1 - ty) + f10 * tx * (1 - ty)
             + f01 * (1 - tx) * ty + f11 * tx * ty)
    dfdx = ((f10 - f00) * (1 - ty) + (f11 - f01) * ty) / (x1 - x0)
    dfdy = ((f01 - f00) * (1 - tx) + (f11 - f10) * tx) / (y1 - y0)
    return value, dfdx, dfdy


#: Query types served by the scalar lookups (``np.float64`` included).
_SCALAR = (int, float)


class UniformGrid(NamedTuple):
    """What the scalar lookups of a table on a uniform grid read: the
    gate offset, each axis's start, step, largest fractional index and
    largest cell index, and the current and charge grids as nested lists
    (gate-major).  The circuit kernel inlines the lookups over these
    fields (see :mod:`repro.circuit.netlist`)."""

    offset: float
    vg0: float
    dvg: float
    fx_max: float
    ix_max: int
    vd0: float
    dvd: float
    fy_max: float
    iy_max: int
    current: list
    charge: list


class ScalarLookups(NamedTuple):
    """Float-query evaluations of one table (built by
    :meth:`DeviceTable.scalar_lookups`)."""

    #: ``(vgs, vds) -> (I, dI/dV_GS, dI/dV_DS)``
    current_and_derivatives: Callable[[float, float],
                                      tuple[float, float, float]]
    #: ``(vgs, vds) -> (C_GS,i, C_GD,i)``
    capacitances: Callable[[float, float], tuple[float, float]]
    #: ``(vgs, vds) -> Q``
    charge: Callable[[float, float], float]
    #: The constants the closures read on a uniform grid, else ``None``.
    grid: UniformGrid | None


def _scalar_lookups(table: "DeviceTable") -> ScalarLookups:
    """Closures over ``table``'s grids for one-point-at-a-time queries.

    On a uniform grid they evaluate the bilinear interpolant in pure
    Python (~10x faster than the numpy path for the circuit Newton loop);
    on any other grid they are the numpy path itself.  The two hot
    closures inline :func:`bilinear`: the same float operations in the
    same order (a repeated ``1 - t`` is computed once), so every entry
    point gives the same bits for a query.
    """
    vg, vd = table.vg, table.vd
    steps_g = np.diff(vg)
    steps_d = np.diff(vd)
    if not (np.allclose(steps_g, steps_g[0], rtol=1e-9, atol=1e-12)
            and np.allclose(steps_d, steps_d[0], rtol=1e-9, atol=1e-12)):
        return ScalarLookups(table._array_current_and_derivatives,
                             table._array_capacitances, table._array_charge,
                             None)
    uniform = UniformGrid(
        table.gate_offset_v,
        float(vg[0]), float(steps_g[0]), float(vg.size - 1), vg.size - 2,
        float(vd[0]), float(steps_d[0]), float(vd.size - 1), vd.size - 2,
        table.current_a.tolist(), table.charge_c.tolist())
    (offset, vg0, dvg, fx_max, ix_max, vd0, dvd, fy_max, iy_max, cur,
     chg) = uniform

    def bilinear(grid: list, x: float, y: float
                 ) -> tuple[float, float, float]:
        """``(value, d/dx, d/dy)`` at a mapped bias, clamped to the grid."""
        fx = (x - vg0) / dvg
        if fx < 0.0:
            fx = 0.0
        elif fx > fx_max:
            fx = fx_max
        ix = int(fx)
        if ix > ix_max:
            ix = ix_max
        tx = fx - ix
        fy = (y - vd0) / dvd
        if fy < 0.0:
            fy = 0.0
        elif fy > fy_max:
            fy = fy_max
        iy = int(fy)
        if iy > iy_max:
            iy = iy_max
        ty = fy - iy
        row0 = grid[ix]
        row1 = grid[ix + 1]
        f00 = row0[iy]
        f01 = row0[iy + 1]
        f10 = row1[iy]
        f11 = row1[iy + 1]
        sx = 1.0 - tx
        sy = 1.0 - ty
        value = f00 * sx * sy + f10 * tx * sy + f01 * sx * ty + f11 * tx * ty
        dfdx = ((f10 - f00) * sy + (f11 - f01) * ty) / dvg
        dfdy = ((f01 - f00) * sx + (f11 - f10) * tx) / dvd
        return value, dfdx, dfdy

    def current_and_derivatives(vgs: float, vds: float
                                ) -> tuple[float, float, float]:
        # I(vgs, vds < 0) = -f(vgs - vds, -vds): source/drain mirroring.
        if vds < 0.0:
            fx = (vgs - vds + offset - vg0) / dvg
            fy = (-vds - vd0) / dvd
        else:
            fx = (vgs + offset - vg0) / dvg
            fy = (vds - vd0) / dvd
        if fx < 0.0:
            fx = 0.0
        elif fx > fx_max:
            fx = fx_max
        ix = int(fx)
        if ix > ix_max:
            ix = ix_max
        tx = fx - ix
        if fy < 0.0:
            fy = 0.0
        elif fy > fy_max:
            fy = fy_max
        iy = int(fy)
        if iy > iy_max:
            iy = iy_max
        ty = fy - iy
        row0 = cur[ix]
        row1 = cur[ix + 1]
        f00 = row0[iy]
        f01 = row0[iy + 1]
        f10 = row1[iy]
        f11 = row1[iy + 1]
        sx = 1.0 - tx
        sy = 1.0 - ty
        value = f00 * sx * sy + f10 * tx * sy + f01 * sx * ty + f11 * tx * ty
        dfdx = ((f10 - f00) * sy + (f11 - f01) * ty) / dvg
        dfdy = ((f01 - f00) * sx + (f11 - f10) * tx) / dvd
        if vds < 0.0:
            return -value, -dfdx, dfdx + dfdy
        return value, dfdx, dfdy

    def capacitances(vgs: float, vds: float) -> tuple[float, float]:
        # Q is mirrored without a sign: Q(vgs, vds < 0) = Q(vgs - vds, -vds).
        if vds < 0.0:
            fx = (vgs - vds + offset - vg0) / dvg
            fy = (-vds - vd0) / dvd
        else:
            fx = (vgs + offset - vg0) / dvg
            fy = (vds - vd0) / dvd
        if fx < 0.0:
            fx = 0.0
        elif fx > fx_max:
            fx = fx_max
        ix = int(fx)
        if ix > ix_max:
            ix = ix_max
        tx = fx - ix
        if fy < 0.0:
            fy = 0.0
        elif fy > fy_max:
            fy = fy_max
        iy = int(fy)
        if iy > iy_max:
            iy = iy_max
        ty = fy - iy
        row0 = chg[ix]
        row1 = chg[ix + 1]
        f00 = row0[iy]
        f01 = row0[iy + 1]
        f10 = row1[iy]
        f11 = row1[iy + 1]
        cgd = abs(((f01 - f00) * (1.0 - tx) + (f11 - f10) * tx) / dvd)
        cgs = abs(((f10 - f00) * (1.0 - ty) + (f11 - f01) * ty) / dvg) - cgd
        return (cgs if cgs > 0.0 else 0.0), cgd

    def charge(vgs: float, vds: float) -> float:
        if vds < 0.0:
            vgs, vds = vgs - vds, -vds
        return bilinear(chg, vgs + offset, vds)[0]

    return ScalarLookups(current_and_derivatives, capacitances, charge,
                         uniform)


@dataclass(frozen=True)
class DeviceTable:
    """Lookup table of one intrinsic device (I and Q vs V_GS, V_DS).

    Attributes
    ----------
    vg, vd:
        Tabulated gate / drain bias axes (V), strictly ascending; ``vd``
        starts at 0 (negative V_DS is served by source/drain mirroring).
    current_a, charge_c:
        Gridded drain current and channel charge, shape
        ``(len(vg), len(vd))``.
    gate_offset_v:
        Gate work-function offset: the device is evaluated at
        ``V_G,internal = V_GS + gate_offset_v``.  Increasing the offset
        shifts the I-V curve left, *decreasing* V_T by the same amount
        (paper Fig. 2b).
    label:
        Human-readable provenance (ribbon index, impurity, ...).
    failures:
        Quarantined sweep cells behind any NaN entries of the grids
        (empty for a clean build; see ``docs/robustness.md``).  Tables
        with failures are never persisted to the artifact cache.
    """

    vg: np.ndarray
    vd: np.ndarray
    current_a: np.ndarray
    charge_c: np.ndarray
    gate_offset_v: float = 0.0
    label: str = ""
    failures: tuple = ()

    def __post_init__(self) -> None:
        vg = np.asarray(self.vg, dtype=float)
        vd = np.asarray(self.vd, dtype=float)
        cur = np.asarray(self.current_a, dtype=float)
        chg = np.asarray(self.charge_c, dtype=float)
        if vg.ndim != 1 or vd.ndim != 1:
            raise ValueError("bias axes must be 1-D")
        if vg.size < 2 or vd.size < 2:
            raise ValueError("bias axes need at least two points")
        if np.any(np.diff(vg) <= 0) or np.any(np.diff(vd) <= 0):
            raise ValueError("bias axes must be strictly ascending")
        if cur.shape != (vg.size, vd.size) or chg.shape != cur.shape:
            raise ValueError("grids must be (len(vg), len(vd))")
        object.__setattr__(self, "vg", vg)
        object.__setattr__(self, "vd", vd)
        object.__setattr__(self, "current_a", cur)
        object.__setattr__(self, "charge_c", chg)

    def __getstate__(self) -> dict:
        # The lookup closures are rebuilt on first use, never pickled.
        state = dict(self.__dict__)
        state.pop("_lookups", None)
        return state

    def scalar_lookups(self) -> ScalarLookups:
        """The table's float-query closures, built on first use.

        The four evaluation methods serve float queries through them, and
        the circuit kernel calls them directly.
        """
        lookups = self.__dict__.get("_lookups")
        if lookups is None:
            lookups = _scalar_lookups(self)
            object.__setattr__(self, "_lookups", lookups)
        return lookups

    # --- construction helpers ------------------------------------------------
    @classmethod
    def from_sweep(cls, sweep: IVSweep, label: str = "") -> "DeviceTable":
        """Wrap an :class:`IVSweep` into a table (failures carried over)."""
        return cls(vg=sweep.vg, vd=sweep.vd, current_a=sweep.current_a,
                   charge_c=sweep.charge_c, label=label,
                   failures=tuple(sweep.failures))

    def with_gate_offset(self, offset_v: float) -> "DeviceTable":
        """Same table with a different gate work-function offset."""
        return replace(self, gate_offset_v=float(offset_v))

    def scaled(self, factor: float) -> "DeviceTable":
        """Table with current and charge scaled (e.g. per-ribbon -> array)."""
        return replace(self, current_a=self.current_a * factor,
                       charge_c=self.charge_c * factor)

    @staticmethod
    def compose(tables: list["DeviceTable"], label: str = "") -> "DeviceTable":
        """Sum per-ribbon tables into a multi-ribbon array table.

        "The total current is given by the sum of the currents in the
        GNRs, nominal or otherwise" (paper Sec. 4); charge adds the same
        way.  All inputs must share bias axes and gate offset.
        """
        if not tables:
            raise ValueError("need at least one table to compose")
        first = tables[0]
        for t in tables[1:]:
            if not (np.array_equal(t.vg, first.vg)
                    and np.array_equal(t.vd, first.vd)):
                raise ValueError("cannot compose tables with different axes")
            if t.gate_offset_v != first.gate_offset_v:
                raise ValueError("cannot compose tables with different offsets")
        return DeviceTable(
            vg=first.vg, vd=first.vd,
            current_a=sum(t.current_a for t in tables),
            charge_c=sum(t.charge_c for t in tables),
            gate_offset_v=first.gate_offset_v,
            label=label or "+".join(t.label for t in tables))

    # --- evaluation -----------------------------------------------------------
    def _map_bias(self, vgs, vds):
        """Fold negative V_DS via source/drain mirroring.

        For a source/drain-symmetric device, exchanging the terminals
        maps ``(V_GS, V_DS < 0)`` to ``(V_GS - V_DS, -V_DS)`` with the
        current sign flipped.  (For impurity-asymmetric devices this is an
        approximation, used only for transient excursions below 0 V.)
        """
        vgs = np.asarray(vgs, dtype=float)
        vds = np.asarray(vds, dtype=float)
        neg = vds < 0.0
        vgs_m = np.where(neg, vgs - vds, vgs)
        vds_m = np.where(neg, -vds, vds)
        sign = np.where(neg, -1.0, 1.0)
        return vgs_m + self.gate_offset_v, vds_m, sign

    def current(self, vgs: float | np.ndarray,
                vds: float | np.ndarray) -> float | np.ndarray:
        """Drain current (A) at arbitrary bias, bilinear interpolation."""
        if isinstance(vgs, _SCALAR) and isinstance(vds, _SCALAR):
            i, _, _ = self.scalar_lookups().current_and_derivatives(
                float(vgs), float(vds))
            return i
        vg_i, vd_i, sign = self._map_bias(vgs, vds)
        value, _, _ = _bilinear(self.vg, self.vd, self.current_a, vg_i, vd_i)
        return sign * value

    def current_and_derivatives(
        self, vgs: float | np.ndarray, vds: float | np.ndarray,
    ) -> tuple[float | np.ndarray, float | np.ndarray,
               float | np.ndarray]:
        """``(I, dI/dV_GS, dI/dV_DS)`` with derivatives consistent with
        the mirroring rule (used by the circuit Newton solver)."""
        if isinstance(vgs, _SCALAR) and isinstance(vds, _SCALAR):
            return self.scalar_lookups().current_and_derivatives(
                float(vgs), float(vds))
        return self._array_current_and_derivatives(vgs, vds)

    def _array_current_and_derivatives(self, vgs, vds):
        vg_i, vd_i, sign = self._map_bias(vgs, vds)
        value, d_dvg, d_dvd = _bilinear(self.vg, self.vd, self.current_a,
                                        vg_i, vd_i)
        # For vds < 0: I = -f(vgs - vds, -vds)
        #   dI/dvgs = -f_x ;  dI/dvds = f_x + f_y.
        di_dvgs = np.where(sign > 0, d_dvg, -d_dvg)
        di_dvds = np.where(sign > 0, d_dvd, d_dvg + d_dvd)
        return sign * value, di_dvgs, di_dvds

    def charge(self, vgs: float | np.ndarray,
               vds: float | np.ndarray) -> float | np.ndarray:
        """Channel charge (C) at arbitrary bias."""
        if isinstance(vgs, _SCALAR) and isinstance(vds, _SCALAR):
            return self.scalar_lookups().charge(float(vgs), float(vds))
        return self._array_charge(vgs, vds)

    def _array_charge(self, vgs, vds):
        vg_i, vd_i, _ = self._map_bias(vgs, vds)
        value, _, _ = _bilinear(self.vg, self.vd, self.charge_c, vg_i, vd_i)
        return value

    def capacitances(
        self, vgs: float | np.ndarray, vds: float | np.ndarray,
    ) -> tuple[float | np.ndarray, float | np.ndarray]:
        """Intrinsic ``(C_GS,i, C_GD,i)`` in farads at a bias point.

        Following the paper: ``C_GD,i = |dQ/dV_DS|``,
        ``C_GS,i = |dQ/dV_GS| - |dQ/dV_DS|`` (clamped at zero, since a
        discretized |dQ/dV_GS| can dip below |dQ/dV_DS| near the
        ambipolar turning point).
        """
        if isinstance(vgs, _SCALAR) and isinstance(vds, _SCALAR):
            return self.scalar_lookups().capacitances(float(vgs), float(vds))
        return self._array_capacitances(vgs, vds)

    def _array_capacitances(self, vgs, vds):
        vg_i, vd_i, _ = self._map_bias(vgs, vds)
        _, dq_dvg, dq_dvd = _bilinear(self.vg, self.vd, self.charge_c,
                                      vg_i, vd_i)
        cgd = np.abs(dq_dvd)
        cgs = np.clip(np.abs(dq_dvg) - cgd, 0.0, None)
        return cgs, cgd


# Default bias grid: the paper tabulates 0..0.75 V; the gate axis is
# extended on both sides so that work-function offsets and transient
# overshoots stay inside the table.  Rounded like a mirror twin, so the
# twin of a grid point is a grid point wherever it falls in range.
DEFAULT_VG_GRID = np.round(np.arange(-0.40, 1.1001, 0.05), BIAS_DECIMALS)
DEFAULT_VD_GRID = np.round(np.arange(0.0, 0.7501, 0.05), BIAS_DECIMALS)

_TABLE_CACHE: dict[tuple, DeviceTable] = {}

#: Namespace of persisted device tables under the runtime cache root.
TABLE_CACHE_NAMESPACE = "tables"


def table_cache_key(
    geometry: GNRFETGeometry,
    vg_grid: np.ndarray,
    vd_grid: np.ndarray,
    n_modes: int | None,
    engine: str = DEFAULT_ENGINE,
    version: str | None = None,
) -> str:
    """Stable content hash identifying one table build on disk.

    Any change to the geometry (including nested impurity fields), either
    bias grid, the retained mode count, the transport engine, or the
    engine version tag yields a different key, so stale artifacts are
    orphaned, never reused — a mode-space table can never collide with
    a real-space or semianalytic one.
    """
    engine = resolve_engine(engine)
    if version is None:
        version = engine_version(engine)
    return content_key("device-table", version, engine, geometry,
                       np.asarray(vg_grid, float), np.asarray(vd_grid, float),
                       n_modes)


def table_memo_key(geometry: GNRFETGeometry, vg_grid: np.ndarray,
                   vd_grid: np.ndarray, n_modes: int | None,
                   engine: str = DEFAULT_ENGINE) -> tuple:
    """Key of the in-process table memo: the same inputs as the disk key."""
    return (geometry, tuple(np.asarray(vg_grid, float)),
            tuple(np.asarray(vd_grid, float)), n_modes, engine)


def _table_from_payload(payload: dict) -> DeviceTable:
    table = DeviceTable(vg=payload["vg"], vd=payload["vd"],
                        current_a=payload["current_a"],
                        charge_c=payload["charge_c"],
                        label=str(payload["label"]))
    if obs.ACTIVE:
        obs.incr("cache.table_disk_hits")
    return table


def _table_payload(table: DeviceTable) -> dict[str, np.ndarray] | None:
    if table.failures:
        # Quarantined holes must not outlive this process: caching a
        # table with NaN cells would turn a transient failure into a
        # permanently poisoned artifact.
        return None
    return dict(vg=table.vg, vd=table.vd, current_a=table.current_a,
                charge_c=table.charge_c, label=np.array(table.label))


def build_device_table(
    geometry: GNRFETGeometry,
    vg_grid: np.ndarray | None = None,
    vd_grid: np.ndarray | None = None,
    n_modes: int | None = None,
    engine: str = DEFAULT_ENGINE,
    config: RunConfig | None = None,
) -> DeviceTable:
    """Build (or fetch from cache) one ribbon's table.

    Lookup order: in-process memo (:func:`table_memo_key`), then the
    persistent on-disk store (:func:`table_cache_key`, through
    :func:`~repro.runtime.cache.load_or_build`), then a fresh
    :func:`~repro.device.iv.sweep_iv` whose result is written back to
    both layers.  Both keys hold the full geometry (a frozen
    dataclass), the grids, the mode count and the engine, so variant
    devices (width, impurity) coexist and physics changes invalidate
    cleanly.

    ``config`` (default :meth:`RunConfig.from_env`) says how the build
    executes and is passed on to the sweep: ``use_cache=False`` keeps
    the disk store out of it (no reads, no writes), ``cache_dir``
    locates that store, ``workers`` fans the sweep across processes and
    ``strict`` raises on a failed cell.  The in-process memo serves
    repeats within a process either way (:func:`clear_table_cache`
    empties it).  A non-strict build whose sweep quarantined cells
    returns a table with NaN holes and a non-empty ``failures`` tuple;
    such a table is **not** written to either cache layer, so a later
    build retries the failed cells instead of reusing the holes.

    ``engine`` selects the transport engine (see
    :mod:`repro.device.engines`); it is part of both cache keys.
    """
    vg_grid = DEFAULT_VG_GRID if vg_grid is None else np.asarray(vg_grid, float)
    vd_grid = DEFAULT_VD_GRID if vd_grid is None else np.asarray(vd_grid, float)
    engine = resolve_engine(engine)
    key = table_memo_key(geometry, vg_grid, vd_grid, n_modes, engine)
    if key in _TABLE_CACHE:
        if obs.ACTIVE:
            obs.incr("cache.table_memory_hits")
        return _TABLE_CACHE[key]

    config = RunConfig.from_env() if config is None else config

    def build() -> DeviceTable:
        if obs.ACTIVE:
            obs.incr("cache.table_builds")
        with obs.span("device.build_table", n_index=geometry.n_index):
            sweep = sweep_iv(geometry, vg_grid, vd_grid, n_modes=n_modes,
                             engine=engine, config=config)
            label = f"N={geometry.n_index}"
            if geometry.impurity is not None and \
                    geometry.impurity.charge_e != 0.0:
                label += f",imp={geometry.impurity.charge_e:+g}q"
            if engine != DEFAULT_ENGINE:
                label += f",engine={engine}"
            return DeviceTable.from_sweep(sweep, label=label)

    table = load_or_build(
        ArtifactCache.for_config(TABLE_CACHE_NAMESPACE, config),
        table_cache_key(geometry, vg_grid, vd_grid, n_modes, engine=engine),
        _table_from_payload, build, _table_payload)
    if not table.failures:
        _TABLE_CACHE[key] = table
    return table


def clear_table_cache(disk: bool = False) -> None:
    """Empty the in-process table cache (mainly for tests).

    ``disk=True`` also clears the persistent on-disk namespace.
    """
    _TABLE_CACHE.clear()
    if disk:
        ArtifactCache(TABLE_CACHE_NAMESPACE).clear()
