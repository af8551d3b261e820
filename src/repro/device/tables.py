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
from pathlib import Path

import numpy as np

from repro import obs
from repro.device.engines import DEFAULT_ENGINE, engine_version, resolve_engine
from repro.device.geometry import GNRFETGeometry
from repro.device.iv import IVSweep, sweep_iv
from repro.errors import TableRangeError
from repro.runtime import ArtifactCache, content_key


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
        # Uniform-grid fast path for the (scalar-heavy) circuit engine.
        dvg = np.diff(vg)
        dvd = np.diff(vd)
        uniform = (np.allclose(dvg, dvg[0], rtol=1e-9, atol=1e-12)
                   and np.allclose(dvd, dvd[0], rtol=1e-9, atol=1e-12))
        object.__setattr__(self, "_uniform", bool(uniform))
        object.__setattr__(self, "_vg0", float(vg[0]))
        object.__setattr__(self, "_dvg", float(dvg[0]))
        object.__setattr__(self, "_nvg", int(vg.size))
        object.__setattr__(self, "_vd0", float(vd[0]))
        object.__setattr__(self, "_dvd", float(dvd[0]))
        object.__setattr__(self, "_nvd", int(vd.size))
        object.__setattr__(self, "_cur_list", cur.tolist())
        object.__setattr__(self, "_chg_list", chg.tolist())

    def _scalar_bilinear(self, grid: list, x: float, y: float
                         ) -> tuple[float, float, float]:
        """Pure-Python bilinear evaluation on the uniform grid.

        ~10x faster than the numpy path for the one-point-at-a-time
        queries issued by the circuit Newton loop.
        """
        fx = (x - self._vg0) / self._dvg
        if fx < 0.0:
            fx = 0.0
        elif fx > self._nvg - 1:
            fx = float(self._nvg - 1)
        ix = int(fx)
        if ix > self._nvg - 2:
            ix = self._nvg - 2
        tx = fx - ix

        fy = (y - self._vd0) / self._dvd
        if fy < 0.0:
            fy = 0.0
        elif fy > self._nvd - 1:
            fy = float(self._nvd - 1)
        iy = int(fy)
        if iy > self._nvd - 2:
            iy = self._nvd - 2
        ty = fy - iy

        row0 = grid[ix]
        row1 = grid[ix + 1]
        f00 = row0[iy]
        f01 = row0[iy + 1]
        f10 = row1[iy]
        f11 = row1[iy + 1]
        value = (f00 * (1 - tx) * (1 - ty) + f10 * tx * (1 - ty)
                 + f01 * (1 - tx) * ty + f11 * tx * ty)
        dfdx = ((f10 - f00) * (1 - ty) + (f11 - f01) * ty) / self._dvg
        dfdy = ((f01 - f00) * (1 - tx) + (f11 - f10) * tx) / self._dvd
        return value, dfdx, dfdy

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

    def _is_scalar_query(self, vgs, vds) -> bool:
        return (self._uniform and isinstance(vgs, (int, float))
                and isinstance(vds, (int, float)))

    def current(self, vgs: float | np.ndarray,
                vds: float | np.ndarray) -> float | np.ndarray:
        """Drain current (A) at arbitrary bias, bilinear interpolation."""
        if self._is_scalar_query(vgs, vds):
            i, _, _ = self.current_and_derivatives(vgs, vds)
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
        if self._is_scalar_query(vgs, vds):
            vgs = float(vgs)
            vds = float(vds)
            if vds < 0.0:
                # I(vgs, vds<0) = -f(vgs - vds, -vds)
                v, dx, dy = self._scalar_bilinear(
                    self._cur_list, vgs - vds + self.gate_offset_v, -vds)
                return -v, -dx, dx + dy
            v, dx, dy = self._scalar_bilinear(
                self._cur_list, vgs + self.gate_offset_v, vds)
            return v, dx, dy
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
        if self._is_scalar_query(vgs, vds):
            vgs = float(vgs)
            vds = float(vds)
            if vds < 0.0:
                vgs, vds = vgs - vds, -vds
            v, _, _ = self._scalar_bilinear(
                self._chg_list, vgs + self.gate_offset_v, vds)
            return v
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
        if self._is_scalar_query(vgs, vds):
            vgs = float(vgs)
            vds = float(vds)
            if vds < 0.0:
                vgs, vds = vgs - vds, -vds
            _, dq_dvg, dq_dvd = self._scalar_bilinear(
                self._chg_list, vgs + self.gate_offset_v, vds)
            cgd = abs(dq_dvd)
            cgs = abs(dq_dvg) - cgd
            return (cgs if cgs > 0.0 else 0.0), cgd
        vg_i, vd_i, _ = self._map_bias(vgs, vds)
        _, dq_dvg, dq_dvd = _bilinear(self.vg, self.vd, self.charge_c,
                                      vg_i, vd_i)
        cgd = np.abs(dq_dvd)
        cgs = np.clip(np.abs(dq_dvg) - cgd, 0.0, None)
        return cgs, cgd

    def check_range(self, vgs: float | np.ndarray,
                    vds: float | np.ndarray) -> None:
        """Raise :class:`TableRangeError` if a query needs extrapolation."""
        vg_i, vd_i, _ = self._map_bias(vgs, vds)
        if np.any(vg_i < self.vg[0] - 1e-9) or np.any(vg_i > self.vg[-1] + 1e-9):
            raise TableRangeError(
                f"gate bias outside table range [{self.vg[0]}, {self.vg[-1]}]")
        if np.any(vd_i > self.vd[-1] + 1e-9):
            raise TableRangeError(
                f"drain bias outside table range [0, {self.vd[-1]}]")

    # --- persistence -----------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Save to a compressed ``.npz`` file."""
        np.savez_compressed(
            Path(path), vg=self.vg, vd=self.vd, current_a=self.current_a,
            charge_c=self.charge_c, gate_offset_v=self.gate_offset_v,
            label=np.array(self.label))

    @classmethod
    def load(cls, path: str | Path) -> "DeviceTable":
        """Load a table previously written by :meth:`save`."""
        with np.load(Path(path)) as data:
            return cls(vg=data["vg"], vd=data["vd"],
                       current_a=data["current_a"], charge_c=data["charge_c"],
                       gate_offset_v=float(data["gate_offset_v"]),
                       label=str(data["label"]))


# Default bias grid: the paper tabulates 0..0.75 V; the gate axis is
# extended on both sides so that work-function offsets and transient
# overshoots stay inside the table.
DEFAULT_VG_GRID = np.round(np.arange(-0.40, 1.1001, 0.05), 10)
DEFAULT_VD_GRID = np.round(np.arange(0.0, 0.7501, 0.05), 10)

_TABLE_CACHE: dict[tuple, DeviceTable] = {}

#: Namespace of persisted device tables under the runtime cache root.
TABLE_CACHE_NAMESPACE = "tables"


def table_cache_key(
    geometry: GNRFETGeometry,
    vg_grid: np.ndarray,
    vd_grid: np.ndarray,
    n_modes: int | None,
    engine: str | None = None,
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


def _disk_cache() -> ArtifactCache:
    return ArtifactCache(TABLE_CACHE_NAMESPACE)


def _table_from_payload(payload: dict) -> DeviceTable:
    return DeviceTable(vg=payload["vg"], vd=payload["vd"],
                       current_a=payload["current_a"],
                       charge_c=payload["charge_c"],
                       label=str(payload["label"]))


def build_device_table(
    geometry: GNRFETGeometry,
    vg_grid: np.ndarray | None = None,
    vd_grid: np.ndarray | None = None,
    n_modes: int | None = None,
    use_cache: bool = True,  # repro: nokey[RPA601] cache-layer switch, not table content
    workers: int | None = None,  # repro: nokey[RPA601] parallelism degree; rows are bitwise order-independent
    strict: bool | None = None,  # repro: nokey[RPA601] failed cells are never cached (NaN-hole tables skip both layers)
    engine: str | None = None,
) -> DeviceTable:
    """Build (or fetch from cache) one ribbon's table.

    Lookup order: in-process dict, then the persistent on-disk store
    (``~/.cache/repro-gnrfet`` unless ``REPRO_CACHE_DIR``/
    ``REPRO_NO_CACHE`` say otherwise), then a fresh ``sweep_iv`` — fanned
    across ``workers`` processes when requested — whose result is written
    back to both layers.  The cache key includes the full geometry (a
    frozen dataclass), the grids, the mode count and the engine version,
    so variant devices (width, impurity) coexist and physics changes
    invalidate cleanly.  ``use_cache=False`` bypasses both layers.

    ``strict`` is passed through to :func:`~repro.device.iv.sweep_iv`
    (default from ``REPRO_STRICT``).  A non-strict build whose sweep
    quarantined cells returns a table with NaN holes and a non-empty
    ``failures`` tuple; such a table is **not** written to either cache
    layer, so a later build retries the failed cells instead of reusing
    the holes.

    ``engine`` selects the transport engine (see
    :mod:`repro.device.engines`); it is part of both cache keys.
    """
    vg_grid = DEFAULT_VG_GRID if vg_grid is None else np.asarray(vg_grid, float)
    vd_grid = DEFAULT_VD_GRID if vd_grid is None else np.asarray(vd_grid, float)
    engine = resolve_engine(engine)
    key = (geometry, tuple(vg_grid), tuple(vd_grid), n_modes, engine)
    if use_cache and key in _TABLE_CACHE:
        if obs.ACTIVE:
            obs.incr("cache.table_memory_hits")
        return _TABLE_CACHE[key]

    disk = _disk_cache() if use_cache else None
    digest = table_cache_key(geometry, vg_grid, vd_grid, n_modes,
                             engine=engine)
    table = None
    if disk is not None:
        payload = disk.get(digest)
        if payload is not None:
            try:
                table = _table_from_payload(payload)
            except (KeyError, ValueError):
                table = None  # corrupt/foreign payload: rebuild
        if table is not None and obs.ACTIVE:
            obs.incr("cache.table_disk_hits")
    if table is None:
        if obs.ACTIVE:
            obs.incr("cache.table_builds")
        with obs.span("device.build_table", n_index=geometry.n_index):
            sweep = sweep_iv(geometry, vg_grid, vd_grid, n_modes=n_modes,
                             workers=workers, strict=strict, engine=engine)
            label = f"N={geometry.n_index}"
            if geometry.impurity is not None and \
                    geometry.impurity.charge_e != 0.0:
                label += f",imp={geometry.impurity.charge_e:+g}q"
            if engine != DEFAULT_ENGINE:
                label += f",engine={engine}"
            table = DeviceTable.from_sweep(sweep, label=label)
        if table.failures:
            # Quarantined holes must not outlive this process: caching a
            # table with NaN cells would turn a transient failure into a
            # permanently poisoned artifact.
            return table
        if disk is not None:
            disk.put(digest, vg=table.vg, vd=table.vd,
                     current_a=table.current_a, charge_c=table.charge_c,
                     label=np.array(table.label))
    if use_cache:
        _TABLE_CACHE[key] = table
    return table


def clear_table_cache(disk: bool = False) -> None:
    """Empty the in-process table cache (mainly for tests).

    ``disk=True`` also clears the persistent on-disk namespace.
    """
    _TABLE_CACHE.clear()
    if disk:
        _disk_cache().clear()
