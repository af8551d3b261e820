"""Frozen reference formulation of the device-table lookups.

These are the four evaluation methods of
:class:`repro.device.tables.DeviceTable` (``current``,
``current_and_derivatives``, ``charge``, ``capacitances``) as they were
before the scalar lookup closures: the uniform-grid pure-Python bilinear
evaluation for float queries, the numpy ``searchsorted`` bilinear for
everything else, the ``V_DS < 0`` source/drain mirroring and the
``C_GS,i >= 0`` clamp.  They are kept verbatim (the per-table fields
moved from ``__post_init__`` into :class:`ReferenceTable`) as the lookup
the circuit oracle ``tests/circuit/engine_reference.py`` stamps with, so
the parity suite sees any change to the production lookup.  Do not
optimise it.
"""

from __future__ import annotations

import numpy as np

from repro.device.tables import DeviceTable


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


class ReferenceTable:
    """The reference lookups over one :class:`DeviceTable`'s grids."""

    def __init__(self, table: DeviceTable):
        self.vg = vg = table.vg
        self.vd = vd = table.vd
        self.current_a = cur = table.current_a
        self.charge_c = chg = table.charge_c
        self.gate_offset_v = table.gate_offset_v
        # Uniform-grid fast path for the (scalar-heavy) circuit engine.
        dvg = np.diff(vg)
        dvd = np.diff(vd)
        uniform = (np.allclose(dvg, dvg[0], rtol=1e-9, atol=1e-12)
                   and np.allclose(dvd, dvd[0], rtol=1e-9, atol=1e-12))
        self._uniform = bool(uniform)
        self._vg0 = float(vg[0])
        self._dvg = float(dvg[0])
        self._nvg = int(vg.size)
        self._vd0 = float(vd[0])
        self._dvd = float(dvd[0])
        self._nvd = int(vd.size)
        self._cur_list = cur.tolist()
        self._chg_list = chg.tolist()

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

    def _map_bias(self, vgs, vds):
        """Fold negative V_DS via source/drain mirroring."""
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

    def current(self, vgs, vds):
        """Drain current (A) at arbitrary bias, bilinear interpolation."""
        if self._is_scalar_query(vgs, vds):
            i, _, _ = self.current_and_derivatives(vgs, vds)
            return i
        vg_i, vd_i, sign = self._map_bias(vgs, vds)
        value, _, _ = _bilinear(self.vg, self.vd, self.current_a, vg_i, vd_i)
        return sign * value

    def current_and_derivatives(self, vgs, vds):
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

    def charge(self, vgs, vds):
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

    def capacitances(self, vgs, vds):
        """Intrinsic ``(C_GS,i, C_GD,i)`` in farads at a bias point."""
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


#: ``id(table) -> (table, reference)``; holding the table keeps its id
#: from being reused while the entry lives.
_REFERENCES: dict[int, tuple[DeviceTable, ReferenceTable]] = {}


def reference_table(table: DeviceTable) -> ReferenceTable:
    """The (memoised) reference lookups of ``table``."""
    entry = _REFERENCES.get(id(table))
    if entry is None:
        entry = _REFERENCES[id(table)] = (table, ReferenceTable(table))
    return entry[1]
