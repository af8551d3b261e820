"""Contour extraction on rectilinear grids (marching squares).

Used to regenerate the EDP / frequency / SNM contour plot of the paper's
Fig. 3(b) without a plotting library: :func:`contour_lines` returns the
polyline segments of an iso-level, which the reporting layer renders as
ASCII or exports as data series.
"""

from __future__ import annotations

import numpy as np


def _edge_point(p1, p2, v1, v2, level):
    t = (level - v1) / (v2 - v1)
    return (p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1]))


def contour_lines(
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    level: float,
) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """Marching-squares segments of the iso-contour ``z = level``.

    Returns a list of ``((x1, y1), (x2, y2))`` segments; cells containing
    NaN are skipped.  Segments are unordered (adequate for plotting and
    for locating contour intersections numerically).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if z.shape != (x.size, y.size):
        raise ValueError("z must have shape (len(x), len(y))")

    segments = []
    for i in range(x.size - 1):
        for j in range(y.size - 1):
            corners = [
                ((x[i], y[j]), z[i, j]),
                ((x[i + 1], y[j]), z[i + 1, j]),
                ((x[i + 1], y[j + 1]), z[i + 1, j + 1]),
                ((x[i], y[j + 1]), z[i, j + 1]),
            ]
            values = np.array([c[1] for c in corners])
            if np.any(np.isnan(values)):
                continue
            above = values >= level
            if above.all() or (~above).all():
                continue
            # Find the crossing points on cell edges.
            points = []
            for k in range(4):
                k2 = (k + 1) % 4
                if above[k] != above[k2]:
                    points.append(_edge_point(
                        corners[k][0], corners[k2][0],
                        values[k], values[k2], level))
            # 2 crossings -> one segment; 4 -> saddle, connect pairwise in
            # edge order (ambiguity resolved arbitrarily but consistently).
            if len(points) == 2:
                segments.append((points[0], points[1]))
            elif len(points) == 4:
                segments.append((points[0], points[1]))
                segments.append((points[2], points[3]))
    return segments
