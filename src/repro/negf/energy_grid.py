"""Energy grids for NEGF integrals.

NEGF observables are energy integrals whose integrands vary rapidly near
band edges (van Hove singularities of 1-D subbands) and near the contact
chemical potentials (Fermi-function edges).  A uniform grid fine enough for
those features everywhere is wastefully large, so the device layer uses a
piecewise grid that is fine within a window around each *feature energy*
and coarse elsewhere: :func:`adaptive_energy_grid` (the NEGF device)
overlays one uniform grid per feature, :func:`breakpoint_energy_grid`
(the SBFET current integral) places merged windows once.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable

import numpy as np

from repro import obs
from repro.constants import KT_ROOM_EV


def uniform_energy_grid(e_min_ev: float, e_max_ev: float, step_ev: float) -> np.ndarray:
    """A uniform grid from ``e_min`` to ``e_max`` with spacing <= ``step``."""
    if e_max_ev <= e_min_ev:
        raise ValueError(f"empty energy window [{e_min_ev}, {e_max_ev}]")
    if step_ev <= 0.0:
        raise ValueError(f"step must be positive, got {step_ev}")
    n = max(2, int(np.ceil((e_max_ev - e_min_ev) / step_ev)) + 1)
    return np.linspace(e_min_ev, e_max_ev, n)


def adaptive_energy_grid(
    e_min_ev: float,
    e_max_ev: float,
    feature_energies_ev: Iterable[float] = (),
    coarse_step_ev: float = 0.01,
    fine_step_ev: float = 0.001,
    feature_halfwidth_ev: float = 4.0 * KT_ROOM_EV,
) -> np.ndarray:
    """Grid refined around band edges and chemical potentials.

    Parameters
    ----------
    feature_energies_ev:
        Energies around which the integrand varies quickly (subband edges,
        contact chemical potentials, barrier tops).  A window of
        ``+- feature_halfwidth_ev`` around each receives ``fine_step_ev``
        spacing; the rest of the window uses ``coarse_step_ev``.

    Returns
    -------
    Sorted, de-duplicated array of energies including both endpoints.
    """
    if e_max_ev <= e_min_ev:
        raise ValueError(f"empty energy window [{e_min_ev}, {e_max_ev}]")
    if fine_step_ev <= 0.0 or coarse_step_ev <= 0.0:
        raise ValueError("grid steps must be positive")
    if fine_step_ev > coarse_step_ev:
        raise ValueError("fine step must not exceed coarse step")

    pieces = [uniform_energy_grid(e_min_ev, e_max_ev, coarse_step_ev)]
    for feature in feature_energies_ev:
        lo = max(e_min_ev, feature - feature_halfwidth_ev)
        hi = min(e_max_ev, feature + feature_halfwidth_ev)
        if hi > lo:
            pieces.append(uniform_energy_grid(lo, hi, fine_step_ev))

    grid = np.unique(np.concatenate(pieces))
    # Collapse near-duplicates that would produce zero-width trapezoids.
    keep = np.concatenate(([True], np.diff(grid) > fine_step_ev * 1e-6))
    final = grid[keep]
    if obs.ACTIVE:
        obs.incr("negf.energy_grids")
        obs.incr("negf.energy_grid_points", final.size)
    return final


def breakpoint_energy_grid(
    e_min_ev: float,
    e_max_ev: float,
    breakpoints_ev: Iterable[float],
    fine_step_ev: float,
    coarse_step_ev: float,
    halfwidth_ev: float,
    jumps_ev: Iterable[float] = (),
) -> np.ndarray:
    """Grid fine within ``+- halfwidth_ev`` of each breakpoint, coarse
    elsewhere, with every interval placed once.

    The fine windows are clipped to ``[e_min, e_max]`` and merged where
    they overlap, so the window splits into alternating coarse and fine
    segments.  Each segment is one uniform run of points at the largest
    spacing not above its step, so overlapping windows never interleave
    two offset grids (as :func:`adaptive_energy_grid` does).  Both
    endpoints are exact, and breakpoints mirrored about a centre give
    the grid mirrored about it up to round-off.  Segment ends closer
    than ``snap = 1e-6 fine_step_ev`` are taken as one.

    ``jumps_ev`` are energies where the integrand is discontinuous.
    Each gets a fine window and is straddled by nodes at ``+- snap``,
    so no trapezoid spans the jump.
    """
    if e_max_ev <= e_min_ev:
        raise ValueError(f"empty energy window [{e_min_ev}, {e_max_ev}]")
    if fine_step_ev <= 0.0 or coarse_step_ev <= 0.0 or halfwidth_ev <= 0.0:
        raise ValueError("grid steps and halfwidth must be positive")
    if fine_step_ev > coarse_step_ev:
        raise ValueError("fine step must not exceed coarse step")

    snap = fine_step_ev * 1e-6
    jumps = sorted(jumps_ev)
    ends = [e_min_ev]     # segment boundaries
    steps = []            # the step of each segment
    in_window = False     # whether the last segment is a fine window
    for point in sorted([*breakpoints_ev, *jumps]):
        lo = max(e_min_ev, point - halfwidth_ev)
        hi = min(e_max_ev, point + halfwidth_ev)
        if hi - lo <= snap:
            continue
        if in_window and lo <= ends[-1] + snap:
            ends[-1] = max(ends[-1], hi)     # overlaps: extend the window
            continue
        if lo - ends[-1] > snap:
            steps.append(coarse_step_ev)
            ends.append(lo)
        steps.append(fine_step_ev)
        ends.append(hi)
        in_window = True
    if not steps or e_max_ev - ends[-1] > snap:
        steps.append(coarse_step_ev)
        ends.append(e_max_ev)
    ends[-1] = e_max_ev
    for cut in [jump + side for jump in jumps for side in (-snap, snap)]:
        k = bisect.bisect_left(ends, cut)
        if 0 < k < len(ends) and ends[k - 1] < cut < ends[k]:
            ends.insert(k, cut)               # split segment k - 1
            steps.insert(k, steps[k - 1])

    bounds = np.array(ends)
    widths = np.diff(bounds)
    # Intervals per segment; the slack keeps a width that is a whole
    # number of steps up to round-off (and its mirror) at that number.
    counts = np.maximum(np.ceil(widths / np.array(steps) * (1.0 - 1e-12)),
                        1.0).astype(np.intp)
    segment = np.repeat(np.arange(counts.size), counts)
    offset = np.arange(segment.size) - np.repeat(np.cumsum(counts) - counts,
                                                 counts)
    grid = np.empty(segment.size + 1)
    grid[:-1] = bounds[segment] + (widths / counts)[segment] * offset
    grid[-1] = e_max_ev
    if obs.ACTIVE:
        obs.incr("negf.energy_grids")
        obs.incr("negf.energy_grid_points", grid.size)
    return grid
