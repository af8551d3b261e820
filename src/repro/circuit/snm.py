"""Butterfly curves and static noise margins.

The SNM of a cross-coupled pair (or of an inverter against its own mirror)
is the side of the largest square that fits inside each lobe of the
butterfly plot; the reported SNM is the *smaller* of the two lobes'
squares (the weakest eye is what noise exploits).  Computed in the
45-degree-rotated frame where the maximal square side becomes a simple
maximum vertical gap divided by sqrt(2) (Seevinck's construction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ButterflyData:
    """The two transfer curves of a butterfly plot.

    ``v_in`` is the common sweep axis; ``forward`` is inverter 1's output
    (y vs x) and ``mirrored`` is inverter 2's curve reflected about the
    45-degree line (x = f2(y) plotted as y vs x).
    """

    v_in: np.ndarray
    forward: np.ndarray
    mirrored_x: np.ndarray
    mirrored_y: np.ndarray


def butterfly_curves(
    vin: np.ndarray,
    vtc_forward: np.ndarray,
    vtc_backward: np.ndarray | None = None,
) -> ButterflyData:
    """Assemble butterfly data from one or two VTCs.

    ``vtc_forward`` is ``V_R = f1(V_L)``; ``vtc_backward`` (defaults to
    the forward curve, i.e. a symmetric latch) is ``V_L = f2(V_R)`` and is
    plotted mirrored: points ``(f2(v), v)``.
    """
    vin = np.asarray(vin, dtype=float)
    fwd = np.asarray(vtc_forward, dtype=float)
    bwd = fwd if vtc_backward is None else np.asarray(vtc_backward, dtype=float)
    if fwd.shape != vin.shape or bwd.shape != vin.shape:
        raise ValueError("VTC arrays must match the input grid")
    return ButterflyData(v_in=vin, forward=fwd,
                         mirrored_x=bwd, mirrored_y=vin)


def static_noise_margin(butterfly: ButterflyData) -> float:
    """Largest-square SNM of a butterfly plot (volts).

    Both curves are rotated by 45 degrees; on a common grid of the rotated
    abscissa ``u = (x - y)/sqrt(2)``, the rotated ordinate gap
    ``v_fwd(u) - v_mir(u)`` is positive inside one lobe and negative
    inside the other.  The maximal square side in each lobe equals the
    maximal |gap| ... / sqrt(2); the SNM is the smaller lobe's value.  A
    collapsed lobe (no sign change) yields SNM 0, exactly the "one eye of
    the butterfly curve collapses" failure mode of the paper's Fig. 7.
    """
    sq2 = np.sqrt(2.0)
    # Rotate forward curve (x = vin, y = forward).
    u1 = (butterfly.v_in - butterfly.forward) / sq2
    w1 = (butterfly.v_in + butterfly.forward) / sq2
    # Rotate mirrored curve (x = mirrored_x, y = mirrored_y).
    u2 = (butterfly.mirrored_x - butterfly.mirrored_y) / sq2
    w2 = (butterfly.mirrored_x + butterfly.mirrored_y) / sq2

    # Interpolate both onto the overlapping u range.  The curves are
    # monotone in u for monotone VTCs; sort defensively.
    o1 = np.argsort(u1)
    o2 = np.argsort(u2)
    u_lo = max(u1.min(), u2.min())
    u_hi = min(u1.max(), u2.max())
    if u_hi <= u_lo:
        return 0.0
    u = np.linspace(u_lo, u_hi, 801)
    w1_u = np.interp(u, u1[o1], w1[o1])
    w2_u = np.interp(u, u2[o2], w2[o2])
    gap = w1_u - w2_u

    # Bistability check: iterate the loop map g(x) = f2(f1(x)) from both
    # corners of the sweep.  A working latch has two distinct attractors
    # (its hold states); if both corners relax to the same point the
    # cell is monostable and its hold SNM is zero by definition (the
    # paper's collapsed-eye case in Fig. 7), even though the graphical
    # construction could still wedge a square against the lone crossing.
    x_grid = butterfly.v_in

    def loop_map(x: float) -> float:
        y = float(np.interp(x, x_grid, butterfly.forward))
        return float(np.interp(y, butterfly.mirrored_y,
                               butterfly.mirrored_x))

    lo, hi = float(x_grid[0]), float(x_grid[-1])
    for _ in range(60):
        next_lo, next_hi = loop_map(lo), loop_map(hi)
        # Both corners at an exact fixed point: every further iteration
        # would repeat these values (NaN never compares equal).
        if next_lo == lo and next_hi == hi:
            break
        lo, hi = next_lo, next_hi
    if abs(hi - lo) < 0.02 * (x_grid[-1] - x_grid[0]):
        return 0.0

    positive = float(np.max(gap, initial=0.0))
    negative = float(np.max(-gap, initial=0.0))
    if positive <= 0.0 or negative <= 0.0:
        return 0.0
    return min(positive, negative) / sq2
