"""Discretized-normal sampling for the Monte Carlo study.

Paper, Section 5.3: "The width and charge impurities for the GNRFETs were
drawn from a normal distribution, with mean width N=12 and mean charge
equal to zero.  The widths N=9/15 and charge +q/-q were set to sigma for
the two distributions, which were discretized to reflect the nature of
occurrence of variations and defects in GNRFETs."

Discretization: a standard-normal draw is mapped to the nearest of the
three discrete levels {-sigma, 0, +sigma}, i.e. thresholds at +-sigma/2.
This yields P(center) ~ 0.383 and P(each tail) ~ 0.309.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

import numpy as np

T = TypeVar("T")


def discretized_normal_choice(
    rng: np.random.Generator,
    levels: Sequence[T],
    size: int | None = None,
) -> T | list[T]:
    """Draw from a 3-level discretized standard normal.

    ``levels`` is ``(minus_sigma_value, mean_value, plus_sigma_value)``.
    Returns one element (``size=None``) or a list of ``size`` elements.
    """
    require_three_levels(levels, "levels")
    n = 1 if size is None else size
    indices = discretized_normal_indices(rng.standard_normal(n))
    picked = [levels[int(i)] for i in indices]
    return picked[0] if size is None else picked


def discretized_normal_indices(draws: np.ndarray) -> np.ndarray:
    """Level index (0, 1, 2) of each standard-normal draw (+-sigma/2 rule).

    Elementwise, so one block draw maps to the same indices as the same
    number of sequential scalar draws from the generator.
    """
    return np.where(draws < -0.5, 0, np.where(draws > 0.5, 2, 1))


def require_three_levels(levels: Sequence, name: str) -> None:
    """Reject a level tuple the three-level rule cannot index."""
    if len(levels) != 3:
        raise ValueError(f"need exactly 3 {name}, got {len(levels)}")
