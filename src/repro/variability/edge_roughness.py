"""Edge-roughness study: the defect mechanism the paper defers.

Section 4: "The charge impurity in the gate insulator, lattice vacancy,
or edge roughness [17] of GNR may be a defect which results in a large
performance variation ... Other defect and variability mechanisms exist
and should be explored in future studies ... by readily extending the
bottom-up simulation framework presented here."

This module is that extension, following the paper's reference [17]
(Yoon & Guo, APL 91, 073103, 2007): edge atoms are removed at random
with probability ``p`` and ballistic transport is solved in the full
real-space p_z basis (edge roughness mixes transverse modes, so mode
space does not apply).  Two statistics are produced:

* on-state transmission degradation vs roughness probability and ribbon
  width — narrow ribbons suffer more (their conducting states live
  closer to the edges), compounding the paper's width-variability story;
* transmission vs channel length at fixed roughness — the exponential
  decay whose length is the roughness-limited localization length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.atomistic.bandstructure import band_gap_ev
from repro.atomistic.lattice import ArmchairGNR
from repro.device.negf_realspace import (
    RealSpaceGNRDevice,
    rough_edge_onsite,
)


@dataclass
class RoughnessStatistics:
    """Ensemble statistics of one (n_index, probability, length) point."""

    n_index: int
    vacancy_probability: float
    n_cells: int
    mean_transmission: float
    std_transmission: float
    mean_removed_atoms: float
    samples: np.ndarray

    @property
    def relative_degradation(self) -> float:
        """1 - <T>/T_ideal with T_ideal = 1 on the first plateau."""
        return 1.0 - self.mean_transmission


def _probe_energy_ev(n_index: int) -> float:
    """Energy on the first conduction plateau (mid-way to the 2nd edge)."""
    from repro.atomistic.bandstructure import subband_edges

    edges = subband_edges(n_index, n_subbands=2)
    return float(0.5 * (edges[0] + min(edges[1], edges[0] + 0.4)))


def roughness_ensemble(
    n_index: int,
    vacancy_probability: float,
    n_cells: int = 24,
    n_samples: int = 12,
    seed: int = 17,
    energy_ev: float | None = None,
    rng: np.random.Generator | None = None,
) -> RoughnessStatistics:
    """Ensemble-average first-plateau transmission under edge roughness.

    Pass an explicit ``rng`` to control the stream (e.g. from a
    spawned :class:`~numpy.random.SeedSequence`); ``seed`` is only
    used when ``rng`` is not given.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if rng is None:
        rng = np.random.default_rng(seed)
    ribbon = ArmchairGNR(n_index, n_cells=n_cells)
    energy = _probe_energy_ev(n_index) if energy_ev is None else energy_ev

    samples = np.empty(n_samples)
    removed = np.empty(n_samples)
    # Every sample shares the pristine leads, which do not depend on the
    # segment, so their self-energies at the probe energy are decimated
    # once for the whole ensemble (on a one-cell device).
    self_energies = RealSpaceGNRDevice(n_index, 1).lead_self_energies(energy)
    for s in range(n_samples):
        onsite, n_removed = rough_edge_onsite(ribbon, vacancy_probability,
                                              rng)
        device = RealSpaceGNRDevice(n_index, n_cells, onsite)
        # Single probe energy per disorder sample: no energy grid to
        # batch over.
        samples[s] = device.transmission_at(  # repro: noqa[RPA802]
            energy, self_energies=self_energies)
        removed[s] = n_removed
    return RoughnessStatistics(
        n_index=n_index, vacancy_probability=vacancy_probability,
        n_cells=n_cells, mean_transmission=float(samples.mean()),
        std_transmission=float(samples.std()),
        mean_removed_atoms=float(removed.mean()), samples=samples)


def roughness_width_study(
    indices: tuple[int, ...] = (9, 12, 18),
    probabilities: tuple[float, ...] = (0.02, 0.05, 0.1),
    n_cells: int = 24,
    n_samples: int = 10,
    seed: int = 17,
) -> dict[tuple[int, float], RoughnessStatistics]:
    """Grid study: degradation vs (width, roughness probability)."""
    out = {}
    for n in indices:
        for p in probabilities:
            out[(n, p)] = roughness_ensemble(
                n, p, n_cells=n_cells, n_samples=n_samples, seed=seed)
    return out


def localization_length_cells(
    n_index: int,
    vacancy_probability: float,
    lengths_cells: tuple[int, ...] = (8, 16, 24, 32),
    n_samples: int = 10,
    seed: int = 23,
) -> tuple[float, dict[int, float]]:
    """Roughness-limited localization length from <ln T>(L).

    Fits ``<ln T> = -2 L / xi + const`` over the given channel lengths;
    returns ``(xi_in_cells, mean_lnT_by_length)``.  The ensemble average
    of ln T (not T) is the self-averaging quantity in 1-D localization.
    A line needs at least two distinct lengths.
    """
    if len(set(lengths_cells)) < 2:
        raise ValueError(
            "need at least two distinct channel lengths to fit a "
            f"localization length, got {lengths_cells}")
    means = {}
    for n_cells in lengths_cells:
        stats = roughness_ensemble(n_index, vacancy_probability,
                                   n_cells=n_cells, n_samples=n_samples,
                                   seed=seed)
        means[n_cells] = float(np.mean(np.log(
            np.clip(stats.samples, 1e-12, None))))
    x = np.array(list(means.keys()), dtype=float)
    y = np.array(list(means.values()))
    slope = float(np.polyfit(x, y, 1)[0])
    if slope >= 0.0:
        return np.inf, means
    return -2.0 / slope, means


def effective_gap_widening_ev(
    n_index: int,
    vacancy_probability: float,
    n_cells: int = 24,
    n_samples: int = 8,
    seed: int = 31,
    threshold: float = 0.5,
    rng: np.random.Generator | None = None,
) -> float:
    """Transport-gap widening caused by edge roughness.

    Scans energy upward from the ideal band edge until the ensemble-mean
    transmission exceeds ``threshold``; the offset from the ideal edge is
    the effective gap widening (Yoon & Guo report that roughness opens a
    transport gap beyond the structural one).
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    edge = band_gap_ev(n_index) / 2.0
    energies = edge + np.linspace(0.0, 0.5, 26)
    if rng is None:
        rng = np.random.default_rng(seed)
    ribbon = ArmchairGNR(n_index, n_cells=n_cells)
    trans = np.empty((n_samples, energies.size))
    for i in range(n_samples):
        onsite, _ = rough_edge_onsite(ribbon, vacancy_probability, rng)
        device = RealSpaceGNRDevice(n_index, n_cells, onsite)
        trans[i] = device.transport(energies).transmission
    mean_t = trans.mean(axis=0)
    above = np.nonzero(mean_t >= threshold)[0]
    if above.size:
        return float(energies[int(above[0])] - edge)
    return float(energies[-1] - edge)
