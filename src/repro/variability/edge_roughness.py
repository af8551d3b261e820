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

An ensemble's transmissions are a pure function of the rough on-site
arrays it draws, so they persist in the ``roughness`` namespace of the
artifact cache (:func:`roughness_cache_key`); the edges themselves are
always drawn, so the caller's generator advances alike on a hit and a
miss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.atomistic.bandstructure import band_gap_ev
from repro.atomistic.lattice import ArmchairGNR
from repro.config import RunConfig
from repro.device.engines import engine_version
from repro.device.negf_realspace import (
    RealSpaceGNRDevice,
    rough_edge_onsite,
)
from repro.runtime.cache import ArtifactCache, content_key, load_or_build

#: Namespace of persisted roughness transmissions under the cache root.
ROUGHNESS_CACHE_NAMESPACE = "roughness"


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


def roughness_cache_key(n_index: int, n_cells: int, energy_ev: float,
                        onsite_ev: np.ndarray,
                        version: str | None = None) -> str:
    """Stable content hash of one ensemble's transmissions on disk.

    Hashes exactly what the real-space RGF reads: the ribbon, its
    length, the probe energy and the stacked per-sample on-site arrays
    (``(n_samples, n_atoms)``), under the ``realspace`` engine's
    version tag (``version`` overrides it).  How the edges were drawn
    (probability, seed, generator) is not an input: the arrays are.
    """
    if version is None:
        version = engine_version("realspace")
    return content_key("roughness-transmission", version, n_index, n_cells,
                       float(energy_ev), np.asarray(onsite_ev, dtype=float))


def _ensemble_transmissions(n_index: int, n_cells: int, energy_ev: float,
                            onsite_ev: np.ndarray) -> np.ndarray:
    """First-plateau transmission of each rough segment in the stack."""
    samples = np.empty(len(onsite_ev))
    # Every sample shares the pristine leads, which do not depend on the
    # segment, so their self-energies at the probe energy are decimated
    # once for the whole ensemble (on a one-cell device).
    self_energies = RealSpaceGNRDevice(n_index, 1).lead_self_energies(
        energy_ev)
    for s, onsite in enumerate(onsite_ev):
        device = RealSpaceGNRDevice(n_index, n_cells, onsite)
        samples[s] = device.transmission_at(
            energy_ev, self_energies=self_energies)
    return samples


def roughness_ensemble(
    n_index: int,
    vacancy_probability: float,
    n_cells: int = 24,
    n_samples: int = 12,
    seed: int = 17,
    energy_ev: float | None = None,
    rng: np.random.Generator | None = None,
    config: RunConfig | None = None,
) -> RoughnessStatistics:
    """Ensemble-average first-plateau transmission under edge roughness.

    Pass an explicit ``rng`` to control the stream (e.g. from a
    spawned :class:`~numpy.random.SeedSequence`); ``seed`` is only
    used when ``rng`` is not given.  Every sample's edges are drawn
    from it first; the transmissions then come from the ``roughness``
    namespace of the artifact cache when an earlier run computed them
    for the same on-site arrays.  ``config`` (default
    :meth:`RunConfig.from_env`) locates the store, and
    ``use_cache=False`` keeps it out.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if rng is None:
        rng = np.random.default_rng(seed)
    ribbon = ArmchairGNR(n_index, n_cells=n_cells)
    energy = _probe_energy_ev(n_index) if energy_ev is None else energy_ev

    onsite = np.empty((n_samples, ribbon.n_atoms))
    removed = np.empty(n_samples)
    for s in range(n_samples):
        onsite[s], removed[s] = rough_edge_onsite(
            ribbon, vacancy_probability, rng)
    config = RunConfig.from_env() if config is None else config
    samples = load_or_build(
        ArtifactCache.for_config(ROUGHNESS_CACHE_NAMESPACE, config),
        roughness_cache_key(n_index, n_cells, energy, onsite),
        lambda payload: payload["samples"],
        lambda: _ensemble_transmissions(n_index, n_cells, energy, onsite),
        lambda values: {"samples": values})
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
    config: RunConfig | None = None,
) -> dict[tuple[int, float], RoughnessStatistics]:
    """Grid study: degradation vs (width, roughness probability).

    ``config`` (default :meth:`RunConfig.from_env`, resolved once) is
    passed to every ensemble.
    """
    config = RunConfig.from_env() if config is None else config
    out = {}
    for n in indices:
        for p in probabilities:
            out[(n, p)] = roughness_ensemble(
                n, p, n_cells=n_cells, n_samples=n_samples, seed=seed,
                config=config)
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
    transport gap beyond the structural one).  Every sample's edges are
    drawn first; each of the 26 energies then runs the ensemble kernel
    of :func:`roughness_ensemble` (leads decimated once per energy).

    Returns ``np.inf`` when the mean transmission stays below
    ``threshold`` over the whole 0.5 eV scan: the widening is then
    unresolved, not 0.5 eV (the convention of
    :func:`localization_length_cells` for an unresolved fit).
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    edge = band_gap_ev(n_index) / 2.0
    energies = edge + np.linspace(0.0, 0.5, 26)
    if rng is None:
        rng = np.random.default_rng(seed)
    ribbon = ArmchairGNR(n_index, n_cells=n_cells)
    onsite = np.empty((n_samples, ribbon.n_atoms))
    for i in range(n_samples):
        onsite[i], _ = rough_edge_onsite(ribbon, vacancy_probability, rng)
    mean_t = np.array([
        _ensemble_transmissions(n_index, n_cells, float(e), onsite).mean()
        for e in energies])
    above = np.nonzero(mean_t >= threshold)[0]
    if not above.size:
        return np.inf
    return float(energies[int(above[0])] - edge)
