"""Transport-engine registry and the atomistic-transmission adapter.

Three engines compute the transmission behind the SBFET device model:

``semianalytic`` (default)
    The per-mode WKB kernel built into :class:`~repro.device.sbfet.\
SBFETModel` — the production engine that populates the circuit tables.
``modespace``
    Coupled mode-space NEGF (:class:`~repro.device.negf_modespace.\
ModeSpaceGNRDevice`): the real-space Hamiltonian projected onto the
    lowest transverse subbands.  Exact at full rank; truncation drops
    the coupling that edge-bond relaxation adds, so at ``n_modes=4`` a
    36-cell N = 12 barrier device's transmission is off by up to 0.41
    and its current by 9.5% (``docs/performance.md``).
``realspace``
    Full atomistic p_z NEGF (:class:`~repro.device.negf_realspace.\
RealSpaceGNRDevice`): the slow reference the other two are validated
    against.

Both atomistic engines run through :class:`AtomisticTransport`: the
device's blocks, closed by wide-band metal contacts, in one
energy-batched RGF pass.

Every engine shares the same electrostatics (bisection over the density
LUT); only ``transmission(E, profile)`` swaps.  The engine choice is
part of every table cache key through
:func:`engine_version`, so artifacts from different engines can never
collide.

Selection: an explicit ``engine=`` argument of the device model, sweep
and table builders, ``semianalytic`` by default.  Unknown names fail
loudly.
"""

from __future__ import annotations

import numpy as np

from repro.constants import ARMCHAIR_PERIOD_NM, EDGE_RELAXATION, T_HOPPING_EV
from repro.errors import InvalidDeviceError
from repro.runtime.cache import TABLE_ENGINE_VERSION

#: Recognized engine names.
ENGINES = ("semianalytic", "realspace", "modespace")

DEFAULT_ENGINE = "semianalytic"

#: Cache-key version tag per engine.  The semianalytic tag is the
#: historical ``TABLE_ENGINE_VERSION`` so pre-engine-selection caches
#: remain valid for the default path; bump an engine's tag when its
#: physics or numerics change.  Every engine shares the SBFET current
#: quadrature, so the v2 NEGF tags follow ``sbfet-v4``'s breakpoint grid;
#: ``sbfet-v5``'s mirror twins never apply to them (a NEGF engine turns
#: ``SBFETModel.mirror_symmetric`` off).
ENGINE_VERSIONS = {
    "semianalytic": TABLE_ENGINE_VERSION,
    "realspace": "negf-realspace-v2",
    "modespace": "negf-modespace-v2",
}


def resolve_engine(engine: str = DEFAULT_ENGINE) -> str:
    """Validate an engine name; unknown names raise."""
    if engine not in ENGINES:
        raise InvalidDeviceError(
            f"unknown transport engine {engine!r}; expected one of "
            f"{', '.join(ENGINES)}")
    return engine


def engine_version(engine: str = DEFAULT_ENGINE) -> str:
    """Cache-key version tag of an engine."""
    return ENGINE_VERSIONS[resolve_engine(engine)]


#: Default wide-band contact broadening of the atomistic engines
#: (eV), applied to every orbital of the first/last unit cell.  Half
#: the hopping makes the metal Schottky contacts near-reflectionless:
#: the above-barrier transparency and the integrated current match the
#: semianalytic engine's ideal-injector contacts at the percent level.
CONTACT_BROADENING_EV = 0.5 * T_HOPPING_EV


class AtomisticTransport:
    """Adapter exposing the NEGF engines through the SBFET interface.

    :class:`~repro.device.sbfet.SBFETModel` computes transmission from a
    midgap profile sampled on its transport grid; the atomistic engines
    want a per-unit-cell potential and contact self-energies.  This
    adapter owns the mapping: the channel is discretized into
    ``round(L / 0.426 nm)`` unit cells, the profile is interpolated onto
    the cell centers, and the device is closed by **wide-band metal
    self-energies** on the end cells — the SBFET's source/drain are
    metals pinned at the midgap (Schottky barriers ``E_g/2``), which
    inject at every energy, unlike semiconducting GNR leads whose gap
    would block exactly the Schottky-tunneling window.  Because the
    wide-band matrix is ``-i Gamma/2 I`` and the mode basis is
    orthonormal, the real-space and mode-space engines see *identical*
    contacts (``U^T (-i Gamma/2 I) U = -i Gamma/2 I_m``), so
    cross-engine differences isolate the mode truncation.

    One adapter is built per model and re-used across bias points; the
    per-profile device construction on top of the memoized
    lead/mode-basis blocks is cheap.
    """

    def __init__(self, engine: str, n_index: int, channel_length_nm: float,
                 n_modes: int | None = None,
                 hopping_ev: float = T_HOPPING_EV,
                 edge_relaxation: float = EDGE_RELAXATION,
                 contact_broadening_ev: float = CONTACT_BROADENING_EV):
        if engine not in ("realspace", "modespace"):
            raise InvalidDeviceError(
                f"AtomisticTransport backs NEGF engines only, got {engine!r}")
        self.engine = engine
        self.n_index = n_index
        self.n_modes = n_modes
        self.hopping_ev = hopping_ev
        self.edge_relaxation = edge_relaxation
        self.contact_broadening_ev = float(contact_broadening_ev)
        self.n_cells = max(2, int(round(channel_length_nm
                                        / ARMCHAIR_PERIOD_NM)))
        # Cell centers on the same [0, L] axis the SBFET profile lives on.
        self.cell_centers_nm = ((np.arange(self.n_cells) + 0.5)
                                * channel_length_nm / self.n_cells)

    def _device(self, cell_onsite_ev: np.ndarray):
        if self.engine == "modespace":
            from repro.device.negf_modespace import ModeSpaceGNRDevice

            return ModeSpaceGNRDevice(
                self.n_index, self.n_cells, onsite_ev=cell_onsite_ev,
                n_modes=self.n_modes, hopping_ev=self.hopping_ev,
                edge_relaxation=self.edge_relaxation)
        from repro.atomistic.lattice import ArmchairGNR
        from repro.device.negf_realspace import (
            RealSpaceGNRDevice,
            longitudinal_onsite,
        )

        ribbon = ArmchairGNR(self.n_index, n_cells=self.n_cells)
        return RealSpaceGNRDevice(
            self.n_index, self.n_cells,
            onsite_ev=longitudinal_onsite(ribbon, cell_onsite_ev),
            hopping_ev=self.hopping_ev,
            edge_relaxation=self.edge_relaxation)

    def transmission(self, energies_ev: np.ndarray,
                     profile_midgap_ev: np.ndarray,
                     x_nm: np.ndarray,
                     eta_ev: float = 1e-6) -> np.ndarray:
        """NEGF transmission for one midgap profile.

        ``profile_midgap_ev`` is sampled at ``x_nm`` (the SBFET
        transport grid); energies are absolute (source Fermi level at
        0).  The Schottky metal contacts enter as energy-independent
        wide-band self-energies on the end cells.
        """
        from repro.negf.greens import rgf_transmission_batched
        from repro.negf.self_energy import wide_band_self_energy

        energies = np.asarray(energies_ev, dtype=float)
        profile = np.asarray(profile_midgap_ev, dtype=float)
        x = np.asarray(x_nm, dtype=float)
        cell_onsite = np.interp(self.cell_centers_nm, x, profile)
        device = self._device(cell_onsite)
        b = device.diagonal[0].shape[0]
        sigma = wide_band_self_energy(self.contact_broadening_ev, b)
        sigma_stack = np.broadcast_to(
            sigma, (energies.size, b, b)).copy()
        trans = rgf_transmission_batched(
            energies, device.diagonal, device.coupling,
            sigma_stack, sigma_stack, eta_ev)
        return np.maximum(trans, 0.0)
