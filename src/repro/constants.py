"""Physical constants and unit conventions used throughout :mod:`repro`.

Unit conventions
----------------
The library works in the unit system that is most natural for nanoscale
device simulation:

* energies in **electron-volts** (eV),
* lengths in **nanometres** (nm),
* voltages in **volts** (V),
* currents in **amperes** (A),
* capacitances in **farads** (F),
* temperatures in **kelvin** (K).

All constants below are CODATA-2018 exact or recommended values.  Graphene
lattice constants follow the values used by the paper (p_z hopping of
2.7 eV, carbon-carbon bond length of 0.142 nm).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

import math

# --- Fundamental constants (SI) -------------------------------------------
Q_E = 1.602176634e-19
"""Elementary charge in coulomb (exact)."""

K_B_SI = 1.380649e-23
"""Boltzmann constant in J/K (exact)."""

PLANCK_H = 6.62607015e-34
"""Planck constant in J s (exact)."""

HBAR_SI = PLANCK_H / (2.0 * math.pi)
"""Reduced Planck constant in J s."""

EPS_0 = 8.8541878128e-12
"""Vacuum permittivity in F/m."""

M_E = 9.1093837015e-31
"""Electron rest mass in kg."""

# --- Derived constants in library units ------------------------------------
K_B_EV = K_B_SI / Q_E
"""Boltzmann constant in eV/K."""

HBAR_EV_S = HBAR_SI / Q_E
"""Reduced Planck constant in eV s."""

EPS_0_F_PER_NM = EPS_0 * 1e-9
"""Vacuum permittivity in F/nm."""

G_QUANTUM = 2.0 * Q_E * Q_E / PLANCK_H
"""Conductance quantum 2e^2/h (spin degenerate, single mode) in siemens."""

CURRENT_QUANTUM = 2.0 * Q_E / PLANCK_H
"""Prefactor 2e/h of the spin-degenerate Landauer current integral.

Multiplying by an energy window expressed in eV requires one more factor
of ``Q_E`` (J per eV); :func:`landauer_prefactor_ev` folds that in.
"""

LANDAUER_PREFACTOR_A_PER_EV = 2.0 * Q_E / PLANCK_H * Q_E
"""Spin-degenerate Landauer prefactor 2e/h expressed in A per eV.

``I = LANDAUER_PREFACTOR_A_PER_EV * integral T(E) (f_S - f_D) dE`` with the
energy integral carried out in eV yields amperes.
"""

# --- Graphene / GNR lattice -------------------------------------------------
A_CC_NM = 0.142
"""Carbon-carbon bond length in nm."""

A_LATTICE_NM = A_CC_NM * math.sqrt(3.0)
"""Graphene lattice constant (0.246 nm)."""

T_HOPPING_EV = 2.7
"""Nearest-neighbour p_z hopping parameter used by the paper, in eV."""

EDGE_RELAXATION = 0.12
"""Relative strengthening of the edge dimer bonds of an armchair GNR.

Son, Cohen and Louie (PRL 97, 216803, 2006) showed from ab initio
calculations that the C-C bonds at the armchair edges contract, which is
captured in tight binding by scaling the edge dimer hopping by
``1 + EDGE_RELAXATION``.  The paper states that "energy relaxation at the
edges is treated according to ab initio calculations" citing that work.
"""

ARMCHAIR_PERIOD_NM = 3.0 * A_CC_NM
"""Translational period of an armchair-edge GNR along transport (0.426 nm)."""

FERMI_VELOCITY_NM_PER_S = 1.5 * A_CC_NM * T_HOPPING_EV / HBAR_EV_S
"""Graphene Fermi velocity v_F = 3 a_cc t / (2 hbar) in nm/s (~8.7e14)."""

# --- Environment ------------------------------------------------------------
ROOM_TEMPERATURE_K = 300.0
"""Default simulation temperature."""

KT_ROOM_EV = K_B_EV * ROOM_TEMPERATURE_K
"""Thermal energy at 300 K (~25.85 meV)."""

EPS_SIO2 = 3.9
"""Relative permittivity of the SiO2 gate insulator used by the paper."""


def thermal_energy_ev(temperature_k: float) -> float:
    """Return k_B T in eV for a temperature in kelvin."""
    if temperature_k <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature_k}")
    return K_B_EV * temperature_k


def fermi_dirac(energy_ev: float | np.ndarray, mu_ev: float,
                kt_ev: float = KT_ROOM_EV) -> float | np.ndarray:
    """Fermi-Dirac occupation f(E) for energies in eV.

    Implemented in an overflow-safe way so it can be evaluated on numpy
    arrays spanning many k_B T on either side of the chemical potential:
    with ``e = exp(-|x|)``, which never overflows, ``f = e / (1 + e)``
    for ``x > 0`` and ``1 / (1 + e)`` otherwise.  The one exponential is
    taken in place in a private copy of the energies, so an array call
    holds two arrays of its size (plus a boolean mask).
    """
    import numpy as np

    if kt_ev <= 0.0:
        raise ValueError(f"kT must be positive, got {kt_ev}")
    # A fresh array even for a scalar, so the steps below work in place.
    x = np.asarray((np.asarray(energy_ev, dtype=float) - mu_ev) / kt_ev)
    positive = x > 0.0
    # Negating only where x > 0 leaves a NaN's sign bit as it came in.
    np.negative(x, out=x, where=positive)
    np.exp(x, out=x)
    denominator = 1.0 + x
    np.copyto(x, 1.0, where=~positive)
    out = np.divide(x, denominator, out=x)
    if np.isscalar(energy_ev):
        return float(out)
    return out


def gnr_width_nm(n_index: int) -> float:
    """Physical width of an armchair GNR with ``n_index`` dimer lines.

    The width is the distance between the outermost dimer lines,
    ``(N - 1) * sqrt(3)/2 * a_cc``.  The paper quotes 1.1 nm for N=9 and a
    width increment of 3.7 Å per step of 3 in N, both of which this
    formula reproduces (0.98 nm and 0.369 nm with a_cc = 0.142 nm).
    """
    if n_index < 2:
        raise ValueError(f"armchair GNR index must be >= 2, got {n_index}")
    return (n_index - 1) * math.sqrt(3.0) / 2.0 * A_CC_NM
