"""Frozen dense Green's function and Caroli transmission.

``dense_retarded_gf`` inverts ``(E + i eta) I - H - Sigma_L - Sigma_R``
directly, O(n^3) in the full device size, and ``transmission_dense``
traces ``Gamma_L G Gamma_R G^dagger`` over the full matrices.  They are
kept verbatim, without the sanitizer and trace hooks production
kernels carry, as the oracle that ``tests/negf/test_greens.py`` holds
:func:`repro.negf.greens.recursive_greens_function` to: the obvious
transcription of Eq. (1) of the paper and of the Landauer transmission.
"""

from __future__ import annotations

import numpy as np


def dense_retarded_gf(
    energy_ev: float,
    hamiltonian: np.ndarray,
    sigma_left: np.ndarray | None = None,
    sigma_right: np.ndarray | None = None,
    eta_ev: float = 1e-6,
) -> np.ndarray:
    """Retarded Green's function by direct inversion.

    ``sigma_left`` / ``sigma_right`` are full-size matrices (usually zero
    except on the first / last block); pass ``None`` for a closed boundary.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    n = h.shape[0]
    a = (energy_ev + 1j * eta_ev) * np.eye(n, dtype=complex) - h
    if sigma_left is not None:
        a = a - sigma_left
    if sigma_right is not None:
        a = a - sigma_right
    return np.linalg.solve(a, np.eye(n, dtype=complex))


def transmission_dense(
    greens_function: np.ndarray,
    gamma_left: np.ndarray,
    gamma_right: np.ndarray,
) -> float:
    """Caroli transmission ``Tr[Gamma_L G Gamma_R G^dagger]``.

    ``greens_function`` is the full retarded GF; the broadening matrices
    must be full-size (zero-padded outside their contact block).
    """
    g = np.asarray(greens_function, dtype=complex)
    t = gamma_left @ g @ gamma_right @ g.conj().T
    return float(np.real(np.trace(t)))
