"""Retarded Green's functions: recursive (RGF) kernels.

Equation (1) of the paper,

``G^r(E) = [(E + i0+) I - H - U - Sigma_1 - Sigma_2 - Sigma_S]^{-1}``,

is evaluated block by block, never by inverting the full matrix (the
tests hold these kernels to a dense inversion, the frozen oracle in
``tests/negf/greens_reference.py``):

* :func:`recursive_greens_function` — the standard RGF algorithm for
  block-tridiagonal Hamiltonians.  It computes exactly the pieces the
  device layer needs — diagonal blocks of ``G^r``, the first and last
  block columns (for contact-resolved spectral functions), and the corner
  block ``G_{N1}`` (for transmission) — at O(N_blocks) block inversions.
  This is one of the "efficient computational algorithms ... to make
  routine device simulation and design possible on a personal computer"
  the paper refers to.
* :func:`rgf_transmission` — only the transmission piece of that pass
  (left-connected sweep and last-column recurrence down to ``G_1N``),
  bit for bit equal to its ``transmission``, for callers that probe one
  energy per device, such as an edge-roughness ensemble.
* :func:`rgf_transmission_batched` — the transmission piece of the RGF
  recurrences carried over a leading energy axis (broadcast
  ``np.linalg.solve``), so a dense energy grid costs O(N_blocks) stacked
  LAPACK calls instead of O(N_blocks x N_energy) Python-looped ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs, sanitize


def stacked_identity(n_batch: int, n: int) -> np.ndarray:
    """``(n_batch, n, n)`` complex array holding one identity per batch.

    The right-hand side of the energy-batched RGF's stacked inversions.
    """
    eye = np.eye(n, dtype=complex)
    return np.broadcast_to(eye, (n_batch, n, n)).copy()


@dataclass(frozen=True)
class RGFResult:
    """Output of one RGF pass at a single energy.

    Attributes
    ----------
    diagonal:
        ``G^r_{ii}`` blocks, one per layer.
    first_column:
        ``G^r_{i1}`` blocks (layer i to layer 1); used to build the
        source-injected spectral function ``A_1 = G gamma_1 G^dagger``.
    last_column:
        ``G^r_{iN}`` blocks; used for the drain-injected spectral function.
    transmission:
        Landauer transmission ``Tr[Gamma_1 G_{1N} Gamma_N G_{1N}^dagger]``.
    """

    diagonal: list[np.ndarray]
    first_column: list[np.ndarray]
    last_column: list[np.ndarray]
    transmission: float


def _block_count(diagonal_blocks: list[np.ndarray],
                 coupling_blocks: list[np.ndarray]) -> int:
    """Number of blocks, after checking the couplings match them."""
    n_blocks = len(diagonal_blocks)
    if n_blocks == 0:
        raise ValueError("device must contain at least one block")
    if len(coupling_blocks) != n_blocks - 1:
        raise ValueError(
            f"expected {n_blocks - 1} coupling blocks, got {len(coupling_blocks)}")
    return n_blocks


def _a_block(i: int, z: complex, diagonal_blocks: list[np.ndarray],
             sigma_left: np.ndarray, sigma_right: np.ndarray) -> np.ndarray:
    """``A_ii = z I - H_ii``, less the contact self-energy on an end block."""
    d = np.asarray(diagonal_blocks[i], dtype=complex)
    a = z * np.eye(d.shape[0], dtype=complex) - d
    if i == 0:
        a = a - sigma_left
    if i == len(diagonal_blocks) - 1:
        a = a - sigma_right
    return a


def _left_connected(z: complex, diagonal_blocks: list[np.ndarray],
                    coupling_blocks: list[np.ndarray],
                    sigma_left: np.ndarray,
                    sigma_right: np.ndarray) -> list[np.ndarray]:
    """Forward sweep: the left-connected Green's functions ``gL_i``."""
    g_left: list[np.ndarray] = []
    for i in range(len(diagonal_blocks)):
        a = _a_block(i, z, diagonal_blocks, sigma_left, sigma_right)
        if i > 0:
            t_prev = np.asarray(coupling_blocks[i - 1], dtype=complex)
            a = a - t_prev.conj().T @ g_left[i - 1] @ t_prev
        g_left.append(np.linalg.solve(a, np.eye(a.shape[0], dtype=complex)))
    return g_left


def recursive_greens_function(
    energy_ev: float,
    diagonal_blocks: list[np.ndarray],
    coupling_blocks: list[np.ndarray],
    sigma_left: np.ndarray,
    sigma_right: np.ndarray,
    eta_ev: float = 1e-6,
) -> RGFResult:
    """Recursive Green's function for a block-tridiagonal device.

    Parameters
    ----------
    diagonal_blocks:
        ``H_ii`` (with any on-site potential already folded in), length N.
    coupling_blocks:
        ``H_{i,i+1}``, length N - 1.
    sigma_left:
        Contact self-energy added to block 0 (source).
    sigma_right:
        Contact self-energy added to block N-1 (drain).

    Notes
    -----
    Left-connected Green's functions ``gL_i`` are accumulated in a forward
    sweep; the full diagonal and the first/last block columns follow from
    the standard backward recurrences:

    ``G_NN = [A_N - T_{N-1}^dag gL_{N-1} T_{N-1}]^{-1}``
    ``G_ii = gL_i + gL_i T_i G_{i+1,i+1} T_i^dag gL_i``
    ``G_{i,1} = -gL_i T_{i-1}^dag G_{i-1,1}`` ... (built forward), and
    ``G_{i,N} = -gL_i T_i G_{i+1,N}`` (built backward).
    """
    n_blocks = _block_count(diagonal_blocks, coupling_blocks)

    if sanitize.ACTIVE:
        for i, block in enumerate(diagonal_blocks):
            sanitize.check_hermitian(
                np.asarray(block), "recursive_greens_function", f"H_{i}{i}",
                energy_ev=energy_ev)

    z = energy_ev + 1j * eta_ev
    g_left = _left_connected(z, diagonal_blocks, coupling_blocks, sigma_left,
                             sigma_right)

    # Backward sweep: full diagonal blocks.
    diag: list[np.ndarray | None] = [None] * n_blocks
    diag[n_blocks - 1] = g_left[n_blocks - 1]
    for i in range(n_blocks - 2, -1, -1):
        t_i = np.asarray(coupling_blocks[i], dtype=complex)
        diag[i] = (g_left[i]
                   + g_left[i] @ t_i @ diag[i + 1] @ t_i.conj().T @ g_left[i])

    # Right-connected Green's functions, needed for the first block column.
    g_right: list[np.ndarray | None] = [None] * n_blocks
    for i in range(n_blocks - 1, -1, -1):
        a = _a_block(i, z, diagonal_blocks, sigma_left, sigma_right)
        if i < n_blocks - 1:
            t_i = np.asarray(coupling_blocks[i], dtype=complex)
            a = a - t_i @ g_right[i + 1] @ t_i.conj().T
        g_right[i] = np.linalg.solve(a, np.eye(a.shape[0], dtype=complex))

    # First block column: G_{i,1} = -gR_i A_{i,i-1} G_{i-1,1} with
    # A_{i,i-1} = -T_{i-1}^dag, hence a plus sign in terms of the hopping.
    first_col: list[np.ndarray | None] = [None] * n_blocks
    first_col[0] = diag[0]
    for i in range(1, n_blocks):
        t_prev = np.asarray(coupling_blocks[i - 1], dtype=complex)
        first_col[i] = g_right[i] @ t_prev.conj().T @ first_col[i - 1]

    # Last block column: G_{i,N} = -gL_i A_{i,i+1} G_{i+1,N} = +gL_i T_i G_{i+1,N}.
    last_col: list[np.ndarray | None] = [None] * n_blocks
    last_col[n_blocks - 1] = diag[n_blocks - 1]
    for i in range(n_blocks - 2, -1, -1):
        t_i = np.asarray(coupling_blocks[i], dtype=complex)
        last_col[i] = g_left[i] @ t_i @ last_col[i + 1]

    # Transmission through the corner block.
    gamma_left = 1j * (sigma_left - sigma_left.conj().T)
    gamma_right = 1j * (sigma_right - sigma_right.conj().T)
    g_1n = last_col[0]
    t_matrix = gamma_left @ g_1n @ gamma_right @ g_1n.conj().T
    transmission = float(np.real(np.trace(t_matrix)))

    if sanitize.ACTIVE:
        op = "recursive_greens_function"
        for i in range(n_blocks):
            sanitize.check_finite(diag[i], op, f"G^r_{i}{i}",
                                  energy_ev=energy_ev)
        sanitize.check_finite(first_col[n_blocks - 1], op, "G^r_N1",
                              energy_ev=energy_ev)
        sanitize.check_finite(g_1n, op, "G^r_1N", energy_ev=energy_ev)
        max_channels = min(sigma_left.shape[0], sigma_right.shape[0])
        sanitize.check_transmission(transmission, max_channels, op,
                                    energy_ev=energy_ev)
        # Reciprocity Tr[G_L G G_R G^dag] = Tr[G_R G G_L G^dag] is the
        # energy-resolved statement of terminal current conservation.
        g_n1 = first_col[n_blocks - 1]
        t_reverse = float(np.real(np.trace(
            gamma_right @ g_n1 @ gamma_left @ g_n1.conj().T)))
        sanitize.check_current_conservation(
            transmission, t_reverse, op,
            quantity="left/right transmission reciprocity",
            rtol=1e-6, atol=1e-10, energy_ev=energy_ev)

    if obs.ACTIVE:
        obs.incr("negf.rgf_passes")
        # One np.linalg.solve per block in each of the forward (gL) and
        # right-connected (gR) sweeps.
        obs.incr("negf.rgf_block_solves", 2 * n_blocks)

    return RGFResult(
        diagonal=[np.asarray(d) for d in diag],
        first_column=[np.asarray(c) for c in first_col],
        last_column=[np.asarray(c) for c in last_col],
        transmission=transmission,
    )


def rgf_transmission(
    energy_ev: float,
    diagonal_blocks: list[np.ndarray],
    coupling_blocks: list[np.ndarray],
    sigma_left: np.ndarray,
    sigma_right: np.ndarray,
    eta_ev: float = 1e-6,
) -> float:
    """Landauer transmission at one energy, and nothing else.

    Equal to ``recursive_greens_function(...).transmission`` bit for bit:
    it runs only that function's left-connected sweep and its last-block-
    column recurrence down to ``G_1N``, in the same operation order, and
    skips the diagonal blocks, the right-connected sweep and the first
    block column, which transmission never reads.  Under the sanitizer it
    delegates to :func:`recursive_greens_function`, so the hermiticity,
    finiteness, bound and reciprocity checks all still run.
    """
    if sanitize.ACTIVE:
        return recursive_greens_function(
            energy_ev, diagonal_blocks, coupling_blocks, sigma_left,
            sigma_right, eta_ev).transmission
    n_blocks = _block_count(diagonal_blocks, coupling_blocks)
    g_left = _left_connected(energy_ev + 1j * eta_ev, diagonal_blocks,
                             coupling_blocks, sigma_left, sigma_right)

    # The last-column recurrence G_{i,N} = gL_i T_i G_{i+1,N}, kept only
    # down to G_1N.
    g_1n = g_left[n_blocks - 1]
    for i in range(n_blocks - 2, -1, -1):
        t_i = np.asarray(coupling_blocks[i], dtype=complex)
        g_1n = g_left[i] @ t_i @ g_1n

    gamma_left = 1j * (sigma_left - sigma_left.conj().T)
    gamma_right = 1j * (sigma_right - sigma_right.conj().T)
    t_matrix = gamma_left @ g_1n @ gamma_right @ g_1n.conj().T
    if obs.ACTIVE:
        obs.incr("negf.rgf_passes")
        obs.incr("negf.rgf_block_solves", n_blocks)
    return float(np.real(np.trace(t_matrix)))


def rgf_transmission_batched(
    energies_ev: np.ndarray,
    diagonal_blocks: list[np.ndarray],
    coupling_blocks: list[np.ndarray],
    sigma_left: np.ndarray,
    sigma_right: np.ndarray,
    eta_ev: float = 1e-6,
) -> np.ndarray:
    """Landauer transmission at many energies in one stacked RGF pass.

    Energy-batched form of the transmission piece of
    :func:`recursive_greens_function`: the forward (left-connected) sweep
    and the backward last-column recurrence are carried over a leading
    energy axis via broadcast ``np.linalg.solve``/``@``, so the Python
    loop runs over the O(N_blocks) recurrence — not over energies.  This
    is the kernel under the atomistic ``engine=`` choices
    (:class:`repro.device.engines.AtomisticTransport`), which probe one
    device on a dense energy grid.

    Parameters
    ----------
    energies_ev:
        Energy grid, shape ``(n_energy,)``.
    diagonal_blocks, coupling_blocks:
        Energy-independent block-tridiagonal Hamiltonian, as for
        :func:`recursive_greens_function`.
    sigma_left, sigma_right:
        Contact self-energies *per energy*, shape ``(n_energy, b, b)``
        (e.g. :func:`repro.negf.self_energy.wide_band_self_energy`
        broadcast over the grid).

    Returns
    -------
    Transmission array of shape ``(n_energy,)``; matches the per-energy
    kernel to numerical round-off.  The sanitizer hooks (hermiticity,
    finiteness, transmission bounds, left/right reciprocity) run on the
    whole batch when ``REPRO_SANITIZE`` is active; the reciprocity check
    adds the right-connected sweep only in that case.
    """
    energies = np.atleast_1d(np.asarray(energies_ev, dtype=float))
    n_blocks = _block_count(diagonal_blocks, coupling_blocks)
    n_e = energies.size
    sigma_left = np.asarray(sigma_left, dtype=complex)
    sigma_right = np.asarray(sigma_right, dtype=complex)
    for name, sig in (("sigma_left", sigma_left),
                      ("sigma_right", sigma_right)):
        if sig.ndim != 3 or sig.shape[0] != n_e:
            raise ValueError(
                f"{name} must have shape (n_energy, b, b) = "
                f"({n_e}, b, b), got {sig.shape}")

    if sanitize.ACTIVE:
        for i, block in enumerate(diagonal_blocks):
            sanitize.check_hermitian(
                np.asarray(block), "rgf_transmission_batched", f"H_{i}{i}")

    z = energies + 1j * eta_ev  # (n_e,)

    def a_stack(i: int) -> np.ndarray:
        d = np.asarray(diagonal_blocks[i], dtype=complex)
        b = d.shape[0]
        a = z[:, None, None] * np.eye(b, dtype=complex) - d
        if i == 0:
            a = a - sigma_left
        if i == n_blocks - 1:
            a = a - sigma_right
        return a

    # Forward sweep.  Only G_{1N} = gL_0 T_0 gL_1 T_1 ... gL_{N-1} is
    # needed for transmission, so instead of materializing each gL_i
    # (solve against the identity) the kernel solves directly against the
    # coupling block: X_i = gL_i T_i in one stacked LAPACK call.  The
    # left-connected correction for the next block is then a single
    # matmul (T_i^dag X_i), and the running product P = X_0 ... X_{N-2}
    # absorbs the backward column recurrence.  Half the matmuls of the
    # materialized form; identical results to round-off.
    m = a_stack(0)
    prod = None
    for i in range(n_blocks - 1):
        t_i = np.asarray(coupling_blocks[i], dtype=complex)
        x = np.linalg.solve(m, t_i)  # broadcasts t_i over energies
        m = a_stack(i + 1) - t_i.conj().T @ x
        prod = x if prod is None else prod @ x
    if prod is None:
        g_1n = np.linalg.solve(m, stacked_identity(n_e, m.shape[-1]))
    else:
        # G_{1N} = P gL_{N-1} = P M^{-1}, evaluated as solve(M^T, P^T)^T
        # (plain transpose: (M^{-1})^T = (M^T)^{-1}).
        g_1n = np.swapaxes(
            np.linalg.solve(np.swapaxes(m, -2, -1),
                            np.swapaxes(prod, -2, -1)),
            -2, -1)

    gamma_left = 1j * (sigma_left - np.conj(np.swapaxes(sigma_left, -2, -1)))
    gamma_right = 1j * (sigma_right
                        - np.conj(np.swapaxes(sigma_right, -2, -1)))
    # Tr[A B] = sum_ij A_ij B_ji: one fewer stacked matmul than forming
    # the full transmission matrix.
    left_part = gamma_left @ g_1n
    right_part = gamma_right @ np.conj(np.swapaxes(g_1n, -2, -1))
    transmission = np.real(np.sum(
        left_part * np.swapaxes(right_part, -2, -1), axis=(-2, -1)))

    if sanitize.ACTIVE:
        op = "rgf_transmission_batched"
        sanitize.check_finite(g_1n, op, "G^r_1N", energies_ev=energies)
        max_channels = min(sigma_left.shape[-1], sigma_right.shape[-1])
        sanitize.check_transmission(transmission, max_channels, op,
                                    energies_ev=energies)
        # Reciprocity needs G_N1, i.e. the right-connected sweep; run it
        # only under the sanitizer (it doubles the kernel's solves).
        g_right: list[np.ndarray | None] = [None] * n_blocks
        for i in range(n_blocks - 1, -1, -1):
            a = a_stack(i)
            if i < n_blocks - 1:
                t_i = np.asarray(coupling_blocks[i], dtype=complex)
                a = a - t_i @ g_right[i + 1] @ np.conj(t_i).T
            # Block sizes differ along the chain, so there is no single
            # identity stack to hoist out of this sanitizer-only sweep.
            g_right[i] = np.linalg.solve(
                a, stacked_identity(n_e, a.shape[-1]))  # repro: noqa[RPA803]
        g_to_first = g_right[0]
        for i in range(1, n_blocks):
            t_prev = np.asarray(coupling_blocks[i - 1], dtype=complex)
            g_to_first = g_right[i] @ t_prev.conj().T @ g_to_first
        g_n1 = g_to_first
        t_reverse = np.real(np.trace(
            gamma_right @ g_n1 @ gamma_left @ np.conj(
                np.swapaxes(g_n1, -2, -1)),
            axis1=-2, axis2=-1))
        for k in range(n_e):
            sanitize.check_current_conservation(
                float(transmission[k]), float(t_reverse[k]), op,
                quantity="left/right transmission reciprocity",
                rtol=1e-6, atol=1e-10, energy_ev=float(energies[k]))

    if obs.ACTIVE:
        obs.incr("negf.rgf_batched_passes")
        obs.incr("negf.batched_energy_points", n_e)
        obs.incr("negf.rgf_block_solves", n_blocks)

    return transmission
