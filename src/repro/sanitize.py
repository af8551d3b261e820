"""Opt-in numerical sanitizer for the NEGF / SCF / transient hot paths.

PR 1 made sweeps parallel and cached, which means a single silent NaN in
a Green's-function block can poison a cached device table — and every
Monte Carlo distribution derived from it — without any test failing.
This module provides cheap runtime guards for the physical invariants
coherent transport must satisfy:

* **Hermiticity** — Hamiltonian blocks fed to the Green's-function
  kernels must be Hermitian (a non-Hermitian ``H`` silently breaks the
  analytic structure of ``G^r``).
* **Finiteness** — Green's functions, spectral densities, charge
  densities and node voltages must be free of NaN/Inf.
* **Transmission bounds** — coherent transmission satisfies
  ``0 <= T(E) <= M`` with ``M`` the number of conducting channels.
* **Current conservation** — the source and drain see the same current;
  for coherent transport this is the left/right transmission reciprocity
  ``Tr[Gamma_L G Gamma_R G^dag] = Tr[Gamma_R G Gamma_L G^dag]``.

Activation
----------
The sanitizer is **off by default** and compiled out of the hot paths
behind the module-level :data:`ACTIVE` flag — call sites guard with
``if sanitize.ACTIVE:``, so the disabled cost is one global load and a
jump (asserted by ``benchmarks/bench_sanitizer_overhead.py``).  Enable it
with ``repro run --sanitize`` or ``REPRO_SANITIZE=1`` (the CLI entry
points switch it on from their :class:`~repro.config.RunConfig`), or
programmatically via :func:`enable`; ``runtime.parallel_map`` workers
get the parent's flag.

Failures raise :class:`repro.errors.SanitizerError` naming the operator,
the offending quantity, the energy point and the bias.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SanitizerError

#: Module-level guard flag read by every instrumented call site
#: (``if sanitize.ACTIVE:``).  Off until :func:`enable`.
ACTIVE: bool = False


def enable() -> None:
    """Switch the sanitizer on for this process and the workers it starts."""
    global ACTIVE
    ACTIVE = True


def disable() -> None:
    """Switch the sanitizer off."""
    global ACTIVE
    ACTIVE = False


def active() -> bool:
    """Current sanitizer state (prefer reading :data:`ACTIVE` in hot paths)."""
    return ACTIVE


def format_bias(vg: float | None = None, vd: float | None = None) -> str:
    """Canonical bias string used in sanitizer reports."""
    parts = []
    if vg is not None:
        parts.append(f"VG={vg:.4g} V")
    if vd is not None:
        parts.append(f"VD={vd:.4g} V")
    return ", ".join(parts)


def _raise(problem: str, operator: str, quantity: str,
           energy_ev: float | None, bias: str | None) -> None:
    where = f"sanitizer: {problem} in {quantity!r} of operator {operator!r}"
    if energy_ev is not None:
        where += f" at E={energy_ev:.6g} eV"
    if bias:
        where += f" ({bias})"
    raise SanitizerError(where, operator=operator, quantity=quantity,
                         energy_ev=energy_ev, bias=bias)


def _first_bad_energy(bad_mask: np.ndarray,
                      energies_ev: np.ndarray | None) -> float | None:
    """Energy of the first offending entry along axis 0, if known."""
    if energies_ev is None:
        return None
    axis0 = np.any(np.asarray(bad_mask).reshape(bad_mask.shape[0], -1), axis=1)
    index = int(np.argmax(axis0))
    return float(np.asarray(energies_ev).ravel()[index])


def check_finite(array: np.ndarray, operator: str, quantity: str,
                 energy_ev: float | None = None,
                 energies_ev: np.ndarray | None = None,
                 bias: str | None = None) -> None:
    """Assert ``array`` contains no NaN/Inf.

    ``energies_ev`` (aligned with axis 0 of ``array``) lets vectorized
    kernels name the exact energy point of the first bad entry;
    ``energy_ev`` is for scalar-energy call sites.
    """
    arr = np.asarray(array)
    finite = np.isfinite(arr)
    if finite.all():
        return
    bad = ~finite
    n_bad = int(np.count_nonzero(bad))
    if energy_ev is None:
        energy_ev = _first_bad_energy(bad, energies_ev)
    _raise(f"non-finite values ({n_bad} of {arr.size} entries)",
           operator, quantity, energy_ev, bias)


def check_hermitian(matrix: np.ndarray, operator: str, quantity: str,
                    tol: float = 1e-9, energy_ev: float | None = None,
                    bias: str | None = None) -> None:
    """Assert a Hamiltonian block is Hermitian within ``tol`` (absolute)."""
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        _raise(f"non-square matrix of shape {m.shape}", operator, quantity,
               energy_ev, bias)
    deviation = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if deviation > tol:
        _raise(f"hermiticity violation (max |H - H^dag| = {deviation:.3e} "
               f"> tol {tol:.1e})", operator, quantity, energy_ev, bias)


def check_transmission(transmission: np.ndarray, max_channels: float,
                       operator: str, quantity: str = "T(E)",
                       tol: float = 1e-6,
                       energy_ev: float | None = None,
                       energies_ev: np.ndarray | None = None,
                       bias: str | None = None) -> None:
    """Assert ``-tol <= T(E) <= max_channels + tol`` everywhere.

    ``max_channels`` is the number of conducting channels ``M`` (the
    contact-block dimension for matrix kernels, the mode count for
    mode-space chains); coherent transmission can never exceed it.
    """
    t = np.asarray(transmission, dtype=float)
    check_finite(t, operator, quantity, energy_ev=energy_ev,
                 energies_ev=energies_ev, bias=bias)
    bad = (t < -tol) | (t > max_channels + tol)
    if not bad.any():
        return
    worst = float(t.ravel()[int(np.argmax(np.abs(np.where(bad.ravel(),
                                                          t.ravel(), 0.0))))])
    if energy_ev is None:
        energy_ev = _first_bad_energy(np.atleast_1d(bad), energies_ev)
    _raise(f"transmission out of bounds [0, {max_channels:g}] "
           f"(worst offender T = {worst:.6g})",
           operator, quantity, energy_ev, bias)


def check_current_conservation(i_source: float, i_drain: float,
                               operator: str,
                               quantity: str = "terminal current",
                               rtol: float = 1e-6, atol: float = 1e-18,
                               energy_ev: float | None = None,
                               bias: str | None = None) -> None:
    """Assert the source and drain carry the same current.

    For the coherent kernels this is applied to the left/right
    transmission reciprocity (the energy-resolved statement of terminal
    current conservation); for circuit solvers to the KCL residual.
    """
    i_s = float(i_source)
    i_d = float(i_drain)
    scale = max(abs(i_s), abs(i_d))
    if abs(i_s - i_d) <= atol + rtol * scale:
        return
    _raise(f"current-conservation violation (source {i_s:.9g} vs drain "
           f"{i_d:.9g}, mismatch {abs(i_s - i_d):.3e})",
           operator, quantity, energy_ev, bias)
