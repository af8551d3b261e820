"""Generic self-consistent field (SCF) loop.

The paper's device simulation solves the NEGF transport equation
"self-consistently with Poisson's equation".  This module provides the
outer loop as a reusable component: given

* ``solve_charge(potential) -> charge`` — the transport step, and
* ``solve_potential(charge) -> potential`` — the electrostatics step,

it iterates with a pluggable mixer until the potential update falls below
tolerance.  The device layer wires in the actual NEGF and Poisson solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import obs, sanitize
from repro.errors import ConvergenceError
from repro.negf.mixing import AndersonMixer, LinearMixer


@dataclass
class SCFOptions:
    """Tuning knobs of the self-consistent loop."""

    tolerance_ev: float = 1e-4
    max_iterations: int = 150
    mixer: LinearMixer | AndersonMixer | None = None
    raise_on_failure: bool = True

    def make_mixer(self) -> LinearMixer | AndersonMixer:
        """Return the configured mixer, defaulting to Anderson."""
        if self.mixer is not None:
            self.mixer.reset()
            return self.mixer
        return AndersonMixer(beta=0.3, history=5)


@dataclass(frozen=True)
class SCFResult:
    """Converged (or best-effort) state of the SCF loop.

    ``charge`` is always the output of ``solve_charge(potential)`` for
    the returned ``potential`` — on convergence it is recomputed from the
    final potential, and on a best-effort return it is the last charge
    evaluated, which by construction used the returned potential.
    """

    potential: np.ndarray
    charge: np.ndarray
    converged: bool
    iterations: int
    residual_history: list[float] = field(default_factory=list)

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1] if self.residual_history else np.inf


def self_consistent_loop(
    solve_charge: Callable[[np.ndarray], np.ndarray],
    solve_potential: Callable[[np.ndarray], np.ndarray],
    initial_potential: np.ndarray,
    options: SCFOptions | None = None,
) -> SCFResult:
    """Iterate transport and electrostatics to self-consistency.

    Convergence is measured on the max-norm of the potential update
    (``max |U_out - U_in|`` in eV), the criterion used by atomistic device
    simulators because the terminal current is exponentially sensitive to
    barrier-region potential errors.
    """
    options = options or SCFOptions()
    mixer = options.make_mixer()

    potential = np.asarray(initial_potential, dtype=float).copy()
    shape = potential.shape
    charge = solve_charge(potential)
    if sanitize.ACTIVE:
        sanitize.check_finite(charge, "self_consistent_loop",
                              "charge density (initial)")
    residuals: list[float] = []

    for iteration in range(1, options.max_iterations + 1):
        new_potential = np.asarray(solve_potential(charge), dtype=float)
        if new_potential.shape != shape:
            raise ValueError(
                f"potential solver changed shape {shape} -> {new_potential.shape}")
        residual = float(np.max(np.abs(new_potential - potential)))
        residuals.append(residual)
        if residual < options.tolerance_ev:
            # Recompute the charge from the returned potential: the loop
            # variable still holds the charge of the *previous* potential,
            # and SCFResult guarantees that ``potential`` and ``charge``
            # describe the same self-consistent state.
            charge = solve_charge(new_potential)
            if obs.ACTIVE:
                obs.incr("scf.solves")
                obs.incr("scf.converged")
                obs.incr("scf.iterations", iteration)
                obs.observe("scf.iterations_to_converge", iteration)
            return SCFResult(potential=new_potential, charge=charge,
                             converged=True, iterations=iteration,
                             residual_history=residuals)
        potential = mixer.update(potential.ravel(),
                                 new_potential.ravel()).reshape(shape)
        charge = solve_charge(potential)
        if sanitize.ACTIVE:
            op = "self_consistent_loop"
            sanitize.check_finite(
                potential, op, f"potential (iteration {iteration})")
            sanitize.check_finite(
                charge, op, f"charge density (iteration {iteration})")

    if obs.ACTIVE:
        obs.incr("scf.solves")
        obs.incr("scf.diverged")
        obs.incr("scf.iterations", options.max_iterations)
        obs.observe("scf.iterations_to_converge", options.max_iterations)
    if options.raise_on_failure:
        raise ConvergenceError(
            "SCF loop failed to converge: residual "
            f"{residuals[-1]:.3e} eV after {options.max_iterations} iterations",
            iterations=options.max_iterations, residual=residuals[-1],
            context={"solver": "self_consistent_loop",
                     "mixer": type(mixer).__name__,
                     "mixer_beta": getattr(mixer, "beta", None),
                     "tolerance_ev": options.tolerance_ev,
                     "max_iterations": options.max_iterations})
    return SCFResult(potential=potential, charge=charge, converged=False,
                     iterations=options.max_iterations,
                     residual_history=residuals)


def scf_escalation(options: SCFOptions) -> list[tuple[str, SCFOptions]]:
    """Escalation rungs for a :func:`self_consistent_loop` that failed.

    The sequence trades speed for robustness, mirroring gmin/source
    stepping practice in SPICE-class simulators.  Every rung keeps the
    tolerance and ``raise_on_failure`` of ``options``:

    1. ``base`` — the configured options, unchanged.
    2. ``half-beta`` — same mixer family with the mixing factor halved
       (over-aggressive mixing is the dominant divergence mode).
    3. ``picard`` — damped Picard (:class:`LinearMixer`, beta=0.1) with
       doubled iteration budget: slow but monotone for well-posed cells.
    4. ``picard-long`` — beta=0.05 with a 4x budget, the last resort.
    """
    base_mixer = options.mixer
    beta = getattr(base_mixer, "beta", 0.3)
    if isinstance(base_mixer, LinearMixer):
        half: LinearMixer | AndersonMixer = LinearMixer(beta=beta / 2)
    else:
        history = getattr(base_mixer, "history", 5)
        half = AndersonMixer(beta=beta / 2, history=history)
    tol, iters = options.tolerance_ev, options.max_iterations
    raising = options.raise_on_failure
    return [
        ("base", options),
        ("half-beta", SCFOptions(tolerance_ev=tol, max_iterations=iters,
                                 mixer=half, raise_on_failure=raising)),
        ("picard", SCFOptions(tolerance_ev=tol, max_iterations=2 * iters,
                              mixer=LinearMixer(beta=0.1),
                              raise_on_failure=raising)),
        ("picard-long", SCFOptions(tolerance_ev=tol,
                                   max_iterations=4 * iters,
                                   mixer=LinearMixer(beta=0.05),
                                   raise_on_failure=raising)),
    ]
