"""Outside-in layer tracer for the end-to-end benchmark.

The benchmark attributes time to the repo's layers without changing the
program: :class:`Tracer` rebinds every alias of each boundary function
(module globals across ``sys.modules['repro.*']``, class attributes for
methods) to a timing wrapper, and restores all of them on exit.

Spans are kept in memory as ``[name, start, end, parent, request]``
lists, where ``parent`` is the index of the enclosing span (``-1`` at
top level) and ``request`` is the id of the experiment being run.  Self
time is kept with a stack: a span's duration minus the time its child
spans cover.  Counts are taken from arguments and return values; the
``DeviceTable`` lookups are too hot to clock and get count-only
wrappers.

Work that a layer hands to the scheduler seam runs inside
``LocalScheduler.run``; the tracer wraps the task function too, so that
time lands in a ``<layer>.tasks`` span of the handing layer instead of
in ``runtime``.  Task functions stay serial: the benchmark never sets
``REPRO_WORKERS``, and a wrapped task would not pickle into a worker.

The program's own tracing (``repro.obs``) stays off: spans inside the
program are a separate change.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable

#: Module-name prefix whose globals are searched for aliases.
PACKAGE_PREFIX = "repro."

Counter = Callable[[tuple, dict, Any], Iterable[tuple[str, float]]]


@dataclass(frozen=True)
class Boundary:
    """One clocked layer boundary.

    ``name`` is ``<layer>.<boundary>``; ``target`` is
    ``"module:Qualified.name"``, or empty for a ``<layer>.tasks`` span
    that is only ever applied to scheduler tasks.  ``count`` maps
    ``(args, kwargs, result)`` to ``(counter, increment)`` pairs;
    ``request`` maps ``(args, kwargs)`` to the request id that spans
    under this one carry; ``task_arg`` is the position of a task
    function argument to attribute to its own layer.
    """

    name: str
    target: str
    count: Counter | None = None
    request: Callable[[tuple, dict], str] | None = None
    task_arg: int | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass(frozen=True)
class CountOnly:
    """Count calls to ``targets`` under ``counter``, outermost call only."""

    counter: str
    targets: tuple[str, ...]


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _payload_bytes(arrays: Iterable[Any]) -> int:
    return sum(int(getattr(a, "nbytes", 0)) for a in arrays)


# Argument positions count ``self`` for methods.
BOUNDARIES: tuple[Boundary, ...] = (
    # device: table build, sweep driver, per-bias SBFET kernels, NEGF device
    Boundary("device.build_device_table",
             "repro.device.tables:build_device_table"),
    Boundary("device.sweep_iv", "repro.device.iv:sweep_iv",
             count=lambda a, k, r: [("device.bias_points",
                                     r.current_a.size)]),
    Boundary("device.solve_midgap_ev",
             "repro.device.sbfet:SBFETModel.solve_midgap_ev",
             count=lambda a, k, r: [("device.bisection_iterations", r[1])]),
    Boundary("device.transmission",
             "repro.device.sbfet:SBFETModel.transmission",
             count=lambda a, k, r: [("device.transmission_energies",
                                     len(_arg(a, k, 1, "energies_ev")))]),
    Boundary("device.current_a", "repro.device.sbfet:SBFETModel.current_a"),
    Boundary("device.negf_solve",
             "repro.device.negf_device:NEGFDevice.solve"),
    # circuit: transient and DC engines and the analyses built on them
    Boundary("circuit.simulate_transient",
             "repro.circuit.transient:simulate_transient",
             count=lambda a, k, r: [("circuit.transient_steps",
                                     len(r.time_s) - 1)]),
    Boundary("circuit.solve_dc", "repro.circuit.dc:solve_dc",
             count=lambda a, k, r: [("circuit.dc_newton_iterations",
                                     r.iterations)]),
    Boundary("circuit.estimate_ring_oscillator",
             "repro.circuit.ring_oscillator:estimate_ring_oscillator"),
    Boundary("circuit.characterize_inverter",
             "repro.circuit.inverter:characterize_inverter"),
    Boundary("circuit.compute_vtc", "repro.circuit.vtc:compute_vtc"),
    Boundary("circuit.static_noise_margin",
             "repro.circuit.snm:static_noise_margin"),
    # exploration
    Boundary("exploration.technology_build",
             "repro.exploration.technology:GNRFETTechnology.build"),
    Boundary("exploration.sweep_vdd_vt",
             "repro.exploration.sweep:sweep_vdd_vt",
             count=lambda a, k, r: [("exploration.cells",
                                     r.vt.size * r.vdd.size)]),
    Boundary("exploration.temperature_study",
             "repro.exploration.temperature:temperature_study"),
    Boundary("exploration.tasks", ""),
    # variability: Monte Carlo and the study drivers
    Boundary("variability.monte_carlo",
             "repro.variability.montecarlo:run_ring_oscillator_monte_carlo",
             count=lambda a, k, r: [("variability.mc_samples",
                                     len(r.frequencies_hz))]),
    Boundary("variability.width_study",
             "repro.variability.width:width_variation_study"),
    Boundary("variability.impurity_study",
             "repro.variability.impurity:charge_impurity_study"),
    Boundary("variability.latch_study",
             "repro.variability.latch_study:latch_variability_study"),
    Boundary("variability.oxide_study",
             "repro.variability.oxide:oxide_thickness_study"),
    Boundary("variability.yield_samples",
             "repro.variability.yield_model:sample_latch_snm"),
    Boundary("variability.roughness_study",
             "repro.variability.edge_roughness:roughness_width_study"),
    Boundary("variability.tasks", ""),
    # negf / poisson / atomistic: the NEGF+Poisson path of fig5 and the
    # real-space transport of the roughness study
    Boundary("negf.sancho_rubio",
             "repro.negf.self_energy:sancho_rubio_surface_gf"),
    Boundary("negf.rgf", "repro.negf.greens:recursive_greens_function"),
    Boundary("negf.scf_loop", "repro.negf.scf:self_consistent_loop"),
    Boundary("poisson.solve", "repro.poisson.fd:PoissonOperator.solve"),
    Boundary("atomistic.compute_bands",
             "repro.atomistic.bandstructure:compute_bands"),
    Boundary("atomistic.subband_edges",
             "repro.atomistic.bandstructure:subband_edges"),
    Boundary("atomistic.unit_cell_hamiltonian",
             "repro.atomistic.hamiltonian:build_unit_cell_hamiltonian"),
    # runtime: artifact cache and scheduler seam
    Boundary("runtime.cache_get", "repro.runtime.cache:ArtifactCache.get",
             count=lambda a, k, r: [("runtime.cache_get.bytes",
                                     _payload_bytes((r or {}).values()))]),
    Boundary("runtime.cache_put", "repro.runtime.cache:ArtifactCache.put",
             count=lambda a, k, r: [("runtime.cache_put.bytes",
                                     _payload_bytes(k.values()))]),
    Boundary("runtime.scheduler_run",
             "repro.runtime.scheduler:LocalScheduler.run", task_arg=1),
    # cmos reference rows of Table 1
    Boundary("cmos.ring_estimate",
             "repro.cmos.circuits:estimate_cmos_ring_oscillator"),
    Boundary("cmos.inverter_snm", "repro.cmos.circuits:cmos_inverter_snm"),
    # the experiment drivers, and the benchmark's own correctness check
    Boundary("characterize.diff", "repro.characterize.diffing:diff_experiment",
             request=lambda a, k: _arg(a, k, 0, "spec").id),
    Boundary("characterize.tasks", ""),
    Boundary("reporting.run_experiment",
             "repro.reporting.experiments:run_experiment",
             request=lambda a, k: _arg(a, k, 0, "experiment_id")),
)

COUNT_ONLY: tuple[CountOnly, ...] = (
    CountOnly("device.table_lookups", (
        "repro.device.tables:DeviceTable.current_and_derivatives",
        "repro.device.tables:DeviceTable.capacitances",
        "repro.device.tables:DeviceTable.current",
        "repro.device.tables:DeviceTable.charge",
    )),
    CountOnly("poisson.operator_builds",
              ("repro.poisson.fd:PoissonOperator.__init__",)),
)

#: Boundaries with >= 100 calls on some workload, reported with a
#: per-call p50 and tail percentile.
PERCENTILE_BOUNDARIES = (
    "device.solve_midgap_ev",
    "device.transmission",
    "circuit.solve_dc",
    "circuit.estimate_ring_oscillator",
)

#: Counts that come from arguments, return values or count-only wrappers.
COUNTERS = (
    "device.bias_points",
    "device.bisection_iterations",
    "device.transmission_energies",
    "device.table_lookups",
    "circuit.transient_steps",
    "circuit.dc_newton_iterations",
    "exploration.cells",
    "variability.mc_samples",
    "poisson.operator_builds",
    "runtime.cache_get.bytes",
    "runtime.cache_put.bytes",
)

#: Quantities derived from spans and counts at the end of a run.
DERIVED = (
    "device.table_builds",
    "device.table_hit_ratio",
    "device.bias_points_per_s",
    "circuit.steps_per_s",
)

#: Tail quantiles tried from the highest down; one is reported only when
#: at least ten samples lie beyond it.
TAIL_QUANTILES = (0.9999, 0.999, 0.99, 0.9)

LAYERS = tuple(dict.fromkeys(b.layer for b in BOUNDARIES))


def _resolve(target: str) -> tuple[Any, str]:
    """``"pkg.mod:Cls.attr"`` -> (owner object, attribute name)."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _percentile(sorted_values: list[float], q: float) -> float:
    """Linearly interpolated quantile of an ascending list."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def tail_quantile(n: int) -> float | None:
    """Highest quantile of :data:`TAIL_QUANTILES` with >= 10 of ``n``
    samples beyond it, or None when there is none."""
    for q in TAIL_QUANTILES:
        if n * (1.0 - q) >= 10.0 - 1e-9:
            return q
    return None


class Tracer:
    """Install timing wrappers on every boundary alias; restore on exit.

    Use as a context manager.  ``boundaries`` / ``count_only`` default to
    the repo's tables above; tests pass synthetic ones, with ``clock``
    as the time source.
    """

    def __init__(self, boundaries: Iterable[Boundary] = BOUNDARIES,
                 count_only: Iterable[CountOnly] = COUNT_ONLY,
                 clock: Callable[[], float] = time.perf_counter):
        self.boundaries = tuple(boundaries)
        self.count_only = tuple(count_only)
        self.clock = clock
        self.spans: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._tasks = {b.layer: b for b in self.boundaries if not b.target}
        self._stack: list[int] = []
        self._child_s: list[float] = []
        self._request = ""
        self._lookup_depth = 0
        self._restore: list[tuple[Any, str, Any]] = []

    # --- installation -------------------------------------------------------
    def __enter__(self) -> "Tracer":
        try:
            for b in self.boundaries:
                if b.target:
                    self._patch(b.target,
                                lambda fn, b=b: self._clocked(b, fn))
            for c in self.count_only:
                for target in c.targets:
                    self._patch(target,
                                lambda fn, c=c: self._counted(c.counter, fn))
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def uninstall(self) -> None:
        """Put every rebound alias back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, target: str, make: Callable[[Callable], Callable]) -> None:
        owner, attr = _resolve(target)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: Any = type(raw)(make(raw.__func__))
            else:
                wrapped = make(raw)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE_PREFIX.rstrip(".")
                                      or name.startswith(PACKAGE_PREFIX)):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, alias, original))
                    setattr(module, alias, wrapper)

    # --- wrappers -----------------------------------------------------------
    def _clocked(self, b: Boundary, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(b, fn, args, kwargs)
        return wrapper

    def _counted(self, counter: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Scalar ``current`` delegates to ``current_and_derivatives``;
            # count the outermost lookup only.
            if self._lookup_depth:
                return fn(*args, **kwargs)
            counts[counter] += 1
            self._lookup_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._lookup_depth -= 1
        return wrapper

    def _task_layer(self, fn: Callable) -> Boundary | None:
        module = getattr(getattr(fn, "func", fn), "__module__", "") or ""
        if not module.startswith(PACKAGE_PREFIX):
            return None
        return self._tasks.get(module[len(PACKAGE_PREFIX):].split(".")[0])

    def _call(self, b: Boundary, fn: Callable, args: tuple, kwargs: dict):
        if b.task_arg is not None and len(args) > b.task_arg:
            task = self._task_layer(args[b.task_arg])
            if task is not None:
                args = (args[:b.task_arg]
                        + (self._clocked(task, args[b.task_arg]),)
                        + args[b.task_arg + 1:])
        outer_request = self._request
        if b.request is not None:
            self._request = b.request(args, kwargs)
        parent = self._stack[-1] if self._stack else -1
        span = [b.name, self.clock(), 0.0, parent, self._request]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._child_s.append(0.0)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = self.clock()
            self._stack.pop()
            duration = span[2] - span[1]
            self.self_s[b.name] += duration - self._child_s.pop()
            if self._child_s:
                self._child_s[-1] += duration
            self._request = outer_request
        if b.count is not None:
            for counter, value in b.count(args, kwargs, result):
                self.counts[counter] += value
        return result

    # --- results ------------------------------------------------------------
    def durations(self) -> dict[str, list[float]]:
        """Per-boundary span durations, ascending."""
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _, _ in self.spans:
            out[name].append(end - start)
        for values in out.values():
            values.sort()
        return out

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced run that lasted ``wall_s``.

        Layer self times plus ``unattributed.self_s`` sum to ``wall_s``.
        """
        durations = self.durations()
        out: dict[str, float] = {}
        for b in self.boundaries:
            out[f"{b.name}.calls"] = float(len(durations.get(b.name, ())))
            out[f"{b.name}.self_s"] = self.self_s.get(b.name, 0.0)
        for name in PERCENTILE_BOUNDARIES:
            values = durations.get(name, [])
            q = tail_quantile(len(values)) if len(values) >= 100 else None
            out[f"{name}.p50_s"] = _percentile(values, 0.5) if q else 0.0
            out[f"{name}.tail_s"] = _percentile(values, q) if q else 0.0
        for counter in COUNTERS:
            out[counter] = float(self.counts.get(counter, 0.0))

        table_calls = len(durations.get("device.build_device_table", ()))
        builds = sum(
            1 for name, _, _, parent, _ in self.spans
            if name == "device.sweep_iv" and parent >= 0
            and self.spans[parent][0] == "device.build_device_table")
        out["device.table_builds"] = float(builds)
        out["device.table_hit_ratio"] = (
            (table_calls - builds) / table_calls if table_calls else 0.0)
        sweep_s = sum(durations.get("device.sweep_iv", ()))
        out["device.bias_points_per_s"] = (
            out["device.bias_points"] / sweep_s if sweep_s else 0.0)
        transient_s = sum(durations.get("circuit.simulate_transient", ()))
        out["circuit.steps_per_s"] = (
            out["circuit.transient_steps"] / transient_s if transient_s
            else 0.0)

        layer_s = dict.fromkeys((b.layer for b in self.boundaries), 0.0)
        for b in self.boundaries:
            layer_s[b.layer] += self.self_s.get(b.name, 0.0)
        for layer, seconds in layer_s.items():
            out[f"layer.{layer}.self_s"] = seconds
        top_level_s = sum(end - start for _, start, end, parent, _
                          in self.spans if parent < 0)
        out["unattributed.self_s"] = wall_s - top_level_s
        return out

    def request_totals(self) -> dict[str, float]:
        """Wall time of each experiment driver span, by experiment id."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, _, request in self.spans:
            if name == "reporting.run_experiment":
                totals[request] += end - start
        return dict(totals)


def metric_names(experiment_ids: Iterable[str]) -> list[str]:
    """Every per-layer metric name, in report order."""
    names = []
    for b in BOUNDARIES:
        names += [f"{b.name}.calls", f"{b.name}.self_s"]
    for name in PERCENTILE_BOUNDARIES:
        names += [f"{name}.p50_s", f"{name}.tail_s"]
    names += list(COUNTERS) + list(DERIVED)
    names += [f"layer.{layer}.self_s" for layer in LAYERS]
    names += ["unattributed.self_s", "trace_overhead_frac"]
    names += [f"reporting.{eid}.total_s" for eid in experiment_ids]
    return names


def metric_unit(name: str) -> tuple[str, str]:
    """``(unit, better)`` of a per-layer metric name."""
    if name.endswith("_per_s"):
        return "1/s", "higher"
    if name.endswith("hit_ratio"):
        return "ratio", "higher"
    if name.endswith("_frac"):
        return "ratio", "lower"
    if name.endswith(".bytes"):
        return "B", "lower"
    if name.endswith("_s"):
        return "s", "lower"
    return "count", "lower"


def import_reachable() -> None:
    """Import every module a boundary lives in, lazily imported study
    modules included, so that all aliases exist before installation."""
    targets = [b.target for b in BOUNDARIES if b.target]
    targets += [t for c in COUNT_ONLY for t in c.targets]
    for target in targets + ["repro.reporting.experiments:"]:
        importlib.import_module(target.split(":")[0])
