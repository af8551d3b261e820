"""Contour-guided adaptive refinement of the V_DD-V_T plane (Fig. 3b).

The dense exploration sweep solves every cell of a uniform grid, but the
figures of merit the paper extracts — the global EDP optimum, point A
(min EDP at 3 GHz) and point B (A plus an SNM floor) — depend only on
narrow regions: the EDP bowl and the crossings of the 3 GHz frequency
contour with the SNM floor.  This module reproduces those figures of
merit from a small fraction of the solves:

1. **Coarse pass** — solve a strided sub-lattice (both grid edges
   always included) and tile the plane with rectangular cells whose
   corners are solved points.
2. **Refinement waves** — score every splittable cell from its solved
   corners: ``+4`` when its corner-minimum ln EDP is within
   ``opt_window`` of the global solved minimum (the optimum may hide
   inside), ``+3`` when the cell straddles the ``f_min_hz`` frequency
   contour while staying EDP-competitive with the best point-A
   candidate, and ``+3`` when it straddles the SNM floor with the
   frequency floor met and EDP competitive with point B.  Cells are
   bisected in deterministic priority order (priority, then corner-mean
   ln EDP, then cell index) while the wave budget lasts; only the
   children of refined cells stay in play.
3. **Extremum polish** — the sampled argmin of each objective descends
   on the *dense* lattice: solve the unsolved 4-neighborhood of the
   incumbent, repeat until the optimum argmin stops moving (points A/B
   get ``ab_polish_rounds`` rounds — their golden allowances are
   looser).  This certifies the reported cells at dense resolution,
   which matters because frequency moves 10-40% per dense V_T step
   while the EDP bowl is flat.
4. **NaN-aware fill** — unsolved valid cells are interpolated
   separably (mean of the row- and column-bracket linear interpolants
   through the nearest solved neighbors), so every
   :class:`~repro.exploration.sweep.ExplorationGrid` consumer sees a
   full-rectangle grid.  Interpolation cannot undershoot the solved
   minimum along a bracket, so the argmin of every figure of merit
   lands on a *solved* cell, never an interpolated one.

Determinism: the refinement schedule is a pure function of solved cell
*values*, all point sets are dispatched in sorted order, and per-cell
physics runs through the scheduler seam with task-index-keyed fault
sites — so serial == parallel bitwise at any worker count, and a
killed run resumed through :class:`~repro.runtime.SweepCheckpoint`
replays the identical schedule, recomputing only cells the snapshot
does not hold.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro import obs
from repro.circuit.inverter import inverter_snm
from repro.circuit.ring_oscillator import estimate_ring_oscillator
from repro.device.engines import engine_version, resolve_engine
from repro.errors import AnalysisError, ConvergenceError
from repro.exploration.sweep import ExplorationGrid
from repro.exploration.technology import GNRFETTechnology
from repro.runtime import (
    TABLE_ENGINE_VERSION,
    FailureRecord,
    Scheduler,
    SweepCheckpoint,
    checkpoint_interval,
    content_key,
    in_worker,
    quarantine,
    resolve_scheduler,
    resume_enabled,
    strict_default,
)
from repro.runtime import faults

#: Environment variable: any non-empty value routes ``run fig3``/``run
#: fig6`` through the adaptive engines (CLI flag ``--adaptive``).
ADAPTIVE_ENV = "REPRO_ADAPTIVE"

#: Environment variable: override the refinement level count (CLI flag
#: ``--refine-levels``).
REFINE_LEVELS_ENV = "REPRO_REFINE_LEVELS"


def adaptive_enabled() -> bool:
    """True when ``REPRO_ADAPTIVE`` requests the adaptive engines."""
    return bool(os.environ.get(ADAPTIVE_ENV, "").strip())


def refine_levels_default() -> int | None:
    """``REPRO_REFINE_LEVELS`` as an int, or None for auto."""
    raw = os.environ.get(REFINE_LEVELS_ENV, "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{REFINE_LEVELS_ENV} must be an integer, got {raw!r}"
        ) from None


def coarse_indices(n: int, stride: int) -> list[int]:
    """Strided index lattice over ``range(n)``, last index always kept."""
    idx = list(range(0, n, max(1, stride)))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return idx


def auto_levels(n_vt: int, n_vdd: int, cap: int = 3) -> int:
    """Deepest level whose coarse lattice keeps >= 3 points per axis."""
    level = 0
    while level < cap:
        stride = 2 ** (level + 1)
        if (len(coarse_indices(n_vt, stride)) >= 3
                and len(coarse_indices(n_vdd, stride)) >= 3):
            level += 1
        else:
            break
    return level


@dataclass(frozen=True)
class AdaptiveSweepResult:
    """Adaptive exploration output: a dense-looking grid plus accounting.

    ``grid`` is interchangeable with the dense sweep's
    :class:`~repro.exploration.sweep.ExplorationGrid` (unsolved valid
    cells are interpolated); ``solved`` marks cells whose values came
    from the physics, ``invalid`` the analytically skipped V_T >= V_DD
    region.  ``n_solves`` counts ring-oscillator cell evaluations — the
    quantity the dense sweep spends ``n_valid`` of.
    """

    grid: ExplorationGrid
    solved: np.ndarray
    invalid: np.ndarray
    n_solves: int
    n_coarse: int
    n_refined: int
    n_polish: int
    n_waves: int
    levels: int

    @property
    def n_valid(self) -> int:
        """Valid (V_T < V_DD) cells of the dense rectangle."""
        return int((~self.invalid).sum())

    @property
    def solves_saved(self) -> int:
        """Cells the dense sweep would have solved but this run skipped."""
        return self.n_valid - self.n_solves


def _solve_row_cells(tech: GNRFETTechnology, n_stages: int, with_snm: bool,
                     strict: bool,
                     task: tuple[int, float, tuple[int, ...],
                                 tuple[float, ...]]
                     ) -> tuple[np.ndarray, ...]:
    """Solve the requested V_DD cells of one V_T row (pickles for workers).

    ``task`` is ``(row_index, vt, col_indices, vdd_values)``; the row
    index keys the ``worker``/``scf`` fault sites and quarantine records
    exactly like the dense sweep, so a ``REPRO_FAULTS`` spec hits the
    same logical row in either engine.
    """
    i, vt, cols, vdds = task
    if faults.ACTIVE and in_worker():
        faults.inject("worker", i)
    n = len(cols)
    freq = np.full(n, np.nan)
    edp = np.full(n, np.nan)
    snm = np.full(n, np.nan)
    p_tot = np.full(n, np.nan)
    p_stat = np.full(n, np.nan)
    failures: list[FailureRecord] = []
    try:
        if faults.ACTIVE:
            faults.inject("scf", i, detail=f"VT={vt}")
        nt, pt = tech.inverter_tables(float(vt))
    except ConvergenceError as exc:
        if strict:
            raise exc.with_context(vt=float(vt), row_index=int(i))
        failures.append(quarantine(
            exc.with_context(vt=float(vt)), site="exploration", index=i,
            coords=(i,), bias={"vt": float(vt)}))
        return freq, edp, snm, p_tot, p_stat, failures
    for k, vdd in enumerate(vdds):
        vdd = float(vdd)
        try:
            m = estimate_ring_oscillator(nt, pt, vdd, n_stages, tech.params)
        except AnalysisError:
            continue
        freq[k] = m.frequency_hz
        edp[k] = m.edp_j_s
        p_tot[k] = m.total_power_w
        p_stat[k] = m.static_power_w
        if with_snm:
            snm[k] = inverter_snm(nt, pt, vdd, tech.params)
    return freq, edp, snm, p_tot, p_stat, failures


def _cell_children(cell: tuple[int, int, int, int]
                   ) -> tuple[set[tuple[int, int]],
                              list[tuple[int, int, int, int]]]:
    """Midpoint lattice points and child cells of one bisected cell."""
    i0, i1, j0, j1 = cell
    im, jm = (i0 + i1) // 2, (j0 + j1) // 2
    points: set[tuple[int, int]] = set()
    if im not in (i0, i1):
        points |= {(im, j0), (im, j1)}
    if jm not in (j0, j1):
        points |= {(i0, jm), (i1, jm)}
    if im not in (i0, i1) and jm not in (j0, j1):
        points.add((im, jm))
    i_spans = [(i0, im), (im, i1)] if im not in (i0, i1) else [(i0, i1)]
    j_spans = [(j0, jm), (jm, j1)] if jm not in (j0, j1) else [(j0, j1)]
    children = [(a, b, c, d) for a, b in i_spans for c, d in j_spans]
    return points, children


def _fill_separable(arr: np.ndarray, solved: np.ndarray,
                    invalid: np.ndarray) -> np.ndarray:
    """NaN-aware separable interpolation onto unsolved valid cells.

    Each unsolved cell takes the mean of the linear interpolants
    through its nearest solved row- and column-neighbors (whichever
    brackets exist); cells with no solved bracket stay NaN.  A solved
    NaN (quarantined physics) propagates — the fill never invents data
    in a region the solver could not reach.
    """
    n, m = arr.shape
    out = arr.copy()
    usable = solved & ~invalid
    for i in range(n):
        for j in range(m):
            if solved[i, j] or invalid[i, j]:
                continue
            cand = []
            il = next((a for a in range(i, -1, -1) if usable[a, j]), None)
            ih = next((a for a in range(i, n) if usable[a, j]), None)
            if il is not None and ih is not None and ih != il:
                t = (i - il) / (ih - il)
                cand.append((1 - t) * arr[il, j] + t * arr[ih, j])
            jl = next((b for b in range(j, -1, -1) if usable[i, b]), None)
            jh = next((b for b in range(j, m) if usable[i, b]), None)
            if jl is not None and jh is not None and jh != jl:
                t = (j - jl) / (jh - jl)
                cand.append((1 - t) * arr[i, jl] + t * arr[i, jh])
            out[i, j] = float(np.mean(cand)) if cand else np.nan
    return out


def refine_vdd_vt(
    tech: GNRFETTechnology,
    vt_grid: np.ndarray,
    vdd_grid: np.ndarray,
    n_stages: int = 15,
    with_snm: bool = True,
    refine_levels: int | None = None,
    wave_solve_budget: int | None = None,
    opt_window: float = 0.3,
    ab_window: float = 0.3,
    ab_polish_rounds: int = 2,
    f_min_hz: float = 3e9,
    workers: int | None = None,  # repro: nokey[RPA601] parallelism degree; the schedule is a pure function of solved values
    strict: bool | None = None,  # repro: nokey[RPA601] failure policy only; surviving cells agree either way
    scheduler: Scheduler | None = None,  # repro: nokey[RPA601] dispatch policy; schedulers must return [fn(t) for t in tasks]
    checkpoint: int | None = None,  # repro: nokey[RPA601] snapshot cadence only, not cell content
    resume: bool | None = None,  # repro: nokey[RPA601] whether to load the checkpoint this key names, not what it holds
) -> AdaptiveSweepResult:
    """Adaptive exploration of the (V_T, V_DD) plane at dense accuracy.

    Returns an :class:`AdaptiveSweepResult` whose ``grid`` reproduces
    the dense sweep's figures of merit (EDP optimum, points A/B) within
    the committed golden allowances from a fraction of the solves
    (``benchmarks/bench_adaptive.py`` measures the ratio).

    ``refine_levels`` (default: auto, env ``REPRO_REFINE_LEVELS``) sets
    the coarse stride to ``2**levels``; ``wave_solve_budget`` caps
    midpoint solves spent in refinement waves (default
    ``max(6, n_cells // 32)``); ``opt_window``/``ab_window`` are the
    ln-EDP competitiveness windows of the scoring rule and
    ``ab_polish_rounds`` the descent rounds granted to points A/B.

    ``checkpoint``/``resume`` (defaults from ``REPRO_CHECKPOINT`` /
    ``REPRO_RESUME``) snapshot the solved-cell memo after every
    dispatch wave: because the schedule is a pure function of solved
    values, a resumed run replays it bitwise, restoring snapshotted
    cells instead of recomputing them.
    """
    vt_grid = np.asarray(vt_grid, dtype=float)
    vdd_grid = np.asarray(vdd_grid, dtype=float)
    n_vt, n_vdd = vt_grid.size, vdd_grid.size
    strict = strict_default() if strict is None else strict
    interval = (checkpoint_interval() if checkpoint is None
                else max(0, int(checkpoint)))
    resume = resume_enabled() if resume is None else resume
    sched = resolve_scheduler(scheduler, workers=workers)
    if refine_levels is None:
        refine_levels = refine_levels_default()
    levels = (auto_levels(n_vt, n_vdd) if refine_levels is None
              else max(0, int(refine_levels)))
    stride = 2 ** levels
    n_cells = n_vt * n_vdd
    if wave_solve_budget is None:
        wave_solve_budget = max(6, n_cells // 32)

    invalid = vt_grid[:, None] >= vdd_grid[None, :]
    solved = np.zeros((n_vt, n_vdd), dtype=bool)
    metrics = {name: np.full((n_vt, n_vdd), np.nan)
               for name in ("frequency_hz", "edp_j_s", "snm_v",
                            "total_power_w", "static_power_w")}
    failures: list[FailureRecord] = []
    counters = {"solves": 0, "restored": 0}

    ckpt: SweepCheckpoint | None = None
    memo_done = np.zeros((n_vt, n_vdd), dtype=bool)
    memo: dict[str, np.ndarray] = {}
    if interval > 0 or resume:
        engine = resolve_engine(None)
        key = content_key("adaptive_vdd_vt", tech.geometry, tech.params,
                          tuple(float(v) for v in vt_grid),
                          tuple(float(v) for v in vdd_grid),
                          n_stages, with_snm, levels, wave_solve_budget,
                          opt_window, ab_window, ab_polish_rounds,
                          f_min_hz, TABLE_ENGINE_VERSION, engine,
                          engine_version(engine))
        ckpt = SweepCheckpoint(key, interval=interval)
        if resume:
            loaded = ckpt.load()
            if loaded is not None and loaded[0].shape == solved.shape:
                memo_done, memo, saved_failures = loaded
                memo = {k: np.asarray(v, dtype=float)
                        for k, v in memo.items()
                        if k in metrics}
                for record in saved_failures:
                    failures.append(record)
                    if obs.ACTIVE:
                        obs.incr("resilience.quarantined")
                        obs.record_failure(record.to_dict())

    fn = partial(_solve_row_cells, tech, n_stages, with_snm, strict)

    def ensure_solved(points) -> None:
        """Solve (or restore from the memo) the given lattice points."""
        todo: list[tuple[int, int]] = []
        for i, j in sorted(set(points)):
            if solved[i, j]:
                continue
            solved[i, j] = True
            if invalid[i, j]:
                continue
            if memo_done[i, j]:
                for name in metrics:
                    metrics[name][i, j] = memo[name][i, j]
                counters["solves"] += 1
                counters["restored"] += 1
                continue
            todo.append((i, j))
        if todo:
            rows: dict[int, list[int]] = {}
            for i, j in todo:
                rows.setdefault(i, []).append(j)
            tasks = [(i, float(vt_grid[i]), tuple(cols),
                      tuple(float(vdd_grid[j]) for j in cols))
                     for i, cols in sorted(rows.items())]
            results = sched.run(fn, tasks, strict=strict)
            order = ("frequency_hz", "edp_j_s", "snm_v",
                     "total_power_w", "static_power_w")
            for task, row in zip(tasks, results):
                i, _, cols, _ = task
                for name, values in zip(order, row):
                    for k, j in enumerate(cols):
                        metrics[name][i, j] = values[k]
                failures.extend(row[5])
            counters["solves"] += len(todo)
        if ckpt is not None and ckpt.due():
            ckpt.save(solved & ~invalid, metrics, failures)

    def log_edp() -> np.ndarray:
        e = metrics["edp_j_s"]
        return np.where(np.isfinite(e) & (e > 0),
                        np.log(np.where(np.isfinite(e) & (e > 0), e, 1.0)),
                        np.nan)

    with obs.span("exploration.refine_vdd_vt",
                  grid=f"{n_vt}x{n_vdd}", levels=levels):
        # 1. coarse lattice
        ci = coarse_indices(n_vt, stride)
        cj = coarse_indices(n_vdd, stride)
        ensure_solved([(i, j) for i in ci for j in cj])
        n_coarse = counters["solves"]
        cells = [(ci[a], ci[a + 1], cj[b], cj[b + 1])
                 for a in range(len(ci) - 1) for b in range(len(cj) - 1)]

        # 2. refinement waves
        freq_a = metrics["frequency_hz"]
        snm_a = metrics["snm_v"]
        n_waves = 0
        cap = n_coarse + wave_solve_budget
        while True:
            splittable = [c for c in cells
                          if c[1] - c[0] > 1 or c[3] - c[2] > 1]
            if not splittable or counters["solves"] >= cap:
                break
            ledp = log_edp()
            if not np.isfinite(ledp).any():
                break  # nothing solved successfully; no basis to refine
            snm_floor = (0.6 * np.nanmax(snm_a)
                         if np.isfinite(snm_a).any() else np.inf)
            with np.errstate(all="ignore"):
                gmin = np.nanmin(ledp)
                masked_a = np.where(freq_a >= f_min_hz, ledp, np.nan)
                best_a = (np.nanmin(masked_a)
                          if np.isfinite(masked_a).any() else np.inf)
                masked_b = np.where((freq_a >= f_min_hz)
                                    & (snm_a >= snm_floor), ledp, np.nan)
                best_b = (np.nanmin(masked_b)
                          if np.isfinite(masked_b).any() else np.inf)
            scored = []
            for cell in splittable:
                i0, i1, j0, j1 = cell
                corners = [(i0, j0), (i1, j0), (i0, j1), (i1, j1)]
                f = np.array([freq_a[c] for c in corners])
                le = np.array([ledp[c] for c in corners])
                s = np.array([snm_a[c] for c in corners])
                if not np.isfinite(le).any():
                    continue
                with np.errstate(all="ignore"):
                    corner_min = np.nanmin(le)
                    corner_mean = np.nanmean(le)
                priority = 0.0
                if corner_min <= gmin + opt_window:
                    priority += 4.0
                if (np.isfinite(f).sum() >= 2
                        and np.nanmin(f) < f_min_hz <= np.nanmax(f)
                        and corner_min <= best_a + ab_window):
                    priority += 3.0
                if (np.isfinite(s).sum() >= 2 and np.isfinite(f).any()
                        and np.nanmax(f) >= f_min_hz
                        and np.nanmin(s) < snm_floor <= np.nanmax(s)
                        and corner_min <= best_b + ab_window):
                    priority += 3.0
                if priority > 0:
                    scored.append((-priority, corner_mean, cell))
            if not scored:
                break
            scored.sort()
            chosen = []
            projected: set[tuple[int, int]] = set()
            for _, _, cell in scored:
                points, _ = _cell_children(cell)
                new = {p for p in points
                       if not solved[p] and not invalid[p]} - projected
                if counters["solves"] + len(projected) + len(new) > cap:
                    continue
                projected |= new
                chosen.append(cell)
            if not chosen:
                break
            n_waves += 1
            wave_points: set[tuple[int, int]] = set()
            next_cells: list[tuple[int, int, int, int]] = []
            for cell in chosen:
                points, children = _cell_children(cell)
                wave_points |= points
                next_cells.extend(children)
            ensure_solved(wave_points)
            if obs.ACTIVE:
                obs.incr("adaptive.cells_refined", len(chosen))
            cells = next_cells
        n_refined = counters["solves"] - n_coarse

        # 3. extremum polish on the dense lattice
        def argmin_where(mask: np.ndarray) -> tuple[int, int] | None:
            ledp = log_edp()
            v = np.where(mask & np.isfinite(ledp), ledp, np.inf)
            if not np.isfinite(v).any():
                return None
            i, j = np.unravel_index(int(np.argmin(v)), v.shape)
            return int(i), int(j)

        def unsolved_neighbors(point: tuple[int, int]
                               ) -> list[tuple[int, int]]:
            i, j = point
            out = []
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                a, b = i + di, j + dj
                if (0 <= a < n_vt and 0 <= b < n_vdd
                        and not solved[a, b] and not invalid[a, b]):
                    out.append((a, b))
            return out

        polish_start = counters["solves"]
        # the EDP optimum descends until its argmin is dense-certified
        for _ in range(n_cells):
            target = argmin_where(solved)
            if target is None:
                break
            todo = unsolved_neighbors(target)
            if not todo:
                break
            ensure_solved(todo)
        # points A and B get a bounded descent each
        def snm_mask() -> np.ndarray:
            if not np.isfinite(snm_a).any():
                return np.zeros_like(solved)
            return snm_a >= 0.6 * np.nanmax(snm_a)

        for condition in (
                lambda: solved & (freq_a >= f_min_hz),
                lambda: solved & (freq_a >= f_min_hz) & snm_mask()):
            for _ in range(max(0, ab_polish_rounds)):
                target = argmin_where(condition())
                if target is None:
                    break
                todo = unsolved_neighbors(target)
                if not todo:
                    break
                ensure_solved(todo)
        n_polish = counters["solves"] - polish_start

        # 4. fill for dense-grid consumers
        filled = {name: _fill_separable(arr, solved, invalid)
                  for name, arr in metrics.items()}

    if ckpt is not None:
        ckpt.clear()
    n_valid = int((~invalid).sum())
    if obs.ACTIVE:
        obs.incr("adaptive.waves", n_waves)
        obs.incr("adaptive.solves", counters["solves"])
        obs.incr("adaptive.solves_saved", n_valid - counters["solves"])
        if counters["restored"]:
            obs.incr("adaptive.cells_restored", counters["restored"])

    grid = ExplorationGrid(
        vt=vt_grid, vdd=vdd_grid,
        frequency_hz=filled["frequency_hz"],
        edp_j_s=filled["edp_j_s"],
        snm_v=filled["snm_v"],
        total_power_w=filled["total_power_w"],
        static_power_w=filled["static_power_w"],
        failures=tuple(failures))
    return AdaptiveSweepResult(
        grid=grid, solved=solved, invalid=invalid,
        n_solves=counters["solves"], n_coarse=n_coarse,
        n_refined=n_refined, n_polish=n_polish,
        n_waves=n_waves, levels=levels)
