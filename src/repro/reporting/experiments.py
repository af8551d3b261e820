"""Runnable experiment registry: one entry per paper table/figure.

Each ``run_*`` function regenerates one artifact of the paper's
evaluation and returns ``(report_text, data)`` where ``data`` is a
dictionary of raw results (figure series, metric values) suitable for
asserting against in tests and benchmarks.  The CLI (``python -m
repro.cli run <id>``) and the benchmark harness both dispatch through
:data:`EXPERIMENTS`.  Every ``run_*`` takes the run's
:class:`~repro.config.RunConfig` (``None`` = :meth:`RunConfig.from_env`)
and passes it on to the sweeps and table builds it calls.
"""

from __future__ import annotations

import numpy as np

from repro.config import RunConfig
from repro.constants import ROOM_TEMPERATURE_K
from repro.device.geometry import ChargeImpurity, GNRFETGeometry
from repro.device.negf_device import NEGFDevice
from repro.device.tables import build_device_table
from repro.device.vt_extraction import extract_vt_linear
from repro.exploration.compare_cmos import table1_comparison
from repro.exploration.contours import contour_lines
from repro.exploration.operating_point import (
    min_edp_at_frequency,
    min_edp_at_frequency_and_snm,
    min_edp_point,
)
from repro.exploration.sweep import sweep_vdd_vt
from repro.exploration.technology import GNRFETTechnology
from repro.reporting.ascii_plot import ascii_histogram, ascii_line_plot
from repro.reporting.figures import FigureSeries
from repro.reporting.tables import format_pct_pair, format_table
from repro.variability.combined import combined_variation_study
from repro.variability.impurity import charge_impurity_study
from repro.variability.latch_study import latch_variability_study
from repro.variability.montecarlo import run_ring_oscillator_monte_carlo
from repro.variability.width import width_variation_study


_NOMINAL: list[GNRFETTechnology] = []


def nominal_technology(config: RunConfig | None = None) -> GNRFETTechnology:
    """The nominal N=12 technology, built once per process.

    ``config`` only governs that first build (it never changes the
    technology itself).
    """
    if not _NOMINAL:
        _NOMINAL.append(GNRFETTechnology.build(config=config))
    return _NOMINAL[0]


# --------------------------------------------------------------------- #
# Figure 2: intrinsic I-V and V_T extraction
# --------------------------------------------------------------------- #
def run_fig2(fast: bool = False, config: RunConfig | None = None
             ) -> tuple[str, dict]:
    """Fig. 2(a): I-V of the ideal N=12 GNRFET at several V_D;
    Fig. 2(b): V_T extraction at low V_D with and without gate offset."""
    tech = nominal_technology(config)
    table = tech.ribbon_table
    vg = table.vg
    mask = (vg >= 0.0) & (vg <= 0.75 + 1e-9)
    series = []
    for vd in (0.05, 0.25, 0.5, 0.75):
        j = int(np.argmin(np.abs(table.vd - vd)))
        series.append(FigureSeries(
            name=f"VD={table.vd[j]:.2f}V", x=vg[mask],
            y=table.current_a[mask, j],
            meta={"figure": "2a", "xlabel": "VG (V)", "ylabel": "ID (A)"}))

    # V_T extraction at VD = 0.05 V for offsets 0 and 0.2 V.
    j05 = int(np.argmin(np.abs(table.vd - 0.05)))
    vt_results = {}
    for offset in (0.0, 0.2):
        shifted = table.with_gate_offset(offset)
        curve = np.array([shifted.current(v, float(table.vd[j05]))
                          for v in vg[mask]])
        vt_results[offset] = extract_vt_linear(vg[mask], curve,
                                               vd=float(table.vd[j05]))

    plot = ascii_line_plot(
        vg[mask], {s.name: np.abs(s.y) + 1e-14 for s in series},
        logy=True, title="Fig 2(a): ID-VG of ideal N=12 GNRFET (log scale)")
    rows = [[f"{off:.1f} V", f"{vt:.3f} V"]
            for off, vt in vt_results.items()]
    tab = format_table(["gate offset", "extracted VT"], rows,
                       title="Fig 2(b): VT by linear extrapolation "
                             "(VD = 0.05 V)")
    report = plot + "\n\n" + tab
    return report, {"series": series, "vt": vt_results}


# --------------------------------------------------------------------- #
# Figure 3(b): EDP / frequency / SNM contours
# --------------------------------------------------------------------- #
def run_fig3(fast: bool = False, config: RunConfig | None = None
             ) -> tuple[str, dict]:
    """Fig. 3(b): contours over the (V_T, V_DD) plane and points A/B/C."""
    tech = nominal_technology(config)
    if fast:
        vt_grid = np.linspace(0.02, 0.3, 8)
        vdd_grid = np.linspace(0.1, 0.7, 8)
    else:
        vt_grid = np.linspace(0.02, 0.30, 15)
        vdd_grid = np.linspace(0.10, 0.70, 13)
    grid = sweep_vdd_vt(tech, vt_grid, vdd_grid, config=config)

    opt = min_edp_point(grid)
    point_a = min_edp_at_frequency(grid, 3e9)
    # SNM floor: the paper uses 0.15 V; our SNM scale runs lower (see
    # EXPERIMENTS.md), so point B uses the same *relative* floor.
    snm_floor = 0.6 * float(np.nanmax(grid.snm_v))
    point_b = min_edp_at_frequency_and_snm(grid, 3e9, snm_floor)

    log_edp = grid.log_edp()
    contour_levels = np.linspace(np.nanmin(log_edp) + 0.3,
                                 np.nanmax(log_edp) - 0.3, 6)
    contours = {f"ln EDP={lev:.1f}": contour_lines(grid.vt, grid.vdd,
                                                   log_edp, float(lev))
                for lev in contour_levels}
    freq_contours = {f"f={f / 1e9:.0f}GHz": contour_lines(
        grid.vt, grid.vdd, grid.frequency_hz, f) for f in (1e9, 3e9, 6e9)}

    rows = [
        ["global EDP optimum", f"{opt.vt:.2f}", f"{opt.vdd:.2f}",
         f"{opt.frequency_hz / 1e9:.2f}", f"{opt.edp_j_s * 1e27:.1f}",
         f"{opt.snm_v:.3f}"],
        ["A (min EDP @ 3GHz)", f"{point_a.vt:.2f}", f"{point_a.vdd:.2f}",
         f"{point_a.frequency_hz / 1e9:.2f}",
         f"{point_a.edp_j_s * 1e27:.1f}", f"{point_a.snm_v:.3f}"],
        [f"B (+SNM>={snm_floor:.2f})", f"{point_b.vt:.2f}",
         f"{point_b.vdd:.2f}", f"{point_b.frequency_hz / 1e9:.2f}",
         f"{point_b.edp_j_s * 1e27:.1f}", f"{point_b.snm_v:.3f}"],
    ]
    report = format_table(
        ["operating point", "VT", "VDD", "f (GHz)", "EDP (fJ-ps)", "SNM (V)"],
        rows, title="Fig 3(b): exploration of the 15-stage FO4 ring oscillator")
    return report, {"grid": grid, "optimum": opt, "A": point_a,
                    "B": point_b, "snm_floor": snm_floor,
                    "edp_contours": contours,
                    "frequency_contours": freq_contours}


# --------------------------------------------------------------------- #
# Table 1: GNRFET vs scaled CMOS
# --------------------------------------------------------------------- #
def run_table1(fast: bool = False, config: RunConfig | None = None
             ) -> tuple[str, dict]:
    """Table 1: frequency / EDP / SNM of GNRFET A/B/C vs CMOS nodes."""
    tech = nominal_technology(config)
    points = {"A": (0.06, 0.3), "B": (0.13, 0.4), "C": (0.23, 0.4)}
    gnr_rows, cmos_rows, r_min, r_max = table1_comparison(
        tech, points, transient=not fast)

    rows = []
    for r in gnr_rows + cmos_rows:
        rows.append([r.label, f"{r.frequency_ghz:.2f}",
                     f"{r.edp_fj_ps:.1f}", f"{r.snm_v:.3f}"])
    report = format_table(
        ["technology", "freq (GHz)", "EDP (fJ-ps)", "SNM (V)"], rows,
        title="Table 1: GNRFET operating points vs scaled CMOS "
              f"(CMOS/GNRFET-B EDP ratio {r_min:.0f}-{r_max:.0f}x)")
    return report, {"gnrfet": gnr_rows, "cmos": cmos_rows,
                    "edp_ratio_range": (r_min, r_max)}


# --------------------------------------------------------------------- #
# Figure 4: I-V vs GNR width
# --------------------------------------------------------------------- #
def run_fig4(fast: bool = False, config: RunConfig | None = None
             ) -> tuple[str, dict]:
    """Fig. 4: I-V at V_D = 0.5 V for N = 9 / 12 / 15 / 18."""
    vg = np.round(np.arange(0.0, 0.7501, 0.05 if fast else 0.025), 10)
    series = []
    ratios = {}
    for n in (9, 12, 15, 18):
        table = build_device_table(GNRFETGeometry(n_index=n), vg,
                                   np.array([0.0, 0.5]), config=config)
        current = table.current_a[:, 1]
        series.append(FigureSeries(
            name=f"N={n}", x=vg, y=current,
            meta={"figure": "4", "xlabel": "VG (V)", "ylabel": "ID (A)"}))
        ratios[n] = float(current[-1] / max(current.min(), 1e-30))
    plot = ascii_line_plot(vg, {s.name: np.abs(s.y) + 1e-14 for s in series},
                           logy=True,
                           title="Fig 4: ID-VG at VD=0.5V vs GNR width")
    rows = [[f"N={n}", f"{r:.0f}"] for n, r in ratios.items()]
    tab = format_table(["ribbon", "Ion/Ioff"], rows)
    return plot + "\n\n" + tab, {"series": series, "on_off_ratios": ratios}


# --------------------------------------------------------------------- #
# Figure 5: charge-impurity band profiles and I-V
# --------------------------------------------------------------------- #
def run_fig5(fast: bool = False, config: RunConfig | None = None
             ) -> tuple[str, dict]:
    """Fig. 5(a): NEGF conduction-band profiles with impurities -2q..+2q;
    Fig. 5(b): I-V of N=12 with +-2q impurities (fast engine)."""
    profiles = []
    n_x = 31 if fast else 51
    for q in (-2.0, -1.0, 0.0, 1.0, 2.0):
        imp = ChargeImpurity(charge_e=q) if q else None
        device = NEGFDevice(GNRFETGeometry(n_index=12, impurity=imp),
                            n_x=n_x, n_y=11)
        result = device.solve(0.1, 0.5)
        label = "no impurity" if q == 0 else f"{q:+g}q"
        profiles.append(FigureSeries(
            name=label, x=result.x_nm, y=result.conduction_band_ev,
            meta={"figure": "5a", "xlabel": "x (nm)", "ylabel": "EC (eV)"}))

    vg = np.round(np.arange(0.0, 0.7501, 0.05), 10)
    iv_series = []
    for q in (-2.0, 0.0, 2.0):
        imp = ChargeImpurity(charge_e=q) if q else None
        table = build_device_table(GNRFETGeometry(n_index=12, impurity=imp),
                                   vg, np.array([0.0, 0.5]), config=config)
        label = "no impurity" if q == 0 else f"{q:+g}q"
        iv_series.append(FigureSeries(
            name=label, x=vg, y=table.current_a[:, 1],
            meta={"figure": "5b"}))

    i_on = {s.name: float(s.y[-1]) for s in iv_series}
    drop = i_on["no impurity"] / i_on["-2q"]
    plot_a = ascii_line_plot(
        profiles[0].x, {p.name: p.y for p in profiles},
        title="Fig 5(a): conduction band with oxide charge impurity "
              "(NEGF+Poisson)")
    plot_b = ascii_line_plot(
        vg, {s.name: np.abs(s.y) + 1e-14 for s in iv_series}, logy=True,
        title="Fig 5(b): ID-VG at VD=0.5V with charge impurities")
    report = (plot_a + "\n\n" + plot_b
              + f"\n\n-2q impurity lowers Ion by {drop:.1f}x "
                "(paper: ~6x)")
    return report, {"profiles": profiles, "iv": iv_series,
                    "ion_drop_minus2q": drop}


# --------------------------------------------------------------------- #
# Tables 2-4: inverter sensitivity studies
# --------------------------------------------------------------------- #
def _sensitivity_report(title, nominal, entries, key_fmt) -> str:
    lines = [title,
             f"nominal: delay {nominal.delay_s * 1e12:.2f} ps, "
             f"Pstat {nominal.static_power_w * 1e6:.3f} uW, "
             f"Pdyn {nominal.dynamic_power_w * 1e6:.3f} uW, "
             f"SNM {nominal.snm_v:.3f} V", ""]
    rows = []
    for key, e in entries.items():
        rows.append([key_fmt(key),
                     format_pct_pair(e.delay_pct),
                     format_pct_pair(e.static_power_pct),
                     format_pct_pair(e.dynamic_power_pct),
                     format_pct_pair(e.snm_pct)])
    lines.append(format_table(
        ["p/n variant", "delay %", "Pstat %", "Pdyn %", "SNM %"], rows))
    return "\n".join(lines)


def run_table2(fast: bool = False, config: RunConfig | None = None
             ) -> tuple[str, dict]:
    """Table 2: independent n/p width variation effects on the inverter."""
    tech = nominal_technology(config)
    indices = (9, 18) if fast else (9, 12, 15, 18)
    nominal, entries = width_variation_study(tech, indices=indices,
                                             config=config)
    report = _sensitivity_report(
        "Table 2: GNR width variation (cells: one affected, all affected)",
        nominal, entries, lambda k: f"p:N={k[0]} n:N={k[1]}")
    return report, {"nominal": nominal, "entries": entries}


def run_table3(fast: bool = False, config: RunConfig | None = None
             ) -> tuple[str, dict]:
    """Table 3: independent n/p charge-impurity effects on the inverter."""
    tech = nominal_technology(config)
    charges = (-2.0, 0.0, 2.0) if fast else (-2.0, -1.0, 0.0, 1.0, 2.0)
    nominal, entries = charge_impurity_study(tech, charges=charges,
                                             config=config)
    report = _sensitivity_report(
        "Table 3: charge impurities (cells: one affected, all affected)",
        nominal, entries, lambda k: f"p:{k[0]:+g}q n:{k[1]:+g}q")
    return report, {"nominal": nominal, "entries": entries}


def run_table4(fast: bool = False, config: RunConfig | None = None
             ) -> tuple[str, dict]:
    """Table 4: simultaneous width + impurity variations."""
    tech = nominal_technology(config)
    variants = (((9, 1.0), (18, -1.0)) if fast
                else ((9, -1.0), (9, 1.0), (18, -1.0), (18, 1.0)))
    nominal, entries = combined_variation_study(tech, variants=variants,
                                                config=config)
    report = _sensitivity_report(
        "Table 4: simultaneous width and impurity variations",
        nominal, entries,
        lambda k: f"p:N={k[0][0]}{k[0][1]:+g}q n:N={k[1][0]}{k[1][1]:+g}q")
    return report, {"nominal": nominal, "entries": entries}


# --------------------------------------------------------------------- #
# Figure 6: Monte Carlo histograms
# --------------------------------------------------------------------- #
def run_fig6(fast: bool = False, config: RunConfig | None = None
             ) -> tuple[str, dict]:
    """Fig. 6: Monte Carlo distributions of the ring oscillator."""
    tech = nominal_technology(config)
    n_samples = 200 if fast else 2000
    result = run_ring_oscillator_monte_carlo(tech, n_samples=n_samples,
                                             config=config)
    report = "\n\n".join([
        ascii_histogram(result.frequencies_hz / 1e9, title=(
            "Fig 6: frequency (GHz); nominal "
            f"{result.nominal_frequency_hz / 1e9:.2f}, mean shift "
            f"{result.mean_frequency_shift:+.1%} (paper: -10%)")),
        ascii_histogram(result.dynamic_power_w * 1e6, title=(
            "Fig 6: dynamic power (uW); mean shift "
            f"{result.mean_dynamic_power_shift:+.1%} (paper: ~0%)")),
        ascii_histogram(result.static_power_w * 1e6, title=(
            "Fig 6: static power (uW); mean shift "
            f"{result.mean_static_power_shift:+.1%} (paper: +23%)")),
    ])
    return report, {"result": result}


# --------------------------------------------------------------------- #
# Figure 7: latch butterfly curves
# --------------------------------------------------------------------- #
def run_fig7(fast: bool = False, config: RunConfig | None = None
             ) -> tuple[str, dict]:
    """Fig. 7: latch butterfly under worst-case variations + defects."""
    tech = nominal_technology(config)
    cases = latch_variability_study(tech, config=config)
    nominal = cases[0]
    rows = []
    for c in cases:
        rows.append([c.label, f"{c.snm_v * 1e3:.0f} mV",
                     f"{c.static_power_w * 1e6:.3f} uW",
                     f"{c.static_power_w / nominal.static_power_w:.1f}x"])
    tab = format_table(["case", "SNM", "static power", "vs nominal"],
                       rows, title="Fig 7: latch under variations and defects")
    worst = cases[-1]
    plot = ascii_line_plot(
        worst.butterfly.v_in,
        {"fwd": worst.butterfly.forward,
         "mir(x)": np.interp(worst.butterfly.v_in,
                             np.sort(worst.butterfly.mirrored_x),
                             worst.butterfly.mirrored_y[np.argsort(
                                 worst.butterfly.mirrored_x)])},
        title="worst-case butterfly (collapsed eye)")
    return tab + "\n\n" + plot, {"cases": cases}


# --------------------------------------------------------------------- #
# Extensions (mechanisms the paper names but defers; see EXPERIMENTS.md)
# --------------------------------------------------------------------- #
def run_ext_roughness(fast: bool = False, config: RunConfig | None = None
             ) -> tuple[str, dict]:
    """Edge-roughness defects in the real-space p_z basis (paper ref 17)."""
    from repro.variability.edge_roughness import roughness_width_study

    study = roughness_width_study(
        indices=(9, 18) if fast else (9, 12, 18),
        probabilities=(0.05,) if fast else (0.02, 0.05, 0.1),
        n_cells=12 if fast else 24,
        n_samples=4 if fast else 10)
    rows = [[f"N={n}", f"{p:.2f}", f"{s.mean_transmission:.3f}",
             f"{s.std_transmission:.3f}"]
            for (n, p), s in sorted(study.items())]
    report = format_table(["ribbon", "p_vacancy", "<T>", "std T"], rows,
                          title="Edge roughness: first-plateau transmission")
    return report, {"study": study}


def run_ext_oxide(fast: bool = False, config: RunConfig | None = None
             ) -> tuple[str, dict]:
    """Oxide-thickness variation study."""
    from repro.variability.oxide import oxide_thickness_study

    tech = nominal_technology(config)
    thicknesses = (1.5, 2.1) if fast else (1.2, 1.5, 1.8, 2.1)
    nominal, entries = oxide_thickness_study(tech,
                                             thicknesses_nm=thicknesses,
                                             config=config)
    rows = [[f"{e.oxide_thickness_nm:.1f}",
             f"{e.metrics.delay_s * 1e12:.2f}",
             f"{e.metrics.static_power_w * 1e6:.4f}",
             f"{e.snm_pct:+.0f}%"] for e in entries]
    report = format_table(
        ["t_ox (nm)", "delay (ps)", "Pstat (uW)", "d-SNM"], rows,
        title="Oxide-thickness variation")
    return report, {"nominal": nominal, "entries": entries}


def run_ext_temperature(fast: bool = False, config: RunConfig | None = None
             ) -> tuple[str, dict]:
    """Temperature sweep of device leakage and inverter metrics."""
    from repro.exploration.temperature import (
        leakage_activation_energy_ev,
        temperature_study,
    )

    temps = ((ROOM_TEMPERATURE_K, 400.0) if fast
             else (250.0, ROOM_TEMPERATURE_K, 350.0, 400.0))
    points = temperature_study(temperatures_k=temps, config=config)
    e_a = leakage_activation_energy_ev(points)
    rows = [[f"{p.temperature_k:.0f}", f"{p.i_min_a * 1e9:.2f}",
             f"{p.inverter_static_power_w * 1e6:.4f}",
             f"{p.inverter_delay_s * 1e12:.2f}"] for p in points]
    report = format_table(
        ["T (K)", "Imin (nA)", "Pstat (uW)", "delay est (ps)"], rows,
        title=f"Temperature sweep (leakage E_a = {e_a * 1e3:.0f} meV)")
    return report, {"points": points, "activation_energy_ev": e_a}


def run_ext_yield(fast: bool = False, config: RunConfig | None = None
             ) -> tuple[str, dict]:
    """Memory yield / ECC analysis from sampled latch SNMs."""
    from repro.variability.yield_model import (
        ECCAnalysis,
        cell_failure_probability,
        sample_latch_snm,
    )

    tech = nominal_technology(config)
    snm = sample_latch_snm(tech, n_cells=40 if fast else 250,
                           n_vtc_points=21 if fast else 31, config=config)
    rows = []
    for budget in (0.02, 0.035, 0.05):
        p_cell = cell_failure_probability(snm, budget)
        ecc = ECCAnalysis(p_cell=max(p_cell, 1e-6))
        rows.append([f"{budget * 1e3:.0f} mV", f"{p_cell:.3f}",
                     f"{ecc.word_failure_sec():.2e}",
                     f"{ecc.overhead:.1%}"])
    report = format_table(
        ["noise budget", "p_cell", "SEC word fail", "ECC overhead"],
        rows, title="Latch yield under per-ribbon variability")
    return report, {"snm_samples": snm}


#: Experiment registry: id -> (description, callable).
EXPERIMENTS = {
    "fig2": ("Fig 2: intrinsic N=12 I-V and VT extraction", run_fig2),
    "fig3": ("Fig 3(b): EDP/frequency/SNM contours and points A/B/C",
             run_fig3),
    "table1": ("Table 1: GNRFET vs scaled CMOS", run_table1),
    "fig4": ("Fig 4: I-V vs GNR width", run_fig4),
    "fig5": ("Fig 5: charge-impurity band profiles and I-V", run_fig5),
    "table2": ("Table 2: width-variation sensitivity", run_table2),
    "table3": ("Table 3: charge-impurity sensitivity", run_table3),
    "table4": ("Table 4: simultaneous variations", run_table4),
    "fig6": ("Fig 6: ring-oscillator Monte Carlo", run_fig6),
    "fig7": ("Fig 7: latch butterfly study", run_fig7),
    "ext-roughness": ("Extension: edge-roughness defects (paper ref 17)",
                      run_ext_roughness),
    "ext-oxide": ("Extension: oxide-thickness variation", run_ext_oxide),
    "ext-temperature": ("Extension: temperature dependence",
                        run_ext_temperature),
    "ext-yield": ("Extension: memory yield and ECC overhead",
                  run_ext_yield),
}


def run_experiment(experiment_id: str, fast: bool = False,
                   config: RunConfig | None = None) -> tuple[str, dict]:
    """Dispatch one experiment by id (``config`` passed on)."""
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {', '.join(sorted(EXPERIMENTS))}")
    _, fn = EXPERIMENTS[experiment_id]
    config = RunConfig.from_env() if config is None else config
    return fn(fast=fast, config=config)
