"""Extension: edge-roughness defects (the paper's reference [17]).

Section 4 lists edge roughness as a defect mechanism and defers it to
"future studies ... by readily extending the bottom-up simulation
framework presented here".  This bench is that study, in the real-space
p_z basis (roughness mixes transverse modes).  Assertions:

* transmission degrades monotonically with roughness probability;
* at equal roughness, the narrow N=9 ribbon degrades more than N=18
  (roughness compounds the width-variability problem);
* roughness produces a finite localization length and widens the
  transport gap beyond the structural band gap.
"""

import numpy as np

from repro.characterize.specs import extract_ext_roughness
from repro.reporting.tables import format_table
from repro.variability.edge_roughness import (
    effective_gap_widening_ev,
    localization_length_cells,
    roughness_width_study,
)


def test_edge_roughness_study(benchmark, save_report):
    def run():
        study = roughness_width_study(indices=(9, 12, 18),
                                      probabilities=(0.02, 0.05, 0.1),
                                      n_cells=24, n_samples=10)
        xi, _ = localization_length_cells(9, 0.1,
                                          lengths_cells=(8, 16, 24, 32),
                                          n_samples=8)
        widening = effective_gap_widening_ev(9, 0.1, n_cells=24,
                                             n_samples=6)
        return study, xi, widening

    study, xi, widening = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for (n, p), stats in sorted(study.items()):
        rows.append([f"N={n}", f"{p:.2f}",
                     f"{stats.mean_transmission:.3f}",
                     f"{stats.std_transmission:.3f}",
                     f"{stats.mean_removed_atoms:.1f}"])
    report = format_table(
        ["ribbon", "p_vacancy", "<T>", "std T", "<removed atoms>"], rows,
        title="Edge roughness: first-plateau transmission (24-cell, "
              "10-sample ensembles)")
    gap = ("> 500 meV (beyond the 0.5 eV scan)" if widening == np.inf
           else f"~ {widening * 1e3:.0f} meV")
    report += (f"\n\nN=9 @ p=0.1: localization length ~ {xi:.0f} cells "
               f"({xi * 0.426:.1f} nm); transport-gap widening {gap}")
    save_report("ext_edge_roughness", report)

    # Monotone degradation with p for every width.
    for n in (9, 12, 18):
        t_vals = [study[(n, p)].mean_transmission
                  for p in (0.02, 0.05, 0.1)]
        assert t_vals[0] > t_vals[1] > t_vals[2]

    # Narrow ribbons suffer more at p = 0.1.
    fom = extract_ext_roughness({"study": study})
    assert fom["t_n9_p01"] < fom["t_n12_p01"] < fom["t_n18_p01"] + 0.05
    assert fom["t_n9_p005"] < fom["t_n18_p005"] + 0.05

    # Finite localization and transport-gap widening.
    assert 2.0 < xi < 500.0
    assert widening > 0.02
