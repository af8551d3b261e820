"""Technology exploration: V_DD-V_T plane sweeps, contours, Table 1.

Implements Section 3.1 of the paper: the energy-delay-product /
frequency / SNM contours of the 15-stage FO4 ring oscillator over the
(V_T, V_DD) plane (Fig. 3b), the tangency-based optimum operating points
A / B / C, and the comparison against scaled CMOS (Table 1).
"""

from repro.exploration.technology import GNRFETTechnology
from repro.exploration.sweep import ExplorationGrid, sweep_vdd_vt
from repro.exploration.contours import contour_lines
from repro.exploration.operating_point import (
    OperatingPoint,
    min_edp_point,
    min_edp_at_frequency,
    min_edp_at_frequency_and_snm,
    matched_edp_snm_higher_vt,
)
from repro.exploration.compare_cmos import table1_comparison, Table1Row
from repro.exploration.temperature import (
    TemperaturePoint,
    temperature_study,
    leakage_activation_energy_ev,
)

__all__ = [
    "GNRFETTechnology",
    "ExplorationGrid",
    "sweep_vdd_vt",
    "contour_lines",
    "OperatingPoint",
    "min_edp_point",
    "min_edp_at_frequency",
    "min_edp_at_frequency_and_snm",
    "matched_edp_snm_higher_vt",
    "table1_comparison",
    "Table1Row",
    "TemperaturePoint",
    "temperature_study",
    "leakage_activation_energy_ev",
]
