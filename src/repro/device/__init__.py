"""GNRFET device layer: geometry, device engines, I-V sweeps, lookup tables.

Several transport engines produce the intrinsic ``I_D(V_G, V_D)`` /
``Q(V_G, V_D)`` data that the circuit layer consumes — selected per call
with ``engine=`` (see :mod:`repro.device.engines`):

* :mod:`repro.device.sbfet` — fast semi-analytic ballistic Schottky-barrier
  FET engine (two-band WKB tunneling + Landauer transport with
  self-consistent top-of-barrier electrostatics).  This is the default
  production path for populating circuit lookup tables.
* :mod:`repro.device.negf_modespace` — coupled mode-space NEGF: the
  atomistic Hamiltonian projected onto the lowest transverse subbands
  (engine name ``modespace``).
* :mod:`repro.device.negf_realspace` — full atomistic p_z NEGF transport
  (engine name ``realspace``), the slow reference, and the only engine
  for transversely non-uniform disorder (edge roughness, which closes
  the segment with semi-infinite GNR leads, one energy at a time).
* :mod:`repro.device.negf_device` — the reference self-consistent
  NEGF + Poisson simulator (mode-space RGF transport on a 2-D electrostatic
  cross-section), used for physics validation and the impurity band-profile
  study (paper Fig. 5a).

The two atomistic engines run through
:class:`~repro.device.engines.AtomisticTransport`, which closes either
device's blocks with wide-band metal contacts and solves every energy in
one batched RGF pass.

All engines share the same atomistic band-structure inputs and the same
:class:`~repro.device.geometry.GNRFETGeometry` specification.
"""

from repro.device.geometry import GNRFETGeometry, ChargeImpurity
from repro.device.engines import (
    DEFAULT_ENGINE,
    ENGINES,
    AtomisticTransport,
    engine_version,
    resolve_engine,
)
from repro.device.sbfet import SBFETModel, BiasPoint, SBFETSolution
from repro.device.iv import IVSweep, sweep_iv
from repro.device.tables import DeviceTable, build_device_table
from repro.device.vt_extraction import extract_vt_linear
from repro.device.negf_device import (
    NEGFDevice,
    NEGFDeviceResult,
    solve_negf_point,
)
from repro.device.negf_modespace import ModeSpaceGNRDevice, reduced_lead_blocks
from repro.device.negf_realspace import (
    RealSpaceGNRDevice,
    ideal_transmission_staircase,
    longitudinal_onsite,
    rough_edge_onsite,
)

__all__ = [
    "AtomisticTransport",
    "DEFAULT_ENGINE",
    "ENGINES",
    "ModeSpaceGNRDevice",
    "RealSpaceGNRDevice",
    "engine_version",
    "ideal_transmission_staircase",
    "longitudinal_onsite",
    "reduced_lead_blocks",
    "resolve_engine",
    "rough_edge_onsite",
    "GNRFETGeometry",
    "ChargeImpurity",
    "SBFETModel",
    "BiasPoint",
    "SBFETSolution",
    "IVSweep",
    "sweep_iv",
    "DeviceTable",
    "build_device_table",
    "extract_vt_linear",
    "NEGFDevice",
    "NEGFDeviceResult",
    "solve_negf_point",
]
