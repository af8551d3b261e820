"""Bundled GNRFET technology: nominal tables, V_T control, parasitics.

The paper's V_T knob is the gate metal work function: "the threshold
voltage of the FET can be tuned by engineering the gate metal material to
shift the I-V curves along the x-axis" and "V_T changes by an amount equal
to the off-set".  A :class:`GNRFETTechnology` therefore carries one
nominal per-ribbon device table plus its extracted zero-offset threshold
``vt0``; requesting a target ``V_T`` returns array tables with gate offset
``vt0 - V_T``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuit.inverter import CircuitParameters
from repro.config import RunConfig
from repro.device.engines import DEFAULT_ENGINE
from repro.device.geometry import GNRFETGeometry
from repro.device.tables import DeviceTable, build_device_table
from repro.device.vt_extraction import extract_vt_linear


@dataclass
class GNRFETTechnology:
    """Nominal GNRFET technology for circuit-level exploration.

    Attributes
    ----------
    ribbon_table:
        Intrinsic table of one nominal ribbon (zero gate offset).
    vt0:
        Threshold voltage of the zero-offset device, extracted at the
        lowest non-zero tabulated drain bias.
    params:
        Extrinsic parasitics and array configuration.
    geometry:
        The nominal device geometry the table came from.
    """

    ribbon_table: DeviceTable
    vt0: float
    params: CircuitParameters
    geometry: GNRFETGeometry

    @classmethod
    def build(cls, geometry: GNRFETGeometry | None = None,
              params: CircuitParameters | None = None,
              engine: str = DEFAULT_ENGINE,
              config: RunConfig | None = None) -> "GNRFETTechnology":
        """Simulate (or fetch cached) nominal device data.

        ``engine`` picks the transport engine behind the table sweep;
        tables from different engines are cached under different keys.
        ``config`` (default :meth:`RunConfig.from_env`) is passed on to
        :func:`~repro.device.tables.build_device_table`.
        """
        geometry = geometry or GNRFETGeometry()
        params = params or CircuitParameters()
        table = build_device_table(geometry, engine=engine, config=config)
        vt0 = extract_vt_linear(table.vg, table.current_a[:, 1],
                                vd=float(table.vd[1]))
        return cls(ribbon_table=table, vt0=vt0, params=params,
                   geometry=geometry)

    def gate_offset_for_vt(self, vt: float) -> float:
        """Work-function offset that places the threshold at ``vt``."""
        return self.vt0 - vt

    def array_table(self, vt: float) -> DeviceTable:
        """Nominal 4-ribbon array table at target threshold ``vt``."""
        return (self.ribbon_table.scaled(self.params.n_ribbons)
                .with_gate_offset(self.gate_offset_for_vt(vt)))

    def inverter_tables(self, vt: float) -> tuple[DeviceTable, DeviceTable]:
        """(n, p) array tables at ``vt`` (symmetric ambipolar device)."""
        table = self.array_table(vt)
        return table, table
