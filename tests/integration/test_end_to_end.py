"""Integration tests spanning the full stack.

Each test exercises a cross-layer path: atomistic bands -> device engine
-> lookup tables -> circuit simulation -> metrics, the way a user of the
library would chain them.
"""

import numpy as np
import pytest

from repro import (
    ChargeImpurity,
    GNRFETGeometry,
    GNRFETTechnology,
    SBFETModel,
)
from repro.circuit import (
    characterize_inverter,
    estimate_ring_oscillator,
    inverter_snm,
)
from repro.config import RunConfig
from repro.device import tables
from repro.device.tables import build_device_table


class TestBandGapToCircuitChain:
    def test_gap_controls_leakage_end_to_end(self, tech):
        """The atomistic band gap of the channel ribbon propagates all
        the way to inverter leakage: N=18 (small gap) leaks far more
        than N=9 (large gap) at the same fixed design point."""
        from repro.circuit.inverter import inverter_static_power_w
        from repro.variability.variants import DeviceVariant, variant_array_table

        offset = tech.gate_offset_for_vt(0.13)
        power = {}
        for n in (9, 18):
            t = variant_array_table(DeviceVariant(n_index=n), +1, 4,
                                    offset, 4, tech.geometry)
            power[n] = inverter_static_power_w(t, t, 0.4, tech.params)
        assert power[18] > 10.0 * power[9]


class TestPublicAPIQuickstart:
    def test_readme_quickstart_path(self):
        """The documented quick-start sequence must work verbatim."""
        model = SBFETModel(GNRFETGeometry(n_index=12))
        i = model.current_at(vg=0.5, vd=0.5)
        assert 1e-8 < i < 1e-4

    def test_build_table_and_simulate_inverter(self, tech):
        nt, pt = tech.inverter_tables(0.13)
        metrics = characterize_inverter(nt, pt, 0.4, tech.params)
        assert metrics.delay_s > 0
        assert metrics.snm_v > 0

    def test_table_persistence_through_circuit(self, tech, tmp_path,
                                               monkeypatch):
        """Tables survive the artifact-cache round trip and drive
        identical circuit results."""
        monkeypatch.setattr(tables, "_TABLE_CACHE", {})
        config = RunConfig(cache_dir=tmp_path)
        built = build_device_table(tech.geometry, config=config)
        tables._TABLE_CACHE.clear()

        def no_sweep(*args, **kwargs):
            raise AssertionError("the rebuild swept instead of reading "
                                 "the disk store")

        monkeypatch.setattr(tables, "sweep_iv", no_sweep)
        reloaded = build_device_table(tech.geometry, config=config)
        assert reloaded is not built
        offset = tech.gate_offset_for_vt(0.13)
        snm = [inverter_snm(array, array, 0.4, tech.params)
               for array in (table.scaled(tech.params.n_ribbons)
                             .with_gate_offset(offset)
                             for table in (built, reloaded))]
        assert snm[0] == snm[1]


class TestImpurityEndToEnd:
    def test_oxide_charge_slows_inverter(self, tech):
        """A -q oxide impurity near every n-ribbon source (and +q on the
        p side) measurably slows the FO4 inverter - the full chain from
        the image-charge electrostatics to the transient metric."""
        from repro.variability.variants import DeviceVariant
        from repro.variability.width import characterize_variant_inverter

        nominal = characterize_inverter(*tech.inverter_tables(0.13), 0.4,
                                        tech.params)
        degraded = characterize_variant_inverter(
            tech, DeviceVariant(impurity_e=-1.0),
            DeviceVariant(impurity_e=+1.0), 4, 0.4, 0.13)
        assert degraded.delay_s > 1.05 * nominal.delay_s


class TestExplorationConsistency:
    def test_estimator_vs_grid_point(self, tech):
        """The sweep grid and a direct estimate must agree exactly at a
        shared point (no hidden state in the sweep)."""
        from repro.exploration.sweep import sweep_vdd_vt

        grid = sweep_vdd_vt(tech, np.array([0.13]), np.array([0.4]),
                            with_snm=False)
        nt, pt = tech.inverter_tables(0.13)
        direct = estimate_ring_oscillator(nt, pt, 0.4, 15, tech.params)
        assert grid.frequency_hz[0, 0] == pytest.approx(
            direct.frequency_hz, rel=1e-12)

    def test_negf_device_feeds_reporting(self):
        """The NEGF engine output plugs into figure series (Fig 5a
        path) without the fast engine."""
        from repro.device.negf_device import NEGFDevice
        from repro.reporting.figures import FigureSeries

        device = NEGFDevice(GNRFETGeometry(
            n_index=12, impurity=ChargeImpurity(charge_e=-1.0)),
            n_x=21, n_y=9)
        result = device.solve(0.3, 0.4)
        series = FigureSeries("EC", result.x_nm, result.conduction_band_ev)
        assert series.y.max() > 0.3  # raised barrier visible
