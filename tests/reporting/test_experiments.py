"""Tests for the experiment registry (fast modes of the cheap entries).

The full experiments are exercised by the benchmark harness; here we
check registry integrity plus the fast paths of the device-level
experiments (fig2, fig4, and fig5 and ext-roughness where they meet the
artifact cache; fig7 is covered through its building blocks elsewhere).
"""

import dataclasses

import numpy as np
import pytest

from repro.config import RunConfig
from repro.device import iv, negf_device, negf_realspace, tables
from repro.device.geometry import ChargeImpurity, GNRFETGeometry
from repro.negf import self_energy
from repro.reporting.experiments import (
    EXPERIMENTS,
    run_experiment,
    run_ext_roughness,
    run_fig2,
    run_fig4,
    run_fig5,
)
from repro.reporting.figures import FigureSeries


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        paper = {"fig2", "fig3", "table1", "fig4", "fig5",
                 "table2", "table3", "table4", "fig6", "fig7"}
        extensions = {"ext-roughness", "ext-oxide", "ext-temperature",
                      "ext-yield"}
        assert set(EXPERIMENTS) == paper | extensions

    def test_descriptions_present(self):
        for key, (description, fn) in EXPERIMENTS.items():
            assert description
            assert callable(fn)

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestFig2:
    @pytest.fixture(scope="class")
    def fig2(self, tech):
        return run_fig2(fast=True)

    def test_vt_anchor_pair(self, fig2):
        """Paper Fig 2(b): VT ~0.3 V at zero offset, ~0.1 V at 0.2 V."""
        _, data = fig2
        assert data["vt"][0.0] == pytest.approx(0.30, abs=0.05)
        assert data["vt"][0.2] == pytest.approx(0.10, abs=0.05)

    def test_four_drain_biases(self, fig2):
        _, data = fig2
        assert len(data["series"]) == 4

    def test_report_contains_plot_and_table(self, fig2):
        report, _ = fig2
        assert "Fig 2(a)" in report
        assert "Fig 2(b)" in report


class TestFig4:
    @pytest.fixture(scope="class")
    def fig4(self, tech):
        return run_fig4(fast=True)

    def test_on_off_ordering(self, fig4):
        _, data = fig4
        r = data["on_off_ratios"]
        assert r[9] > r[12] > r[15] > r[18]

    def test_n9_high_ratio(self, fig4):
        """Paper: N=9 Ion/Ioff "as high as 1000X" - require > 100x."""
        _, data = fig4
        assert data["on_off_ratios"][9] > 100.0

    def test_four_series(self, fig4):
        _, data = fig4
        assert [s.name for s in data["series"]] == [
            "N=9", "N=12", "N=15", "N=18"]


def _plain(value):
    """``value`` with every series and array as lists, so ``==``
    compares values."""
    if isinstance(value, FigureSeries):
        return value.name, value.x.tolist(), value.y.tolist(), value.meta
    if isinstance(value, np.ndarray):
        return value.tolist()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, _plain(vars(value))
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return value


def test_fig4_and_fig5_iv_come_from_the_table_cache(tmp_path, monkeypatch):
    """Cold, fig4's and fig5(b)'s I-V equal a direct sweep of the same
    device and grid; warm, both experiments read them from disk and
    build no device model."""
    config = RunConfig(cache_dir=tmp_path)
    monkeypatch.setattr(tables, "_TABLE_CACHE", {})  # this test's own memo
    cold = {run: run(fast=True, config=config)[1]
            for run in (run_fig4, run_fig5)}
    devices = [GNRFETGeometry(n_index=n) for n in (9, 12, 15, 18)]
    devices += [GNRFETGeometry(n_index=12, impurity=ChargeImpurity(
        charge_e=q) if q else None) for q in (-2.0, 0.0, 2.0)]
    curves = cold[run_fig4]["series"] + cold[run_fig5]["iv"]
    for series, geometry in zip(curves, devices, strict=True):
        sweep = iv.sweep_iv(geometry, series.x, np.array([0.0, 0.5]),
                            config=config)
        assert np.array_equal(series.y, sweep.current_a[:, 1])

    tables.clear_table_cache(disk=False)

    def refuse(*args, **kwargs):
        raise AssertionError("a warm run built a device model")

    monkeypatch.setattr(tables, "sweep_iv", refuse)
    monkeypatch.setattr(iv, "SBFETModel", refuse)
    for run, data in cold.items():
        assert _plain(run(fast=True, config=config)[1]) == _plain(data)


def test_fig5_and_ext_roughness_warm_runs_do_no_device_physics(
        tmp_path, monkeypatch):
    """Warm, fig5's NEGF points and ext-roughness's transmissions come
    from the artifact cache, `==` to the cold data."""
    config = RunConfig(cache_dir=tmp_path)
    monkeypatch.setattr(tables, "_TABLE_CACHE", {})  # this test's own memo
    runs = (run_fig5, run_ext_roughness)
    cold = {run: run(fast=True, config=config)[1] for run in runs}
    assert sorted(p.parent.name for p in tmp_path.glob("*/*.npz")) == \
        ["negf"] * 5 + ["roughness"] * 2 + ["tables"] * 3
    tables.clear_table_cache(disk=False)

    def refuse(*args, **kwargs):
        raise AssertionError("a warm run did device physics")

    monkeypatch.setattr(negf_device, "NEGFDevice", refuse)
    monkeypatch.setattr(negf_realspace, "rgf_transmission", refuse)
    monkeypatch.setattr(self_energy, "sancho_rubio_surface_gf", refuse)
    for run, data in cold.items():
        assert _plain(run(fast=True, config=config)[1]) == _plain(data)


def test_no_cache_writes_to_no_namespace(tmp_path, monkeypatch):
    monkeypatch.setattr(tables, "_TABLE_CACHE", {})
    config = RunConfig(cache_dir=tmp_path, use_cache=False)
    for run in (run_fig5, run_ext_roughness):
        run(fast=True, config=config)
    assert list(tmp_path.iterdir()) == []
