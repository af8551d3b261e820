"""Tests for device lookup tables: interpolation, offsets, composition."""

import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.device.tables import DeviceTable
from tests.device.table_reference import ReferenceTable


def _toy_table(gate_offset=0.0):
    """Analytic separable table: I = vg * vd, Q = vg + 2 vd."""
    vg = np.linspace(-0.4, 1.0, 15)
    vd = np.linspace(0.0, 0.8, 9)
    gg, dd = np.meshgrid(vg, vd, indexing="ij")
    return DeviceTable(vg=vg, vd=vd, current_a=gg * dd,
                       charge_c=gg + 2 * dd, gate_offset_v=gate_offset,
                       label="toy")


class TestInterpolation:
    def test_exact_at_nodes(self):
        t = _toy_table()
        for vg in (-0.4, 0.0, 0.5, 1.0):
            for vd in (0.0, 0.4, 0.8):
                assert t.current(vg, vd) == pytest.approx(vg * vd, abs=1e-12)

    def test_bilinear_exact_for_bilinear_function(self):
        t = _toy_table()
        assert t.current(0.33, 0.17) == pytest.approx(0.33 * 0.17, abs=1e-9)
        assert t.charge(0.61, 0.29) == pytest.approx(0.61 + 0.58, abs=1e-9)

    def test_derivatives_match_function(self):
        t = _toy_table()
        i, di_dvg, di_dvd = t.current_and_derivatives(0.3, 0.25)
        assert di_dvg == pytest.approx(0.25, abs=1e-9)
        assert di_dvd == pytest.approx(0.3, abs=1e-9)

    def test_clamps_outside_range(self):
        t = _toy_table()
        assert t.current(5.0, 0.4) == pytest.approx(1.0 * 0.4, abs=1e-9)

    @given(st.floats(min_value=-0.4, max_value=1.0),
           st.floats(min_value=0.0, max_value=0.8))
    @settings(max_examples=50)
    def test_value_within_cell_bounds(self, vg, vd):
        """Bilinear interpolation never overshoots the corner values."""
        t = _toy_table()
        v = t.current(vg, vd)
        assert t.current_a.min() - 1e-9 <= v <= t.current_a.max() + 1e-9

    def test_scalar_and_array_paths_agree(self):
        t = _toy_table()
        vg = np.array([0.123, 0.77, -0.2])
        vd = np.array([0.05, 0.33, 0.6])
        arr = t.current(vg, vd)
        for k in range(3):
            assert t.current(float(vg[k]), float(vd[k])) == pytest.approx(
                float(arr[k]), abs=1e-12)
        c_arr = t.capacitances(vg, vd)
        for k in range(3):
            cs, cd = t.capacitances(float(vg[k]), float(vd[k]))
            assert cs == pytest.approx(float(c_arr[0][k]), abs=1e-12)
            assert cd == pytest.approx(float(c_arr[1][k]), abs=1e-12)


def _curved_table(uniform, gate_offset):
    """A table with no bilinear structure (every cell, derivative and the
    ``C_GS,i`` clamp differ) on a uniform or a non-uniform grid."""
    vg = np.linspace(-0.4, 1.0, 15)
    vd = np.linspace(0.0, 0.8, 9)
    if not uniform:
        vg = np.sort(np.append(vg, 0.123))
        vd = np.sort(np.append(vd, 0.07))
    gg, dd = np.meshgrid(vg, vd, indexing="ij")
    return DeviceTable(vg=vg, vd=vd,
                       current_a=1e-6 * np.sin(3.0 * gg) * np.tanh(4.0 * dd),
                       charge_c=1e-18 * (gg * gg + 2.0 * dd - gg * dd),
                       gate_offset_v=gate_offset)


_CURVED = {(uniform, offset): _curved_table(uniform, offset)
           for uniform in (True, False) for offset in (0.0, 0.05, -0.137)}
_REFERENCES = {key: ReferenceTable(t) for key, t in _CURVED.items()}

#: Gate and drain drives (``V_GS``, ``V_DS`` before the polarity) that
#: reach both clamped edges of both axes (the gate axis spans
#: [-0.4, 1.0] V before the offset, the drain axis [0, 0.8] V, and a
#: negative drive is mirrored), exact grid points and signed zeros, and
#: mostly land inside the grid, where every corner value matters.
_GATE_DRIVE = st.one_of(st.floats(min_value=-0.7, max_value=1.3),
                        st.sampled_from([-0.4, 1.0, 0.35, 0.0, -0.0]))
_DRAIN_DRIVE = st.one_of(st.floats(min_value=-1.0, max_value=1.0),
                         st.sampled_from([0.8, -0.8, 0.05, 0.0, -0.0]))
_SOURCE = st.one_of(st.floats(min_value=-0.5, max_value=0.5),
                    st.sampled_from([0.0, -0.0, 0.4]))


def _bits(value):
    """The exact bits of a float or a tuple of floats."""
    values = value if isinstance(value, tuple) else (value,)
    return tuple(struct.pack("<d", float(v)) for v in values)


class TestScalarLookupsMatchReference:
    """The float-query path equals the frozen pre-closure lookup
    (``tests/device/table_reference.py``) bit for bit."""

    @given(uniform=st.booleans(),
           offset=st.sampled_from([0.0, 0.05, -0.137]),
           polarity=st.sampled_from([+1, -1]),
           v_s=_SOURCE, gate=_GATE_DRIVE, drain=_DRAIN_DRIVE,
           drain_on_source=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_bitwise_as_the_kernel_queries(self, uniform, offset, polarity,
                                           v_s, gate, drain,
                                           drain_on_source):
        """Biases formed from terminal voltages as the circuit kernel
        forms them: a p-device with ``v_d == v_s`` queries
        ``V_DS = -0.0``."""
        table = _CURVED[uniform, offset]
        ref = _REFERENCES[uniform, offset]
        v_g = v_s + polarity * gate
        v_d = v_s if drain_on_source else v_s + polarity * drain
        vgs = polarity * (v_g - v_s)
        vds = polarity * (v_d - v_s)
        lookups = table.scalar_lookups()
        for name in ("current_and_derivatives", "capacitances", "charge"):
            expected = _bits(getattr(ref, name)(vgs, vds))
            assert _bits(getattr(table, name)(vgs, vds)) == expected
            assert _bits(getattr(lookups, name)(vgs, vds)) == expected
        assert _bits(table.current(vgs, vds)) == _bits(ref.current(vgs, vds))

    @pytest.mark.parametrize("offset", [0.0, 0.05, -0.137])
    def test_bitwise_over_a_seeded_sweep(self, offset):
        """Hypothesis favours round biases, where a reordered product
        often rounds the same; a sweep of arbitrary biases inside and
        beyond the grid catches a last-bit change of the formula."""
        table, ref = _CURVED[True, offset], _REFERENCES[True, offset]
        biases = np.random.default_rng(7).uniform([-0.7, -1.0], [1.3, 1.0],
                                                  size=(3000, 2))
        for vgs, vds in biases.tolist():
            for name in ("current_and_derivatives", "capacitances",
                         "charge", "current"):
                assert _bits(getattr(table, name)(vgs, vds)) == _bits(
                    getattr(ref, name)(vgs, vds))

    @pytest.mark.parametrize("vds", [0.0, -0.0])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_signed_zero_drain_bias(self, vds, uniform):
        table, ref = _CURVED[uniform, 0.05], _REFERENCES[uniform, 0.05]
        for name in ("current_and_derivatives", "capacitances", "charge",
                     "current"):
            assert _bits(getattr(table, name)(0.3, vds)) == _bits(
                getattr(ref, name)(0.3, vds))


class TestNegativeVds:
    def test_mirroring_antisymmetry(self):
        """I(vgs, -vds) = -I(vgs + vds, vds) by source/drain exchange."""
        t = _toy_table()
        i_neg = t.current(0.3, -0.2)
        i_mir = -t.current(0.3 + 0.2, 0.2)
        assert i_neg == pytest.approx(i_mir, abs=1e-12)

    def test_derivative_consistency_fd(self):
        t = _toy_table()
        h = 1e-6
        _, di_dvg, di_dvd = t.current_and_derivatives(0.3, -0.2)
        fd_g = (t.current(0.3 + h, -0.2) - t.current(0.3 - h, -0.2)) / (2 * h)
        fd_d = (t.current(0.3, -0.2 + h) - t.current(0.3, -0.2 - h)) / (2 * h)
        assert di_dvg == pytest.approx(fd_g, abs=1e-5)
        assert di_dvd == pytest.approx(fd_d, abs=1e-5)

    def test_current_continuous_at_zero_vds(self):
        t = _toy_table()
        assert t.current(0.4, 1e-9) == pytest.approx(
            t.current(0.4, -1e-9), abs=1e-7)


class TestGateOffset:
    def test_offset_shifts_curve_left(self):
        """Positive offset: the device sees vgs + offset, i.e. turns on
        earlier (V_T drops)."""
        t = _toy_table()
        t_off = t.with_gate_offset(0.2)
        assert t_off.current(0.3, 0.5) == pytest.approx(
            t.current(0.5, 0.5), abs=1e-12)

    def test_offset_immutable(self):
        t = _toy_table()
        t2 = t.with_gate_offset(0.1)
        assert t.gate_offset_v == 0.0
        assert t2.gate_offset_v == 0.1


class TestCapacitances:
    def test_paper_formulas(self):
        """C_GD = |dQ/dVD|, C_GS = |dQ/dVG| - |dQ/dVD| for Q = vg + 2 vd:
        C_GD = 2, C_GS = max(1 - 2, 0) = 0."""
        t = _toy_table()
        cgs, cgd = t.capacitances(0.3, 0.3)
        assert cgd == pytest.approx(2.0, abs=1e-9)
        assert cgs == pytest.approx(0.0, abs=1e-9)

    def test_nonnegative(self):
        t = _toy_table()
        cgs, cgd = t.capacitances(0.1, 0.7)
        assert cgs >= 0.0 and cgd >= 0.0


class TestComposition:
    def test_compose_sums(self):
        t = _toy_table()
        double = DeviceTable.compose([t, t])
        assert double.current(0.4, 0.3) == pytest.approx(
            2 * t.current(0.4, 0.3), abs=1e-12)
        assert double.charge(0.4, 0.3) == pytest.approx(
            2 * t.charge(0.4, 0.3), abs=1e-12)

    def test_scaled_equivalent_to_compose(self):
        t = _toy_table()
        assert np.allclose(t.scaled(4.0).current_a,
                           DeviceTable.compose([t] * 4).current_a)

    def test_compose_rejects_mismatched_axes(self):
        t = _toy_table()
        other = DeviceTable(vg=t.vg + 0.1, vd=t.vd,
                            current_a=t.current_a, charge_c=t.charge_c)
        with pytest.raises(ValueError):
            DeviceTable.compose([t, other])

    def test_compose_rejects_mismatched_offsets(self):
        t = _toy_table()
        with pytest.raises(ValueError):
            DeviceTable.compose([t, t.with_gate_offset(0.1)])

    def test_compose_empty_rejected(self):
        with pytest.raises(ValueError):
            DeviceTable.compose([])


class TestPersistence:
    def test_pickles_after_a_lookup(self):
        """The lookup closures a query builds are never pickled."""
        t = _toy_table(gate_offset=0.15)
        expected = t.current_and_derivatives(0.3, 0.2)
        clone = pickle.loads(pickle.dumps(t))
        assert clone.current_and_derivatives(0.3, 0.2) == expected
        assert clone.capacitances(0.3, -0.2) == t.capacitances(0.3, -0.2)


class TestValidation:
    def test_rejects_unsorted_axes(self):
        with pytest.raises(ValueError):
            DeviceTable(vg=np.array([0.0, -0.1, 0.2]),
                        vd=np.array([0.0, 0.1]),
                        current_a=np.zeros((3, 2)),
                        charge_c=np.zeros((3, 2)))

    @pytest.mark.parametrize("n_vg, n_vd", [(1, 3), (3, 1), (1, 1)])
    def test_rejects_single_point_axis(self, n_vg, n_vd):
        with pytest.raises(ValueError, match="at least two points"):
            DeviceTable(vg=np.linspace(0.0, 0.2, n_vg),
                        vd=np.linspace(0.0, 0.2, n_vd),
                        current_a=np.zeros((n_vg, n_vd)),
                        charge_c=np.zeros((n_vg, n_vd)))

    def test_rejects_wrong_grid_shape(self):
        with pytest.raises(ValueError):
            DeviceTable(vg=np.array([0.0, 0.1]), vd=np.array([0.0, 0.1]),
                        current_a=np.zeros((3, 2)),
                        charge_c=np.zeros((3, 2)))
