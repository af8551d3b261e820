"""Tests for A-GNR geometry and bond construction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atomistic.lattice import (
    ArmchairGNR,
    gnr_family,
    is_semiconducting_index,
)
from repro.constants import A_CC_NM
from repro.errors import InvalidDeviceError


class TestFamily:
    @pytest.mark.parametrize("n,family", [(9, 0), (12, 0), (10, 1),
                                          (13, 1), (11, 2), (14, 2)])
    def test_families(self, n, family):
        assert gnr_family(n) == family

    @pytest.mark.parametrize("n,semi", [(9, True), (12, True), (10, True),
                                        (11, False), (14, False)])
    def test_paper_semiconducting_selection(self, n, semi):
        # "A-GNRs with an index of N=3q and N=(3q+1) are semiconducting
        # ... N=(3q+2) are semiconducting with a small band-gap and are
        # not considered in this paper."
        assert is_semiconducting_index(n) is semi

    def test_rejects_bad_index(self):
        with pytest.raises(InvalidDeviceError):
            gnr_family(1)


class TestGeometry:
    def test_atom_count(self):
        r = ArmchairGNR(9, n_cells=3)
        assert r.atoms_per_cell == 18
        assert r.n_atoms == 54

    def test_positions_shape_and_extent(self):
        r = ArmchairGNR(12, n_cells=2)
        pos = r.positions()
        assert pos.shape == (r.n_atoms, 2)
        assert pos[:, 1].max() == pytest.approx(r.width_nm)
        assert pos[:, 0].min() >= 0.0

    def test_length(self):
        r = ArmchairGNR(9, n_cells=5)
        assert r.length_nm == pytest.approx(5 * 0.426, abs=1e-3)

    def test_atom_index_bounds(self):
        r = ArmchairGNR(9, n_cells=2)
        with pytest.raises(IndexError):
            r.atom_index(2, 0, 0)
        with pytest.raises(IndexError):
            r.atom_index(0, 9, 0)
        with pytest.raises(IndexError):
            r.atom_index(0, 0, 2)

    def test_invalid_construction(self):
        with pytest.raises(InvalidDeviceError):
            ArmchairGNR(1)
        with pytest.raises(InvalidDeviceError):
            ArmchairGNR(9, n_cells=0)


class TestBonds:
    @pytest.mark.parametrize("n", [5, 9, 12, 13])
    def test_rule_based_bonds_match_geometry(self, n):
        """The rule-based bond constructors must exactly reproduce the
        geometric nearest-neighbour search on a 3-cell segment."""
        r = ArmchairGNR(n, n_cells=3)
        geometric = r.neighbor_pairs_by_distance()

        per_cell = r.atoms_per_cell
        rule_based = set()
        for cell in range(3):
            base = cell * per_cell
            for i, j, _ in r.intra_cell_bonds():
                rule_based.add((base + i, base + j))
            if cell < 2:
                for i, j in r.inter_cell_bonds():
                    a, b = base + i, base + per_cell + j
                    rule_based.add((min(a, b), max(a, b)))
        assert rule_based == geometric

    @pytest.mark.parametrize("n", [6, 9, 12])
    def test_all_bond_lengths_are_acc(self, n):
        r = ArmchairGNR(n, n_cells=2)
        pos = r.positions()
        for i, j in r.neighbor_pairs_by_distance():
            d = np.linalg.norm(pos[i] - pos[j])
            assert d == pytest.approx(A_CC_NM, abs=1e-9)

    def test_edge_dimer_flags(self):
        r = ArmchairGNR(9)
        edge_bonds = [(i, j) for i, j, e in r.intra_cell_bonds() if e]
        # Exactly two edge dimers per cell: rows 0 and N-1.
        assert len(edge_bonds) == 2
        assert (0, 1) in edge_bonds

    @given(st.integers(min_value=3, max_value=24))
    @settings(max_examples=15, deadline=None)
    def test_coordination_number_bounds(self, n):
        """Interior atoms have 3 neighbours, edge atoms 2 (honeycomb)."""
        r = ArmchairGNR(n, n_cells=4)
        counts = np.zeros(r.n_atoms, dtype=int)
        for i, j in r.neighbor_pairs_by_distance():
            counts[i] += 1
            counts[j] += 1
        # Segment-end atoms can have as few as 1 neighbour.
        interior = counts[r.atoms_per_cell:-r.atoms_per_cell]
        assert interior.min() >= 2
        assert counts.max() == 3
