"""Geometry of armchair-edge graphene nanoribbons (A-GNRs).

An A-GNR is indexed by the number ``N`` of dimer lines across its width,
following Nakada et al. (PRB 54, 17954, 1996), which the paper cites for its
GNR index convention.  The translational unit cell along the transport
direction has period ``3 a_cc`` (0.426 nm) and contains ``2 N`` atoms.

Coordinate convention
---------------------
Transport along ``x``, width along ``y``.  Dimer line ``j`` (0-based) sits at
``y_j = j * sqrt(3)/2 * a_cc``.  Within one unit cell, even dimer lines carry
atoms at ``x in (0, a_cc)`` and odd dimer lines at ``x in (1.5 a_cc,
2.5 a_cc)``, which reproduces the honeycomb connectivity with every bond of
length ``a_cc``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.constants import A_CC_NM, ARMCHAIR_PERIOD_NM, gnr_width_nm
from repro.errors import InvalidDeviceError

#: x offsets (units of a_cc) of the two atoms of a dimer line within a cell.
_EVEN_ROW_OFFSETS = (0.0, 1.0)
_ODD_ROW_OFFSETS = (1.5, 2.5)


def gnr_family(n_index: int) -> int:
    """Return the A-GNR family ``p`` where ``N = 3q + p`` with ``p in {0,1,2}``.

    Families 0 (``N = 3q``) and 1 (``N = 3q+1``) are semiconducting with a
    sizeable gap; family 2 (``N = 3q+2``) has only a small edge-relaxation
    induced gap and is excluded from the paper's width-variation study.
    """
    if n_index < 2:
        raise InvalidDeviceError(f"A-GNR index must be >= 2, got {n_index}")
    return n_index % 3


def is_semiconducting_index(n_index: int) -> bool:
    """True for the ``N = 3q`` and ``N = 3q+1`` families used as FET channels."""
    return gnr_family(n_index) in (0, 1)


@dataclass(frozen=True)
class ArmchairGNR:
    """An armchair-edge graphene nanoribbon segment.

    Parameters
    ----------
    n_index:
        Number of dimer lines across the ribbon width (the GNR index ``N``).
    n_cells:
        Number of translational unit cells along transport.  ``n_cells = 1``
        describes the periodic unit cell used for band structure; larger
        values describe finite segments for real-space NEGF.
    """

    n_index: int
    n_cells: int = 1

    def __post_init__(self) -> None:
        if self.n_index < 2:
            raise InvalidDeviceError(
                f"A-GNR index must be >= 2, got {self.n_index}")
        if self.n_cells < 1:
            raise InvalidDeviceError(
                f"number of unit cells must be >= 1, got {self.n_cells}")

    # --- scalar geometry ---------------------------------------------------
    @property
    def width_nm(self) -> float:
        """Physical ribbon width (distance between outermost dimer lines)."""
        return gnr_width_nm(self.n_index)

    @property
    def period_nm(self) -> float:
        """Unit-cell period along transport (3 a_cc)."""
        return ARMCHAIR_PERIOD_NM

    @property
    def length_nm(self) -> float:
        """Length of the segment along transport."""
        return self.n_cells * ARMCHAIR_PERIOD_NM

    @property
    def atoms_per_cell(self) -> int:
        """Number of carbon atoms in one unit cell (2 N)."""
        return 2 * self.n_index

    @property
    def n_atoms(self) -> int:
        """Total number of atoms in the segment."""
        return self.atoms_per_cell * self.n_cells

    @property
    def family(self) -> int:
        """GNR family ``N mod 3``."""
        return gnr_family(self.n_index)

    # --- atom indexing -------------------------------------------------------
    def atom_index(self, cell: int, row: int, slot: int) -> int:
        """Flat index of the atom at (cell, dimer line ``row``, slot 0/1)."""
        if not 0 <= cell < self.n_cells:
            raise IndexError(f"cell {cell} out of range 0..{self.n_cells - 1}")
        if not 0 <= row < self.n_index:
            raise IndexError(f"row {row} out of range 0..{self.n_index - 1}")
        if slot not in (0, 1):
            raise IndexError(f"slot must be 0 or 1, got {slot}")
        return cell * self.atoms_per_cell + 2 * row + slot

    def positions(self) -> np.ndarray:
        """Cartesian coordinates of every atom, shape ``(n_atoms, 2)`` in nm.

        Column 0 is the transport coordinate ``x``, column 1 the transverse
        coordinate ``y``.
        """
        coords = np.empty((self.n_atoms, 2), dtype=float)
        row_y = np.arange(self.n_index) * (math.sqrt(3.0) / 2.0 * A_CC_NM)
        for cell in range(self.n_cells):
            x0 = cell * ARMCHAIR_PERIOD_NM
            for row in range(self.n_index):
                offsets = _EVEN_ROW_OFFSETS if row % 2 == 0 else _ODD_ROW_OFFSETS
                for slot, off in enumerate(offsets):
                    idx = self.atom_index(cell, row, slot)
                    coords[idx, 0] = x0 + off * A_CC_NM
                    coords[idx, 1] = row_y[row]
        return coords

    # --- bonds ---------------------------------------------------------------
    def intra_cell_bonds(self) -> list[tuple[int, int, bool]]:
        """Nearest-neighbour bonds inside one unit cell.

        Returns a list of ``(i, j, is_edge_dimer)`` index pairs with
        ``i < j``, where indices refer to atoms of cell 0 and
        ``is_edge_dimer`` marks the edge-parallel dimer bonds that receive
        the Son-Cohen-Louie hopping correction.
        """
        bonds: list[tuple[int, int, bool]] = []
        n = self.n_index
        for row in range(n):
            is_edge = row in (0, n - 1)
            a0 = 2 * row
            a1 = 2 * row + 1
            # Dimer bond along the ribbon axis within the row.
            bonds.append((a0, a1, is_edge))
            # Inter-row bonds within the same cell.
            if row + 1 < n:
                b0 = 2 * (row + 1)
                b1 = 2 * (row + 1) + 1
                if row % 2 == 0:
                    # even row atoms at x = (0, 1) a_cc; odd row at (1.5, 2.5)
                    # bond: (row, slot1 @ x=1) -- (row+1, slot0 @ x=1.5)
                    bonds.append((a1, b0, False))
                else:
                    # odd row at (1.5, 2.5); even row above at (0, 1)
                    # bonds: (row, slot0 @1.5)--(row+1, slot1 @1)
                    bonds.append((min(a0, b1), max(a0, b1), False))
        return bonds

    def inter_cell_bonds(self) -> list[tuple[int, int]]:
        """Nearest-neighbour bonds from cell ``c`` to cell ``c + 1``.

        Returns ``(i, j)`` pairs where ``i`` indexes an atom in the left
        cell and ``j`` an atom in the right cell (both 0-based within their
        own cell).
        """
        bonds: list[tuple[int, int]] = []
        n = self.n_index
        for row in range(n):
            if row % 2 == 1:
                # odd row atom at x = 2.5 a_cc bonds to even neighbours at
                # x = 3 a_cc (slot 0 of rows row-1 and row+1 in next cell).
                a1 = 2 * row + 1
                for other in (row - 1, row + 1):
                    if 0 <= other < n:
                        bonds.append((a1, 2 * other))
        return bonds

    def neighbor_pairs_by_distance(self, tol_nm: float = 1e-6) -> set[tuple[int, int]]:
        """All nearest-neighbour pairs of the segment found geometrically.

        This is an O(n^2) reference implementation used to validate the
        rule-based bond constructors in the test suite.
        """
        pos = self.positions()
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2))
        ii, jj = np.where(np.abs(dist - A_CC_NM) < tol_nm)
        return {(int(i), int(j)) for i, j in zip(ii, jj) if i < j}
