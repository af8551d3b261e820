"""Memory yield and ECC overhead under variability (paper Section 5.3).

The paper closes its latch study with: "Low noise margins may result in
higher error rates than scaled CMOS, though the redundancy required for
ECC as well as the high static power may be off-set by the advantages of
high density and low power that GNRFETs offer."  This module puts
numbers on that sentence:

* :func:`sample_latch_snm` — Monte Carlo over latch cells whose devices
  draw per-ribbon width/impurity variations (same distributions as the
  Fig. 6 study), with the *exact* butterfly SNM of every sampled cell;
* :func:`cell_failure_probability` — fraction of cells whose hold SNM
  falls below a noise budget;
* :class:`ECCAnalysis` — word-level failure rates of a raw word vs a
  single-error-correcting Hamming code, and the redundancy overhead at
  which the protected word meets a target failure rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.inverter import inverter_vtc
from repro.circuit.snm import butterfly_curves, static_noise_margin
from repro.config import RunConfig
from repro.device.tables import DeviceTable
from repro.exploration.technology import GNRFETTechnology
from repro.variability.sampling import (
    discretized_normal_indices,
    require_three_levels,
)
from repro.variability.variants import DeviceVariant, variant_ribbon_table


def sample_latch_snm(
    tech: GNRFETTechnology,
    n_cells: int = 200,
    vdd: float = 0.4,
    vt: float = 0.13,
    width_levels: tuple[int, int, int] = (9, 12, 15),
    charge_levels: tuple[float, float, float] = (-1.0, 0.0, 1.0),
    seed: int = 404,
    n_vtc_points: int = 31,
    rng: np.random.Generator | None = None,
    config: RunConfig | None = None,
) -> np.ndarray:
    """Hold-SNM samples of Monte Carlo latch cells (volts).

    Each cell's two inverters share their device draws (the paper's
    Fig. 7 setup: "Both inverters in the latch are assumed to have the
    same widths and impurities"), with per-ribbon sampling.  An
    explicit ``rng`` overrides ``seed``.

    Each cell draws one block of standard normals ordered (n- then
    p-device, ribbon, width then charge): the same values, and the same
    generator consumption, as one scalar draw per trait in that order.
    Each distinct ribbon table is fetched once per call, on first use;
    ``config`` is passed on to those builds.
    """
    require_three_levels(width_levels, "width_levels")
    require_three_levels(charge_levels, "charge_levels")
    config = RunConfig.from_env() if config is None else config
    if rng is None:
        rng = np.random.default_rng(seed)
    offset = tech.gate_offset_for_vt(vt)
    shape = (2, tech.params.n_ribbons, 2)
    tables: dict[tuple[int, int, int], DeviceTable] = {}

    def array_table(polarity: int, levels: np.ndarray) -> DeviceTable:
        """A device's table from its ribbons' (width, charge) levels."""
        ribbons = []
        for w, q in levels.tolist():
            key = (polarity, w, q)
            if key not in tables:
                tables[key] = variant_ribbon_table(
                    DeviceVariant(n_index=width_levels[w],
                                  impurity_e=charge_levels[q]),
                    polarity, tech.geometry, config)
            ribbons.append(tables[key])
        return DeviceTable.compose(ribbons).with_gate_offset(offset)

    snms = np.empty(n_cells)
    for c in range(n_cells):
        levels = discretized_normal_indices(rng.standard_normal(shape))
        nt = array_table(+1, levels[0])
        pt = array_table(-1, levels[1])
        vin, vout = inverter_vtc(nt, pt, vdd, tech.params,
                                 n_points=n_vtc_points)
        snms[c] = static_noise_margin(butterfly_curves(vin, vout))
    return snms


def cell_failure_probability(snm_samples: np.ndarray,
                             noise_budget_v: float) -> float:
    """Fraction of cells that cannot hold data against the noise budget."""
    snm_samples = np.asarray(snm_samples, dtype=float)
    if snm_samples.size == 0:
        raise ValueError("need at least one SNM sample")
    return float(np.mean(snm_samples < noise_budget_v))


@dataclass
class ECCAnalysis:
    """Word-level reliability with and without single-error correction.

    Attributes
    ----------
    p_cell:
        Per-cell failure probability.
    data_bits:
        Word payload size (e.g. 64).
    parity_bits:
        Check bits of the SEC Hamming code for that payload
        (``r`` with ``2^r >= data + r + 1``).
    """

    p_cell: float
    data_bits: int = 64

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_cell <= 1.0:
            raise ValueError("cell failure probability must be in [0, 1]")
        if self.data_bits < 1:
            raise ValueError("word needs at least one data bit")

    @property
    def parity_bits(self) -> int:
        r = 1
        while 2 ** r < self.data_bits + r + 1:
            r += 1
        return r

    @property
    def overhead(self) -> float:
        """Redundancy fraction ``parity / data``."""
        return self.parity_bits / self.data_bits

    def word_failure_raw(self) -> float:
        """P(any bit of an unprotected word fails)."""
        return 1.0 - (1.0 - self.p_cell) ** self.data_bits

    def word_failure_sec(self) -> float:
        """P(>= 2 failures in the SEC-protected word) - uncorrectable."""
        n = self.data_bits + self.parity_bits
        p = self.p_cell
        p0 = (1.0 - p) ** n
        p1 = n * p * (1.0 - p) ** (n - 1)
        return max(0.0, 1.0 - p0 - p1)

    def improvement_factor(self) -> float:
        """Raw/SEC word-failure ratio (inf when SEC eliminates failures)."""
        sec = self.word_failure_sec()
        raw = self.word_failure_raw()
        if sec == 0.0:
            return np.inf
        return raw / sec


def required_sec_words_per_data_word(p_cell: float,
                                     target_word_failure: float,
                                     data_bits: int = 64,
                                     max_interleave: int = 16) -> int:
    """Interleaving depth at which SEC meets a target failure rate.

    Splitting a data word over ``k`` interleaved SEC words shortens each
    codeword, suppressing double-error probability ~quadratically.
    Returns the smallest ``k`` that meets the target, or
    ``max_interleave + 1`` if even the deepest interleave fails.
    """
    if not 0.0 < target_word_failure < 1.0:
        raise ValueError("target failure must be in (0, 1)")
    for k in range(1, max_interleave + 1):
        bits = -(-data_bits // k)  # ceil division
        sub = ECCAnalysis(p_cell=p_cell, data_bits=bits)
        total = 1.0 - (1.0 - sub.word_failure_sec()) ** k
        if total <= target_word_failure:
            return k
    return max_interleave + 1
