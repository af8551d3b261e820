"""Device variants and array composition for the variability studies.

A :class:`DeviceVariant` names one anomaly configuration of a single
ribbon: its width index and the physical charge of an oxide impurity near
its source.  Array tables compose ``n_affected`` variant ribbons with
nominal ribbons ("The total current is given by the sum of the currents
in the GNRs, nominal or otherwise").

Polarity handling: circuit p-devices are evaluated through the
electron-hole mirror of an n-equivalent table, so the table built for a
p-device with *physical* impurity charge ``q`` is the n-device table with
charge ``-q`` ("a +q charge has the same effect on a pGNRFET device as a
-q charge has on an nGNRFET device").  Width is polarity-neutral.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import RunConfig
from repro.device.geometry import ChargeImpurity, GNRFETGeometry
from repro.device.tables import DeviceTable, build_device_table


@dataclass(frozen=True)
class DeviceVariant:
    """One ribbon's anomaly configuration.

    Attributes
    ----------
    n_index:
        A-GNR index (nominal 12).
    impurity_e:
        Physical oxide-impurity charge in units of e (0 = ideal oxide).
    """

    n_index: int = 12
    impurity_e: float = 0.0

    def label(self) -> str:
        if self.impurity_e:
            return f"N={self.n_index},{self.impurity_e:+g}q"
        return f"N={self.n_index}"


NOMINAL_VARIANT = DeviceVariant()


def variant_geometry(variant: DeviceVariant, polarity: int,
                     base: GNRFETGeometry | None = None) -> GNRFETGeometry:
    """Geometry of one variant ribbon as seen by its n-equivalent table."""
    base = base or GNRFETGeometry()
    charge = variant.impurity_e * (1 if polarity > 0 else -1)
    impurity = ChargeImpurity(charge_e=charge) if charge else None
    return base.with_index(variant.n_index).with_impurity(impurity)


def variant_ribbon_table(variant: DeviceVariant, polarity: int = +1,
                         base: GNRFETGeometry | None = None,
                         config: RunConfig | None = None) -> DeviceTable:
    """Intrinsic table of one variant ribbon (cached by the device layer)."""
    return build_device_table(variant_geometry(variant, polarity, base),
                              config=config)


def variant_array_table(
    variant: DeviceVariant,
    polarity: int,
    n_affected: int,
    gate_offset_v: float,
    n_ribbons: int = 4,
    base: GNRFETGeometry | None = None,
    config: RunConfig | None = None,
) -> DeviceTable:
    """Array table with ``n_affected`` variant ribbons, rest nominal.

    The common gate metal applies the same work-function offset to every
    ribbon; the offset is chosen for the *nominal* device, which is how a
    fixed design drifts when its devices vary (the mechanism behind the
    leakage explosion of small-gap variants).
    """
    if not 0 <= n_affected <= n_ribbons:
        raise ValueError(
            f"n_affected must be in [0, {n_ribbons}], got {n_affected}")
    config = RunConfig.from_env() if config is None else config
    var_tab = variant_ribbon_table(variant, polarity, base, config)
    nom_tab = variant_ribbon_table(NOMINAL_VARIANT, polarity, base, config)
    tables = [var_tab] * n_affected + [nom_tab] * (n_ribbons - n_affected)
    composed = DeviceTable.compose(
        tables, label=f"{variant.label()}x{n_affected}/{n_ribbons}")
    return composed.with_gate_offset(gate_offset_v)
