"""NEGFDevice electrostatics: the channel-row response against Poisson.

``NEGFDevice._solve_poisson_midgap`` is a matvec with the precomputed
response of the channel row (``_channel_response``).  The oracle is the
full 2-D solve it replaced, ``OperatorNEGFDevice`` of
``tests/device/negf_reference.py``: a
:class:`repro.poisson.fd.PoissonOperator` on the same cross-section,
read on the channel row.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.device.geometry import ChargeImpurity, GNRFETGeometry
from repro.device.negf_device import NEGFDevice, _channel_response
from tests.device import negf_reference as ref

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.mark.parametrize("n_x, n_y", [(31, 11), (51, 11), (61, 15)])
def test_response_matches_poisson_operator(n_x, n_y):
    """Random sheet charges (densities from 1e-3 to 10 per nm, both
    signs) and random (V_G, V_D): the response equals the operator's
    channel row to 1e-13 of the profile, and pins the contacts exactly."""
    geometry = GNRFETGeometry(n_index=12,
                              impurity=ChargeImpurity(charge_e=-2.0))
    device = NEGFDevice(geometry, n_x=n_x, n_y=n_y)
    oracle = ref.OperatorNEGFDevice(geometry, n_x=n_x, n_y=n_y)
    rng = np.random.default_rng(n_x * n_y)
    for _ in range(20):
        net = rng.normal(scale=10.0 ** rng.uniform(-3.0, 1.0), size=n_x)
        vg, vd = rng.uniform(-1.0, 1.0, size=2)
        new = device._solve_poisson_midgap(net, vg, vd)
        old = oracle._solve_poisson_midgap(net, vg, vd)
        assert np.max(np.abs(new - old)) <= 1e-13 * np.max(np.abs(old))
        assert new[0] == old[0] and new[-1] == old[-1]


class TestSharing:
    def test_equal_electrostatics_share_a_read_only_array(self):
        """An impurity changes only U_imp: both devices read the same
        response, which no device can write."""
        plain = NEGFDevice(GNRFETGeometry(n_index=12), n_x=31, n_y=11)
        charged = NEGFDevice(GNRFETGeometry(
            n_index=12, impurity=ChargeImpurity(charge_e=2.0)),
            n_x=31, n_y=11)
        assert charged._response is plain._response
        assert not plain._response.flags.writeable

    def test_oxide_permittivity_gets_its_own_response(self):
        base = NEGFDevice(GNRFETGeometry(n_index=12), n_x=31, n_y=11)
        high_k = NEGFDevice(GNRFETGeometry(n_index=12, eps_ox=16.0),
                            n_x=31, n_y=11)
        assert high_k._response is not base._response
        assert not np.array_equal(high_k._response, base._response)

    def test_builds_and_solves_are_counted(self, monkeypatch):
        monkeypatch.setattr(obs, "ACTIVE", True)
        obs.reset()
        _channel_response.cache_clear()
        try:
            for q in (-2.0, 0.0, 2.0):
                impurity = ChargeImpurity(charge_e=q) if q else None
                device = NEGFDevice(GNRFETGeometry(
                    n_index=12, impurity=impurity), n_x=31, n_y=11)
                device._solve_poisson_midgap(np.zeros(31), 0.1, 0.5)
            counters = obs.snapshot()["counters"]
        finally:
            obs.reset()
        assert counters["poisson.response_builds"] == 1
        assert counters["poisson.response_solves"] == 3


def _scipy_modules_after(script: str, tmp_path) -> str:
    """Sorted ``scipy*`` modules a fresh interpreter holds after
    ``script``."""
    code = (script + "\nimport sys\nprint(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy'))")
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_fig5_solve_loads_no_scipy(tmp_path):
    """A Fig. 5 bias point (fast grid) runs on numpy alone."""
    script = ("from repro.device.geometry import GNRFETGeometry\n"
              "from repro.device.negf_device import NEGFDevice\n"
              "NEGFDevice(GNRFETGeometry(n_index=12), n_x=31,"
              " n_y=11).solve(0.1, 0.5)")
    assert _scipy_modules_after(script, tmp_path) == "[]"


def test_import_fd_loads_no_scipy(tmp_path):
    """The stencil module imports scipy only inside PoissonOperator."""
    assert _scipy_modules_after("import repro.poisson.fd",
                                tmp_path) == "[]"
