"""Tests of the RPA8xx hot-path hygiene family."""

from __future__ import annotations

import textwrap

from repro.analysis.engine import run_analysis


def _run(tmp_path, files: dict[str, str]):
    paths = []
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        paths.append(path)
    return run_analysis(paths, select=["RPA8"])


class TestRPA801:
    def test_unguarded_obs_record_in_loop_fires(self, tmp_path):
        # Seeded regression: counter calls in loops must stay behind
        # the ACTIVE flag or the disabled path pays per iteration.
        report = _run(tmp_path, {"src/repro/device/loopy.py": """\
            from repro import obs

            def run(items):
                for x in items:
                    obs.incr("cells")
        """})
        assert [f.code for f in report.findings] == ["RPA801"]

    def test_guarded_record_is_clean(self, tmp_path):
        report = _run(tmp_path, {"src/repro/device/loopy.py": """\
            from repro import obs

            def run(items):
                for x in items:
                    if obs.ACTIVE:
                        obs.incr("cells")
        """})
        assert report.clean

    def test_record_outside_loop_is_clean(self, tmp_path):
        report = _run(tmp_path, {"src/repro/device/loopy.py": """\
            from repro import obs

            def run(items):
                obs.incr("calls")
                return list(items)
        """})
        assert report.clean

    def test_while_loop_also_checked(self, tmp_path):
        report = _run(tmp_path, {"src/repro/device/loopy.py": """\
            from repro import obs

            def run(n):
                while n > 0:
                    obs.gauge("n", n)
                    n = n - 1
        """})
        assert [f.code for f in report.findings] == ["RPA801"]

    def test_obs_package_itself_exempt(self, tmp_path):
        report = _run(tmp_path, {"src/repro/obs/emit.py": """\
            def flush(records):
                for record in records:
                    obs.incr("flushed")
        """})
        assert report.clean


class TestRPA802:
    def test_scalar_kernel_in_loop_fires(self, tmp_path):
        report = _run(tmp_path, {"src/repro/device/scan.py": """\
            from repro.negf.greens import rgf_transmission

            def scan(energies, diag, coup, sl, sr):
                out = []
                for e in energies:
                    out.append(rgf_transmission(e, diag, coup, sl, sr))
                return out
        """})
        assert [f.code for f in report.findings] == ["RPA802"]
        assert "rgf_transmission_batched" in report.findings[0].message

    def test_transmission_only_rgf_in_loop_fires(self, tmp_path):
        # The transmission-only scalar RGF is flagged like its parent.
        report = _run(tmp_path, {"src/repro/device/scan.py": """\
            from repro.negf.greens import rgf_transmission

            def scan(energies, diag, coup, sl, sr):
                return [rgf_transmission(e, diag, coup, sl, sr)
                        for e in energies]
        """})
        assert [f.code for f in report.findings] == ["RPA802"]
        assert "rgf_transmission_batched" in report.findings[0].message

    def test_scalar_kernel_in_comprehension_fires(self, tmp_path):
        report = _run(tmp_path, {"src/repro/device/scan.py": """\
            from repro.negf.greens import rgf_transmission

            def scan(energies, diag, coup, sl, sr):
                return [rgf_transmission(e, diag, coup, sl, sr)
                        for e in energies]
        """})
        assert [f.code for f in report.findings] == ["RPA802"]

    def test_comprehension_inside_loop_fires_once(self, tmp_path):
        # The loop pass and the comprehension pass both see this call;
        # the checker must deduplicate.
        report = _run(tmp_path, {"src/repro/device/scan.py": """\
            from repro.negf.greens import rgf_transmission

            def scan(grids, diag, coup, sl, sr):
                out = []
                for energies in grids:
                    out.append([rgf_transmission(e, diag, coup, sl, sr)
                                for e in energies])
                return out
        """})
        assert [f.code for f in report.findings] == ["RPA802"]

    def test_defining_module_is_exempt(self, tmp_path):
        # A batched kernel may legitimately wrap its own scalar form.
        report = _run(tmp_path, {"src/repro/negf/greens.py": """\
            def rgf_transmission(energy, diag, coup, sl, sr):
                return energy

            def rgf_transmission_batched(energies, diag, coup, sl, sr):
                return [rgf_transmission(e, diag, coup, sl, sr)
                        for e in energies]
        """})
        assert report.clean

    def test_noqa_suppresses_legacy_path(self, tmp_path):
        report = _run(tmp_path, {"src/repro/device/scan.py": """\
            from repro.negf.greens import rgf_transmission

            def scan(energies, diag, coup, sl, sr):
                return [rgf_transmission(e, diag, coup, sl, sr)  # repro: noqa[RPA802]
                        for e in energies]
        """})
        assert report.clean
        assert report.n_noqa_suppressed == 1


class TestRPA803:
    def test_allocation_in_batched_loop_fires(self, tmp_path):
        report = _run(tmp_path, {"src/repro/negf/kernels.py": """\
            import numpy as np

            def solve_batched(z, eps, n):
                for _ in range(50):
                    rhs = np.zeros((z.shape[0], n, n), dtype=complex)
                    z = z - eps @ rhs
                return z
        """})
        assert [f.code for f in report.findings] == ["RPA803"]

    def test_stacked_identity_in_batched_loop_fires(self, tmp_path):
        report = _run(tmp_path, {"src/repro/negf/kernels.py": """\
            from repro.negf.utils import stacked_identity

            def solve_batched(z, eps, n):
                for _ in range(50):
                    z = z - stacked_identity(z.shape[0], n)
                return z
        """})
        assert [f.code for f in report.findings] == ["RPA803"]

    def test_hoisted_allocation_is_clean(self, tmp_path):
        report = _run(tmp_path, {"src/repro/negf/kernels.py": """\
            from repro.negf.utils import stacked_identity

            def solve_batched(z, eps, n):
                ident = stacked_identity(z.shape[0], n)
                for _ in range(50):
                    z = z - ident
                return z
        """})
        assert report.clean

    def test_non_batched_function_not_flagged(self, tmp_path):
        # The allocation-in-loop rule is scoped to *_batched kernels;
        # ordinary functions allocate freely.
        report = _run(tmp_path, {"src/repro/device/setup.py": """\
            import numpy as np

            def assemble(blocks, n):
                out = []
                for block in blocks:
                    out.append(np.zeros((n, n)))
                return out
        """})
        assert report.clean
