"""Tests of the RPA9xx scheduler-seam family."""

from __future__ import annotations

import textwrap

from repro.analysis.engine import run_analysis


_RUNTIME_STUBS = {
    "src/repro/runtime/parallel.py": """\
        def parallel_map(fn, items, workers=None):
            return [fn(item) for item in items]
    """,
    "src/repro/runtime/scheduler.py": """\
        from repro.runtime.parallel import parallel_map

        class Scheduler:
            def run(self, fn, tasks):
                raise NotImplementedError

        class LocalScheduler(Scheduler):
            def run(self, fn, tasks):
                return parallel_map(fn, tasks)
    """,
    "src/repro/runtime/__init__.py": """\
        from repro.runtime.parallel import parallel_map
        from repro.runtime.scheduler import LocalScheduler, Scheduler
    """,
}


def _run(tmp_path, files: dict[str, str]):
    paths = []
    for rel, source in {**_RUNTIME_STUBS, **files}.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        paths.append(path)
    return run_analysis(paths, select=["RPA9"])


class TestRPA901:
    def test_direct_call_in_exploration_fires(self, tmp_path):
        report = _run(tmp_path, {"src/repro/exploration/sweep.py": """\
            from repro.runtime import parallel_map

            def sweep(tasks):
                return parallel_map(_row, tasks)

            def _row(task):
                return task
        """})
        assert [f.code for f in report.findings] == ["RPA901"]
        assert "Scheduler" in report.findings[0].message

    def test_direct_call_in_variability_fires(self, tmp_path):
        report = _run(tmp_path, {"src/repro/variability/mc.py": """\
            from repro.runtime.parallel import parallel_map

            def sample(tasks):
                return parallel_map(_one, tasks)

            def _one(task):
                return task
        """})
        assert [f.code for f in report.findings] == ["RPA901"]

    def test_scheduler_dispatch_is_quiet(self, tmp_path):
        report = _run(tmp_path, {"src/repro/exploration/sweep.py": """\
            from repro.runtime import LocalScheduler

            def sweep(tasks, scheduler=None):
                sched = scheduler or LocalScheduler()
                return sched.run(_row, tasks)

            def _row(task):
                return task
        """})
        assert not report.findings

    def test_other_layers_are_exempt(self, tmp_path):
        report = _run(tmp_path, {"src/repro/device/tables.py": """\
            from repro.runtime import parallel_map

            def build(tasks):
                return parallel_map(_one, tasks)

            def _one(task):
                return task
        """})
        assert not report.findings

    def test_runtime_layer_is_exempt(self, tmp_path):
        # The seam's own dispatch lives in repro.runtime and is not
        # subject to the rule (the live tree also carries a noqa).
        report = _run(tmp_path, {})
        assert not report.findings

    def test_noqa_escape(self, tmp_path):
        report = _run(tmp_path, {"src/repro/exploration/sweep.py": """\
            from repro.runtime import parallel_map

            def sweep(tasks):
                return parallel_map(_row, tasks)  # repro: noqa[RPA901]

            def _row(task):
                return task
        """})
        assert not report.findings

    def test_direct_call_in_characterize_fires(self, tmp_path):
        report = _run(tmp_path, {"src/repro/characterize/runner.py": """\
            from repro.runtime import parallel_map

            def measure(ids):
                return parallel_map(_one, ids)

            def _one(eid):
                return eid
        """})
        assert [f.code for f in report.findings] == ["RPA901"]

    def test_live_code_listing(self):
        from repro.analysis.checkers import all_codes

        codes = all_codes()
        assert "RPA901" in codes
        assert "parallel_map" in codes["RPA901"]

