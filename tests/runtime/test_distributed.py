"""Scheduler resolution after the distributed scheduler's retirement.

Dispatch is local-only: the retired ``REPRO_SCHEDULER`` knob must not
change what :func:`~repro.runtime.scheduler.resolve_scheduler` returns,
so an environment left over from older runs still resolves to a
:class:`~repro.runtime.scheduler.LocalScheduler` (or to the caller's
explicit instance).
"""

from __future__ import annotations

from repro.runtime.scheduler import LocalScheduler, resolve_scheduler

RETIRED_SCHEDULER_ENV = "REPRO_SCHEDULER"


class TestResolveScheduler:
    def test_default_is_local(self, monkeypatch):
        monkeypatch.setenv(RETIRED_SCHEDULER_ENV, "distributed")
        assert isinstance(resolve_scheduler(), LocalScheduler)

    def test_explicit_instance_wins(self, monkeypatch):
        monkeypatch.setenv(RETIRED_SCHEDULER_ENV, "distributed")
        mine = LocalScheduler()
        assert resolve_scheduler(mine) is mine
