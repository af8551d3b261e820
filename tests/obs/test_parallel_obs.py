"""Worker metrics cross the parallel_map process boundary correctly."""

from __future__ import annotations

from repro import obs
from repro.runtime import parallel_map


def _traced_square(x: int) -> int:
    """Module-level so it pickles into worker processes."""
    with obs.span("work.item"):
        obs.incr("work.items")
        obs.observe("work.value", float(x))
    return x * x


def _sweep(workers: int | None, chunk_size: int | None = None) -> list[int]:
    with obs.span("test.sweep"):
        return parallel_map(_traced_square, range(8), workers=workers,
                            chunk_size=chunk_size)


class TestWorkerForwarding:
    def test_worker_spans_nest_under_parallel_map(self):
        obs.enable()  # workers get the flag from the pool initializer
        results = _sweep(workers=2, chunk_size=2)
        assert results == [x * x for x in range(8)]
        snap = obs.snapshot()
        assert snap["counters"]["work.items"] == 8
        # Worker spans are re-rooted under the parent's open span chain.
        key = "test.sweep/runtime.parallel_map/work.item"
        assert snap["spans"][key]["count"] == 8
        pm = snap["spans"]["test.sweep/runtime.parallel_map"]
        assert pm["attrs"]["workers"] == 2
        assert pm["attrs"]["items"] == 8

    def test_histograms_cross_the_boundary(self):
        obs.enable()
        _sweep(workers=2, chunk_size=3)
        h = obs.snapshot()["histograms"]["work.value"]
        assert h["count"] == 8
        assert h["total"] == float(sum(range(8)))
        assert h["min"] == 0.0
        assert h["max"] == 7.0

    def test_aggregation_deterministic_across_worker_counts(self):
        reference = None
        for workers in (2, 3, 4):
            obs.reset()
            obs.enable()
            _sweep(workers=workers)
            snap = obs.snapshot()
            key = (snap["counters"],
                   {n: (h["count"], h["total"], h["min"], h["max"])
                    for n, h in snap["histograms"].items()})
            if reference is None:
                reference = key
            else:
                assert key == reference
            obs.disable()

    def test_serial_path_matches_parallel_counters(self):
        obs.enable()
        _sweep(workers=1)
        serial = obs.drain()
        _sweep(workers=2)
        parallel = obs.drain()
        assert serial["counters"] == parallel["counters"]
        # Serial spans skip the parallel_map segment but the leaf span
        # count is identical.
        assert serial["spans"]["test.sweep/work.item"]["count"] == \
            parallel["spans"]["test.sweep/runtime.parallel_map/work.item"
                              ]["count"]

    def test_disabled_mode_forwards_nothing(self):
        assert obs.ACTIVE is False
        results = _sweep(workers=2, chunk_size=2)
        assert results == [x * x for x in range(8)]
        assert obs.snapshot()["spans"] == {}
        assert obs.snapshot()["counters"] == {}
