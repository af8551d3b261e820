"""Digest of every circuit transient a set of experiments runs.

Wraps :func:`repro.circuit.transient.simulate_transient` wherever the
package imported it, runs the experiments through
``repro.characterize.runner.measure`` and prints, per experiment, the
number of transients and steps, one SHA-256 over every result's time
grid, node voltages and supply traces (in call order, raw float bytes)
and every measured figure of merit by ``repr``.  Two checkouts whose
outputs are equal ran bitwise-equal transients and measured equal
figures of merit:

    REPRO_CACHE_DIR=$(mktemp -d) PYTHONPATH=src \\
        python benchmarks/transient_digest.py --ids table2,table3,table1

Give each checkout its own cache directory (``--mode full`` for the
full-size experiments).  The last line is the in-process wall time of
the whole measurement, which is not part of the comparison.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ids", required=True,
                        help="comma-separated experiment ids")
    parser.add_argument("--mode", choices=("fast", "full"), default="fast")
    args = parser.parse_args(argv)

    import repro.characterize.runner as runner
    import repro.reporting.experiments  # noqa: F401  (imports every driver)
    from repro.circuit import transient

    original = transient.simulate_transient
    digests: dict[str, list] = {}
    current: list[str] = []

    def recorded(*a, **k):
        result = original(*a, **k)
        entry = digests.setdefault(current[-1], [0, 0, hashlib.sha256()])
        entry[0] += 1
        entry[1] += len(result.time_s) - 1
        entry[2].update(result.time_s.tobytes())
        entry[2].update(result.voltages.tobytes())
        for node in sorted(result.supply_currents):
            entry[2].update(result.supply_currents[node].tobytes())
        return result

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro.")
                and getattr(module, "simulate_transient", None) is original):
            module.simulate_transient = recorded

    start = time.perf_counter()
    for eid in args.ids.split(","):
        current.append(eid)
        measured, _ = runner.measure([eid], fast=args.mode == "fast")
        runs, steps, digest = digests.get(eid, [0, 0, hashlib.sha256()])
        print(f"{eid}: {runs} transients, {steps} steps, "
              f"sha256 {digest.hexdigest()}")
        for name, value in sorted(measured[eid].items()):
            print(f"  {name} = {value!r}")
    print(f"# wall {time.perf_counter() - start:.3f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
