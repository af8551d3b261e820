"""End-to-end benchmark of the reproduction pipeline, with layer tracing.

One run measures one workload for ``--seconds`` and prints every metric
by name with its unit; the last line of standard output is one JSON
record ``{"correct", "attempted", "failed", "metrics"}``:

    python3 benchmarks/e2e/run.py --workload circuits_warm --seed 3 \
        --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (see ``README.md``).  Without ``--workload`` the script
runs a whole set -- a fresh prewarmed cache, ``--rounds`` untraced
rounds of every workload and one traced round -- and writes it as JSON:

    python3 benchmarks/e2e/run.py [--seed N] [--rounds R] \
        [--workloads a,b] [--out F] [--write-baseline]

A run is a closed loop of passes: each pass is one child process
(``child.py``) that runs the workload's experiments in a seed-permuted
order and diffs every figure of merit against ``goldens/``.  The seed
permutes only workload and experiment order; the program sees only
experiment ids and a mode.

The benchmark and its children are pinned to one CPU.  Every
:data:`PROBE_INTERVAL_S` the parent stops the child and times a fixed
Python loop on that CPU (:func:`probe_time`); end-to-end times are
divided by the pass's median slowdown of that loop against
:data:`REFERENCE_PROBE_S`, raised to the workload's ``sensitivity``.
They are seconds at the reference speed of the box, which takes out
most of the speed swings that other tenants of a shared host cause (see
``README.md``); the unscaled times are kept in the records as
``raw_*``.

Everything a run writes lands under ``benchmarks/e2e/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layers  # sibling modules
from compare import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
CHILD = HERE / "child.py"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
BASELINE_DIR = HERE / "baseline"

#: Environment of every child, and nothing else: inherited ``REPRO_*``
#: switches (tracing, workers, faults, engines, ...) never leak in.
PINNED_ENV = {
    "PYTHONPATH": "src",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: Wall-clock cap of one child pass; a hung pass fails the run.
PASS_TIMEOUT_S = 150.0

#: Seconds between two speed probes while a child runs.
PROBE_INTERVAL_S = 0.1

#: Median duration of :func:`probe_time` on the reference box (a 2-vCPU
#: Intel Xeon VM, Python 3.11) when no other tenant slows it down.
REFERENCE_PROBE_S = 1.40e-3


@dataclass(frozen=True)
class Workload:
    """Experiments, mode and cache state of one workload.

    ``sensitivity`` is how strongly host contention slows the workload
    compared with the probe loop: a pass slowed by a factor ``s`` on the
    probe takes ``s ** sensitivity`` times as long (fitted over passes in
    busy and quiet spells; see ``README.md``).
    """

    ids: tuple[str, ...]
    mode: str
    warm: bool
    sensitivity: float = 1.0


WORKLOADS = {
    # Table builds and cache writes: three fresh device tables per pass
    # (N=12 at 300 K and 400 K, one oxide variant), few transients.  About
    # 80% of a pass is the array WKB integral of SBFETModel.transmission,
    # which contention slows less than scalar Python.
    "tables_cold": Workload(("fig2", "ext-temperature", "ext-oxide"),
                            "fast", warm=False, sensitivity=0.7),
    # Cache reads plus many small inverter-chain transients, no builds;
    # Table 1 in fast mode adds the ring estimates and the CMOS rows.
    "circuits_warm": Workload(("table2", "table3", "table1"), "fast",
                              warm=True),
    # Same layers used differently: dense exploration sweep, Monte Carlo,
    # latch DC Newton, uncached 2-column sweeps, NEGF+Poisson.
    "explore_full": Workload(("fig3", "fig6", "ext-yield", "fig7", "fig4",
                              "fig5", "ext-roughness"), "full", warm=True),
}

#: Every experiment any workload runs, in first-use order.
EXPERIMENT_IDS = tuple(dict.fromkeys(
    eid for w in WORKLOADS.values() for eid in w.ids))

E2E_METRICS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
               "peak_rss_mb": "MB"}

#: End-to-end times that are scaled to the reference speed.
SCALED = ("wall_s", "setup_s", "cpu_s")

#: Per-pass speed diagnostics kept beside the metrics.
PROBE_KEYS = ("slowdown", "probe_s")


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed prewarm)."""


# --------------------------------------------------------------------- #
# inputs and environment
# --------------------------------------------------------------------- #
def experiment_order(workload: str, rng: random.Random) -> list[str]:
    """One seeded permutation of a workload's experiments."""
    ids = list(WORKLOADS[workload].ids)
    rng.shuffle(ids)
    return ids


def workload_order(names: list[str], seed: int, round_index: int
                   ) -> list[str]:
    """Seeded permutation of the workloads for one round of a set."""
    order = list(names)
    random.Random(f"{seed}:{round_index}").shuffle(order)
    return order


def check_sources() -> None:
    """Refuse to run outside a full checkout of the repository."""
    missing = [p for p in ("src/repro/__init__.py", "goldens")
               if not (ROOT / p).exists()]
    if missing:
        raise BenchmarkError(
            f"not a checkout of the repository: {', '.join(missing)} "
            f"missing under {ROOT}")


def pin_cpu() -> None:
    """Pin this process, and so every child, to the last allowed CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def source_digest() -> str:
    """Content hash of ``src/``: warm caches are keyed by the code."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def child_env(cache_dir: Path) -> dict[str, str]:
    home = OUT / "home"
    home.mkdir(parents=True, exist_ok=True)
    return {**PINNED_ENV, "PATH": os.environ.get("PATH", os.defpath),
            "HOME": str(home), "REPRO_CACHE_DIR": str(cache_dir)}


def git_state() -> tuple[str, bool | None]:
    """``(revision, dirty)``, or ``("unknown", None)`` outside git.

    Only a ``.git`` at the checkout root counts: git is never allowed to
    search the directories above it.
    """
    if not (ROOT / ".git").exists():
        return "unknown", None
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode != 0:
            return "unknown", None
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
        return rev.stdout.strip(), bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", None


def fingerprint(seed: int, rounds: int | None,
                versions: dict[str, str]) -> dict:
    rev, dirty = git_state()
    return {"git_rev": rev, "dirty": dirty, "source": source_digest(),
            "python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "cpu": sorted(os.sched_getaffinity(0)),
            "env": PINNED_ENV, "seed": seed, "rounds": rounds,
            "reference_probe_s": REFERENCE_PROBE_S}


# --------------------------------------------------------------------- #
# one pass
# --------------------------------------------------------------------- #
def probe_time() -> float:
    """Seconds a fixed pure-Python loop takes on the pinned CPU now."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(15_000):
        acc += (i * 0.5) % 3.0
    return time.perf_counter() - start


def run_pass(ids: list[str], mode: str, cache_dir: Path,
             trace: bool = False, sensitivity: float = 1.0) -> dict:
    """Run one child over ``ids``: its result file, rusage and speed.

    A child that crashes or times out comes back with ``"error"`` set
    and every figure of merit of ``ids`` counted as failed.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / f"pass-{os.getpid()}.json"
    log_path = OUT / f"pass-{os.getpid()}.log"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), "--ids", ",".join(ids),
           "--mode", mode, "--result", str(result_path),
           "--goldens", str(ROOT / "goldens")]
    if trace:
        cmd.append("--trace")
    with open(log_path, "wb") as log:
        spawned_at = time.perf_counter()
        proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)],
                                cwd=ROOT, env=child_env(cache_dir),
                                stdout=subprocess.DEVNULL, stderr=log)
        status, usage, probes = _wait(proc)
    if status == 0 and result_path.is_file():
        result = json.loads(result_path.read_text())
        result_path.unlink()
    else:
        declared = _declared_foms(ids)
        tail = log_path.read_text(errors="replace")[-2000:]
        result = {"foms_checked": declared, "foms_failed": declared,
                  "failures": [], "error": tail or f"exit status {status}"}
    log_path.unlink(missing_ok=True)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # KiB on Linux
    result["probe_s"] = statistics.median(probes)
    result["slowdown"] = (result["probe_s"]
                          / REFERENCE_PROBE_S) ** sensitivity
    for name in SCALED:
        if name in result:
            result[f"raw_{name}"] = result[name]
            result[name] /= result["slowdown"]
    return result


def _wait(proc: subprocess.Popen
          ) -> tuple[int | None, os.struct_rusage, list[float]]:
    """Reap ``proc`` with ``os.wait4`` (its own rusage), timing
    :func:`probe_time` every :data:`PROBE_INTERVAL_S` meanwhile.

    The child is stopped (``SIGSTOP``) while the probe runs, so that it
    measures the CPU and not the scheduler sharing it with the child.  The
    child is killed after :data:`PASS_TIMEOUT_S`, or when this process is
    being stopped.  Returns ``(exit code, or None on timeout; rusage;
    probe times)``.
    """
    deadline = time.monotonic() + PASS_TIMEOUT_S
    probes: list[float] = []
    try:
        while True:
            time.sleep(PROBE_INTERVAL_S)
            if time.monotonic() > deadline:
                proc.kill()
                _, _, usage = os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                return None, usage, probes or [probe_time()]
            os.kill(proc.pid, signal.SIGSTOP)
            _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage, probes or [probe_time()]
            try:
                probes.append(probe_time())
            finally:
                os.kill(proc.pid, signal.SIGCONT)
    except BaseException:
        if proc.returncode is None:
            proc.kill()
            os.wait4(proc.pid, 0)
        raise


def _declared_foms(ids: list[str]) -> int:
    """Figures of merit the goldens declare for ``ids`` (at least 1)."""
    total = 0
    for eid in ids:
        try:
            modes = json.loads(
                (ROOT / "goldens" / f"{eid}.json").read_text())["modes"]
            total += max(len(block) for block in modes.values())
        except (OSError, ValueError, KeyError):
            total += 1
    return total


# --------------------------------------------------------------------- #
# caches
# --------------------------------------------------------------------- #
def prewarm(cache_dir: Path) -> float:
    """Fill ``cache_dir`` with one untimed pass of every warm workload.

    Built beside the target and renamed into place, so a half-built
    cache is never taken for a warm one.  Returns the seconds spent.
    """
    start = time.perf_counter()
    staging = cache_dir.with_name(f"{cache_dir.name}.tmp{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    for name, workload in WORKLOADS.items():
        if not workload.warm:
            continue
        result = run_pass(list(workload.ids), workload.mode, staging)
        if result.get("error") or result["foms_failed"]:
            shutil.rmtree(staging, ignore_errors=True)
            raise BenchmarkError(
                f"prewarm pass of {name} failed: "
                f"{result.get('error') or result['failures']}")
    shutil.rmtree(cache_dir, ignore_errors=True)
    staging.rename(cache_dir)
    return time.perf_counter() - start


def checkout_warm_cache() -> Path:
    """The warm cache of this source tree, prewarmed on first use.

    Keyed by :func:`source_digest` and the workloads, so a cache is never
    shared between two versions of the code; stale caches are removed.
    """
    key = hashlib.sha256(
        f"{source_digest()}{sorted(WORKLOADS.items())}".encode())
    cache_dir = OUT / f"warm-{key.hexdigest()[:16]}"
    if not cache_dir.is_dir():
        for stale in OUT.glob("warm-*"):
            shutil.rmtree(stale, ignore_errors=True)
        seconds = prewarm(cache_dir)
        print(f"prewarm: {seconds:.1f} s into {cache_dir.relative_to(ROOT)}")
    return cache_dir


def cache_listing(cache_dir: Path) -> dict[str, int]:
    """``{relative path: size}`` of every file under ``cache_dir``."""
    return {str(p.relative_to(cache_dir)): p.stat().st_size
            for p in sorted(cache_dir.rglob("*")) if p.is_file()}


# --------------------------------------------------------------------- #
# one run of one workload
# --------------------------------------------------------------------- #
def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 warm_dir: Path) -> dict:
    """Closed loop of passes for about ``seconds``; the run record.

    A new pass starts while at least half of it (judged by the last
    one) fits in the window, so the pass count is stable against small
    speed changes.  A traced run alternates untraced and traced passes,
    starting untraced: the untraced ones are the reference of
    ``trace_overhead_frac``.  Every pass is checked against the goldens;
    a warm workload also fails if it wrote to the warm cache.
    """
    workload = WORKLOADS[name]
    rng = random.Random(seed)
    before = cache_listing(warm_dir) if workload.warm else None
    passes: list[dict] = []
    start = time.perf_counter()
    last_s = 0.0
    while (len(passes) < (2 if trace else 1)
           or time.perf_counter() - start + 0.5 * last_s <= seconds):
        pass_start = time.perf_counter()
        ids = experiment_order(name, rng)
        if workload.warm:
            cache_dir = warm_dir
        else:
            cache_dir = OUT / f"cold-{os.getpid()}"
            shutil.rmtree(cache_dir, ignore_errors=True)
        traced = trace and len(passes) % 2 == 1
        result = run_pass(ids, workload.mode, cache_dir, trace=traced,
                          sensitivity=workload.sensitivity)
        result["traced"] = traced
        if not workload.warm:
            shutil.rmtree(cache_dir, ignore_errors=True)
        passes.append(result)
        last_s = time.perf_counter() - pass_start
    problems = [p["error"] for p in passes if p.get("error")]
    problems += [f for p in passes for f in p["failures"]]
    if before is not None and cache_listing(warm_dir) != before:
        problems.append("warm cache changed during the run")
    ok = [p for p in passes if not p.get("error")]
    plain = [p for p in ok if not p["traced"]]
    if trace:
        metrics = layer_metrics([p for p in ok if p["traced"]], plain)
        if workload.warm and metrics["device.table_builds"] != 0:
            problems.append("prewarm missed: a warm workload built tables")
    else:
        metrics = {m: _median([p[m] for p in plain]) for m in E2E_METRICS}
    value_keys = list(E2E_METRICS) + [f"raw_{m}" for m in SCALED]
    return {
        "workload": name, "seed": seed, "trace": trace,
        "correct": not problems,
        "attempted": sum(p["foms_checked"] for p in passes),
        "failed": sum(p["foms_failed"] for p in passes),
        "problems": problems[:20],
        "passes": len(passes),
        "pass_values": {k: [p[k] for p in plain]
                        for k in value_keys + list(PROBE_KEYS)},
        "versions": next((p["versions"] for p in ok), {}),
        "metrics": metrics,
        "spans": next((p["spans"] for p in reversed(ok) if p["traced"]),
                      None),
    }


def layer_metrics(traced: list[dict], plain: list[dict]
                  ) -> dict[str, float]:
    """Per-layer metrics of a traced run: medians over traced passes.

    Span times are not scaled; ``trace_overhead_frac`` compares scaled
    wall times, so a speed change between passes does not enter it.
    """
    names = layers.metric_names(EXPERIMENT_IDS)
    if not traced:
        return dict.fromkeys(names, 0.0)
    out = {}
    for name in names:
        if name.startswith("reporting.") and name.endswith(".total_s"):
            eid = name[len("reporting."):-len(".total_s")]
            out[name] = _median([p["requests"].get(eid, 0.0)
                                 for p in traced])
        elif name != "trace_overhead_frac":
            out[name] = _median([p["layers"][name] for p in traced])
    plain_wall = _median([p["wall_s"] for p in plain])
    out["trace_overhead_frac"] = (
        _median([p["wall_s"] for p in traced]) / plain_wall - 1.0
        if plain_wall else 0.0)
    return {name: out[name] for name in names}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# --------------------------------------------------------------------- #
# output
# --------------------------------------------------------------------- #
def metric_unit(name: str) -> str:
    if name in E2E_METRICS:
        return E2E_METRICS[name]
    return layers.metric_unit(name)[0]


def print_run(record: dict) -> None:
    """Human-readable lines for one run (never the last line)."""
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {int(record['trace'])}: {record['passes']} passes, "
          f"{record['failed']}/{record['attempted']} figures of merit "
          f"failed")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    if record["trace"]:
        for name, value in record["metrics"].items():
            print(f"  {name:<44} {value:16.6g} {metric_unit(name)}")
        return
    for name, values in record["pass_values"].items():
        if values:
            unit = {"slowdown": "x"}.get(name) or metric_unit(
                name.removeprefix("raw_").removeprefix("probe_"))
            q1, q2, q3 = quartiles(values)
            print(f"  {name:<14} {q2:12.4f} {unit:<5} "
                  f"(passes: q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})")


def result_line(record: dict) -> str:
    """The final JSON line of a run."""
    return json.dumps({
        "correct": record["correct"],
        "attempted": max(1, record["attempted"]),
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": metric_unit(name)}
                    for name, value in record["metrics"].items()},
    })


def write_trace(record: dict, fp: dict) -> Path:
    """``out/trace-<workload>.json``: layer metrics plus the spans of
    the last traced pass as ``[name, start, end, parent, request]``."""
    path = OUT / f"trace-{record['workload']}.json"
    path.write_text(json.dumps({
        "schema": "repro-e2e-trace/1", "fingerprint": fp,
        "workload": record["workload"], "metrics": record["metrics"],
        "spans": record["spans"]}))
    return path


def strip(record: dict) -> dict:
    """A run record without its spans, for set files."""
    return {k: v for k, v in record.items() if k != "spans"}


# --------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------- #
def single_run(args: argparse.Namespace) -> int:
    warm_dir = checkout_warm_cache()
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), warm_dir)
    print_run(record)
    fp = fingerprint(args.seed, None, record["versions"])
    print(f"fingerprint: {json.dumps(fp)}")
    if record["trace"]:
        print(f"trace: {write_trace(record, fp).relative_to(ROOT)}")
    print(result_line(record))
    return 0


def run_set(seed: int, rounds: int, names: list[str], seconds: float,
            label: str) -> dict:
    """One independent set: fresh prewarmed cache, ``rounds`` untraced
    rounds and one traced round, workloads in seeded order per round."""
    cache_dir = OUT / f"set-{label}" / "cache"
    shutil.rmtree(cache_dir.parent, ignore_errors=True)
    cache_dir.parent.mkdir(parents=True)
    prewarm_s = prewarm(cache_dir)
    print(f"set {label}: prewarm {prewarm_s:.1f} s")
    runs: dict[str, list[dict]] = {name: [] for name in names}
    traced: dict[str, dict] = {}
    for index in range(rounds + 1):
        trace = index == rounds
        for name in workload_order(names, seed, index):
            record = run_workload(name, seed * 1000 + index, seconds,
                                  trace, cache_dir)
            print_run(record)
            if trace:
                traced[name] = record
            else:
                runs[name].append(record)
    versions = next(iter(traced.values()))["versions"] if traced else {}
    fp = fingerprint(seed, rounds, versions)
    for record in traced.values():
        write_trace(record, fp)
    shutil.rmtree(cache_dir.parent, ignore_errors=True)
    return {
        "schema": "repro-e2e-set/1", "label": label, "fingerprint": fp,
        "seconds": seconds, "prewarm_s": prewarm_s,
        "workloads": {name: {"runs": [strip(r) for r in runs[name]],
                             "traced": strip(traced[name])}
                      for name in names},
    }


def set_ok(data: dict) -> bool:
    return all(r["correct"] for w in data["workloads"].values()
               for r in w["runs"] + [w["traced"]])


def print_set(data: dict) -> None:
    print(f"set {data['label']} ({data['fingerprint']['git_rev'][:12]}, "
          f"source {data['fingerprint']['source']})")
    for name, w in data["workloads"].items():
        attempted = sum(r["attempted"] for r in w["runs"])
        failed = sum(r["failed"] for r in w["runs"])
        print(f"  {name}: fail_frac {failed / max(attempted, 1):.4f} "
              f"(foms_checked {attempted})")
        for metric in E2E_METRICS:
            values = [r["metrics"][metric] for r in w["runs"]]
            q1, q2, q3 = quartiles(values)
            print(f"    {metric:<12} {q2:12.4f} {metric_unit(metric):<3}"
                  f" (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})")


def set_mode(args: argparse.Namespace) -> int:
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        raise BenchmarkError(f"unknown workloads {unknown}; "
                             f"known: {list(WORKLOADS)}")
    labels = ["A", "B"] if args.write_baseline else [f"seed{args.seed}"]
    sets = []
    for offset, label in enumerate(labels):
        data = run_set(args.seed + offset, args.rounds, names, args.seconds,
                       label)
        print_set(data)
        sets.append(data)
    if args.write_baseline:
        BASELINE_DIR.mkdir(exist_ok=True)
        for data in sets:
            path = BASELINE_DIR / f"set{data['label']}.json"
            path.write_text(json.dumps(data, indent=1) + "\n")
            print(f"wrote {path.relative_to(ROOT)}")
    else:
        out = args.out or OUT / f"set-seed{args.seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(sets[0], indent=1) + "\n")
        print(f"wrote {out}")
    return 0 if all(set_ok(s) for s in sets) else 1


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark with outside-in layer tracing.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="measure one run of one workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=3,
                        help="untraced rounds of a set")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated workloads of a set")
    parser.add_argument("--out", type=Path, default=None,
                        help="set file to write")
    parser.add_argument("--write-baseline", action="store_true",
                        help="run sets A and B into baseline/")
    return parser.parse_args(argv)


def _stop(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _stop)  # reap the child on the way out
    try:
        check_sources()
        pin_cpu()
        if args.seconds is None:
            args.seconds = json.loads(
                BENCHMARK_JSON.read_text())["run_seconds"]
        if args.workload is None:
            return set_mode(args)
        return single_run(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
