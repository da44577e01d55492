#!/usr/bin/env python3
"""The repository benchmark: S5 compliance, blind fuzz, guided campaign.

Usage (from the repository root)::

    python3 perfbench/run.py --workload compliance --seed 0 --seconds 30
    python3 perfbench/run.py --workload fuzz-blind --seed 0 --trace 1
    python3 perfbench/run.py --workload all

An untraced run (``--trace 0``) runs a fixed number of units of the
workload -- as many as its nominal unit cost fits into ``--seconds``,
at least one -- and reports the end-to-end metrics as medians over the
units.  The count never depends on how fast the machine is, so the
same arguments always attempt the same operations.  A traced run
(``--trace 1``) runs one unit three ways -- at the workload's own
``jobs`` with only the pool wrapped, untraced at ``jobs=1``, and traced
at ``jobs=1`` so every wrapped call happens in this process -- and
reports the per-layer metrics.  Every unit checks its outputs; the two
``jobs`` settings must agree byte for byte.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 1 when a correctness check failed
and 2 when the repository sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import multiprocessing
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
NAMES = ("compliance", "fuzz-blind", "fuzz-guided")

#: End-to-end metrics every untraced run reports: name -> unit.
END_TO_END = {"cold_s": "s", "programs_per_s": "1/s",
              "setup_s": "s", "peak_rss_mb": "MB"}

#: Setup-time samples per run (each a fresh process).
SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print 'ready', exit "
                             "(the setup_s probe)")
    return parser.parse_args(argv)


def missing_sources() -> list[str]:
    needed = (ROOT / "src" / "repro" / "__init__.py",
              ROOT / "tests" / "golden" / "compliance.txt")
    return [str(path.relative_to(ROOT)) for path in needed
            if not path.is_file()]


# -- measurement ----------------------------------------------------------

def worker_rss_kb() -> int:
    """Summed peak RSS of this process's live children (the pool's
    workers), from ``/proc``; 0 where it is unreadable."""
    total = 0
    for child in multiprocessing.active_children():
        try:
            status = pathlib.Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total += int(line.split()[1])
    return total


class Runner:
    """Runs units of one workload in scratch directories under
    ``scratch``, and records the memory peak of the first unit."""

    def __init__(self, workload, scratch: pathlib.Path):
        self.workload = workload
        self.scratch = scratch
        self.peak_rss_mb: float | None = None
        self._count = 0

    def unit(self, index: int, jobs: int):
        """``(result, wall seconds)`` of one unit."""
        directory = self.scratch / f"unit-{self._count}"
        self._count += 1
        directory.mkdir()
        gc.collect()
        start = time.perf_counter()
        result = self.workload.unit(index, directory, jobs)
        wall = time.perf_counter() - start
        if self.peak_rss_mb is None:
            self.peak_rss_mb = first_unit_peak_mb()
        shutil.rmtree(directory, ignore_errors=True)
        return result, wall


def first_unit_peak_mb() -> float:
    """Peak memory of this process plus its pool workers so far.

    Taken after a run's first unit, so it does not grow with the
    number of units a run fits.  The workers are still alive then (the
    pool is rebuilt by the next unit); a worker already reaped counts
    through RUSAGE_CHILDREN, which holds the largest one.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + max(worker_rss_kb(), reaped)) / 1024


@contextlib.contextmanager
def scratch_space():
    """A scratch directory in the checkout for every file a run writes.

    Temporary files of the package and its workers go there too, the
    default disk-cache location points into it, and it is removed --
    after the pool's workers are stopped -- when the block ends.
    """
    from repro.perf import shutdown_workers

    scratch = pathlib.Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    saved_tempdir = tempfile.tempdir
    saved_env = {key: os.environ.get(key)
                 for key in ("TMPDIR", "REPRO_CACHE_DIR")}
    tempfile.tempdir = str(scratch)
    os.environ["TMPDIR"] = str(scratch)
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "default-disk-cache")
    try:
        yield scratch
    finally:
        shutdown_workers()
        tempfile.tempdir = saved_tempdir
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutil.rmtree(scratch, ignore_errors=True)


def unit_count(workload, seconds: float) -> int:
    """Units an untraced run makes: as many as the workload's nominal
    unit cost fits into ``seconds``, at least one."""
    return max(1, int(seconds / workload.unit_s))


def untraced(runner: Runner, seconds: float):
    """:func:`unit_count` units, so that a run's work -- and with it
    its attempted and failed counts -- is a function of its arguments,
    not of the machine's speed."""
    return [runner.unit(index, runner.workload.jobs)[0]
            for index in range(unit_count(runner.workload, seconds))]


def traced(runner: Runner):
    """The three passes over unit 0; returns ``(results, metrics)``."""
    from layers import Tracer

    jobs = runner.workload.jobs
    pool = Tracer()
    pool.install(layers=False, pool=True)
    try:
        pooled, _ = runner.unit(0, jobs)
    finally:
        pool.uninstall()
    # Pass 2 is the overhead's baseline even at jobs=1: pass 1 also
    # pays the process's first-unit warm-up, which the traced pass 3
    # does not.
    plain, plain_wall = runner.unit(0, 1)
    results = [pooled, plain]
    tracer = Tracer()
    tracer.install()
    try:
        result, wall = runner.unit(0, 1)
    finally:
        tracer.uninstall()
    results.append(result)
    for other in results[:-1]:
        if other.signature != result.signature:
            result.problems.append(
                "the traced jobs=1 pass and an untraced pass produced "
                "different outputs")
    return results, layer_metrics(tracer, pool, result, wall, plain_wall)


def layer_metrics(tracer, pool, result, traced_wall: float,
                  untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric: name -> (value, unit)."""
    metrics: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    def calls_and(layer, timing="self_s"):
        stats = tracer.stats(layer)
        put(f"{layer}.calls", stats.calls, "count")
        put(f"{layer}.{timing}",
            stats.self_s if timing == "self_s" else stats.incl_s, "s")
        return stats

    for layer in ("core.parse", "core.optimise", "core.elaborate",
                  "core.thread"):
        calls_and(layer)
    put("core.elaborate.ir_ops",
        tracer.stats("core.elaborate").counters.get("ir_ops", 0), "count")
    execute = tracer.stats("core.execute")
    executed = execute.counters.get("executed", 0)
    put("core.execute.runs", execute.calls, "count")
    put("core.execute.executed", executed, "count")
    put("core.execute.memo_hits", execute.calls - executed, "count")
    put("core.execute.self_s", execute.self_s, "s")
    for layer in ("memory.load", "memory.store", "memory.alloc",
                  "memory.free"):
        calls_and(layer)
    for key, value in sorted(result.cache.items()):
        put(f"perf.cache.{key}", value, "count")
    load = calls_and("perf.disk.load")
    hits = load.counters.get("hits", 0)
    put("perf.disk.load.hits", hits, "count")
    store = calls_and("perf.disk.store")
    put("perf.disk.reads_per_write",
        hits / store.calls if store.calls else 0.0, "ratio")
    mapped = pool.stats("perf.pool")
    put("perf.pool.map_s", mapped.incl_s, "s")
    put("perf.pool.items", mapped.counters.get("items", 0), "count")
    put("perf.pool.failed", mapped.counters.get("failed", 0), "count")
    calls_and("fuzz.generate")
    calls_and("fuzz.oracle", "incl_s")
    calls_and("fuzz.coverage", "incl_s")
    put("fuzz.coverage.ops_covered",
        result.notes.get("campaign_ops_covered", (0,))[0], "count")
    calls_and("fuzz.corpus.write")
    calls_and("fuzz.corpus.read")
    shrink = calls_and("fuzz.shrink", "incl_s")
    put("fuzz.shrink.predicate_evals",
        shrink.counters.get("predicate_evals", 0), "count")
    shrunk = result.notes.get("shrunk_groups", (0,))[0]
    useful = result.notes.get("useful_groups", (0,))[0]
    put("fuzz.shrink.useful_ratio", useful / shrunk if shrunk else 0.0,
        "ratio")
    put("obs.emit.calls",
        tracer.stats("obs.emit").counters.get("calls", 0), "count")
    put("unaccounted_s", traced_wall - tracer.self_total(), "s")
    put("traced_wall_s", traced_wall, "s")
    put("untraced_wall_s", untraced_wall, "s")
    put("trace_overhead_s", traced_wall - untraced_wall, "s")
    put("failed_share", result.failed / result.programs
        if result.programs else 0.0, "ratio")
    return metrics


def setup_seconds(args) -> list[float]:
    """Wall time from spawning a fresh process to its workload being
    set up (imports, registry, inputs), :data:`SETUP_PROBES` times."""
    samples = []
    command = [sys.executable, str(BENCH / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              text=True) as probe:
            line = probe.stdout.readline()
            samples.append(time.perf_counter() - start)
            probe.stdout.read()
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"setup probe failed: {line!r}")
    return samples


def machine() -> dict:
    from workloads import WORKLOADS
    return {"cores": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "start_method": multiprocessing.get_start_method(),
            "jobs": {name: cls.jobs for name, cls in WORKLOADS.items()}}


# -- reporting ------------------------------------------------------------

def emit(correct: bool, attempted: int, failed: int,
         metrics: dict[str, tuple[float, str]], lines: list[str]) -> int:
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


def run_one(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    with scratch_space() as scratch:
        runner = Runner(workload, scratch)
        if args.trace:
            results, metrics = traced(runner)
        else:
            results = untraced(runner, args.seconds)

    attempted = sum(r.programs for r in results)
    failed = sum(r.failed for r in results)
    problems = [p for r in results for p in r.problems]
    lines = [f"workload {workload.name}  seed {args.seed}  "
             f"jobs {workload.jobs}  units {len(results)}  "
             f"trace {args.trace}",
             "machine " + json.dumps(machine(), sort_keys=True),
             f"failed_share {failed / attempted:.6g}  "
             f"(failed {failed} of {attempted} attempted)"]
    lines += [f"CHECK FAILED: {p}" for p in problems]
    if not args.trace:
        count = len(results)
        lines.append(f"medians of {count} unit(s); setup_s median of "
                     f"{SETUP_PROBES} fresh processes")
        for name, (_, unit) in results[0].notes.items():
            value = statistics.median(r.notes[name][0] for r in results)
            lines.append(f"  {name:32s} {value:14.6g} {unit:5s} "
                         f"(median of {count})")
        values = {
            "cold_s": statistics.median(r.cold_s for r in results),
            "programs_per_s": statistics.median(
                r.steady_programs / r.steady_s for r in results),
            "setup_s": statistics.median(setup_seconds(args)),
            "peak_rss_mb": runner.peak_rss_mb,
        }
        metrics = {name: (values[name], unit)
                   for name, unit in END_TO_END.items()}
    return emit(not problems, attempted, failed, metrics, lines)


def run_all(args) -> int:
    """Each workload in its own process (so memory and setup are its
    own); the final line merges them as ``<workload>.<metric>``."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in NAMES:
        command = [sys.executable, str(BENCH / "run.py"), "--workload",
                   name, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, child.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return status or (0 if merged["correct"] else 1)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = missing_sources()
    if missing:
        print("perfbench: run from a repository checkout; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
