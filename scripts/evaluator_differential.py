#!/usr/bin/env python
"""The evaluator-differential gate (CI job ``evaluator-differential``).

The repository carries one reference execution semantics, the iterative
Core-IR evaluator (:mod:`repro.core.coreeval`), and one fast path, the
direct-threaded compiled backend (:mod:`repro.core.compile`, with
superinstruction fusion).  The compiled backend is the process default;
the Core evaluator is the reference it is judged against.  This gate is
what makes that arrangement safe: it renders

* the full S5 compliance report (every implementation x every suite
  case), and
* a fixed-seed fuzz campaign report (default 500 generated programs,
  every divergence classified and minimized),

under both evaluators, serially and with a worker pool, and demands
the rendered reports be **byte-identical**.  Outcome kinds, exit codes,
stdout, UB catalogue entries, step-metered budget cutoffs, divergence
grouping, and shrinker results all feed those renderings, so a single
differing byte fails the gate.

It additionally pins the ``--allocator bump`` identity: running the S5
grid and the fuzz campaign with an *explicit* ``bump`` allocator
override (the way ``repro compare --allocator bump`` builds them) must
be byte-identical to the default renderings -- the default allocator
axis is inert, so the pre-policy goldens all stand.

``FuzzReport.elapsed`` is wall-clock and is the one intentionally
nondeterministic field in the rendering; it is normalised to zero on
every report before comparison.

Exit status 0 = the evaluators agree; 1 = the reports differ (a
unified diff is printed).
"""

from __future__ import annotations

import argparse
import difflib
import sys
import time

from repro.core.coreeval import EVALUATORS
from repro.fuzz import run_fuzz
from repro.impls import ALL_IMPLEMENTATIONS
from repro.reporting.tables import render_compliance, render_fuzz_summary
from repro.testsuite.compare import compare_implementations


def suite_rendering(evaluator: str, jobs: int) -> str:
    reports = compare_implementations(ALL_IMPLEMENTATIONS, jobs=jobs,
                                      evaluator=evaluator)
    return render_compliance(reports)


def fuzz_rendering(evaluator: str, jobs: int, seed: int,
                   iterations: int) -> str:
    report = run_fuzz(seed=seed, iterations=iterations, jobs=jobs,
                      evaluator=evaluator)
    # Wall-clock is the only nondeterministic field in the rendering.
    report.elapsed = 0.0
    return render_fuzz_summary(report)


def bump_override_check(seed: int, iterations: int) -> bool:
    """``--allocator bump`` (the default policy made explicit) must
    change nothing: byte-identical S5 compliance and fuzz reports."""
    from repro.fuzz.oracle import FUZZ_TARGETS, allocator_fuzz_targets
    from repro.impls import with_allocator

    grid = tuple(with_allocator(impl, "bump")
                 for impl in ALL_IMPLEMENTATIONS)
    suite = render_compliance(compare_implementations(grid, jobs=1))
    baseline = render_compliance(
        compare_implementations(ALL_IMPLEMENTATIONS, jobs=1))
    ok = True
    if suite != baseline:
        ok = False
        print("  --allocator bump: S5 COMPLIANCE REPORT DIFFERS")
        sys.stdout.writelines(difflib.unified_diff(
            baseline.splitlines(keepends=True),
            suite.splitlines(keepends=True),
            fromfile="S5 [default]", tofile="S5 [--allocator bump]"))

    # The CLI's --allocator bump target construction: the identity
    # policy contributes no extra targets and leaves heap_reuse off.
    targets = FUZZ_TARGETS + allocator_fuzz_targets("bump")
    report = run_fuzz(seed=seed, iterations=iterations, jobs=1,
                      targets=targets, heap_reuse=False)
    report.elapsed = 0.0
    fuzz = render_fuzz_summary(report)
    base_report = run_fuzz(seed=seed, iterations=iterations, jobs=1)
    base_report.elapsed = 0.0
    if fuzz != render_fuzz_summary(base_report):
        ok = False
        print("  --allocator bump: FUZZ REPORT DIFFERS")
    if ok:
        print(f"  --allocator bump: byte-identical to the default "
              f"renderings ({len(baseline)} + {len(fuzz)} bytes)")
    return ok


def check_pair(label: str, by_evaluator: dict[str, str]) -> bool:
    """Byte-identity of every evaluator's report against the reference
    (Core) evaluator's."""
    baseline = by_evaluator[EVALUATORS[0]]
    ok = True
    for other in EVALUATORS[1:]:
        text = by_evaluator[other]
        if text == baseline:
            continue
        ok = False
        print(f"  {label}: REPORTS DIFFER "
              f"({EVALUATORS[0]} vs {other})")
        sys.stdout.writelines(difflib.unified_diff(
            baseline.splitlines(keepends=True),
            text.splitlines(keepends=True),
            fromfile=f"{label} [{EVALUATORS[0]}]",
            tofile=f"{label} [{other}]"))
    if ok:
        print(f"  {label}: byte-identical across "
              f"{'/'.join(EVALUATORS)} ({len(baseline)} bytes)")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Require byte-identical suite and fuzz reports from "
                    "the Core and compiled evaluators")
    parser.add_argument("--seed", type=int, default=0,
                        help="fuzz campaign seed (default: 0)")
    parser.add_argument("--fuzz-iterations", type=int, default=500,
                        metavar="N",
                        help="fuzz programs per campaign (default: 500)")
    parser.add_argument("--jobs", type=int, default=4, metavar="N",
                        help="worker count for the parallel arm "
                             "(default: 4; the serial arm always runs)")
    args = parser.parse_args(argv)

    ok = True
    for jobs, arm in ((1, "serial"), (args.jobs, f"--jobs {args.jobs}")):
        started = time.monotonic()
        suites = {e: suite_rendering(e, jobs) for e in EVALUATORS}
        ok &= check_pair(f"S5 compliance report, {arm}", suites)
        fuzzes = {e: fuzz_rendering(e, jobs, args.seed,
                                    args.fuzz_iterations)
                  for e in EVALUATORS}
        ok &= check_pair(
            f"fuzz report (seed {args.seed}, "
            f"{args.fuzz_iterations} programs), {arm}", fuzzes)
        print(f"  [{arm} arm: {time.monotonic() - started:.1f}s]")
    ok &= bump_override_check(args.seed, min(args.fuzz_iterations, 50))
    print("evaluator-differential: "
          + ("PASS" if ok else "FAIL (evaluators disagree)"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
