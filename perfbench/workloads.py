"""The benchmark's three workloads, each driven through the public
entry points of the package.

A workload runs in *units*.  One unit is one self-contained piece of
user work that starts from empty caches in its own scratch directory:

* ``compliance``: the S5 grid (94 cases x 7 implementations, ``jobs=1``)
  twice, once cold and once warm-started over the disk cache the cold
  grid filled, as a second ``repro compare`` would run;
* ``fuzz-blind``: one ``run_fuzz`` call with its defaults
  (``shrink_budget=200``) on ``jobs=2``, as ``repro fuzz`` runs it;
* ``fuzz-guided``: one campaign of 8 resumed ``run_campaign`` rounds of
  25 programs each on ``jobs=2``, with its own corpus directory.

Each workload states ``unit_s``, the nominal wall seconds of one unit
on a 2-core machine; an untraced run makes as many units as that fits
into its ``--seconds``, whatever the machine's actual speed.

Every unit checks its own outputs and returns a :class:`UnitResult`;
its ``signature`` is the deterministic content two passes over the
same unit must agree on.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import sys
import time
from dataclasses import dataclass, field

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "compliance.txt"
EXPECTED_BLIND = pathlib.Path(__file__).resolve().parent / "expected" \
    / "fuzz-blind.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.fuzz import run_campaign, run_fuzz                  # noqa: E402
from repro.fuzz.coverage import Coverage                       # noqa: E402
from repro.impls.registry import ALL_IMPLEMENTATIONS           # noqa: E402
from repro.perf import (                                       # noqa: E402
    clear_cache,
    configure_disk_cache,
    global_cache,
)
from repro.reporting.tables import render_compliance           # noqa: E402
from repro.testsuite.compare import compare_implementations    # noqa: E402
from repro.testsuite.suite import all_cases                    # noqa: E402

#: The ``CompileCache`` layers whose hits and misses are reported.
CACHE_LAYERS = ("parse", "compiled", "core", "threaded")


@dataclass
class UnitResult:
    """What one unit measured, produced and found wrong."""

    #: Wall seconds of the unit's cold part (empty memory and disk
    #: caches): the cold grid, the ``run_fuzz`` call, the campaign.
    cold_s: float
    #: Programs and wall seconds of the part a repeated invocation
    #: pays: the warm grid for ``compliance``; for the fuzz workloads,
    #: whose every invocation runs new programs, the cold part again.
    steady_programs: int
    steady_s: float
    #: Programs run (the operations attempted) and those that failed.
    programs: int
    failed: int
    signature: object
    #: Summed ``global_cache().stats`` of this process, per layer.
    cache: dict
    #: Correctness checks that failed, one line each.
    problems: list[str] = field(default_factory=list)
    #: Named values the report prints next to the metrics:
    #: name -> (value, unit).
    notes: dict[str, tuple[float, str]] = field(default_factory=dict)


def _disk(scratch: pathlib.Path) -> None:
    """Empty memory caches and an empty disk cache in ``scratch``."""
    configure_disk_cache(enabled=True, directory=str(scratch / "disk"))
    clear_cache()


def _add_cache_stats(total: dict) -> None:
    """Fold the process cache's stats into ``total`` (before a
    ``clear_cache()`` resets them)."""
    stats = global_cache().stats
    for layer in CACHE_LAYERS:
        entry = stats.layer(layer)
        for kind in ("hits", "misses"):
            key = f"{layer}.{kind}"
            total[key] = total.get(key, 0) + getattr(entry, kind)
    total["compiles_performed"] = (total.get("compiles_performed", 0)
                                   + stats.compiles_performed)


def parse_compliance(text: str) -> dict[str, dict[str, int]]:
    """Per-implementation verdict counts of a rendered compliance
    report: ``{name: {"pass": p, "fail": f, "no-claim": n}}``."""
    counts = {}
    for line in text.splitlines()[2:]:
        fields = line.split()
        if len(fields) != 4 or not fields[1].isdigit():
            break
        counts[fields[0]] = {"pass": int(fields[1]), "fail": int(fields[2]),
                             "no-claim": int(fields[3])}
    return counts


def moved_verdicts(reports, golden: dict[str, dict[str, int]]) -> int:
    """The fewest verdicts that must differ from the golden report for
    these reports' counts: per implementation, every verdict beyond the
    golden count of its kind (a quarantined run has no golden kind)."""
    moved = 0
    for report in reports:
        want = golden.get(report.impl.name)
        have = {"pass": report.passed, "fail": report.failed,
                "no-claim": report.unclaimed}
        if want is None:
            moved += len(report.results)
            continue
        moved += sum(max(0, have[kind] - want[kind]) for kind in have)
        moved += report.quarantined
    return moved


class Compliance:
    """The S5 grid, cold then warm-started; ``seed`` shuffles the case
    order of each unit."""

    name = "compliance"
    jobs = 1
    unit_s = 2.5

    def __init__(self, seed: int, cases=None, golden: str | None = None):
        self.seed = seed
        self.cases = tuple(all_cases() if cases is None else cases)
        self.golden = GOLDEN.read_text() if golden is None else golden
        self.golden_counts = parse_compliance(self.golden)

    def unit(self, index: int, scratch: pathlib.Path, jobs: int) -> UnitResult:
        cases = list(self.cases)
        random.Random(f"{self.seed}:{index}").shuffle(cases)
        _disk(scratch)
        seconds, cache, grids, problems = {}, {}, {}, []
        failed = 0
        for phase in ("cold", "warm"):
            clear_cache()   # warm: drops every memory layer, keeps disk
            start = time.perf_counter()
            reports = compare_implementations(ALL_IMPLEMENTATIONS, cases,
                                              jobs=jobs)
            seconds[phase] = time.perf_counter() - start
            _add_cache_stats(cache)
            if render_compliance(reports) != self.golden:
                problems.append(f"{phase} compliance report differs from "
                                "tests/golden/compliance.txt")
            failed += moved_verdicts(reports, self.golden_counts)
            grids[phase] = sorted(
                (r.impl.name, res.case.name, res.passed,
                 res.outcome.describe())
                for r in reports for res in r.results)
        if grids["cold"] != grids["warm"]:
            problems.append("cold and warm grids disagree on a verdict")
        cells = len(grids["cold"])
        return UnitResult(
            cold_s=seconds["cold"], steady_programs=cells,
            steady_s=seconds["warm"], programs=2 * cells, failed=failed,
            signature=grids["cold"], cache=cache, problems=problems,
            notes={"compliance_cold_s": (seconds["cold"], "s"),
                   "compliance_warm_s": (seconds["warm"], "s")})


def fuzz_failures(report) -> int:
    """Failed iterations of a ``run_fuzz`` report: its finding-class
    divergences -- the oracle files reference crashes and frontend
    rejects as findings too -- plus its quarantined iterations."""
    return sum(g.count for g in report.findings) + len(report.quarantined)


def campaign_failures(report) -> int:
    """Failed candidates of one ``run_campaign`` round, counted as in
    :func:`fuzz_failures`."""
    return report.finding_hits + len(report.quarantined)


def fuzz_signature(report) -> dict:
    """The deterministic content of a ``run_fuzz`` report."""
    return {"iterations": report.iterations,
            "reference_counts": dict(sorted(report.reference_counts.items())),
            "groups": [g.describe() for g in report.sorted_groups()],
            "minimized": sorted(g.minimized_source or ""
                                for g in report.groups)}


class BlindFuzz:
    """``run_fuzz(0, iterations=40, jobs=2)`` with its defaults.

    The campaign seed is fixed: shrinking dominates this workload and
    its cost hangs on the few programs that represent the divergence
    groups, so one campaign seed's wall time differs from the next by
    up to 2x.  With one call per run, a varying campaign seed would
    measure the seed, not the code.  The fixed campaign's expected
    groups and outcome counts are checked on every call.
    """

    name = "fuzz-blind"
    jobs = 2
    unit_s = 20.0
    campaign_seed = 0
    iterations = 40

    def __init__(self, seed: int):
        self.seed = seed
        self.expected = json.loads(EXPECTED_BLIND.read_text())

    def unit(self, index: int, scratch: pathlib.Path, jobs: int) -> UnitResult:
        _disk(scratch)
        start = time.perf_counter()
        report = run_fuzz(self.campaign_seed, iterations=self.iterations,
                          jobs=jobs)
        elapsed = time.perf_counter() - start
        cache = {}
        _add_cache_stats(cache)
        signature = fuzz_signature(report)
        problems = []
        if report.iterations != self.iterations:
            problems.append(f"run_fuzz ran {report.iterations} of "
                            f"{self.iterations} programs")
        for key, want in self.expected.items():
            if signature[key] != want:
                problems.append(f"fuzz-blind {key} differ from "
                                f"{EXPECTED_BLIND.name}")
        failed = fuzz_failures(report)
        shrunk = sum(1 for g in report.groups if g.example is not None)
        # Only findings' minimised programs are printed (and no corpus
        # directory is given, so none is saved).
        useful = len(report.findings)
        return UnitResult(
            cold_s=elapsed, steady_programs=report.iterations,
            steady_s=elapsed, programs=report.iterations, failed=failed,
            signature=signature, cache=cache, problems=problems,
            notes={"fuzz_programs_per_s": (report.iterations / elapsed,
                                           "1/s"),
                   "shrunk_groups": (shrunk, "count"),
                   "useful_groups": (useful, "count")})


def corpus_digest(directory: pathlib.Path) -> dict[str, str]:
    """SHA-256 of every file under a corpus directory."""
    return {str(path.relative_to(directory)):
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.rglob("*")) if path.is_file()}


class GuidedFuzz:
    """A guided campaign of ``rounds`` resumed ``run_campaign`` calls,
    ``per_round`` programs each.

    Units cycle through the fixed :attr:`campaign_seeds`, starting at
    ``seed`` modulo their number, so a run of two units makes campaigns
    0 and 1 in an order ``seed`` picks.  Campaign seeds are fixed for
    the same reason as in :class:`BlindFuzz`: one campaign's cost and
    findings differ from the next one's (14.6-17.6 s and 0-3 failed
    candidates for seeds 0-3), and a run holds only two, so campaign
    seeds that changed with ``seed`` would measure the seed, not the
    code.  Campaign 0 is the one with the known unexplained reference
    crash.
    """

    name = "fuzz-guided"
    jobs = 2
    unit_s = 15.0
    rounds = 8
    per_round = 25
    campaign_seeds = (0, 1)

    def __init__(self, seed: int):
        self.seed = seed

    def campaign_seed(self, index: int) -> int:
        """The campaign seed of unit ``index``."""
        return self.campaign_seeds[(self.seed + index)
                                   % len(self.campaign_seeds)]

    def unit(self, index: int, scratch: pathlib.Path, jobs: int) -> UnitResult:
        campaign_seed = self.campaign_seed(index)
        corpus = scratch / "corpus"
        _disk(scratch)
        covered = Coverage()
        rounds, failed, programs = [], 0, 0
        start = time.perf_counter()
        for round_index in range(self.rounds):
            report = run_campaign(campaign_seed, iterations=self.per_round,
                                  corpus_dir=corpus, jobs=jobs,
                                  classify=True, resume=round_index > 0)
            covered = covered.union(report.covered)
            failed += campaign_failures(report)
            programs += report.processed
            rounds.append({
                "processed": report.processed,
                "derived": dict(sorted(report.derived.items())),
                "reference_counts": dict(sorted(
                    report.reference_counts.items())),
                "new_seeds": report.new_seeds,
                "new_bugs": report.new_bugs,
                "finding_hits": report.finding_hits,
                "quarantined": report.quarantined,
                "covered": report.covered.to_dict()})
        elapsed = time.perf_counter() - start
        cache = {}
        _add_cache_stats(cache)
        problems = []
        if programs != self.rounds * self.per_round:
            problems.append(f"campaign ran {programs} of "
                            f"{self.rounds * self.per_round} programs")
        return UnitResult(
            cold_s=elapsed, steady_programs=programs, steady_s=elapsed,
            programs=programs, failed=failed,
            signature={"rounds": rounds, "corpus": corpus_digest(corpus)},
            cache=cache, problems=problems,
            notes={"campaign_programs_per_s": (programs / elapsed, "1/s"),
                   "campaign_ops_covered": (len(covered.ops), "count")})


WORKLOADS = {cls.name: cls for cls in (Compliance, BlindFuzz, GuidedFuzz)}
