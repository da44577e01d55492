"""Coverage-guided fuzz campaigns: resumable, shardable, deduplicated.

``run_campaign`` is the engine behind ``repro fuzz --guided --corpus-dir
DIR [--shard i/n] [--resume]``.  It differs from the blind loop
(:func:`repro.fuzz.driver.run_fuzz`) in three ways:

* **Guidance.**  Every candidate's traced reference run yields a
  :class:`~repro.fuzz.coverage.Coverage` fingerprint; candidates whose
  fingerprint contains keys the corpus snapshot lacks are admitted as
  seeds, and once the corpus is non-empty most candidates are
  *mutations* of stored seeds (rarity-weighted scheduling, AFL-style)
  rather than fresh draws from the blind grammar.

* **Dedup.**  Findings are keyed by the explainer's explaining
  signature (``repro.obs.explain.explaining_signature`` of the
  reference trace): one ``findings/<digest>.json`` per *distinct bug*,
  accumulating every witness program, instead of one report per
  duplicate discovery.

* **Sharding and resume.**  Candidate ``k`` is a pure function of
  ``(campaign seed, k, corpus snapshot)``; the snapshot is loaded once
  per invocation and **never updated mid-run**.  Shard ``i/n``
  evaluates exactly the global indices ``k % n == i`` of the same
  window, so ``--shard 0/2`` + ``--shard 1/2`` over one seed partition
  the unsharded campaign's work and their corpora merge byte-for-byte
  into what the unsharded run writes (every on-disk payload is a pure
  function of program + campaign seed; nothing records run order).
  ``state.json`` carries the window cursor, so ``--resume`` continues
  where a previous invocation -- or a killed one -- left off.
  Guidance still compounds across invocations: each new invocation
  snapshots the seeds every earlier window admitted.

The trade-off is honest: within one invocation, two shards of a window
mutate the *same* snapshot (determinism), so guidance sharpens only at
invocation boundaries.  Run campaigns as rounds of windows (the bench
coverage axis does exactly this) to get both properties at once.
"""

from __future__ import annotations

import json
import pathlib
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.coreeval import (
    restores_default_evaluator, set_default_evaluator,
)
from repro.fuzz.corpus import (
    FindingRecord,
    SeedEntry,
    atomic_write_text,
    load_findings,
    load_seed_corpus,
    record_witness,
    save_seed,
)
from repro.fuzz.coverage import Coverage, coverage_of
from repro.fuzz.driver import DEFAULT_ITERATIONS, iteration_seed
from repro.fuzz.generator import FuzzProgram, ProgramGenerator
from repro.fuzz.mutate import mutate
from repro.fuzz.oracle import FUZZ_TARGETS, evaluate_program
from repro.perf.cache import set_cache_enabled
from repro.perf.pool import TaskFailure, parallel_map
from repro.robust.budget import DEFAULT_FUZZ_BUDGET

#: ``state.json`` format version (bump on incompatible change).
STATE_VERSION = 1

#: Fraction of candidates drawn fresh from the blind grammar even when
#: the corpus is non-empty (AFL's havoc/import balance): pure mutation
#: of early seeds would trap the campaign in their neighbourhood.
FRESH_FRACTION = 0.2


class CampaignError(RuntimeError):
    """A campaign invocation that cannot proceed (bad shard spec,
    seed/state mismatch, un-resumed prior state)."""


def parse_shard(text: str) -> tuple[int, int]:
    """Parse ``"i/n"`` into ``(i, n)`` with ``0 <= i < n``."""
    try:
        index_text, _, total_text = text.partition("/")
        shard = (int(index_text), int(total_text))
    except ValueError:
        raise CampaignError(f"shard must look like i/n, got {text!r}") \
            from None
    if not 0 <= shard[0] < shard[1]:
        raise CampaignError(
            f"shard index must satisfy 0 <= i < n, got {text!r}")
    return shard


# ---------------------------------------------------------------------------
# Campaign state (the resume cursor)

def state_path(directory: pathlib.Path | str) -> pathlib.Path:
    return pathlib.Path(directory) / "state.json"


def load_state(directory: pathlib.Path | str) -> dict | None:
    """The campaign state, or ``None`` when absent or damaged."""
    try:
        payload = json.loads(
            state_path(directory).read_text(encoding="utf-8"))
        if payload.get("version") != STATE_VERSION:
            return None
        return {"version": STATE_VERSION,
                "seed": int(payload["seed"]),
                "shard": (int(payload["shard"][0]),
                          int(payload["shard"][1])),
                "next_index": int(payload["next_index"])}
    except Exception:                        # noqa: BLE001 - reader contract
        return None


def save_state(directory: pathlib.Path | str, seed: int,
               shard: tuple[int, int], next_index: int) -> pathlib.Path:
    payload = {"version": STATE_VERSION, "seed": seed,
               "shard": [shard[0], shard[1]], "next_index": next_index}
    return atomic_write_text(state_path(directory),
                             json.dumps(payload, indent=2,
                                        sort_keys=False) + "\n")


def merge_states(dest: pathlib.Path | str, sources) -> None:
    """Fold shard cursors into the canonical unsharded cursor.

    Shards of one campaign window agree on seed and ``next_index``;
    the merged state claims the full ``[0, 1]`` shard so the merged
    directory is resumable as (and byte-identical to) an unsharded
    campaign."""
    states = [s for s in (load_state(src) for src in sources)
              if s is not None]
    if not states:
        return
    seeds = {s["seed"] for s in states}
    if len(seeds) != 1:
        raise CampaignError(
            "cannot merge corpora from different campaign seeds: "
            f"{sorted(seeds)}")
    save_state(dest, seeds.pop(), (0, 1),
               max(s["next_index"] for s in states))


# ---------------------------------------------------------------------------
# The corpus snapshot and candidate derivation

@dataclass(frozen=True)
class Snapshot:
    """A campaign invocation's frozen view of its corpus.

    Loaded once at invocation start; mid-run admissions do not feed
    back (the shard-determinism contract).  ``weights`` are the
    rarity-weighted scheduler's per-entry draw weights; ``baseline``
    is the union of stored coverage keys that admission is judged
    against."""

    entries: tuple = ()
    weights: tuple = ()
    baseline: frozenset = frozenset()

    @property
    def pool(self) -> tuple:
        return tuple(entry.program for entry in self.entries)


def _scheduler_weights(entries) -> tuple:
    """Rarity-weighted scheduling: a seed holding keys few other seeds
    hold is mutated more often.  Key iteration is sorted so the float
    sum -- and therefore every ``rng.choices`` draw -- is identical on
    every platform and hash seed."""
    counts: dict[str, int] = {}
    for entry in entries:
        for key in entry.coverage.keys():
            counts[key] = counts.get(key, 0) + 1
    weights = []
    for entry in entries:
        rarity = sum(1.0 / counts[key]
                     for key in sorted(entry.coverage.keys()))
        weights.append(1.0 + rarity)
    return tuple(weights)


def take_snapshot(directory: pathlib.Path | str) -> Snapshot:
    entries = tuple(load_seed_corpus(directory))
    baseline = frozenset().union(
        *(entry.coverage.keys() for entry in entries)) \
        if entries else frozenset()
    return Snapshot(entries=entries,
                    weights=_scheduler_weights(entries),
                    baseline=baseline)


def derive_candidate(seed: int, index: int,
                     snapshot: Snapshot) -> tuple[FuzzProgram, str]:
    """Candidate ``index`` of campaign ``seed`` over ``snapshot``.

    Pure: the same arguments produce the same program on every shard,
    platform, and worker count.  With an empty snapshot this is
    *exactly* the blind generator's program for the same (seed, index)
    -- byte-identical, so a guided campaign's first window is an honest
    blind baseline.  Returns ``(program, "fresh" | "mutant")``.
    """
    rng = random.Random(iteration_seed(seed, index))
    if not snapshot.entries:
        return ProgramGenerator(rng).generate(), "fresh"
    if rng.random() < FRESH_FRACTION:
        return ProgramGenerator(rng).generate(), "fresh"
    entry = rng.choices(snapshot.entries,
                        weights=snapshot.weights, k=1)[0]
    return mutate(entry.program, rng, pool=snapshot.pool), "mutant"


# ---------------------------------------------------------------------------
# Candidate evaluation (worker body)

@dataclass(frozen=True)
class CandidateResult:
    """What one candidate evaluation ships back from a worker."""

    coverage: Coverage
    signature: tuple | None
    label: str
    divergences: tuple = ()


def _candidate_label(outcome, classify: bool) -> str:
    from repro.errors import OutcomeKind
    if not classify:
        return "unclassified"
    if outcome is None:
        return "crash"
    if outcome.kind is OutcomeKind.EXIT:
        return "exit"
    return outcome.describe()


def _evaluate_candidate(task):
    """Worker body: probe coverage and (optionally) classify one
    candidate.  Top-level and argument-picklable for the pool; the
    serial path runs the identical function in-process."""
    program_dict, targets, use_cache, budget, evaluator, classify = task
    if targets is None:
        targets = FUZZ_TARGETS
    if use_cache is not None:
        set_cache_enabled(use_cache)
    if evaluator is not None:
        set_default_evaluator(evaluator)
    program = FuzzProgram.from_dict(program_dict)
    # One traced reference run yields coverage, the dedup signature,
    # and the reference outcome -- evaluator pinned inside coverage_of,
    # never the campaign's choice (the determinism contract).
    probe = coverage_of(program, budget=budget)
    divergences: tuple = ()
    if classify:
        verdict = evaluate_program(program, targets,
                                   attach_evidence=False, budget=budget)
        divergences = tuple(verdict.divergences)
    return CandidateResult(
        coverage=probe.coverage, signature=probe.signature,
        label=_candidate_label(probe.outcome, classify),
        divergences=divergences)


def _witness_payload(program: FuzzProgram, divergences) -> dict:
    """The finding witness for one program: a pure function of the
    program and the (deterministic) oracle verdict, so every shard
    that rediscovers it writes identical bytes."""
    observations = sorted(
        ({"impl": d.impl_name, "cause": d.cause.value,
          "reference": d.reference, "observed": d.observed}
         for d in divergences if d.is_finding),
        key=lambda o: (o["impl"], o["cause"], o["observed"]))
    return {"source": program.render(),
            "program": program.to_dict(),
            "observations": observations}


# ---------------------------------------------------------------------------
# The campaign loop

@dataclass
class CampaignReport:
    """The result of one guided-campaign invocation."""

    seed: int
    shard: tuple[int, int]
    corpus_dir: pathlib.Path
    start_index: int = 0
    next_index: int = 0
    processed: int = 0
    elapsed: float = 0.0
    derived: dict[str, int] = field(default_factory=dict)
    reference_counts: dict[str, int] = field(default_factory=dict)
    #: Seed entry names admitted by this invocation (corpus growth).
    new_seeds: list[str] = field(default_factory=list)
    corpus_size: int = 0
    #: Finding digests first recorded by this invocation.
    new_bugs: list[str] = field(default_factory=list)
    new_witnesses: int = 0
    #: Finding divergences encountered this invocation (pre-dedup).
    finding_hits: int = 0
    #: Every distinct bug on disk after this invocation.
    findings: list[FindingRecord] = field(default_factory=list)
    covered: Coverage = field(default_factory=Coverage)
    #: Coverage keys this invocation reached beyond its snapshot.
    new_keys: int = 0
    quarantined: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when this invocation hit no finding-class divergence
        (known-cause divergences are expected and fine)."""
        return self.finding_hits == 0


@restores_default_evaluator
def run_campaign(seed: int = 0,
                 iterations: int | None = None,
                 time_budget: float | None = None,
                 corpus_dir: pathlib.Path | str = None,
                 shard: tuple[int, int] = (0, 1),
                 resume: bool = False,
                 targets=FUZZ_TARGETS,
                 jobs: int = 1,
                 use_cache: bool | None = None,
                 budget=DEFAULT_FUZZ_BUDGET,
                 evaluator: str | None = None,
                 classify: bool = True,
                 fault_plan=None,
                 task_timeout: float | None = None,
                 bus=None,
                 progress: Callable[[int, "CampaignReport"], None]
                 | None = None,
                 ) -> CampaignReport:
    """Run one window of a coverage-guided campaign.

    The window is ``[start, start + iterations)`` global candidate
    indices, where ``start`` is 0 or -- under ``resume`` -- the stored
    cursor; this shard evaluates the indices congruent to its shard
    index.  Under a ``time_budget`` the window instead grows in chunks
    until the budget elapses (the cursor then lands on a chunk
    boundary, so every shard that ran the same chunks agrees on it).

    ``classify=False`` skips the differential oracle (coverage probe
    only) -- the bench coverage axis uses it to measure guidance
    without paying for the full target grid.  Everything else
    (``jobs``, ``use_cache``, ``budget``, ``evaluator``, fault
    injection) matches :func:`repro.fuzz.driver.run_fuzz`.
    """
    if corpus_dir is None:
        raise CampaignError("a guided campaign requires a corpus "
                            "directory (--corpus-dir)")
    if not 0 <= shard[0] < shard[1]:
        raise CampaignError(f"shard index must satisfy 0 <= i < n, "
                            f"got {shard[0]}/{shard[1]}")
    if iterations is None and time_budget is None:
        iterations = DEFAULT_ITERATIONS
    if evaluator is not None:
        set_default_evaluator(evaluator)
    corpus_dir = pathlib.Path(corpus_dir)

    state = load_state(corpus_dir)
    if state is not None:
        if state["seed"] != seed:
            raise CampaignError(
                f"corpus at {corpus_dir} belongs to campaign seed "
                f"{state['seed']}, not {seed}")
        if not resume and state["next_index"] > 0:
            raise CampaignError(
                f"corpus at {corpus_dir} has prior campaign state "
                f"(cursor {state['next_index']}); pass resume=True / "
                "--resume to continue it, or use a fresh directory")
    start = state["next_index"] if (resume and state is not None) else 0

    snapshot = take_snapshot(corpus_dir)
    report = CampaignReport(seed=seed, shard=shard,
                            corpus_dir=corpus_dir, start_index=start)
    started = time.monotonic()
    task_targets = None if targets is FUZZ_TARGETS else targets
    seen_new_seeds: set[str] = set()

    def consume(index: int, program: FuzzProgram, item) -> None:
        if isinstance(item, TaskFailure):
            report.quarantined.append(index)
            report.reference_counts["quarantined"] = \
                report.reference_counts.get("quarantined", 0) + 1
        else:
            result = item
            report.covered = report.covered.union(result.coverage)
            report.reference_counts[result.label] = \
                report.reference_counts.get(result.label, 0) + 1
            if result.coverage.keys() - snapshot.baseline:
                entry = SeedEntry.from_program(program, seed,
                                               result.coverage)
                save_seed(corpus_dir, entry)
                if entry.name not in seen_new_seeds:
                    seen_new_seeds.add(entry.name)
                    report.new_seeds.append(entry.name)
            findings = [d for d in result.divergences if d.is_finding]
            if findings:
                report.finding_hits += len(findings)
                _, new_bug, new_witness = record_witness(
                    corpus_dir, result.signature,
                    _witness_payload(program, findings))
                if new_bug:
                    from repro.fuzz.corpus import signature_digest
                    report.new_bugs.append(
                        signature_digest(result.signature))
                report.new_witnesses += int(new_witness)
        report.processed += 1
        if progress is not None:
            progress(report.processed, report)

    def process_window(begin: int, end: int) -> None:
        indices = [k for k in range(begin, end)
                   if k % shard[1] == shard[0]]
        if not indices:
            return
        programs = {k: derive_candidate(seed, k, snapshot)
                    for k in indices}
        for k in indices:
            origin = programs[k][1]
            report.derived[origin] = report.derived.get(origin, 0) + 1
        tasks = [(programs[k][0].to_dict(), task_targets, use_cache,
                  budget, evaluator, classify) for k in indices]
        for k, item in zip(indices,
                           parallel_map(_evaluate_candidate, tasks,
                                        jobs=jobs,
                                        task_timeout=task_timeout,
                                        fault_plan=fault_plan, bus=bus)):
            consume(k, programs[k][0], item)

    cursor = start
    if time_budget is None:
        # Fixed-count window: one pool pass over this shard's indices.
        process_window(start, start + iterations)
        cursor = start + iterations
    else:
        # Chunked window: the cursor only ever lands on chunk
        # boundaries, so shards that ran the same wall-clock agree on
        # it (and a shorter shard merely stops at an earlier boundary).
        chunk = 4 * max(jobs, 1) * shard[1]
        while True:
            if iterations is not None and cursor - start >= iterations:
                break
            if time.monotonic() - started >= time_budget:
                break
            end = cursor + chunk
            if iterations is not None:
                end = min(end, start + iterations)
            process_window(cursor, end)
            cursor = end

    save_state(corpus_dir, seed, shard, cursor)
    report.next_index = cursor
    report.new_keys = len(report.covered.keys() - snapshot.baseline)
    report.corpus_size = len(load_seed_corpus(corpus_dir))
    report.findings = load_findings(corpus_dir)
    report.elapsed = time.monotonic() - started
    return report
