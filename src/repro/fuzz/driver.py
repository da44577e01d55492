"""The fuzzing loop: generate, classify, aggregate, shrink, record.

``run_fuzz`` is the engine behind ``repro fuzz --seed N --iterations K
--time-budget S``.  Divergences are aggregated into groups keyed by
(implementation, cause, outcome-kind pair); the first program seen for
each group is kept as its representative.  Once the generation loop
finishes, the representatives that some output reads are minimized by
the shrinker: a finding's (unexplained divergence, interpreter crash,
frontend rejection) always -- the report prints it and the corpus and
trace sinks write it -- and a known-cause group's only when
``--save-known`` writes it to the corpus.  Every group carries its cause
tag; findings additionally flip the report's ``ok`` bit.  The shrinks
are independent, so they fan across ``--jobs`` like the evaluations.
"""

from __future__ import annotations

import pathlib
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import OutcomeKind
from repro.fuzz.corpus import CorpusCase, save_case
from repro.fuzz.generator import FuzzProgram, ProgramGenerator
from repro.fuzz.oracle import (
    Cause,
    Divergence,
    FUZZ_TARGETS,
    FuzzTarget,
    evaluate_program,
)
from repro.core.coreeval import (
    restores_default_evaluator, set_default_evaluator,
)
from repro.fuzz.shrinker import shrink
from repro.perf.cache import set_cache_enabled
from repro.perf.pool import TaskFailure, parallel_map
from repro.robust.budget import DEFAULT_FUZZ_BUDGET

#: Default iteration count when neither --iterations nor --time-budget
#: is given.
DEFAULT_ITERATIONS = 100


def iteration_seed(seed: int, index: int) -> str:
    """The stable seed for iteration ``index`` of campaign ``seed``.

    A string, not ``hash((seed, index))``: :class:`random.Random` seeds
    strings through SHA-512, so the derivation is independent of
    ``PYTHONHASHSEED`` and identical on every platform.  Deriving per
    iteration (instead of drawing from one sequential stream) makes
    iteration ``i`` reproducible in isolation -- reordering, skipping,
    or fanning iterations across workers cannot change what any
    iteration generates.
    """
    return f"{seed}:{index}"


def program_for(seed: int, index: int,
                heap_reuse: bool = False) -> FuzzProgram:
    """Generate the program of iteration ``index`` in isolation."""
    rng = random.Random(iteration_seed(seed, index))
    return ProgramGenerator(rng, heap_reuse=heap_reuse).generate()


def _install_task_config(use_cache, evaluator) -> None:
    """Apply the campaign's cache switch and evaluator in this process.

    Worker processes do not inherit the parent's global switches under
    spawn, so each task carries them; the serial path applies the same
    values to the parent.  ``None`` leaves the process default alone.
    """
    if use_cache is not None:
        set_cache_enabled(use_cache)
    if evaluator is not None:
        # The oracle runs every target through Implementation.run
        # internally, so the campaign's evaluator choice is installed
        # as the process default for the duration of the task.
        set_default_evaluator(evaluator)


def _evaluate_iteration(task):
    """Worker body: generate and classify one iteration's program.

    Top-level and argument-picklable so the worker pool can ship it;
    the serial path runs the identical function in-process.
    """
    seed, index, targets, use_cache, budget, evaluator, heap_reuse = task
    if targets is None:
        # The default target set is module state in every worker;
        # shipping None instead keeps the per-task pickle payload from
        # carrying the whole implementation registry.
        targets = FUZZ_TARGETS
    _install_task_config(use_cache, evaluator)
    program = program_for(seed, index, heap_reuse)
    return program, evaluate_program(program, targets, budget=budget)


def _minimize_group(task):
    """Worker body: shrink one group's representative.

    Returns the minimized source and every target's outcome on it.  A
    pure function of the task tuple, shipped like
    :func:`_evaluate_iteration`; ``explain`` turns on the
    same-explaining-event shrink mode (:func:`_preserves_group`).
    """
    (key, example, targets, budget, shrink_budget, explain,
     use_cache, evaluator) = task
    if targets is None:
        targets = FUZZ_TARGETS
    _install_task_config(use_cache, evaluator)
    signature = None
    if explain:
        from repro.fuzz.evidence import reference_signature
        signature = reference_signature(example)
    predicate = _preserves_group(key, targets, signature, budget)
    try:
        minimized = shrink(example, predicate, max_evals=shrink_budget)
    except ValueError:
        # The representative stopped reproducing under the
        # single-target subset (e.g. a crash consumed the example);
        # fall back to the unminimized program.
        minimized = example
    return _as_minimized(minimized, targets, budget)


def _as_minimized(program: FuzzProgram, targets, budget) -> tuple[str, dict]:
    """The (source, outcomes) pair a group records for ``program``."""
    return program.render(), dict(evaluate_program(
        program, targets, attach_evidence=False, budget=budget).outcomes)


def _kind_token(described: str) -> str:
    """The outcome-kind part of an ``Outcome.describe()`` string."""
    return described.split()[0].rstrip(":") if described else ""


def _group_key(div: Divergence) -> tuple[str, str, str, str]:
    return (div.impl_name, div.cause.value,
            _kind_token(div.reference), _kind_token(div.observed))


@dataclass
class DivergenceGroup:
    """All divergences sharing (implementation, cause, kind pair)."""

    impl_name: str
    cause: Cause
    reference_kind: str
    observed_kind: str
    count: int = 0
    first_iteration: int = 0
    example: FuzzProgram | None = None
    example_divergence: Divergence | None = None
    minimized_source: str | None = None
    minimized_outcomes: dict = field(default_factory=dict)

    @property
    def key(self) -> tuple[str, str, str, str]:
        """The group's identity, as :func:`_group_key` computes it."""
        return (self.impl_name, self.cause.value, self.reference_kind,
                self.observed_kind)

    @property
    def is_finding(self) -> bool:
        return self.cause.is_finding

    def describe(self) -> str:
        return (f"{self.impl_name:32s} {self.cause.value:20s} "
                f"{self.reference_kind:>5s} -> {self.observed_kind:<6s} "
                f"x{self.count}")


@dataclass
class FuzzReport:
    """The result of one fuzzing run."""

    seed: int
    iterations: int = 0
    elapsed: float = 0.0
    reference_counts: dict[str, int] = field(default_factory=dict)
    groups: list[DivergenceGroup] = field(default_factory=list)
    corpus_paths: list[pathlib.Path] = field(default_factory=list)
    trace_paths: list[pathlib.Path] = field(default_factory=list)
    #: Iteration indices whose pool worker died twice (retry exhausted);
    #: their programs were never classified (see docs/ROBUSTNESS.md).
    quarantined: list[int] = field(default_factory=list)

    @property
    def findings(self) -> list[DivergenceGroup]:
        return [g for g in self.groups if g.is_finding]

    @property
    def divergence_total(self) -> int:
        return sum(g.count for g in self.groups)

    @property
    def ok(self) -> bool:
        """True when every divergence has a known cause and nothing
        crashed -- the acceptance bar for a clean fuzz run."""
        return not self.findings

    def sorted_groups(self) -> list[DivergenceGroup]:
        return sorted(self.groups,
                      key=lambda g: (not g.is_finding, -g.count,
                                     g.impl_name, g.cause.value))


def _reference_label(verdict) -> str:
    outcome = verdict.reference
    if outcome is None:
        return "crash"
    if outcome.kind is OutcomeKind.EXIT:
        return "exit"
    return outcome.describe()


def _preserves_group(key: tuple[str, str, str, str],
                     targets: tuple[FuzzTarget, ...],
                     signature: tuple | None = None,
                     budget=None):
    """Predicate: does a candidate still exhibit the failure of the
    group keyed ``key`` (see :attr:`DivergenceGroup.key`)?

    With ``signature`` set, the candidate must additionally preserve
    the reference trace's explaining signature -- the "same explaining
    event" shrink mode: minimisation may not swap the semantic cause
    (e.g. trade a bounds violation for a tag violation) even when the
    observable outcome pair stays the same.
    """
    subset = tuple(t for t in targets if t.impl.name == key[0])

    def predicate(candidate: FuzzProgram) -> bool:
        verdict = evaluate_program(candidate, subset,
                                   attach_evidence=False, budget=budget)
        if not any(_group_key(d) == key for d in verdict.divergences):
            return False
        if signature is not None:
            from repro.fuzz.evidence import reference_signature
            return reference_signature(candidate) == signature
        return True

    return predicate


@restores_default_evaluator
def run_fuzz(seed: int = 0,
             iterations: int | None = None,
             time_budget: float | None = None,
             targets: tuple[FuzzTarget, ...] = FUZZ_TARGETS,
             shrink_budget: int = 200,
             corpus_dir: pathlib.Path | str | None = None,
             save_known: bool = False,
             trace_dir: pathlib.Path | str | None = None,
             preserve_explanation: bool = False,
             progress: Callable[[int, "FuzzReport"], None] | None = None,
             jobs: int = 1,
             use_cache: bool | None = None,
             budget=DEFAULT_FUZZ_BUDGET,
             fault_plan=None,
             task_timeout: float | None = None,
             bus=None,
             evaluator: str | None = None,
             heap_reuse: bool = False,
             ) -> FuzzReport:
    """Run the differential fuzzing loop.

    Stops after ``iterations`` programs or ``time_budget`` seconds,
    whichever comes first (defaults to :data:`DEFAULT_ITERATIONS` when
    neither is given).  Before the report is returned, every finding
    group's representative is minimized, and so is every known-cause
    group's when ``corpus_dir`` and ``save_known`` will write it; the
    other groups keep ``minimized_source=None`` and empty
    ``minimized_outcomes``.  The shrinks fan across ``jobs`` workers
    like the evaluations (a killed shrink keeps its unminimized
    representative).

    Each iteration draws from its own derived seed
    (:func:`iteration_seed`), so ``jobs > 1`` fans candidate evaluation
    across worker processes with results merged in iteration order --
    a parallel run with a fixed ``iterations`` count is bit-identical
    to the serial one.  A fixed-count campaign is fanned out in **one**
    pool pass (the pool batches many iterations per task to amortise
    IPC); under a ``time_budget`` the loop instead evaluates in chunks
    of ``4 * jobs`` and may overshoot the budget by up to one chunk
    (and the iteration count then depends on timing, exactly as it
    does serially).

    Every run is governed by ``budget`` (default
    :data:`~repro.robust.DEFAULT_FUZZ_BUDGET`, whose axes are all
    deterministic): a nonterminating or allocation-bombing candidate
    classifies as ``resource_exhausted`` instead of hanging the
    campaign.  Pass ``budget=None`` for ungoverned runs.  Iterations
    whose pool worker dies twice are recorded in
    ``report.quarantined`` (and counted under the ``quarantined``
    reference label) rather than aborting the campaign;
    ``fault_plan``/``task_timeout``/``bus`` feed the hardened pool
    (test-only / backstop / observability).

    ``trace_dir`` persists a full reference JSONL trace of every
    finding group's minimized reproducer.  ``preserve_explanation``
    makes shrinking of findings additionally preserve the reference
    trace's explaining signature (see :func:`_preserves_group`).

    ``evaluator`` (``core``/``compiled``/``None`` = process default)
    selects the execution strategy for the whole campaign: it travels
    inside each evaluation and shrink task for the workers and is
    installed as the parent's default for the trace phase, so
    classification, minimisation, and evidence capture all run under
    the same strategy.  The caller's default is restored on return.

    ``heap_reuse`` switches on the generator's free-then-malloc and
    dangling-read statement shapes (``repro fuzz --allocator ...``);
    off by default so the stock program stream is unchanged.
    """
    if iterations is None and time_budget is None:
        iterations = DEFAULT_ITERATIONS
    if evaluator is not None:
        set_default_evaluator(evaluator)
    report = FuzzReport(seed=seed)
    groups: dict[tuple, DivergenceGroup] = {}
    started = time.monotonic()

    index = 0

    def consume(item) -> None:
        nonlocal index
        if isinstance(item, TaskFailure):
            report.quarantined.append(index)
            report.reference_counts["quarantined"] = \
                report.reference_counts.get("quarantined", 0) + 1
            index += 1
            if progress is not None:
                progress(index, report)
            return
        program, verdict = item
        label = _reference_label(verdict)
        report.reference_counts[label] = \
            report.reference_counts.get(label, 0) + 1
        for div in verdict.divergences:
            key = _group_key(div)
            group = groups.get(key)
            if group is None:
                group = DivergenceGroup(
                    impl_name=div.impl_name, cause=div.cause,
                    reference_kind=key[2], observed_kind=key[3],
                    first_iteration=index, example=program,
                    example_divergence=div)
                groups[key] = group
            group.count += 1
        index += 1
        if progress is not None:
            progress(index, report)

    task_targets = None if targets is FUZZ_TARGETS else targets

    if iterations is not None and time_budget is None:
        # Fixed-count campaign: one pool pass over every iteration.
        # The pool's chunk grouping batches many iterations per task,
        # amortising submit/result IPC and executor startup -- chunked
        # per-round pools here used to cost more than they bought.
        tasks = [(seed, i, task_targets, use_cache, budget, evaluator,
                  heap_reuse)
                 for i in range(iterations)]
        for item in parallel_map(_evaluate_iteration, tasks, jobs=jobs,
                                 task_timeout=task_timeout,
                                 fault_plan=fault_plan, bus=bus):
            consume(item)
    else:
        while True:
            if iterations is not None and index >= iterations:
                break
            if time_budget is not None and \
                    time.monotonic() - started >= time_budget:
                break
            chunk = 1 if jobs <= 1 else 4 * jobs
            if iterations is not None:
                chunk = min(chunk, iterations - index)
            tasks = [(seed, index + k, task_targets, use_cache, budget,
                      evaluator, heap_reuse)
                     for k in range(chunk)]
            for item in parallel_map(_evaluate_iteration, tasks,
                                     jobs=jobs,
                                     task_timeout=task_timeout,
                                     fault_plan=fault_plan, bus=bus):
                consume(item)

    report.iterations = index
    report.groups = list(groups.values())

    # Minimize the representatives some output reads: every finding's
    # (printed, and written by the corpus and trace sinks) and, when
    # --save-known writes them, the known-cause groups'.  Nothing else
    # reads a minimized program, so no other group is shrunk.
    save_all = corpus_dir is not None and save_known
    to_shrink = [g for g in report.groups if g.is_finding or save_all]
    tasks = [(g.key, g.example, task_targets, budget, shrink_budget,
              preserve_explanation and g.is_finding, use_cache, evaluator)
             for g in to_shrink]
    for group, item in zip(to_shrink, parallel_map(
            _minimize_group, tasks, jobs=jobs, task_timeout=task_timeout,
            fault_plan=fault_plan, bus=bus)):
        if isinstance(item, TaskFailure):
            # The shrink's worker died twice: keep the unminimized
            # representative, as when it stops reproducing.
            item = _as_minimized(group.example, targets, budget)
        group.minimized_source, group.minimized_outcomes = item

    if trace_dir is not None:
        import json as _json

        from repro.fuzz.corpus import atomic_write_text
        from repro.fuzz.evidence import capture_trace
        directory = pathlib.Path(trace_dir)
        for group in report.findings:
            _outcome, recorder = capture_trace(group.minimized_source)
            stem = f"{group.impl_name}-{group.cause.value}".replace(
                ":", "_").replace("/", "_")
            path = directory / f"{stem}.jsonl"
            # Same publication discipline as the corpus stores: a
            # killed run leaves whole artefacts or none, never torn.
            atomic_write_text(path, "".join(
                _json.dumps(event) + "\n" for event in recorder.dicts()))
            atomic_write_text(directory / f"{stem}.c",
                              group.minimized_source)
            report.trace_paths.append(path)

    if corpus_dir is not None:
        from repro.fuzz.evidence import reference_signature
        for group in report.sorted_groups():
            # Exactly the groups shrunk above carry a minimized program.
            if group.minimized_source is None:
                continue
            explaining = reference_signature(group.minimized_source)
            case = CorpusCase.from_outcomes(
                cause=group.cause.value, source=group.minimized_source,
                outcomes=group.minimized_outcomes, seed=seed,
                note=(f"{group.impl_name}: {group.reference_kind} -> "
                      f"{group.observed_kind}, seen x{group.count} "
                      f"(seed {seed})"),
                explaining=explaining)
            report.corpus_paths.append(save_case(corpus_dir, case))

    report.elapsed = time.monotonic() - started
    return report
