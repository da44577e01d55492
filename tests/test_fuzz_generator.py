"""Unit tests for the differential-fuzzing subsystem itself.

Covers the seeded generator (determinism, frontend acceptance), the
matched-reference oracle (clean programs classify cleanly, known causes
attribute correctly), the AST-level shrinker (minimality, budget,
predicate contract), the corpus round trip, and the ``repro fuzz`` CLI.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import OutcomeKind
from repro.fuzz import (
    Cause,
    CorpusCase,
    FUZZ_TARGETS,
    FuzzProgram,
    FuzzStmt,
    ProgramGenerator,
    evaluate_program,
    load_case,
    load_corpus,
    run_fuzz,
    save_case,
    shrink,
)
from repro.fuzz import driver
from repro.fuzz.shrinker import _slot_candidates
from repro.impls.registry import by_name
from repro.robust import FaultPlan

N_GENERATOR_SAMPLES = 25


def _programs(seed: int, count: int) -> list[FuzzProgram]:
    generator = ProgramGenerator(random.Random(seed))
    return [generator.generate() for _ in range(count)]


def test_generator_is_deterministic_per_seed():
    first = [p.render() for p in _programs(7, N_GENERATOR_SAMPLES)]
    second = [p.render() for p in _programs(7, N_GENERATOR_SAMPLES)]
    other = [p.render() for p in _programs(8, N_GENERATOR_SAMPLES)]
    assert first == second
    assert first != other


@pytest.mark.parametrize("impl_name", ["cerberus", "cerberus-cheriot"])
def test_generated_programs_are_frontend_clean(impl_name):
    """Every generated program must get past the shared frontend on both
    capability formats: rejection would be a generator bug, and the
    oracle classifies it as a finding."""
    impl = by_name(impl_name)
    for program in _programs(11, N_GENERATOR_SAMPLES):
        outcome = impl.run(program.render())
        assert outcome.kind is not OutcomeKind.ERROR, \
            f"{impl_name} rejected:\n{program.render()}\n{outcome.detail}"


def test_trivial_program_classifies_clean_everywhere():
    program = FuzzProgram(arr_len=2, heap_len=2, stmts=(
        FuzzStmt("arith", "acc += a[{0}];", (0,)),))
    verdict = evaluate_program(program, FUZZ_TARGETS)
    assert verdict.clean
    assert verdict.reference is not None
    assert verdict.reference.kind is OutcomeKind.EXIT
    # In-bounds array reads agree on every implementation: the only
    # divergences may come from configuration axes, never unexplained.
    assert all(not d.is_finding for d in verdict.divergences)


def test_oracle_attributes_masking_to_the_address_map():
    """The Appendix-A shape: ``& INT_MAX`` masking has address-map
    dependent behaviour; the oracle must attribute it mechanically."""
    program = FuzzProgram(arr_len=2, heap_len=2, stmts=(
        FuzzStmt("intptr-mask",
                 "ip = (intptr_t)p; ip = ip & 0x7fffffff; "
                 "acc += (int)(unsigned char)((uintptr_t)ip >> 4);", ()),))
    verdict = evaluate_program(program, FUZZ_TARGETS)
    assert verdict.clean
    causes = {d.impl_name: d.cause for d in verdict.divergences}
    assert causes.get("gcc-morello-O0") is Cause.ADDRESS_MAP


def test_oracle_attributes_oob_arithmetic_to_ub_licence():
    program = FuzzProgram(arr_len=2, heap_len=2, stmts=(
        FuzzStmt("oob", "p = p + {0}; acc += (int)(p != a);", (77,)),))
    verdict = evaluate_program(program, FUZZ_TARGETS)
    assert verdict.clean
    assert verdict.reference.kind is OutcomeKind.UNDEFINED
    causes = {d.impl_name: d.cause for d in verdict.divergences}
    # Hardware runs past the abstract machine's UB point (the S3
    # licence); the permissive mode diverges on its own axis.
    assert causes.get("clang-morello-O0") is Cause.UB_LICENSED
    assert causes.get("cerberus-permissive") is Cause.MEMORY_MODEL_MODE


def _statement(tag: str, text: str, *slots: int) -> FuzzStmt:
    return FuzzStmt(tag, text, tuple(slots))


def test_shrinker_drops_irrelevant_statements_and_slots():
    program = FuzzProgram(arr_len=8, heap_len=6, stmts=(
        _statement("noise1", "acc += a[{0}];", 3),
        _statement("key", "acc += {0};", 40),
        _statement("noise2", "u = u ^ {0};", 123),
    ))

    def predicate(candidate: FuzzProgram) -> bool:
        return any(s.tag == "key" and s.slots[0] >= 10
                   for s in candidate.stmts)

    minimized = shrink(program, predicate)
    assert [s.tag for s in minimized.stmts] == ["key"]
    # The slot walked down toward the predicate's boundary and the
    # prologue lengths collapsed to their minimum.
    assert minimized.stmts[0].slots[0] < 40
    assert predicate(minimized)
    assert (minimized.arr_len, minimized.heap_len) == (2, 2)


def test_shrinker_rejects_a_failing_input():
    program = FuzzProgram(arr_len=2, heap_len=2, stmts=())
    with pytest.raises(ValueError):
        shrink(program, lambda candidate: False)


def test_shrinker_respects_its_evaluation_budget():
    calls = 0
    program = FuzzProgram(arr_len=8, heap_len=6, stmts=tuple(
        _statement(f"s{i}", "acc += {0};", 1000 + i) for i in range(10)))

    def predicate(candidate: FuzzProgram) -> bool:
        nonlocal calls
        calls += 1
        return True

    shrink(program, predicate, max_evals=17)
    # One call validates the input; the rest stay within the budget.
    assert calls <= 18


def test_shrinker_terminates_on_zero_slots_far_below_its_budget():
    # The predicate holds for every slot value (it only needs all three
    # statements), so a slot that could move away from zero would flip
    # 0 <-> 1 until the budget ran out.
    assert _slot_candidates(0) == []
    assert all(abs(cand) < 7 for cand in _slot_candidates(-7))
    calls = 0
    program = FuzzProgram(arr_len=4, heap_len=4, stmts=tuple(
        _statement(f"s{i}", "acc += {0};", 0) for i in range(3)))

    def predicate(candidate: FuzzProgram) -> bool:
        nonlocal calls
        calls += 1
        return len(candidate.stmts) == 3

    minimized = shrink(program, predicate, max_evals=200)
    assert calls < 20
    assert [s.slots for s in minimized.stmts] == [(0,), (0,), (0,)]


def test_corpus_roundtrip(tmp_path):
    program = FuzzProgram(arr_len=2, heap_len=2, stmts=(
        _statement("arith", "acc += a[{0}];", 1),))
    verdict = evaluate_program(program, FUZZ_TARGETS)
    case = CorpusCase.from_outcomes(
        cause="address-map", source=verdict.source,
        outcomes=verdict.outcomes, seed=5, note="round trip")
    path = save_case(tmp_path, case)
    loaded = load_case(path)
    assert loaded == case
    assert load_corpus(tmp_path) == [case]
    assert loaded.replay() == []


def test_run_fuzz_smoke(tmp_path):
    report = run_fuzz(seed=3, iterations=4, shrink_budget=40,
                      corpus_dir=tmp_path, save_known=True)
    assert report.ok, [g.describe() for g in report.findings]
    assert report.iterations == 4
    # Every divergence group carries a minimized, still-diverging program.
    for group in report.groups:
        assert group.minimized_source
        assert group.minimized_outcomes
    # save_known wrote each group exactly once, replayable from disk.
    assert len(report.corpus_paths) == len(
        {(g.impl_name, g.cause, g.reference_kind, g.observed_kind)
         for g in report.groups})
    for case in load_corpus(tmp_path):
        assert case.replay() == []


def _counting_shrink(monkeypatch) -> list:
    """Wrap the driver's ``shrink`` so each call is recorded."""
    calls = []

    def counted(program, predicate, max_evals):
        calls.append(program.render())
        return shrink(program, predicate, max_evals=max_evals)

    monkeypatch.setattr(driver, "shrink", counted)
    return calls


@pytest.mark.parametrize("sink", ["none", "save-known-alone",
                                  "corpus-without-save-known"])
def test_known_groups_are_not_shrunk_without_a_sink(monkeypatch, tmp_path,
                                                   sink):
    # Only a corpus directory with --save-known writes known groups.
    calls = _counting_shrink(monkeypatch)
    kwargs = {"none": {},
              "save-known-alone": {"save_known": True},
              "corpus-without-save-known": {"corpus_dir": tmp_path}}[sink]
    report = run_fuzz(seed=0, iterations=2, shrink_budget=5, **kwargs)
    assert report.groups and report.ok
    assert calls == []
    for group in report.groups:
        assert group.minimized_source is None
        assert group.minimized_outcomes == {}
    assert report.corpus_paths == []


def _crashing_targets():
    """One target whose implementation always raises: every program it
    runs is an interpreter-crash finding."""
    from repro.fuzz.oracle import FuzzTarget
    from repro.impls import CERBERUS

    class Boom(type(CERBERUS)):
        def run(self, source, main="main", *, bus=None):
            raise RuntimeError("boom")

    boom = Boom(**{f: getattr(CERBERUS, f)
                   for f in CERBERUS.__dataclass_fields__})
    object.__setattr__(boom, "name", "boom")
    return (FuzzTarget(boom, CERBERUS),)


def test_finding_groups_are_always_minimised(monkeypatch):
    calls = _counting_shrink(monkeypatch)
    report = run_fuzz(seed=3, iterations=2, targets=_crashing_targets(),
                      shrink_budget=5)
    assert report.findings
    assert len(calls) == len(report.findings)
    for group in report.findings:
        assert group.minimized_source
        assert group.minimized_outcomes
        assert len(group.minimized_source) < len(group.example.render())


def test_killed_shrink_task_keeps_the_unminimised_representative(tmp_path):
    # Two iterations are evaluation tasks 0 and 1, so task index 2 is
    # reached only by the shrink phase, where it is the third group.
    plan = FaultPlan(kill_task_index=2)
    report = run_fuzz(seed=0, iterations=2, shrink_budget=5, jobs=2,
                      corpus_dir=tmp_path, save_known=True,
                      fault_plan=plan)
    assert report.quarantined == [] and len(report.groups) > 3
    victim = report.groups[2]
    assert victim.minimized_source == victim.example.render()
    assert victim.minimized_outcomes
    others = report.groups[:2] + report.groups[3:]
    assert all(g.minimized_source != g.example.render() for g in others)


def test_killed_once_shrink_task_is_retried_to_the_serial_result(tmp_path):
    def minimised(jobs, fault_plan=None):
        report = run_fuzz(seed=0, iterations=2, shrink_budget=5,
                          jobs=jobs, corpus_dir=tmp_path / str(jobs),
                          save_known=True, fault_plan=fault_plan)
        return [(g.minimized_source, g.minimized_outcomes)
                for g in report.groups]

    plan = FaultPlan(kill_task_index=2,
                     once_token=str(tmp_path / "latch"))
    assert minimised(2, plan) == minimised(1)
    assert (tmp_path / "latch").exists()


def test_fuzz_cli_smoke(capsys):
    from repro.cli import main
    status = main(["fuzz", "--seed", "3", "--iterations", "2", "--quiet"])
    out = capsys.readouterr().out
    assert status == 0
    assert "Differential fuzz: seed 3, 2 programs" in out
    assert "known-cause" in out or "No divergences" in out
