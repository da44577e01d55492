"""The Core IR pipeline: elaboration, the iterative evaluator, and the
guarantees that justify making it the process default (ISSUE 5).

Four properties are defended here:

* **Iterative execution** -- a depth-100000 call chain terminates with
  a structured ``resource_exhausted`` under the semantics' own frame
  limit, serially and through the worker pool, without the host
  recursion limit ever being consulted or adjusted (the
  ``sys.setrecursionlimit`` dance must not return to the evaluator).
* **Evaluation order** -- sequence points, short-circuiting, the
  conditional operator, and (defined-order) side-effect interleavings
  give the expected results under the Core evaluator and identical ones
  under the compiled backend, down to stdout and the metered step
  count.
* **Deterministic elaboration** -- elaborating the same program twice
  yields the same op listing, and the Appendix-A intptr bitops program
  elaborates to a golden listing surfaced by ``repro run --dump-core``.
* **No signal-exception control flow** -- the Core evaluator performs
  break/continue as jumps and return as a frame pop; no
  return/break/continue signal exception appears in its execution
  path.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

from repro.core import (
    CoreEvaluator, default_evaluator, elaborate_program, render_core,
)
from repro.core.coreeval import EVALUATORS
from repro.core.semantics import CALL_DEPTH_LIMIT
from repro.errors import OutcomeKind
from repro.fuzz import run_campaign, run_fuzz
from repro.impls import CERBERUS, by_name
from repro.perf import compile_core, compile_program, compile_threaded
from repro.robust import Budget
from repro.testsuite.case import Expected, TestCase
from repro.testsuite.categories import Category
from repro.testsuite.compare import run_suite

GOLDEN = pathlib.Path(__file__).parent / "golden"

DEEP_CHAIN = """
int f(int n) {
  if (n == 0) { return 0; }
  return f(n - 1);
}
int main(void) { return f(100000); }
"""


def both(source: str, **kwargs):
    """One program under both evaluators; callers assert agreement."""
    return (CERBERUS.run(source, evaluator="core", **kwargs),
            CERBERUS.run(source, evaluator="compiled", **kwargs))


class TestIterativeExecution:
    def test_compiled_is_the_default_evaluator(self):
        # The direct-threaded compiled backend took the default over
        # from the Core evaluator, which stays selectable as the
        # reference.
        assert default_evaluator() == "compiled"

    def test_deep_call_chain_is_structured_resource_exhausted(self):
        # The acceptance-criterion regression: depth 100000 under a
        # step budget ends at the deterministic frame limit -- not in a
        # RecursionError -- and the host recursion limit is never
        # touched to get there.
        before = sys.getrecursionlimit()
        out = CERBERUS.run(DEEP_CHAIN, budget=Budget(max_steps=10**7))
        assert sys.getrecursionlimit() == before
        assert out.kind is OutcomeKind.RESOURCE
        assert out.limit == "call-depth"
        assert str(CALL_DEPTH_LIMIT) in out.detail

    def test_deep_call_chain_serial_equals_parallel(self):
        case = TestCase(
            name="deep-call-chain",
            categories=(Category.CALLING_CONVENTION,),
            source=DEEP_CHAIN,
            expect=Expected(OutcomeKind.RESOURCE))
        budget = Budget(max_steps=10**7)
        serial = run_suite(CERBERUS, (case,), jobs=1, budget=budget)
        pooled = run_suite(CERBERUS, (case,), jobs=2, budget=budget)
        assert serial.results[0].outcome == pooled.results[0].outcome
        assert serial.results[0].outcome.limit == "call-depth"

    def test_core_evaluator_is_the_base_evaluator(self):
        # The reference semantics stands alone; only the compiled
        # backend builds on it.
        assert CoreEvaluator.__bases__ == (object,)

    def test_recursionlimit_dance_has_not_returned(self):
        src = pathlib.Path("src/repro/core")
        for module in ("semantics.py", "coreeval.py", "coreir.py",
                       "elaborate.py", "compile.py"):
            assert "setrecursionlimit" not in \
                (src / module).read_text(encoding="utf-8")

    def test_no_signal_exception_control_flow_in_core(self):
        # Return is a frame pop, break/continue are jumps: no signal
        # exception may appear in the Core execution path.
        src = pathlib.Path("src/repro/core")
        for module in ("semantics.py", "coreeval.py", "coreir.py",
                       "compile.py"):
            for line in (src / module).read_text(
                    encoding="utf-8").splitlines():
                if any(s in line for s in ("ReturnSignal", "BreakSignal",
                                           "ContinueSignal")):
                    # Prose may name them; code must not raise, catch,
                    # or import them.
                    assert not any(kw in line for kw in
                                   ("raise", "except", "import")), \
                        (module, line)


class TestEvaluatorSelection:
    """``core`` and ``compiled`` are the only evaluators; a request for
    any other name fails loudly, and the fuzz entry points never leave
    their choice behind as the process default."""

    PROGRAM = "int main(void) { return 3; }"

    @pytest.mark.parametrize("name", ["ast", "compild", ""])
    def test_unknown_evaluator_raises(self, name):
        with pytest.raises(ValueError, match="unknown evaluator"):
            CERBERUS.run(self.PROGRAM, evaluator=name)
        program = compile_core(CERBERUS, self.PROGRAM)
        with pytest.raises(ValueError, match="unknown evaluator"):
            CERBERUS.run_compiled(program, evaluator=name)

    def test_run_compiled_accepts_either_representation(self):
        core = compile_core(CERBERUS, self.PROGRAM)
        threaded = compile_threaded(CERBERUS, self.PROGRAM)
        for program in (core, threaded):
            for evaluator in EVALUATORS:
                outcome = CERBERUS.run_compiled(program,
                                                evaluator=evaluator)
                assert outcome.exit_status == 3

    def test_cli_rejects_the_removed_walker(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as excinfo:
            main(["suite", "--evaluator", "ast"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_run_fuzz_restores_the_callers_default(self):
        before = default_evaluator()
        run_fuzz(seed=0, iterations=1, evaluator="core")
        assert default_evaluator() == before

    def test_run_campaign_restores_the_callers_default(self, tmp_path):
        before = default_evaluator()
        run_campaign(seed=0, iterations=1, corpus_dir=tmp_path,
                     evaluator="core", classify=False)
        assert default_evaluator() == before


class TestEvaluationOrder:
    def assert_agree(self, source: str, exit_status: int,
                     stdout: str | None = None):
        core, compiled = both(source)
        assert core == compiled
        assert core.kind is OutcomeKind.EXIT
        assert core.exit_status == exit_status
        if stdout is not None:
            assert core.stdout == stdout

    def test_comma_sequences_left_to_right(self):
        self.assert_agree(
            "int main(void) { int x = 0;"
            " int y = (x = 3, x + 1); return y + x; }", 7)

    def test_logical_and_short_circuits(self):
        self.assert_agree("""
int g = 0;
int set(void) { g = 1; return 1; }
int main(void) { 0 && set(); return g; }
""", 0)

    def test_logical_or_short_circuits(self):
        self.assert_agree("""
int g = 0;
int set(void) { g = 1; return 1; }
int main(void) { 1 || set(); return g; }
""", 0)

    def test_logical_operators_evaluate_when_needed(self):
        self.assert_agree("""
int g = 0;
int set(void) { g = g + 10; return 1; }
int main(void) { 1 && set(); 0 || set(); return g; }
""", 20)

    def test_conditional_evaluates_one_arm(self):
        self.assert_agree("""
#include <stdio.h>
int pick(int which) {
  printf("%d", which);
  return which;
}
int main(void) { return 1 ? pick(3) : pick(4); }
""", 3, stdout="3")

    def test_unsequenced_side_effects_are_deterministic(self):
        # The subset fixes left-to-right operand evaluation; both
        # evaluators must make the same (single) choice.
        core, compiled = both(
            "int main(void) { int i = 1;"
            " int r = (i = 2) + i; return r; }")
        assert core == compiled
        assert core.kind is OutcomeKind.EXIT

    def test_call_arguments_left_to_right(self):
        self.assert_agree("""
#include <stdio.h>
int note(int n) { printf("%d", n); return n; }
int f(int a, int b, int c) { return a + b + c; }
int main(void) { return f(note(1), note(2), note(3)); }
""", 6, stdout="123")

    def test_step_counts_match_across_evaluators(self):
        # The charge-matching discipline: the compiled backend's fused
        # closures cut a budget off at exactly the Core step number.
        source = """
int main(void) {
  int total = 0;
  int i;
  for (i = 0; i < 50; i = i + 1) { total = total + i; }
  return total > 255 ? 255 : total;
}
"""
        for max_steps in (50, 137, 1000):
            core, compiled = both(source,
                                  budget=Budget(max_steps=max_steps))
            assert core == compiled, max_steps


class TestElaborationDeterminism:
    INTPTR_BITOPS = None  # set lazily from the trace tests' constant

    def _bitops(self) -> str:
        from tests.test_obs_trace import INTPTR_BITOPS
        return INTPTR_BITOPS

    def test_double_elaboration_renders_identically(self):
        source = self._bitops()
        first = render_core(elaborate_program(
            compile_program(CERBERUS, source, use_cache=False)))
        second = render_core(elaborate_program(
            compile_program(CERBERUS, source, use_cache=False)))
        assert first == second

    def test_golden_intptr_bitops_listing(self):
        """``repro run --dump-core`` on the Appendix-A masking program
        (refresh deliberately: ``python -m repro run <file> --dump-core
        > tests/golden/core_intptr_bitops.txt``)."""
        core = compile_core(CERBERUS, self._bitops(), use_cache=False)
        listing = render_core(core) + "\n"
        expected = (GOLDEN / "core_intptr_bitops.txt").read_text()
        assert listing == expected

    def test_dump_core_flag_prints_the_listing(self, tmp_path, capsys):
        # Under the default (compiled) evaluator the listing includes
        # the compiler's fuse annotations on top of the Core ops.
        from repro.cli import main
        from repro.core.compile import render_compiled
        from repro.perf import compile_threaded
        path = tmp_path / "bitops.c"
        path.write_text(self._bitops(), encoding="utf-8")
        status = main(["run", str(path), "--dump-core"])
        printed = capsys.readouterr().out
        assert status == 0
        assert printed == render_compiled(
            compile_threaded(CERBERUS, self._bitops())) + "\n"
        assert "func main" in printed
        assert render_core(compile_core(CERBERUS, self._bitops())) \
            .splitlines()[0] in printed

    def test_optimised_ast_feeds_elaboration(self):
        # The modelled optimiser runs before elaboration, so the Core
        # program differs across opt levels exactly when the AST does.
        source = """
int main(void) {
  int a[1] = {7};
  int i = 0;
  return a[i];
}
"""
        o0 = render_core(compile_core(CERBERUS, source, use_cache=False))
        o3 = render_core(compile_core(by_name("clang-morello-O3"),
                                      source, use_cache=False))
        assert "func main" in o0 and "func main" in o3
