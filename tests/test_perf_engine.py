"""The execution engine: compile cache, worker pool, and determinism.

Covers the engine's contract: parallel suite/compare/fuzz runs are
bit-identical to serial ones, the compilation cache never leaks a
compiled program across configuration axes that affect compilation,
and explicit-empty suite selections stay empty.
"""

import pathlib

import pytest

from repro.errors import CSyntaxError
from repro.fuzz.driver import iteration_seed, program_for, run_fuzz
from repro.impls import ALL_IMPLEMENTATIONS
from repro.impls.registry import (
    CERBERUS,
    CHERIOT_ABSTRACT,
    CLANG_MORELLO_O0,
    CLANG_MORELLO_O3,
    CLANG_MORELLO_O3_SUBOBJECT,
    CERBERUS_PERMISSIVE,
)
from repro.obs.metrics import Metrics
from repro.perf.cache import CompileCache, compile_core, compile_program
from repro.perf.pool import parallel_map, resolve_jobs
from repro.reporting.tables import render_compliance
from repro.testsuite.compare import compare_implementations, run_suite
from repro.testsuite.suite import all_cases

SOURCE = "int main(void) { int a[2]; a[0] = 7; return a[0]; }\n"
BAD_SOURCE = "int main(void { return 0; }\n"


class TestCompileCache:
    def test_hit_after_miss(self):
        cache = CompileCache(disk=None)
        first = cache.compile(CERBERUS, SOURCE)
        second = cache.compile(CERBERUS, SOURCE)
        assert first is second
        assert cache.stats.compiled.hits == 1
        assert cache.stats.compiled.misses == 1
        assert cache.stats.compiled.hit_rate == 0.5
        # One parse actually ran -- the "compiles performed" number the
        # warm-start gate asserts on.
        assert cache.stats.compiles_performed == 1

    def test_shared_across_run_only_axes(self):
        # cerberus and clang-morello-O0 differ only in address map and
        # mode -- run-time axes -- so they share one compiled program.
        cache = CompileCache(disk=None)
        ref = cache.compile(CERBERUS, SOURCE)
        hw = cache.compile(CLANG_MORELLO_O0, SOURCE)
        assert ref is hw
        assert cache.stats.compiled.hits == 1

    @pytest.mark.parametrize("other", [
        CLANG_MORELLO_O3,            # opt_level axis
        CLANG_MORELLO_O3_SUBOBJECT,  # opt_level (+ run axis subobject)
        CHERIOT_ABSTRACT,            # arch axis
    ])
    def test_isolated_across_compile_axes(self, other):
        # Distinct (arch, opt_level) keys never serve each other's
        # entries: two misses, two entries.
        cache = CompileCache(disk=None)
        cache.compile(CERBERUS, SOURCE)
        cache.compile(other, SOURCE)
        assert cache.stats.compiled.hits == 0
        assert cache.stats.compiled.misses == 2
        assert cache.entry_counts()["compiled"] == 2

    @pytest.mark.parametrize("base,other", [
        pytest.param(CERBERUS, CERBERUS_PERMISSIVE, id="options"),
        pytest.param(CLANG_MORELLO_O3, CLANG_MORELLO_O3_SUBOBJECT,
                     id="subobject_bounds"),
    ])
    def test_shared_across_memory_model_axes(self, base, other):
        # Sub-object bounds and the semantics options are applied by
        # the memory model at run time, so an implementation and its
        # variant on either axis share one compile: one miss, one hit.
        cache = CompileCache(disk=None)
        assert cache.compile(other, SOURCE) is cache.compile(base, SOURCE)
        assert cache.stats.compiled.misses == 1
        assert cache.stats.compiled.hits == 1
        assert cache.entry_counts()["compiled"] == 1

    def test_parse_shared_across_opt_levels(self):
        # O0 and O3 compile to different programs but share the parse.
        cache = CompileCache(disk=None)
        cache.compile(CERBERUS, SOURCE)
        assert len(cache._parsed) == 1
        cache.compile(CLANG_MORELLO_O3, SOURCE)
        assert len(cache._parsed) == 1
        assert cache.stats.parse.hits == 1
        assert cache.stats.parse.misses == 1

    def test_frontend_error_cached(self):
        cache = CompileCache(disk=None)
        with pytest.raises(CSyntaxError):
            cache.compile(CERBERUS, BAD_SOURCE)
        with pytest.raises(CSyntaxError):
            cache.compile(CERBERUS, BAD_SOURCE)
        assert cache.stats.compiled.hits == 1

    def test_core_layer_shares_elaborated_program(self):
        cache = CompileCache(disk=None)
        first = cache.core(CERBERUS, SOURCE)
        second = cache.core(CLANG_MORELLO_O0, SOURCE)
        assert first is second
        assert cache.stats.core.hits == 1
        assert cache.stats.core.misses == 1

    def test_elaboration_error_cached_once_across_impls(self, monkeypatch):
        # A program the elaborator rejects is rejected once per compile
        # key, not once per implementation: cerberus and
        # clang-morello-O0 share the key, so the second lookup must
        # re-raise the cached error without re-elaborating.
        import repro.perf.cache as cache_mod
        from repro.core import ElaborationError
        calls = []

        def failing(program):
            calls.append(program)
            raise ElaborationError("synthetic elaboration failure")

        monkeypatch.setattr(cache_mod, "elaborate_program", failing)
        cache = CompileCache(disk=None)
        with pytest.raises(ElaborationError):
            cache.core(CERBERUS, SOURCE)
        with pytest.raises(ElaborationError):
            cache.core(CLANG_MORELLO_O0, SOURCE)
        assert len(calls) == 1

    def test_elaboration_error_is_a_frontend_outcome(self, monkeypatch):
        # Through Implementation.run the cached elaboration rejection
        # surfaces as the same structured frontend_error outcome as a
        # parse failure.
        import repro.perf.cache as cache_mod
        from repro.core import ElaborationError
        from repro.errors import OutcomeKind

        def failing(program):
            raise ElaborationError("synthetic elaboration failure")

        monkeypatch.setattr(cache_mod, "elaborate_program", failing)
        cache_mod.clear_cache()
        try:
            outcome = CERBERUS.run(SOURCE, evaluator="core")
            assert outcome.kind is OutcomeKind.ERROR
            assert "synthetic elaboration failure" in outcome.detail
        finally:
            cache_mod.clear_cache()

    def test_eviction_is_bounded(self):
        cache = CompileCache(maxsize=2, disk=None)
        for status in range(4):
            cache.compile(CERBERUS,
                          f"int main(void) {{ return {status}; }}\n")
        assert cache.entry_counts()["compiled"] <= 2
        assert len(cache._parsed) <= 2

    def test_uncached_compile_bypasses_global_cache(self):
        from repro.perf import global_cache
        before = global_cache().stats.lookups
        program = compile_program(CERBERUS, SOURCE, use_cache=False)
        assert program.functions
        assert global_cache().stats.lookups == before

    def test_cached_outcome_matches_uncached(self):
        for impl in ALL_IMPLEMENTATIONS:
            cached = impl.run(SOURCE, use_cache=True)
            uncached = impl.run(SOURCE, use_cache=False)
            assert cached == uncached, impl.name


class TestThreadedCacheLayer:
    """The fourth layer: direct-threaded CompiledPrograms."""

    def test_hit_after_miss_shares_the_compiled_program(self):
        cache = CompileCache()
        first = cache.threaded(CERBERUS, SOURCE)
        second = cache.threaded(CERBERUS, SOURCE)
        assert first is second
        assert len(cache._threaded) == 1

    def test_shared_across_run_only_axes(self):
        cache = CompileCache()
        assert cache.threaded(CERBERUS, SOURCE) is \
            cache.threaded(CLANG_MORELLO_O0, SOURCE)

    def test_isolated_from_the_core_layer(self):
        # The threaded layer holds CompiledPrograms built *from* the
        # core layer's entries, never aliases into it: requesting the
        # Core program afterwards serves the Core object, and the two
        # layers key and evict independently.
        from repro.core.compile import CompiledProgram
        from repro.core.coreir import CoreProgram
        cache = CompileCache()
        threaded = cache.threaded(CERBERUS, SOURCE)
        core = cache.core(CERBERUS, SOURCE)
        assert isinstance(threaded, CompiledProgram)
        assert isinstance(core, CoreProgram)
        assert threaded is not core
        assert threaded.core is core  # built from the cached Core
        assert len(cache._threaded) == len(cache._core) == 1

    def test_isolated_across_compile_axes(self):
        cache = CompileCache(disk=None)
        base = cache.threaded(CERBERUS, SOURCE)
        assert cache.threaded(CLANG_MORELLO_O3, SOURCE) is not base
        assert cache.threaded(CHERIOT_ABSTRACT, SOURCE) is not base
        assert cache.stats.threaded.hits == 0
        assert len(cache._threaded) == 3

    @pytest.mark.parametrize("base,other", [
        pytest.param(CERBERUS, CERBERUS_PERMISSIVE, id="options"),
        pytest.param(CLANG_MORELLO_O3, CLANG_MORELLO_O3_SUBOBJECT,
                     id="subobject_bounds"),
    ])
    def test_shared_across_memory_model_axes(self, base, other):
        cache = CompileCache(disk=None)
        assert cache.threaded(other, SOURCE) is cache.threaded(base, SOURCE)
        assert cache.stats.threaded.misses == 1
        assert cache.stats.threaded.hits == 1
        assert len(cache._threaded) == 1

    def test_eviction_is_bounded(self):
        cache = CompileCache(maxsize=2)
        for status in range(4):
            cache.threaded(CERBERUS,
                           f"int main(void) {{ return {status}; }}\n")
        assert len(cache._threaded) <= 2

    def test_frontend_error_cached_in_threaded_layer(self):
        cache = CompileCache()
        with pytest.raises(CSyntaxError):
            cache.threaded(CERBERUS, BAD_SOURCE)
        with pytest.raises(CSyntaxError):
            cache.threaded(CERBERUS, BAD_SOURCE)
        assert len(cache._threaded) == 1

    def test_uncached_threaded_compile_bypasses_every_layer(self):
        # The --no-compile-cache contract for the compiled evaluator:
        # no lookups, no stored entries, a private program per call
        # (hence a private run memo; see test_core_compile).
        from repro.perf import global_cache
        from repro.perf.cache import compile_threaded
        before = global_cache().stats.lookups
        entries = len(global_cache()._threaded)
        first = compile_threaded(CERBERUS, SOURCE, use_cache=False)
        second = compile_threaded(CERBERUS, SOURCE, use_cache=False)
        assert first is not second
        assert global_cache().stats.lookups == before
        assert len(global_cache()._threaded) == entries

    def test_cached_compiled_outcome_matches_uncached(self):
        for impl in ALL_IMPLEMENTATIONS:
            cached = impl.run(SOURCE, use_cache=True,
                              evaluator="compiled")
            uncached = impl.run(SOURCE, use_cache=False,
                                evaluator="compiled")
            assert cached == uncached, impl.name


class TestMemoryModelAxesShareOneCompile:
    """Sub-object bounds and semantics options are run axes: the
    implementations that differ only there share one CompiledProgram,
    and its run memo keeps their outcomes apart."""

    #: (S5 case, ((implementation, its outcome), ...)): the two
    #: implementations share a compile key and disagree on the outcome.
    PAIRS = [
        ("subobject-container-of",
         (("clang-morello-O3", "exit 0"),
          ("clang-morello-O3-subobject-safe", "trap: tag violation"))),
        ("oob-negative-index",
         (("cerberus", "UB UB_out_of_bounds_pointer_arithmetic"),
          ("cerberus-permissive", "UB UB_CHERI_BoundsViolation"))),
    ]

    @pytest.mark.parametrize("case_name,pair", PAIRS,
                             ids=[name for name, _ in PAIRS])
    def test_shared_run_memo_does_not_alias(self, case_name, pair,
                                            monkeypatch):
        from repro.impls import by_name
        from repro.perf import cache as perf_cache
        source = next(case.source for case in all_cases()
                      if case.name == case_name)
        impls = [by_name(name) for name, _ in pair]
        uncached = {impl.name: impl.run(source, use_cache=False)
                    for impl in impls}
        assert {name: uncached[name].describe() for name, _ in pair} \
            == dict(pair)
        for order in (impls, impls[::-1]):
            monkeypatch.setattr(perf_cache, "_GLOBAL_CACHE",
                                CompileCache(disk=None))
            first, second = order
            assert perf_cache.compile_threaded(first, source) \
                is perf_cache.compile_threaded(second, source)
            for _ in range(2):
                for impl in order:
                    assert impl.run(source) == uncached[impl.name], \
                        impl.name

    def test_fuzz_programs_compile_once_per_arch_and_opt_level(self):
        # Ten generated programs through the oracle: three compile keys
        # per program (two (arch, opt level) pairs on Morello plus one
        # on CHERIoT), parsed once per arch.
        from repro.fuzz.oracle import evaluate_program
        from repro.perf.cache import clear_cache, global_cache
        clear_cache()
        for index in range(10):
            evaluate_program(program_for(0, index).render())
        stats = global_cache().stats
        assert stats.core.misses == stats.threaded.misses == 30
        assert stats.parse.misses == 20


class TestBenchGateSkipReason:
    """benchmarks/bench_engine.py records *why* a gate did not apply."""

    @staticmethod
    def bench_module():
        import importlib.util
        path = pathlib.Path(__file__).parent.parent / "benchmarks" / \
            "bench_engine.py"
        spec = importlib.util.spec_from_file_location("bench_engine",
                                                      path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_single_core_skips_with_reason(self):
        bench = self.bench_module()
        assert bench.throughput_gate_skip_reason(4, 1) == "cores<2"
        assert bench.throughput_gate_skip_reason(4, None) == "cores<2"

    def test_serial_request_skips_with_reason(self):
        bench = self.bench_module()
        assert bench.throughput_gate_skip_reason(1, 8) == "jobs<2"

    def test_applicable_gate_has_no_reason(self):
        bench = self.bench_module()
        assert bench.throughput_gate_skip_reason(4, 8) == ""


class TestCompileRunSplit:
    def test_run_compiled_reusable_across_runs(self):
        program = compile_core(CERBERUS, SOURCE)
        first = CERBERUS.run_compiled(program)
        second = CERBERUS.run_compiled(program)
        assert first == second
        assert first.exit_status == 7

    def test_frontend_error_still_an_outcome(self):
        outcome = CERBERUS.run(BAD_SOURCE)
        from repro.errors import OutcomeKind
        assert outcome.kind is OutcomeKind.ERROR


class TestSuiteSelection:
    def test_none_selects_full_suite(self):
        report = run_suite(CERBERUS, None)
        assert len(report.results) == len(all_cases())

    def test_empty_selection_is_empty_report(self):
        # The old truthiness fallback silently ran all 94 tests here.
        report = run_suite(CERBERUS, ())
        assert report.results == []
        assert (report.passed, report.failed, report.unclaimed) == (0, 0, 0)

    def test_explicit_selection_runs_exactly_those(self):
        picked = all_cases()[:3]
        report = run_suite(CERBERUS, picked)
        assert [r.case.name for r in report.results] == \
            [c.name for c in picked]


class TestMetricsGuards:
    def test_double_start_raises(self):
        metrics = Metrics().start()
        with pytest.raises(RuntimeError):
            metrics.start()

    def test_finish_before_start_raises(self):
        with pytest.raises(RuntimeError):
            Metrics().finish()

    def test_start_finish_cycles_accumulate(self):
        metrics = Metrics()
        metrics.start()
        metrics.finish()
        first = metrics.wall_seconds
        metrics.start()
        metrics.finish()
        assert metrics.wall_seconds >= first

    def test_merge_sums(self):
        left = Metrics()
        left.count("derivations", 2)
        left.steps = 10
        left.wall_seconds = 0.5
        right = Metrics()
        right.count("derivations", 3)
        right.count("allocator.reserved_bytes", 16)
        right.steps = 5
        right.wall_seconds = 0.25
        left.merge(right)
        assert left.counters["derivations"] == 5
        assert left.counters["allocator.reserved_bytes"] == 16
        assert left.steps == 15
        assert left.wall_seconds == 0.75

    def test_merge_running_timer_raises(self):
        with pytest.raises(RuntimeError):
            Metrics().merge(Metrics().start())


def _square(value: int) -> int:
    return value * value


class TestParallelMap:
    def test_serial_and_parallel_agree_in_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, jobs=1) == \
            parallel_map(_square, items, jobs=2) == \
            [v * v for v in items]

    def test_resolve_jobs(self):
        import os
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)


class TestParallelEquality:
    """Parallel runs must be bit-identical to serial ones."""

    CASES = all_cases()[:12]

    def test_suite_parallel_equals_serial(self):
        serial = run_suite(CERBERUS, self.CASES, jobs=1)
        parallel = run_suite(CERBERUS, self.CASES, jobs=2)
        assert [r.outcome for r in serial.results] == \
            [r.outcome for r in parallel.results]
        assert [r.passed for r in serial.results] == \
            [r.passed for r in parallel.results]

    def test_compare_parallel_equals_serial(self):
        serial = render_compliance(compare_implementations(
            ALL_IMPLEMENTATIONS, self.CASES, jobs=1))
        parallel = render_compliance(compare_implementations(
            ALL_IMPLEMENTATIONS, self.CASES, jobs=2))
        assert serial == parallel

    def test_fuzz_parallel_equals_serial(self, tmp_path):
        # --save-known makes every group a shrink task, so this pins
        # the pool's shrinks against the serial ones as well.
        def campaign(jobs):
            corpus = tmp_path / f"jobs{jobs}"
            report = run_fuzz(seed=3, iterations=8, shrink_budget=20,
                              jobs=jobs, corpus_dir=corpus,
                              save_known=True)
            files = {path.relative_to(corpus): path.read_bytes()
                     for path in sorted(corpus.rglob("*"))
                     if path.is_file()}
            return report, files

        serial, serial_files = campaign(1)
        parallel, parallel_files = campaign(2)
        assert serial_files and serial_files == parallel_files
        assert serial.iterations == parallel.iterations
        assert serial.reference_counts == parallel.reference_counts
        assert [g.describe() for g in serial.sorted_groups()] == \
            [g.describe() for g in parallel.sorted_groups()]
        assert [(g.first_iteration, g.example.render())
                for g in serial.sorted_groups()] == \
            [(g.first_iteration, g.example.render())
             for g in parallel.sorted_groups()]
        assert sorted(g.minimized_source for g in serial.groups) == \
            sorted(g.minimized_source for g in parallel.groups)

    def test_suite_metrics_merge_parallel_equals_serial(self):
        serial = run_suite(CERBERUS, self.CASES, jobs=1,
                           with_metrics=True)
        parallel = run_suite(CERBERUS, self.CASES, jobs=2,
                             with_metrics=True)
        assert serial.metrics is not None
        assert serial.metrics.steps == parallel.metrics.steps
        # Wall time is timing-dependent; event counters are not.
        assert serial.metrics.counters == parallel.metrics.counters
        assert serial.metrics.steps > 0


class TestFuzzIterationSeeds:
    def test_iteration_seed_is_stable_and_hash_free(self):
        assert iteration_seed(0, 5) == "0:5"
        assert iteration_seed(12, 34) == "12:34"

    def test_program_reproducible_in_isolation(self):
        campaign = [program_for(7, i).render() for i in range(6)]
        # Recomputing any single iteration, in any order, matches.
        assert program_for(7, 4).render() == campaign[4]
        assert program_for(7, 0).render() == campaign[0]
        recomputed = [program_for(7, i).render()
                      for i in reversed(range(6))]
        assert recomputed == campaign[::-1]

    def test_distinct_iterations_differ(self):
        rendered = {program_for(0, i).render() for i in range(8)}
        assert len(rendered) > 1

    def test_distinct_campaigns_differ(self):
        assert [program_for(1, i).render() for i in range(4)] != \
            [program_for(2, i).render() for i in range(4)]

    def test_run_fuzz_examples_come_from_derived_seeds(self):
        report = run_fuzz(seed=3, iterations=6, shrink_budget=10)
        for group in report.groups:
            assert group.example.render() == \
                program_for(3, group.first_iteration).render()
