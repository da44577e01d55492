"""Tests of the benchmark itself: ``python -m pytest perfbench/``."""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import layers
import run
import workloads

ROOT = run.ROOT
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def innermost():
        clock.now += 4

    def inner():
        clock.now += 2
        wrapped_innermost()

    def outer():
        clock.now += 1
        wrapped_inner()
        clock.now += 8

    wrapped_innermost = tracer.span("a", innermost)
    wrapped_inner = tracer.span("b", inner)
    tracer.span("a", outer)()

    a, b = tracer.stats("a"), tracer.stats("b")
    assert (a.calls, a.self_s, a.incl_s) == (2, 13, 15)
    assert (b.calls, b.self_s, b.incl_s) == (1, 2, 6)
    assert tracer.self_total() == clock.now


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def fail():
        clock.now += 3
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.span("x", fail)()
    tracer.span("y", lambda: None)()
    assert tracer.stats("x").self_s == 3
    assert not tracer.is_open("x")
    assert tracer.stats("y").incl_s == 0


def test_counter_and_hooks():
    tracer = layers.Tracer()
    counted = tracer.counter("obs.emit", "calls", lambda: 7)
    assert [counted(), counted()] == [7, 7]
    assert tracer.stats("obs.emit").counters == {"calls": 2}
    assert tracer.stats("obs.emit").calls == 0


def test_failure_counting():
    golden = workloads.GOLDEN.read_text()
    counts = workloads.parse_compliance(golden)
    assert len(counts) == 7
    assert counts["cerberus"] == {"pass": 94, "fail": 0, "no-claim": 0}

    def report(name, passed, failed, unclaimed, quarantined=0):
        return SimpleNamespace(
            impl=SimpleNamespace(name=name), passed=passed, failed=failed,
            unclaimed=unclaimed, quarantined=quarantined,
            results=[None] * (passed + failed + unclaimed + quarantined))

    assert workloads.moved_verdicts([report("cerberus", 94, 0, 0)],
                                    counts) == 0
    # Two passes became a fail and a no-claim; one run was quarantined.
    assert workloads.moved_verdicts([report("cerberus", 91, 1, 1, 1)],
                                    counts) == 3
    assert workloads.moved_verdicts([report("unknown", 2, 0, 1)],
                                    counts) == 3

    fuzz = SimpleNamespace(findings=[SimpleNamespace(count=2),
                                     SimpleNamespace(count=1)],
                           quarantined=[5])
    assert workloads.fuzz_failures(fuzz) == 4
    campaign = SimpleNamespace(finding_hits=1, quarantined=[])
    assert workloads.campaign_failures(campaign) == 1


def layer_metric_names():
    result = workloads.UnitResult(
        cold_s=1.0, steady_programs=1, steady_s=1.0, programs=1, failed=0,
        signature=None,
        cache={f"{layer}.{kind}": 0 for layer in workloads.CACHE_LAYERS
               for kind in ("hits", "misses")} | {"compiles_performed": 0})
    return run.layer_metrics(layers.Tracer(), layers.Tracer(), result,
                             1.0, 1.0)


def test_metric_names_and_benchmark_file_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    produced = layer_metric_names()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == {name: unit for name, (_, unit) in produced.items()}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in spec["end_to_end"])


def originals():
    sites = [site for table in (layers.TIMED_LAYERS, layers.COUNTED_LAYERS,
                                layers.POOL_LAYER)
             for group in table.values() for site in group]
    values = {}
    for module_name, path in sites:
        owner, name = layers._resolve(module_name, path)
        values[(module_name, path)] = (getattr(owner, name),
                                       name in vars(owner))
    return values


def tree(root: pathlib.Path) -> set[str]:
    return {str(path.relative_to(root)) for path in root.rglob("*")
            if "__pycache__" not in path.parts
            and ".pytest_cache" not in path.parts}


def test_traced_run_restores_wrappers_and_leaves_no_files(
        tmp_path, monkeypatch):
    home = tmp_path / "home"
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    before = originals()
    files = tree(ROOT)
    cases = workloads.all_cases()[:3]
    with run.scratch_space() as scratch:
        golden = workloads.render_compliance(
            workloads.compare_implementations(
                workloads.ALL_IMPLEMENTATIONS, cases))
        workload = workloads.Compliance(0, cases=cases, golden=golden)
        results, metrics = run.traced(run.Runner(workload, scratch))
        assert scratch.is_dir()
    assert not scratch.exists()
    assert originals() == before
    assert tree(ROOT) == files
    assert not (home / ".cache").exists()
    assert [p for r in results for p in r.problems] == []
    assert metrics["core.execute.runs"][0] == 2 * 3 * 7
    assert metrics["perf.pool.items"][0] == 2 * 3 * 7
    assert metrics["core.parse.calls"][0] == 3


def test_uninstall_after_a_failed_install(monkeypatch):
    before = originals()
    table = dict(layers.TIMED_LAYERS)
    table["broken"] = (("repro.perf.cache", "no_such_function"),)
    monkeypatch.setattr(layers, "TIMED_LAYERS", table)
    tracer = layers.Tracer()
    with pytest.raises(AttributeError):
        tracer.install()
    assert not tracer.installed
    monkeypatch.undo()
    assert originals() == before


def test_untraced_runs_a_fixed_number_of_units():
    calls = []

    def unit(index, jobs):
        calls.append((index, jobs))
        return index, 1000.0     # slower than any nominal unit cost

    runner = SimpleNamespace(
        workload=SimpleNamespace(unit_s=10.0, jobs=2), unit=unit)
    assert run.untraced(runner, 30) == [0, 1, 2]
    assert calls == [(0, 2), (1, 2), (2, 2)]


def test_unit_counts_at_the_declared_run_seconds():
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "run_seconds"]
    counts = {name: run.unit_count(cls, seconds)
              for name, cls in workloads.WORKLOADS.items()}
    assert counts == {"compliance": 12, "fuzz-blind": 1, "fuzz-guided": 2}
    for cls in workloads.WORKLOADS.values():
        assert run.unit_count(cls, 0.1) == 1


def test_guided_runs_the_same_campaigns_at_every_seed():
    def campaigns(seed):
        guided = workloads.GuidedFuzz(seed)
        return [guided.campaign_seed(index) for index in range(2)]

    assert campaigns(0) == [0, 1]
    assert campaigns(7) == [1, 0]
    assert {tuple(sorted(campaigns(seed))) for seed in range(10)} \
        == {(0, 1)}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compliance",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert "{" not in child.stdout
