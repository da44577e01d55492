"""The coverage signal: unit behaviour and the determinism property.

The guided campaign's contract is that coverage is a *pure function of
the program*: the property test here runs step-identical campaigns
under every ``--evaluator`` choice and serial vs ``--jobs 4`` and
requires the resulting corpora -- whose seed entries embed the
coverage sets that earned admission -- to be byte-for-byte identical.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core.coreeval import (
    EVALUATORS, default_evaluator, set_default_evaluator,
)
from repro.fuzz.campaign import run_campaign
from repro.fuzz.coverage import (
    Coverage,
    coverage_from_events,
    coverage_of,
)
from repro.fuzz.driver import program_for


@pytest.fixture(autouse=True)
def _restore_default_evaluator():
    before = default_evaluator()
    yield
    set_default_evaluator(before)


def _tree(directory) -> dict[str, bytes]:
    directory = pathlib.Path(directory)
    return {str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


# ---------------------------------------------------------------------------
# Unit behaviour


def test_coverage_keys_are_namespaced():
    cov = Coverage(ops=frozenset({"main:3"}),
                   ub=frozenset({"UB_X"}),
                   events=frozenset({"mem.load"}))
    assert cov.keys() == {"op:main:3", "ub:UB_X", "ev:mem.load"}


def test_coverage_union_and_roundtrip():
    a = Coverage(ops=frozenset({"main:1"}), events=frozenset({"mem.load"}))
    b = Coverage(ops=frozenset({"main:2"}), ub=frozenset({"UB_X"}))
    merged = a.union(b)
    assert merged.ops == {"main:1", "main:2"}
    assert merged.ub == {"UB_X"}
    assert Coverage.from_dict(merged.to_dict()) == merged
    # JSON form is deterministic: sorted lists, stable key names.
    assert merged.to_dict()["ops"] == ["main:1", "main:2"]


def test_coverage_from_events_collects_all_three_axes():
    events = [
        {"kind": "mem.load", "core_op": "main:7"},
        {"kind": "check.ub", "ub": "UB_X", "core_op": "main:8"},
        {"kind": "intrinsic.call", "name": "cheri_tag_get"},
        {"kind": "mem.store"},
    ]
    cov = coverage_from_events(events)
    assert cov.ops == {"main:7", "main:8"}
    assert cov.ub == {"UB_X"}
    assert "check.ub:UB_X" in cov.events
    assert "intrinsic.call:cheri_tag_get" in cov.events
    assert "mem.store" in cov.events


def test_coverage_of_reaches_core_ops():
    probe = coverage_of(program_for(0, 0))
    # The traced reference run under the pinned Core evaluator
    # attributes events to function:index op ids.
    assert probe.coverage.ops
    assert all(":" in op for op in probe.coverage.ops)
    assert probe.coverage.events
    assert probe.signature is not None


# ---------------------------------------------------------------------------
# The determinism property (satellite: evaluator- and jobs-independence)


def test_coverage_probe_is_evaluator_independent():
    """coverage_of pins its own evaluator: the process default must not
    leak into the signal."""
    program = program_for(1, 3)
    probes = []
    for evaluator in EVALUATORS:
        set_default_evaluator(evaluator)
        probes.append(coverage_of(program))
    assert probes[0].coverage == probes[1].coverage
    assert probes[0].signature == probes[1].signature


@pytest.fixture(scope="module")
def baseline_tree(tmp_path_factory) -> dict[str, bytes]:
    directory = tmp_path_factory.mktemp("campaign-baseline")
    run_campaign(seed=11, iterations=6, corpus_dir=directory,
                 evaluator="core", jobs=1)
    return _tree(directory)


@pytest.mark.parametrize("evaluator", EVALUATORS)
@pytest.mark.parametrize("jobs", [1, 4])
def test_campaign_coverage_identical_across_evaluator_and_jobs(
        tmp_path, baseline_tree, evaluator, jobs):
    """Two step-identical campaigns yield identical coverage sets (and
    therefore byte-identical corpora) whatever executes them."""
    candidate_dir = tmp_path / f"{evaluator}-{jobs}"
    report = run_campaign(seed=11, iterations=6,
                          corpus_dir=candidate_dir,
                          evaluator=evaluator, jobs=jobs)
    assert not report.quarantined
    assert _tree(candidate_dir) == baseline_tree
