"""The allocator-policy axis (ISSUE 10): behaviour, determinism, grid.

Three layers of pinning:

* unit tests on the policy objects themselves (bump never reuses,
  freelist recycles LIFO within a size class, quarantine graduates
  FIFO after :data:`~repro.memory.allocator.QUARANTINE_CAPACITY`
  younger frees);
* end-to-end C programs whose exit status *is* the policy (the
  uintptr_t reuse probe), plus oracle attribution: a bump-vs-freelist
  divergence classifies as ``allocator-policy``, and a divergence the
  bump-policy matched reference already reproduces refines to
  ``address-map``;
* the committed allocator-grid golden (2 archs x 3 policies over the
  heap-flavoured S5 subset) and determinism properties: serial ==
  ``--jobs 4`` and stable across both evaluators, with the bump
  grid byte-identical to the pre-policy S5 compliance golden.
"""

from __future__ import annotations

import pathlib
from types import SimpleNamespace

import pytest

from repro.capability.morello import MORELLO
from repro.errors import MemoryModelError, OutcomeKind
from repro.fuzz import run_fuzz
from repro.fuzz.oracle import (
    FUZZ_TARGETS, Cause, allocator_fuzz_targets, evaluate_program,
)
from repro.impls import ALL_IMPLEMENTATIONS, by_name, with_allocator
from repro.impls.registry import (
    CERBERUS, CERBERUS_MAP, CHERIOT_HARDWARE,
)
from repro.memory.allocation import AllocKind
from repro.memory.allocator import (
    ALLOCATOR_POLICIES, QUARANTINE_CAPACITY, make_allocator,
)
from repro.obs.events import EventBus
from repro.reporting.tables import render_compliance, render_fuzz_summary
from repro.testsuite.compare import compare_implementations
from repro.testsuite.suite import all_cases

GOLDEN = pathlib.Path(__file__).parent / "golden"


# The same-size reuse probe (also a guided-fuzz template): exit status
# 1 iff the allocator returned the freed address for the next
# same-size malloc.  No dangling dereference -- pure address identity.
REUSE_PROBE = """
#include <stdlib.h>
#include <stdint.h>
int main(void) {
  int *r = (int *)malloc(8 * sizeof(int));
  uintptr_t r1 = (uintptr_t)r;
  free(r);
  int *r2 = (int *)malloc(8 * sizeof(int));
  int same = (int)(r1 == (uintptr_t)r2);
  free(r2);
  return same;
}
"""

# Quarantine churn: after freeing p and five younger blocks, the two
# oldest entries (p, t1) have graduated; LIFO free-list reuse hands the
# next malloc t1's footprint.  Exit 1 under quarantine only: freelist
# reuses t5 (youngest), bump reuses nothing.
QUARANTINE_CHURN = """
#include <stdlib.h>
#include <stdint.h>
int main(void) {
  int *p = (int *)malloc(8 * sizeof(int));
  int *t1 = (int *)malloc(8 * sizeof(int));
  int *t2 = (int *)malloc(8 * sizeof(int));
  int *t3 = (int *)malloc(8 * sizeof(int));
  int *t4 = (int *)malloc(8 * sizeof(int));
  int *t5 = (int *)malloc(8 * sizeof(int));
  uintptr_t a1 = (uintptr_t)t1;
  free(p); free(t1); free(t2); free(t3); free(t4); free(t5);
  int *q = (int *)malloc(8 * sizeof(int));
  return (int)((uintptr_t)q == a1);
}
"""

# Output depends on the heap *address range*, not on reuse: the policy
# refinement must attribute divergences on this program to address-map.
MAP_PROBE = """
#include <stdlib.h>
#include <stdint.h>
int main(void) {
  int *p = (int *)malloc(8);
  int r = (int)(((uintptr_t)p >> 28) & 0xff);
  free(p);
  return r;
}
"""


def fresh(policy: str):
    return make_allocator(policy, CERBERUS_MAP, MORELLO.compression)


def heap(alloc, size: int = 32, align: int = 8):
    return alloc.allocate(AllocKind.HEAP, size, align)


def footprint(base: int, padded: int):
    """The slice of an Allocation that release() reads."""
    return SimpleNamespace(cap_base=base, cap_size=padded)


# -- the policy objects -----------------------------------------------------

def test_registry_names_the_three_policies():
    assert set(ALLOCATOR_POLICIES) == {"bump", "freelist", "quarantine"}
    for name, cls in ALLOCATOR_POLICIES.items():
        assert cls.policy == name


def test_make_allocator_rejects_unknown_policy():
    with pytest.raises(MemoryModelError, match="unknown allocator policy"):
        make_allocator("tcache", CERBERUS_MAP, MORELLO.compression)


def test_bump_never_reuses_released_regions():
    alloc = fresh("bump")
    base, padded = heap(alloc)
    alloc.release(footprint(base, padded))
    again, _ = heap(alloc)
    assert again != base


def test_freelist_reuses_lifo_within_a_size_class():
    alloc = fresh("freelist")
    b0, s0 = heap(alloc)
    b1, s1 = heap(alloc)
    assert b0 != b1
    alloc.release(footprint(b0, s0))
    alloc.release(footprint(b1, s1))
    assert heap(alloc)[0] == b1          # most recently freed first
    assert heap(alloc)[0] == b0
    assert heap(alloc)[0] not in (b0, b1)   # pool drained: bump placement


def test_freelist_size_classes_do_not_cross():
    alloc = fresh("freelist")
    base, padded = heap(alloc, size=32)
    alloc.release(footprint(base, padded))
    other, _ = heap(alloc, size=64)
    assert other != base


def test_quarantine_delays_reuse_until_capacity_exceeded():
    alloc = fresh("quarantine")
    blocks = [heap(alloc) for _ in range(QUARANTINE_CAPACITY + 2)]
    for base, padded in blocks[:QUARANTINE_CAPACITY]:
        alloc.release(footprint(base, padded))
    held, _ = heap(alloc)                  # quarantine full, nothing out
    assert held not in [b for b, _ in blocks]
    base4, padded4 = blocks[QUARANTINE_CAPACITY]
    alloc.release(footprint(base4, padded4))   # fifth free: oldest leaves
    assert heap(alloc)[0] == blocks[0][0]


# -- end-to-end: exit status is the policy ----------------------------------

def exit_status(impl, source: str) -> int:
    out = impl.run(source)
    assert out.kind is OutcomeKind.EXIT, out
    return out.exit_status


@pytest.mark.parametrize("name,expected", [
    ("cerberus", 0),
    ("cerberus-freelist", 1),
    ("clang-morello-O0-freelist", 1),
    ("clang-riscv-O3-freelist", 1),
])
def test_reuse_probe_distinguishes_bump_from_freelist(name, expected):
    assert exit_status(by_name(name), REUSE_PROBE) == expected


def test_quarantine_holds_the_immediately_refreed_address():
    assert exit_status(by_name("cheriot-O0-quarantine"), REUSE_PROBE) == 0


def test_quarantine_churn_graduates_fifo_reuses_lifo():
    assert exit_status(by_name("cheriot-O0-quarantine"),
                       QUARANTINE_CHURN) == 1
    # The distinguisher is three-way: freelist hands back the youngest
    # free (t5), bump hands back nothing -- both exit 0.
    assert exit_status(with_allocator(CHERIOT_HARDWARE, "freelist"),
                       QUARANTINE_CHURN) == 0
    assert exit_status(CHERIOT_HARDWARE, QUARANTINE_CHURN) == 0


def test_region_reuse_event_carries_the_policy():
    bus = EventBus()
    seen = []
    bus.subscribe(lambda e: seen.append(e) if e.kind == "region.reuse"
                  else None)
    by_name("cerberus-freelist").run(REUSE_PROBE, bus=bus)
    assert seen, "freelist reuse emitted no region.reuse event"
    event = seen[0]
    assert event.data["policy"] == "freelist"
    assert event.data["padded_size"] >= 8 * 4
    assert event.data["region"] == "heap"


def test_region_quarantine_events_report_depth():
    bus = EventBus()
    depths = []
    bus.subscribe(lambda e: depths.append(e.data["depth"])
                  if e.kind == "region.quarantine" else None)
    by_name("cheriot-O0-quarantine").run(QUARANTINE_CHURN, bus=bus)
    assert len(depths) == 6                   # one per free
    assert max(depths) == QUARANTINE_CAPACITY + 1


# -- oracle attribution -----------------------------------------------------

def test_oracle_attributes_reuse_divergence_to_allocator_policy():
    targets = allocator_fuzz_targets("freelist")
    assert [t.impl.name for t in targets] == [
        "cerberus-freelist", "clang-morello-O0-freelist",
        "clang-riscv-O3-freelist"]
    verdict = evaluate_program(REUSE_PROBE, FUZZ_TARGETS + targets)
    assert verdict.clean                      # every divergence explained
    policy_divs = [d for d in verdict.divergences
                   if d.impl_name.endswith("-freelist")]
    assert len(policy_divs) == 3
    assert {d.cause for d in policy_divs} == {Cause.ALLOCATOR_POLICY}


def test_oracle_refines_map_dependent_divergence_to_address_map():
    """The bump-policy matched reference reproduces MAP_PROBE's output,
    so heap reuse is irrelevant: attribute to the address map."""
    verdict = evaluate_program(MAP_PROBE, allocator_fuzz_targets("freelist"))
    assert verdict.clean
    causes = {d.impl_name: d.cause for d in verdict.divergences}
    # cerberus-freelist shares the reference's map: no divergence at all.
    assert "cerberus-freelist" not in causes
    assert causes["clang-morello-O0-freelist"] is Cause.ADDRESS_MAP
    assert causes["clang-riscv-O3-freelist"] is Cause.ADDRESS_MAP


# -- determinism properties -------------------------------------------------

def policy_campaign(jobs: int, evaluator: str | None = None) -> str:
    report = run_fuzz(seed=11, iterations=20, jobs=jobs,
                      targets=FUZZ_TARGETS
                      + allocator_fuzz_targets("freelist"),
                      heap_reuse=True, evaluator=evaluator)
    report.elapsed = 0.0
    return render_fuzz_summary(report)


def test_policy_campaign_serial_equals_parallel():
    assert policy_campaign(jobs=1) == policy_campaign(jobs=4)


@pytest.mark.parametrize("evaluator", ["core"])
def test_policy_campaign_stable_across_evaluators(evaluator):
    assert policy_campaign(jobs=1, evaluator="compiled") \
        == policy_campaign(jobs=1, evaluator=evaluator)


def test_same_configuration_yields_identical_address_streams():
    impl = by_name("cerberus-freelist")
    first = impl.run(QUARANTINE_CHURN)
    second = impl.run(QUARANTINE_CHURN)
    assert (first.kind, first.exit_status, first.stdout) \
        == (second.kind, second.exit_status, second.stdout)


# -- the grid goldens -------------------------------------------------------

#: The heap-flavoured S5 subset the CI smoke grid runs (allocation,
#: bounds padding, and temporal-safety cases).
SMOKE_CASE_NAMES = (
    "align-malloc-result",
    "alloc-local-exact-bounds",
    "alloc-malloc-bounds-cover-request",
    "alloc-heap-disjoint",
    "alloc-global-array-bounds",
    "alloc-large-padded-representable",
    "temporal-use-after-free",
    "temporal-write-after-free",
    "temporal-double-free",
    "stdlib-realloc-moves-capabilities",
    # The one S5 case whose *claim* is policy-dependent: a dangling
    # pointer and the next same-size malloc compare equal exactly when
    # the allocator reuses the address, so the committed grid golden
    # shows it failing under freelist and passing under bump/quarantine.
    "eq-same-address-different-provenance",
)

#: One implementation per capability format: the Morello-format
#: abstract reference and the CHERIoT-format hardware machine.
GRID_BASES = (CERBERUS, CHERIOT_HARDWARE)


def smoke_cases():
    cases = tuple(c for c in all_cases() if c.name in SMOKE_CASE_NAMES)
    assert len(cases) == len(SMOKE_CASE_NAMES)
    return cases


def regenerate_allocator_grid() -> str:
    """The committed allocator-grid artefact: 2 archs x 3 policies over
    the heap-flavoured subset.  Refresh deliberately:

        python -c "from tests.test_allocator_policies import \\
            regenerate_allocator_grid; \\
            print(regenerate_allocator_grid(), end='')" \\
            > tests/golden/allocator_grid.txt
    """
    cases = smoke_cases()
    blocks = []
    for policy in sorted(ALLOCATOR_POLICIES):
        grid = tuple(with_allocator(base, policy) for base in GRID_BASES)
        reports = compare_implementations(grid, cases)
        blocks.append(f"== allocator {policy} ==\n"
                      + render_compliance(reports))
    return "\n".join(blocks)


def test_allocator_grid_is_stable():
    assert regenerate_allocator_grid() \
        == (GOLDEN / "allocator_grid.txt").read_text()


def test_bump_grid_matches_the_pre_policy_compliance_golden():
    """--allocator bump is the identity: the full S5 report under an
    explicit bump override is byte-identical to the committed golden
    produced before the policy axis existed."""
    grid = tuple(with_allocator(impl, "bump")
                 for impl in ALL_IMPLEMENTATIONS)
    assert grid == ALL_IMPLEMENTATIONS      # identity, not a copy
    rendered = render_compliance(compare_implementations(grid))
    assert rendered == (GOLDEN / "compliance.txt").read_text()
