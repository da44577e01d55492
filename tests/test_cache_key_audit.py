"""Cache-key completeness audit (ISSUE 10, satellite 1).

Every :class:`~repro.impls.config.Implementation` field is declared as
exactly one of ``COMPILE_AXES`` (feeds the compiled program, so it must
appear in every compile-cache key and the on-disk digest), ``RUN_AXES``
(affects only running a compiled program, so it must appear in the run
configuration key and must NOT fragment the compile layers), or
``META_AXES`` (labels).  This test enforces the partition *by
reflection*: adding a new Implementation field without sorting it into
an axis tuple -- or sorting it into one the caches don't honour --
fails here, not as a silent stale-cache bug.

The key checks alone cannot catch a compile pass that starts reading a
run axis, so the partition is also checked by behaviour: compiling
every S5 case under each run-axis variant must render the same Core
program as the base, and each compile axis must change at least one.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.capability.cheriot import CHERIOT
from repro.core.compile import run_config_key
from repro.core.coreir import render_core
from repro.impls import (
    COMPILE_AXES, META_AXES, RUN_AXES, CERBERUS, Implementation,
)
from repro.impls.registry import CHERIOT_MAP
from repro.memory.model import Mode
from repro.memory.options import OOBArithPolicy, SemanticsOptions
from repro.perf.cache import CompileCache, compile_core
from repro.perf.disk import digest_for
from repro.testsuite.suite import all_cases

SOURCE = "int main(void) { return 0; }"

#: One alternate value per semantic axis, each differing from
#: CERBERUS's value on that axis.  A new axis must be added here (and
#: to exactly one axis tuple) before this module passes again.
ALTERNATES = {
    "arch": CHERIOT,
    "opt_level": 3,
    "subobject_bounds": True,
    "options": SemanticsOptions(oob_arith=OOBArithPolicy.ARCH_REPRESENTABLE),
    "mode": Mode.HARDWARE,
    "address_map": CHERIOT_MAP,
    "revocation": True,
    "allocator": "freelist",
}


def variant(axis: str) -> Implementation:
    return dataclasses.replace(CERBERUS, **{axis: ALTERNATES[axis]})


def test_axis_tuples_partition_the_implementation_fields():
    declared = COMPILE_AXES + RUN_AXES + META_AXES
    assert len(set(declared)) == len(declared), \
        "an axis is declared in more than one tuple"
    actual = {f.name for f in dataclasses.fields(Implementation)}
    assert set(declared) == actual, (
        "Implementation fields and the declared axis tuples disagree; "
        "sort every new field into COMPILE_AXES, RUN_AXES, or META_AXES")


def test_alternates_cover_every_semantic_axis():
    assert set(ALTERNATES) == set(COMPILE_AXES) | set(RUN_AXES)
    for axis, value in ALTERNATES.items():
        assert value != getattr(CERBERUS, axis), axis


@pytest.mark.parametrize("axis", COMPILE_AXES)
def test_compile_axes_reach_memo_key_and_disk_digest(axis):
    base_key = CompileCache.key_for(CERBERUS, SOURCE)
    alt_key = CompileCache.key_for(variant(axis), SOURCE)
    assert alt_key != base_key, \
        f"compile axis {axis!r} does not reach CompileCache.key_for"
    assert digest_for(alt_key) != digest_for(base_key), \
        f"compile axis {axis!r} does not reach the disk digest"


@pytest.mark.parametrize("axis", RUN_AXES)
def test_run_axes_never_fragment_the_compile_layers(axis):
    base_key = CompileCache.key_for(CERBERUS, SOURCE)
    alt_key = CompileCache.key_for(variant(axis), SOURCE)
    assert alt_key == base_key, \
        f"run-only axis {axis!r} leaked into the compile key"
    assert digest_for(alt_key) == digest_for(base_key)


@pytest.mark.parametrize("axis", RUN_AXES)
def test_run_axes_reach_the_run_config_key(axis):
    base = run_config_key(CERBERUS.fresh_model())
    alt = run_config_key(variant(axis).fresh_model())
    assert alt != base, (
        f"run axis {axis!r} does not reach run_config_key: a run memo "
        f"could be replayed under the wrong configuration")


def test_run_config_key_is_stable_for_equal_configurations():
    assert run_config_key(CERBERUS.fresh_model()) \
        == run_config_key(CERBERUS.fresh_model())


def rendered_suite(impl: Implementation) -> list[str]:
    """Every S5 case compiled uncached for ``impl``, as rendered Core."""
    return [render_core(compile_core(impl, case.source, use_cache=False))
            for case in all_cases()]


@pytest.fixture(scope="module")
def base_rendering() -> list[str]:
    return rendered_suite(CERBERUS)


@pytest.mark.parametrize("axis", RUN_AXES)
def test_run_axes_never_change_the_compiled_program(axis, base_rendering):
    assert rendered_suite(variant(axis)) == base_rendering, (
        f"a compile stage reads run axis {axis!r}: move it to "
        f"COMPILE_AXES or stop reading it before run time")


@pytest.mark.parametrize("axis", COMPILE_AXES)
def test_compile_axes_change_some_compiled_program(axis, base_rendering):
    assert rendered_suite(variant(axis)) != base_rendering, (
        f"no S5 case compiles differently under compile axis {axis!r}: "
        f"it may belong in RUN_AXES")
