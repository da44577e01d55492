"""Robustness fuzzing: no input program may crash the machinery.

Whatever a generated program does -- UB, traps, aborts, frontend
rejection -- the result must be an :class:`~repro.errors.Outcome`, never
an internal Python exception.  Fixed seeds keep the corpus reproducible.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import Outcome
from repro.impls import ALL_IMPLEMENTATIONS, by_name

EXTRA = (by_name("cerberus-cheriot"), by_name("cheriot-O0"))


def _pointer_program(rng: random.Random) -> str:
    n = rng.randint(2, 5)
    steps = []
    for _ in range(rng.randint(2, 7)):
        k = rng.randrange(10)
        if k == 0:
            steps.append(f"  arr[{rng.randint(-1, n)}] = "
                         f"{rng.randint(-5, 5)};")
        elif k == 1:
            steps.append("  s.p = s.p + 1;")
        elif k == 2:
            steps.append("  *s.p = s.a;")
        elif k == 3:
            steps.append('  strcpy(buf, "0123456789abcdef");'
                         if rng.random() < 0.3 else '  strcpy(buf, "ok");')
        elif k == 4:
            steps.append("  { uintptr_t u = (uintptr_t)s.p;"
                         " s.p = (int*)(u ^ 0); }")
        elif k == 5:
            steps.append(f"  s.p = cheri_bounds_set(arr, "
                         f"{rng.randint(0, n * 4 + 8)});")
        elif k == 6:
            steps.append("  memset(&s, 0, sizeof s);")
        elif k == 7:
            steps.append("  memcpy(buf, buf + 1, 8);")
        elif k == 8:
            steps.append("  s.a = (int)cheri_length_get(s.p);")
        else:
            steps.append("  if (s.a) s.a--; else s.a++;")
    return "\n".join([
        "#include <string.h>",
        "#include <stdint.h>",
        "#include <cheriintrin.h>",
        "struct pair { int a; int *p; };",
        "int main(void) {",
        f"  int arr[{n}];",
        "  struct pair s;",
        "  char buf[16];",
        "  s.a = 1;",
        "  s.p = arr;",
        *steps,
        "  return s.a & 63;",
        "}",
    ])


@pytest.mark.parametrize("seed", [7, 991, 5150])
def test_no_internal_crashes(seed):
    rng = random.Random(seed)
    impls = tuple(ALL_IMPLEMENTATIONS) + EXTRA
    for _ in range(40):
        src = _pointer_program(rng)
        for impl in impls:
            outcome = impl.run(src)       # must never raise
            assert isinstance(outcome, Outcome)


def test_oracle_generator_programs_never_crash():
    import pathlib
    import sys
    examples = pathlib.Path(__file__).parent.parent / "examples"
    sys.path.insert(0, str(examples))
    try:
        from ub_oracle import ProgramGenerator
    finally:
        sys.path.remove(str(examples))
    rng = random.Random(13)
    gen = ProgramGenerator(rng)
    from repro.impls import CERBERUS
    for _ in range(60):
        outcome = CERBERUS.run(gen.generate())
        assert isinstance(outcome, Outcome)


@pytest.mark.parametrize("intrinsic", ["cheri_bounds_set",
                                       "cheri_bounds_set_exact"])
@pytest.mark.parametrize("impl_name", ["cerberus", "clang-morello-O0",
                                       "cerberus-cheriot", "cheriot-O0"])
def test_negative_bounds_length_detags_instead_of_crashing(impl_name,
                                                          intrinsic):
    # The length parameter is size_t, so -1 converts to SIZE_MAX
    # (C11 6.5.2.2p7): a region past the end of the address space,
    # which no capability grants, so the result is untagged.
    src = "\n".join([
        "#include <cheriintrin.h>",
        "int main(void) {",
        "  int a[4] = {1, 2, 3, 4};",
        f"  int *p = {intrinsic}(a, -1);",
        "  return cheri_tag_get(p);",
        "}",
    ])
    outcome = by_name(impl_name).run(src)
    assert outcome == Outcome.exited(0)
