"""Stateless leaf values shared by elaboration, the Core ops, the
builtins and the evaluator.

Kept apart from :mod:`repro.core.coreeval` so that :mod:`repro.core.coreir`,
:mod:`repro.core.elaborate` and :mod:`repro.core.builtins` can import them
without an import cycle through the evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ctypes.types import ArrayT, CType, IKind, Integer
from repro.memory.values import PointerValue


class ExitSignal(Exception):
    def __init__(self, status: int) -> None:
        self.status = status


class AbortSignal(Exception):
    def __init__(self, detail: str) -> None:
        self.detail = detail


@dataclass
class Binding:
    ctype: CType
    ptr: PointerValue
    alloc_id: int


#: The default evaluation step budget: the executable semantics is a
#: test oracle for small programs, so runaway loops indicate a broken
#: test.  A :class:`~repro.robust.Budget` on the memory model's meter
#: overrides it per run.
STEP_LIMIT = 2_000_000

#: The function-call depth ceiling.  Infinite recursion in the subject
#: program must surface as a ``resource_exhausted`` outcome at a
#: deterministic depth, independent of the host.
CALL_DEPTH_LIMIT = 200

CHAR_CONST = Integer(IKind.CHAR, const=True)


def _unsigned_of(kind: IKind) -> IKind:
    return {
        IKind.INT: IKind.UINT, IKind.LONG: IKind.ULONG,
        IKind.LLONG: IKind.ULLONG, IKind.INTPTR: IKind.UINTPTR,
        IKind.PTRDIFF: IKind.SIZE,
    }.get(kind, kind)


def _c_div(a: int, b: int) -> int:
    """C division truncates toward zero."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _c_mod(a: int, b: int) -> int:
    return a - _c_div(a, b) * b


def _c_shr(a: int, amount: int, kind: IKind) -> int:
    """Arithmetic shift for signed, logical for unsigned (on the
    already-interpreted mathematical value both are plain ``>>``)."""
    return a >> amount


def _array_of_const(ctype: CType) -> bool:
    return isinstance(ctype, ArrayT) and ctype.elem.const
