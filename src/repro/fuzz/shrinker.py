"""AST-level minimisation of divergent or crashing fuzz programs.

Classic greedy delta debugging over the fuzz statement IR: repeatedly
try to (1) delete whole statements, (2) move integer slots strictly
toward zero, and (3) shrink the prologue array/heap lengths, keeping a
candidate only when the caller's predicate still holds (the failure
signature is preserved).  Runs to a fixpoint or until the evaluation
budget is spent.  All candidate orders are deterministic, so a given
(program, predicate) pair always shrinks to the same result.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.fuzz.generator import FuzzProgram

Predicate = Callable[[FuzzProgram], bool]

#: Default cap on predicate evaluations per shrink (each evaluation is a
#: handful of interpreter runs, so this bounds shrink latency).
DEFAULT_MAX_EVALS = 300


class _Budget:
    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.spent = 0

    def take(self) -> bool:
        if self.spent >= self.limit:
            return False
        self.spent += 1
        return True


def _slot_candidates(value: int) -> list[int]:
    """Simpler replacement values to try, most aggressive first.

    Every candidate is strictly closer to zero than ``value``, so an
    accepted replacement always makes progress: a slot can never flip
    back and forth (0 -> 1 -> 0 ...) until the budget runs out.
    """
    candidates = []
    for cand in (0, 1, value // 2, value - 1):
        if abs(cand) < abs(value) and cand not in candidates:
            candidates.append(cand)
    return candidates


def _drop_statements(program: FuzzProgram, predicate: Predicate,
                     budget: _Budget) -> tuple[FuzzProgram, bool]:
    changed = False
    index = 0
    while index < len(program.stmts):
        if not budget.take():
            return program, changed
        candidate = program.without_stmt(index)
        if predicate(candidate):
            program = candidate
            changed = True
        else:
            index += 1
    return program, changed


def _simplify_slots(program: FuzzProgram, predicate: Predicate,
                    budget: _Budget) -> tuple[FuzzProgram, bool]:
    changed = False
    for index, stmt in enumerate(program.stmts):
        for slot_index, value in enumerate(stmt.slots):
            for cand in _slot_candidates(value):
                if not budget.take():
                    return program, changed
                new_stmt = program.stmts[index].with_slot(slot_index, cand)
                candidate = program.with_stmt(index, new_stmt)
                if predicate(candidate):
                    program = candidate
                    changed = True
                    break
    return program, changed


def _shrink_lengths(program: FuzzProgram, predicate: Predicate,
                    budget: _Budget) -> tuple[FuzzProgram, bool]:
    changed = False
    for attr in ("arr_len", "heap_len"):
        while getattr(program, attr) > 2:
            if not budget.take():
                return program, changed
            candidate = replace(program,
                                **{attr: getattr(program, attr) - 1})
            if not predicate(candidate):
                break
            program = candidate
            changed = True
    return program, changed


def shrink(program: FuzzProgram, predicate: Predicate,
           max_evals: int = DEFAULT_MAX_EVALS) -> FuzzProgram:
    """Minimise ``program`` while ``predicate`` keeps holding.

    The input program must satisfy the predicate; the result always
    does.  ``max_evals`` bounds the number of predicate evaluations.
    """
    if not predicate(program):
        raise ValueError("shrink: the input program must satisfy the "
                         "predicate")
    budget = _Budget(max_evals)
    while True:
        program, dropped = _drop_statements(program, predicate, budget)
        program, simplified = _simplify_slots(program, predicate, budget)
        program, shrunk = _shrink_lengths(program, predicate, budget)
        if not (dropped or simplified or shrunk):
            return program
