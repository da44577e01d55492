"""The executable semantics: C-subset frontend plus evaluators (S4).

Cerberus expresses ISO C as an elaboration into a small Core language
plus a memory object model.  This package reproduces that architecture
end to end: the typed AST is *elaborated*
(:mod:`repro.core.elaborate`) into an explicit-effect Core IR
(:mod:`repro.core.coreir`), and the iterative Core evaluator with an
explicit frame stack (:mod:`repro.core.coreeval`) is the one reference
execution semantics.  The direct-threaded closure backend
(:mod:`repro.core.compile`, the process default) is the one fast path,
held byte-identical to the Core evaluator by the core-vs-compiled
differential.  As in Cerberus, *all* memory-related semantics lives in
:mod:`repro.memory`; this package only performs typing, conversions,
control flow, and the explicit capability-derivation elaboration of
S4.4.
"""

from repro.core.coreeval import (
    CoreEvaluator,
    default_evaluator,
    run_program,
    set_default_evaluator,
)
from repro.core.coreir import CoreProgram, render_core
from repro.core.elaborate import ElaborationError, elaborate_program
from repro.core.cparser import parse_program

__all__ = [
    "CoreEvaluator",
    "CoreProgram",
    "ElaborationError",
    "default_evaluator",
    "elaborate_program",
    "parse_program",
    "render_core",
    "run_program",
    "set_default_evaluator",
]
