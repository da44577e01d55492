"""Direct-threaded compilation of Core IR (the ``compiled`` evaluator).

:func:`compile_core` lowers each Core function's flat op list into a
table of pre-bound Python closures.  Dispatch is *direct-threaded*:
every closure finishes by returning the next closure to run, so the
inner loop is ``k = k(ev, frame)`` -- no per-step dict or array
indexing (the dispatch arrays of :class:`~repro.core.coreeval
.CoreEvaluator` are indexed once per op; here only control transfers
index the table).  Three superinstructions fuse the hot op pairs
(load+binop, cmp+branch, const+store), and member/offset resolution
gets a per-site inline cache.  Compilation is a pure function of the
Core program: no implementation, mode, or memory state is consulted.

Semantic ground rules (the whole point of the core-vs-compiled
differential gate):

* **Charge identity.**  Every closure charges exactly the steps its
  ops would have charged under the Core loop, *before* running, with
  the same step-budget cut-off message and the same 1024-step deadline
  poll, so ``resource_exhausted`` outcomes are byte-identical.
* **One run prologue.**  Static-storage registration and the globals
  phase are the inherited :meth:`CoreEvaluator._execute`; this backend
  only supplies each pushed frame's entry closure
  (:meth:`CompiledEvaluator._push_frame`).
* **Traced runs delegate.**  When an event bus is attached the
  evaluator runs the inherited Core dispatch loop over the *same*
  ``CoreProgram``, so every event carries the stable ``function:index``
  op id and ``bus.step`` stamp the explainer expects; tracing already
  pays per-event costs that dwarf dispatch, and delegation makes event
  identity structural rather than re-proved per optimisation.

Run memoisation: a run with no event bus, no budget meter, and no fault
plan is a *pure* function of the compiled program and the run
configuration -- programs are frozen, the allocator is deterministic,
and every observable (exit status, stdout, UB, trap, unspecified-ness)
lands in the frozen :class:`~repro.errors.Outcome`.  The evaluator
therefore memoises the complete Outcome per ``(entry point, run
configuration)`` on the :class:`CompiledProgram`: the first run of each
configuration executes for real (and is what the core-vs-compiled
differential gate checks), repeats are served from the memo.  Traced,
metered, or fault-injected runs never consult or populate it.  This is
the dominant term in the compliance benchmark's warm-cache speedup; the
fuzz axis (fresh programs every iteration, no memo hits) is what
isolates raw dispatch performance -- both are reported in
``BENCH_engine.json``.

Closures do not pickle; :class:`CompiledProgram` reduces to its
retained :class:`~repro.core.coreir.CoreProgram` and is recompiled on
unpickle, which yields the same closure tables, plans and slot ids.
"""

from __future__ import annotations

from repro.core.coreeval import CoreEvaluator, CoreFrame
from repro.core.coreir import (
    BinOp, Charge, CoreFunc, CoreProgram, Halt, InitStore, Invoke, Jump,
    JumpIfFalse, JumpIfTrue, LoadFrom, LoadIdent, LvArrow, LvDot, PushInt,
    Ret, StaticCheck, StoreValue, SwitchDispatch, render_func,
)
from repro.ctypes.types import Pointer, StructT, UnionT
from repro.errors import CTypeError, Outcome
from repro.memory.model import MemoryModel
from repro.memory.values import IntegerValue, MVInteger

__all__ = [
    "CompiledFunc", "CompiledProgram", "CompiledEvaluator",
    "compile_core", "render_compiled",
]


# ---------------------------------------------------------------------------
# Compiled containers
# ---------------------------------------------------------------------------


class CompiledFunc:
    """One function's closure table.

    ``entry`` is the first closure (``None`` for an empty op list);
    ``plan`` and ``slot_ids`` are deterministic descriptions of the
    slot structure (op or fused pair per table start), used by tests
    and ``--dump-core`` -- compiling the same ``CoreFunc`` twice yields
    identical plans and slot ids.
    """

    __slots__ = ("name", "core", "table", "entry", "plan", "slot_ids")

    def __init__(self, name: str, core: CoreFunc, table, plan) -> None:
        self.name = name
        self.core = core
        self.table = table
        self.entry = table[0] if table else None
        self.plan = plan
        self.slot_ids = tuple(_slot_id(name, entry) for entry in plan)


def _slot_id(fname: str, entry: tuple) -> str:
    kind, index, detail = entry
    return f"{fname}:{index}:{kind}:{detail}"


def run_config_key(model) -> tuple:
    """Every run-only axis of a :class:`MemoryModel`, as a memo key.

    A compiled program is valid across all of these axes (the compile
    caches are deliberately policy-/mode-/map-independent), so the run
    memo must key on *every* one of them -- missing one silently
    aliases outcomes across configurations.  The cache-key
    audit (``tests/test_cache_key_audit.py``) cross-checks this tuple
    against :data:`repro.impls.config.RUN_AXES`.

    ``type(model)`` matters too: the seeded-fault implementations
    (:mod:`repro.impls.faults`) share every configuration axis with
    their clean base and differ only in the MemoryModel subclass, so a
    memoised outcome must never cross model classes.
    """
    return (type(model), model.mode, model.arch.name,
            model.state.allocator.address_map,
            model.state.allocator.policy,
            model.subobject_bounds, model.options, model.revocation)


class CompiledProgram:
    """A Core program lowered to closure tables.

    Retains the :class:`~repro.core.coreir.CoreProgram` (whose ``ast``
    backs static-storage registration, and whose dispatch arrays back
    traced runs), plus the pure-run outcome memo.
    """

    __slots__ = ("core", "functions", "globals_init", "outcomes")

    def __init__(self, core: CoreProgram,
                 functions: dict[str, CompiledFunc],
                 globals_init: CompiledFunc) -> None:
        self.core = core
        self.functions = functions
        self.globals_init = globals_init
        #: (main, run-config key) -> Outcome for pure runs (no bus, no
        #: meter, no faults); see "Run memoisation" in the module
        #: docstring.  Process-local, never pickled.
        self.outcomes: dict = {}

    def __reduce__(self):
        # Closures do not pickle: reduce to the Core program and
        # recompile on unpickle.
        return (compile_core, (self.core,))


# ---------------------------------------------------------------------------
# Jump targets and superinstruction selection
# ---------------------------------------------------------------------------


def _jump_targets(ops) -> set[int]:
    """Every pc that some op can transfer control to.  A fused pair
    must never have one of these as its second op."""
    targets: set[int] = set()
    for op in ops:
        cls = type(op)
        if cls is Jump or cls is JumpIfFalse or cls is JumpIfTrue:
            targets.add(op.target)
        elif cls is SwitchDispatch:
            targets.update(op.stmt_targets)
            targets.add(op.end)
        elif cls is StaticCheck:
            targets.add(op.bind_target)
    return targets


_CMP_OPS = frozenset(("<", "<=", ">", ">=", "==", "!="))


def _pair_kind(op, op2) -> str | None:
    """The superinstruction table: exactly the three hot pairs, fused
    only when the charge pattern keeps step accounting a prefix of the
    pair (first op may charge; second never does)."""
    if op2.charge:
        return None
    t1, t2 = type(op), type(op2)
    if t2 is BinOp and (t1 is LoadIdent and op.charge
                        or t1 is LoadFrom and not op.charge):
        return "load_binop"
    if (t1 is BinOp and not op.charge and op.op in _CMP_OPS
            and (t2 is JumpIfFalse or t2 is JumpIfTrue)):
        return "cmp_branch"
    if t1 is PushInt and (t2 is StoreValue or t2 is InitStore):
        return "const_store"
    return None


# ---------------------------------------------------------------------------
# Closure factories
#
# The charge prologue is written out inline in each charged closure (a
# helper call would cost what threading saves).  It is byte-for-byte
# the Core loop's: charge before running, cut with the same message,
# poll the deadline on 1024-step boundaries.
# ---------------------------------------------------------------------------


def _charge_closure(nxt):
    def clos(ev, frame):
        steps = ev.steps + 1
        ev.steps = steps
        if steps > ev._max_steps:
            ev._steps_exhausted()
        if ev._deadline_at is not None and not (steps & 1023):
            ev.meter.check_deadline(steps)
        return nxt
    return clos


def _push_int_closure(op, nxt):
    mv = MVInteger(op.ctype, IntegerValue.of_int(op.value))
    if op.charge:
        def clos(ev, frame):
            steps = ev.steps + 1
            ev.steps = steps
            if steps > ev._max_steps:
                ev._steps_exhausted()
            if ev._deadline_at is not None and not (steps & 1023):
                ev.meter.check_deadline(steps)
            frame.stack.append(mv)
            return nxt
    else:
        def clos(ev, frame):
            frame.stack.append(mv)
            return nxt
    return clos


def _jump_closure(table, target):
    def clos(ev, frame):
        return table[target]
    return clos


def _branch_closure(table, target, nxt, branch_when):
    if branch_when:
        def clos(ev, frame):
            if ev.truthy(frame.stack.pop()):
                return table[target]
            return nxt
    else:
        def clos(ev, frame):
            if ev.truthy(frame.stack.pop()):
                return nxt
            return table[target]
    return clos


def _pc_closure(op, index, table):
    """Computed-goto ops (switch dispatch, static check) keep their pc
    protocol: give them the Core loop's ``pc+1`` and continue at
    whatever slot they leave ``frame.pc`` on."""
    run = op.run
    fallthrough = index + 1

    def clos(ev, frame):
        frame.pc = fallthrough
        run(ev, frame)
        return table[frame.pc]
    return clos


def _invoke_closure(op, nxt):
    run = op.run

    def clos(ev, frame):
        frame.resume = nxt
        if run(ev, frame):
            return None
        return nxt
    return clos


def _final_closure(op):
    run = op.run

    def clos(ev, frame):
        run(ev, frame)
        return None
    return clos


def _lv_member_closure(op, nxt):
    """``lv_arrow`` / ``lv_dot`` with a per-site monomorphic inline
    cache over the struct type's identity: field type and offset are
    resolved once per site per struct type (Core programs are cached
    and reused, so type identity is stable across runs)."""
    member = op.member
    line = op.line
    arrow = type(op) is LvArrow
    cache = [None, None, 0]

    def clos(ev, frame):
        stack = frame.stack
        if arrow:
            base = stack.pop()
            btype, bptr = ev._as_pointer(base, line)
            if not isinstance(btype, Pointer) or \
                    not isinstance(btype.pointee, StructT):
                raise CTypeError(f"-> on non-struct-pointer {base.ctype}")
            stype = btype.pointee
        else:
            stype, bptr = stack.pop()
            if not isinstance(stype, StructT):
                raise CTypeError(f". on non-struct {stype}")
        if cache[0] is stype:
            member_t = cache[1]
            offset = cache[2]
        else:
            member_t = stype.field_type(member)
            offset = ev.layout.offsetof(stype, member)
            cache[0] = stype
            cache[1] = member_t
            cache[2] = offset
        stack.append((member_t, ev.model.member_shift(
            bptr, stype, member, offset=offset, member_t=member_t)))
        return nxt
    return clos


def _generic_closure(op, nxt):
    run = op.run
    if op.charge:
        def clos(ev, frame):
            steps = ev.steps + 1
            ev.steps = steps
            if steps > ev._max_steps:
                ev._steps_exhausted()
            if ev._deadline_at is not None and not (steps & 1023):
                ev.meter.check_deadline(steps)
            run(ev, frame)
            return nxt
    else:
        def clos(ev, frame):
            run(ev, frame)
            return nxt
    return clos


def _op_closure(op, index, nxt, table):
    t = type(op)
    if t is Charge:
        return _charge_closure(nxt)
    if t is PushInt:
        return _push_int_closure(op, nxt)
    if t is Jump:
        clos = _jump_closure(table, op.target)
    elif t is JumpIfFalse:
        clos = _branch_closure(table, op.target, nxt, False)
    elif t is JumpIfTrue:
        clos = _branch_closure(table, op.target, nxt, True)
    elif t is SwitchDispatch or t is StaticCheck:
        clos = _pc_closure(op, index, table)
    elif t is Invoke:
        clos = _invoke_closure(op, nxt)
    elif t is Ret or t is Halt:
        clos = _final_closure(op)
    elif t is LvArrow or t is LvDot:
        clos = _lv_member_closure(op, nxt)
    else:
        return _generic_closure(op, nxt)
    # The elaborator never charges control/lvalue ops (the Charge op
    # carries the step); if that ever changes, chain the prologue in
    # front rather than silently dropping the step.
    return _charge_closure(clos) if op.charge else clos


# -- fused closures ---------------------------------------------------------


def _load_binop_closure(op1, op2, nxt):
    bop = op2.op
    line = op2.line
    if type(op1) is LoadIdent:
        expr = op1.expr

        def clos(ev, frame):
            steps = ev.steps + 1
            ev.steps = steps
            if steps > ev._max_steps:
                ev._steps_exhausted()
            if ev._deadline_at is not None and not (steps & 1023):
                ev.meter.check_deadline(steps)
            stack = frame.stack
            rhs = ev._eval_ident(expr)
            lhs = stack.pop()
            stack.append(ev.binary_op(bop, lhs, rhs, line))
            return nxt
    else:  # LoadFrom (uncharged)
        def clos(ev, frame):
            stack = frame.stack
            ctype, ptr = stack.pop()
            rhs = ev._load_decayed(ctype, ptr)
            lhs = stack.pop()
            stack.append(ev.binary_op(bop, lhs, rhs, line))
            return nxt
    return clos


def _cmp_branch_closure(op1, op2, nxt, table):
    bop = op1.op
    line = op1.line
    target = op2.target
    if type(op2) is JumpIfTrue:
        def clos(ev, frame):
            stack = frame.stack
            rhs = stack.pop()
            lhs = stack.pop()
            if ev.truthy(ev.binary_op(bop, lhs, rhs, line)):
                return table[target]
            return nxt
    else:
        def clos(ev, frame):
            stack = frame.stack
            rhs = stack.pop()
            lhs = stack.pop()
            if ev.truthy(ev.binary_op(bop, lhs, rhs, line)):
                return nxt
            return table[target]
    return clos


def _const_store_closure(op1, op2, nxt):
    mv = MVInteger(op1.ctype, IntegerValue.of_int(op1.value))
    charged = op1.charge
    if type(op2) is InitStore:
        if charged:
            def clos(ev, frame):
                steps = ev.steps + 1
                ev.steps = steps
                if steps > ev._max_steps:
                    ev._steps_exhausted()
                if ev._deadline_at is not None and not (steps & 1023):
                    ev.meter.check_deadline(steps)
                ctype, ptr = frame.stack.pop()
                ev.model.store(ctype, ptr, mv, initialising=True)
                return nxt
        else:
            def clos(ev, frame):
                ctype, ptr = frame.stack.pop()
                ev.model.store(ctype, ptr, mv, initialising=True)
                return nxt
    else:  # StoreValue
        if charged:
            def clos(ev, frame):
                steps = ev.steps + 1
                ev.steps = steps
                if steps > ev._max_steps:
                    ev._steps_exhausted()
                if ev._deadline_at is not None and not (steps & 1023):
                    ev.meter.check_deadline(steps)
                stack = frame.stack
                ctype, ptr = stack.pop()
                converted = ev.convert(mv, ctype)
                if isinstance(ctype, UnionT):
                    raise CTypeError(
                        "whole-union assignment is not supported")
                ev.model.store(ctype, ptr, converted)
                stack.append(converted)
                return nxt
        else:
            def clos(ev, frame):
                stack = frame.stack
                ctype, ptr = stack.pop()
                converted = ev.convert(mv, ctype)
                if isinstance(ctype, UnionT):
                    raise CTypeError(
                        "whole-union assignment is not supported")
                ev.model.store(ctype, ptr, converted)
                stack.append(converted)
                return nxt
    return clos


# ---------------------------------------------------------------------------
# The compile pass
# ---------------------------------------------------------------------------


def _compile_func(func: CoreFunc) -> CompiledFunc:
    ops = func.ops
    n = len(ops)
    targets = _jump_targets(ops)

    # Slot structure: fused pair or single op per start.
    slots: list[tuple] = []
    i = 0
    while i < n:
        j = i + 1
        if j < n and j not in targets:
            kind = _pair_kind(ops[i], ops[j])
            if kind is not None:
                slots.append(("fused", i, kind))
                i += 2
                continue
        slots.append(("op", i, ops[i].name))
        i += 1

    # Build closures back-to-front so each slot's successor exists for
    # direct pre-binding; control transfers go through ``table`` (one
    # list index per *taken* branch, none per straight-line op).
    table: list = [None] * n
    for kind, start, detail in reversed(slots):
        if kind == "fused":
            nxt = table[start + 2] if start + 2 < n else None
            if detail == "load_binop":
                table[start] = _load_binop_closure(
                    ops[start], ops[start + 1], nxt)
            elif detail == "cmp_branch":
                table[start] = _cmp_branch_closure(
                    ops[start], ops[start + 1], nxt, table)
            else:
                table[start] = _const_store_closure(
                    ops[start], ops[start + 1], nxt)
        else:
            nxt = table[start + 1] if start + 1 < n else None
            table[start] = _op_closure(ops[start], start, nxt, table)
    return CompiledFunc(func.name, func, table, tuple(slots))


def compile_core(program: CoreProgram) -> CompiledProgram:
    """Lower ``program`` into direct-threaded closure tables."""
    functions = {name: _compile_func(func)
                 for name, func in program.functions.items()}
    globals_init = _compile_func(program.globals_init)
    return CompiledProgram(program, functions, globals_init)


def render_compiled(compiled: CompiledProgram) -> str:
    """The ``--dump-core`` listing under the compiled evaluator: the
    Core listing per function plus the pairs the compiler fused.
    Deterministic, suitable for golden tests."""
    sections = []
    funcs = []
    gi = compiled.globals_init
    if gi.core.ops and len(gi.core.ops) > 1:
        funcs.append(gi)
    funcs.extend(cf for cf in compiled.functions.values() if cf.core.ops)
    for cf in funcs:
        lines = [render_func(cf.core)]
        notes = [f"    fuse {start}+{start + 1} {kind}"
                 for slot, start, kind in cf.plan if slot == "fused"]
        if notes:
            lines.append("  compiled:")
            lines.extend(notes)
        sections.append("\n".join(lines))
    return "\n\n".join(sections) + "\n"


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------


class CompiledEvaluator(CoreEvaluator):
    """Run a :class:`CompiledProgram` by direct-threaded dispatch.

    Inherits every semantic helper and the calling convention from
    :class:`~repro.core.coreeval.CoreEvaluator`; only the dispatch
    strategy differs.  Traced runs (an attached bus) delegate wholesale
    to the inherited Core loop -- see the module docstring."""

    def __init__(self, compiled: CompiledProgram,
                 model: MemoryModel) -> None:
        super().__init__(compiled.core, model)
        self.compiled = compiled

    # -- dispatch ----------------------------------------------------------

    def _loop(self) -> None:
        if self.bus is not None:
            return super()._loop()
        frames = self.frames
        while frames:
            frame = frames[-1]
            k = frame.resume
            while k is not None:
                k = k(self, frame)

    def _push_frame(self, frame: CoreFrame) -> None:
        if self.bus is None:
            compiled = self.compiled
            cf = (compiled.globals_init
                  if frame.func is compiled.core.globals_init
                  else compiled.functions[frame.name])
            frame.resume = cf.entry
        super()._push_frame(frame)

    # -- top level ---------------------------------------------------------

    def run(self, main: str = "main") -> Outcome:
        """Run ``main``, serving pure repeat runs from the run memo.

        A run with no bus, no meter (hence no budget and no fault
        plan) is deterministic in the compiled program and the run
        configuration, so its frozen Outcome is shared across repeats;
        any attached instrumentation bypasses the memo entirely (the
        run must actually step to emit events, charge budgets, or meet
        a fault plan).  On a memo hit this evaluator has not executed:
        ``steps`` stays 0 and ``out`` stays empty.
        """
        if self.bus is None and self.meter is None:
            key = (main, run_config_key(self.model))
            outcome = self.compiled.outcomes.get(key)
            if outcome is None:
                outcome = super().run(main)
                self.compiled.outcomes[key] = outcome
            return outcome
        return super().run(main)
