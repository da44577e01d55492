"""The Core evaluator: the reference execution semantics.

Executes :class:`~repro.core.coreir.CoreProgram` with an explicit frame
stack: ``Invoke`` pushes a :class:`CoreFrame`, ``Ret`` pops one, and the
dispatch loop below simply runs the active frame's op list.  There is
no host recursion anywhere in the execution path -- call depth is
bounded by the deterministic ``CALL_DEPTH_LIMIT`` counting frames, and
a depth-100000 call chain terminates with a structured
``resource_exhausted`` without ever touching the host recursion limit.
There is likewise no exception-driven control flow: break/continue are
jumps and return is a frame pop.

Every memory effect goes through the
:class:`~repro.memory.model.MemoryModel`, so the semantic content --
capability checks, ghost state, provenance, UB detection -- lives in one
place; this module contributes what Cerberus's Core evaluation
contributes: conversions (with CHERI C's integer ranks, S3.7), the
explicit capability-derivation step for arithmetic (S4.4), control
flow, and the calling convention.  The same evaluator runs in abstract
mode (the paper's semantics: UB is reported at the point the abstract
machine reaches it) and in hardware mode (the simulated Clang/GCC
implementations: traps, real tag clears, wrapping arithmetic), selected
by the memory model's mode.  The direct-threaded backend
(:mod:`repro.core.compile`) subclasses this evaluator and changes only
the dispatch strategy.

Step metering is per charged op (see the charge-matching discipline in
:mod:`repro.core.elaborate`); when a trace bus is attached, each op
publishes its id (``function:index``) as the events' ``op`` field,
which is how the explainer's causal chains point at explicit Core
loads, stores, and derivations.
"""

from __future__ import annotations

import functools
import io

from repro.capability.permissions import Permission
from repro.core.cast import FuncDef, Ident
from repro.core.coreir import CoreFunc, CoreProgram
from repro.core.semantics import (
    AbortSignal, Binding, CALL_DEPTH_LIMIT, ExitSignal, STEP_LIMIT,
    _array_of_const, _c_div, _c_mod, _c_shr, _unsigned_of,
)
from repro.ctypes.layout import TargetLayout
from repro.ctypes.types import (
    ArrayT, BOOL, CType, FuncT, IKind, INT, Integer, Pointer, PTRDIFF_T,
    StructT, UnionT, VOID, Void,
)
from repro.errors import (
    AssertionFailure, CheriTrap, CSyntaxError, CTypeError, Outcome,
    ResourceExhausted, TrapKind, UB, UndefinedBehaviour,
)
from repro.memory.allocation import AllocKind
from repro.memory.derivation import derive
from repro.memory.intrinsics import Intrinsics
from repro.memory.model import MemoryModel
from repro.memory.values import (
    IntegerValue, MemoryValue, MVArray, MVInteger, MVPointer, MVStruct,
    MVUnion, MVUnspecified, PointerValue,
)

#: The process-wide default evaluation strategy.  ``compiled`` -- the
#: direct-threaded closure backend (:mod:`repro.core.compile`).  The
#: core-vs-compiled differential gate (CI job ``evaluator-differential``)
#: holds both evaluators byte-identical over the full suite and a
#: 500-program fuzz batch; ``core`` stays available as the reference
#: the compiled backend is judged against.
_DEFAULT_EVALUATOR = "compiled"

EVALUATORS = ("core", "compiled")


def resolve_evaluator(name: str | None) -> str:
    """``name``, or the process default for ``None``; raises
    :class:`ValueError` for a name outside :data:`EVALUATORS`."""
    if name is None:
        return _DEFAULT_EVALUATOR
    if name not in EVALUATORS:
        raise ValueError(f"unknown evaluator {name!r} "
                         f"(expected one of {EVALUATORS})")
    return name


def set_default_evaluator(name: str) -> None:
    """Select the process-wide default (worker processes do not inherit
    the parent's choice; the engine re-applies it per task)."""
    global _DEFAULT_EVALUATOR
    _DEFAULT_EVALUATOR = resolve_evaluator(name)


def default_evaluator() -> str:
    return _DEFAULT_EVALUATOR


def restores_default_evaluator(func):
    """Decorate an entry point that installs its ``evaluator`` argument
    as the process default (for the tasks it runs in-process) so that
    the caller's default is back in place when it returns or raises."""
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        previous = _DEFAULT_EVALUATOR
        try:
            return func(*args, **kwargs)
        finally:
            set_default_evaluator(previous)
    return wrapper


class CoreFrame:
    """One Core activation: a scope chain, the allocations torn down
    when it returns, the variadic arguments, an operand stack, a
    program counter into the function's op list, and the
    stack-allocator mark released at teardown (``None`` for the phantom
    globals-phase frame, which owns no stack storage)."""

    def __init__(self, name: str, func: CoreFunc, mark=None) -> None:
        self.name = name
        self.scopes: list[dict[str, Binding]] = [{}]
        self.allocs: list[int] = []
        self.varargs: list[tuple[CType, MemoryValue]] = []
        self.func = func
        self.pc = 0
        self.stack: list = []
        self.mark = mark

    def push(self) -> None:
        self.scopes.append({})

    def pop(self) -> None:
        self.scopes.pop()

    def bind(self, name: str, binding: Binding) -> None:
        self.scopes[-1][name] = binding

    def lookup(self, name: str) -> Binding | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None


class CoreEvaluator:
    """Evaluate one elaborated translation unit against one memory
    model, iteratively."""

    def __init__(self, core: CoreProgram, model: MemoryModel) -> None:
        self.core = core
        self.model = model
        self.layout: TargetLayout = model.layout
        self.arch = model.arch
        self.intrinsics = Intrinsics(model)
        self.out = io.StringIO()
        self.functions: dict[str, FuncDef] = {}
        self.func_ptrs: dict[str, PointerValue] = {}
        self.func_by_addr: dict[int, str] = {}
        self.globals: dict[str, Binding] = {}
        self.statics: dict[tuple[str, str], Binding] = {}
        self.string_literals: dict[str, PointerValue] = {}
        self.frames: list[CoreFrame] = []
        self.steps = 0
        self._result: MemoryValue | None = None
        #: Frames that do not count toward C call depth (the phantom
        #: globals-initialisation frame while it is live).
        self._base_frames = 0
        #: The model's event bus (None = untraced).  Kept as a local
        #: attribute so the hot step counters pay one ``is None`` test.
        self.bus = model.bus
        #: Budget enforcement (see :mod:`repro.robust`): the step limit
        #: and deadline are flattened onto the evaluator so the hot
        #: path pays one comparison, not an attribute chase per step.
        meter = getattr(model, "meter", None)
        self.meter = meter
        self._max_steps = STEP_LIMIT
        self._deadline_at: float | None = None
        if meter is not None:
            if meter.budget.max_steps is not None:
                self._max_steps = meter.budget.max_steps
            self._deadline_at = meter.deadline_at

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def run(self, main: str = "main") -> Outcome:
        outcome = self._run(main)
        bus = self.bus
        if bus is not None:
            bus.step = self.steps
            # The outcome is a run-level summary, not tied to any op.
            bus.op = None
            bus.emit("run.outcome", outcome=outcome.kind.value,
                     ub=str(outcome.ub) if outcome.ub is not None else None,
                     trap=(str(outcome.trap) if outcome.trap is not None
                           else None),
                     exit_status=outcome.exit_status,
                     unspecified=outcome.unspecified,
                     limit=outcome.limit or None,
                     what=outcome.describe())
        return outcome

    def _cut(self, limit: str, where: str) -> None:
        """Report a budget cut-off through the meter (which emits the
        ``robust.cutoff`` event) or raise directly when ungoverned."""
        meter = self.meter
        if meter is not None:
            meter.cut(limit, where)
        raise ResourceExhausted(limit, where)

    def _steps_exhausted(self) -> None:
        self._cut("steps",
                  f"step {self.steps} over the {self._max_steps}-step "
                  f"budget")

    def _run(self, main: str) -> Outcome:
        try:
            return self._execute(main)
        except UndefinedBehaviour as exc:
            return Outcome.undefined(exc.ub, exc.detail, self.out.getvalue())
        except CheriTrap as exc:
            return Outcome.trapped(exc.kind, exc.detail, self.out.getvalue())
        except AssertionFailure as exc:
            return Outcome.aborted(str(exc), self.out.getvalue())
        except AbortSignal as exc:
            return Outcome.aborted(exc.detail, self.out.getvalue())
        except ExitSignal as exc:
            return Outcome.exited(exc.status, self.out.getvalue())
        except (CSyntaxError, CTypeError) as exc:
            return Outcome.frontend_error(str(exc))
        except ResourceExhausted as exc:
            return Outcome.resource_exhausted(exc.limit, exc.where,
                                              self.out.getvalue())
        except RecursionError:
            # Execution itself never recurses on the host; this is the
            # backstop for host-stack exhaustion inside a memory-model
            # or builtin helper.
            return Outcome.resource_exhausted(
                "python-recursion", "host interpreter recursion limit",
                self.out.getvalue())
        except MemoryError:
            return Outcome.resource_exhausted(
                "python-memory", "host interpreter out of memory",
                self.out.getvalue())

    def _execute(self, main: str) -> Outcome:
        try:
            self._register_static_storage()
            # Globals phase: run the initialiser ops on a phantom frame
            # with empty scopes (identifier lookup falls through to the
            # globals map).  A function called from a global
            # initialiser starts at call depth 0.
            self._push_frame(CoreFrame("<globals>", self.core.globals_init))
            self._base_frames = 1
            self._loop()
            self._base_frames = 0
            fdef = self.functions.get(main)
            if fdef is None or fdef.body is None:
                return Outcome.frontend_error(f"no function {main!r}")
            self.invoke_user(fdef, [], None)
            self._loop()
        except BaseException:
            self._unwind_all()
            raise
        return self._main_outcome(self._result)

    def _main_outcome(self, result: MemoryValue | None) -> Outcome:
        if isinstance(result, MVUnspecified):
            # S3.5: ghost state reached main's return value; there is
            # no single correct concrete exit status.
            return Outcome.exited_unspecified(self.out.getvalue())
        status = 0
        if result is not None and isinstance(result, MVInteger):
            status = self.layout.wrap(IKind.INT, result.ival.value())
        return Outcome.exited(status, self.out.getvalue())

    def _register_static_storage(self) -> None:
        """Register functions (with dedup of prototypes against
        definitions) and allocate all globals *before* any initialiser
        runs (so initialisers may take addresses of later globals)."""
        program = self.core.ast
        for fdef in program.functions:
            if fdef.body is None and fdef.name in self.functions:
                continue
            if fdef.body is not None or fdef.name not in self.functions:
                self.functions[fdef.name] = fdef
        for name, fdef in self.functions.items():
            ptr = self.model.allocate_function(name)
            self.func_ptrs[name] = ptr
            self.func_by_addr[ptr.address] = name
        for gdecl in program.globals:
            decl = gdecl.decl
            readonly = decl.ctype.const or _array_of_const(decl.ctype)
            ptr = self.model.allocate_object(
                decl.ctype, AllocKind.GLOBAL, decl.name, readonly=readonly)
            self.globals[decl.name] = Binding(
                decl.ctype, ptr,
                ptr.prov.ident if not ptr.prov.is_empty else 0)

    def _push_frame(self, frame: CoreFrame) -> None:
        """Make ``frame`` the active frame.  Every frame -- the globals
        phase's and each user call's -- enters here, so a dispatch
        strategy (:class:`~repro.core.compile.CompiledEvaluator`) can
        set its entry point in one place."""
        self.frames.append(frame)

    def _unwind_all(self) -> None:
        """Frame teardown on any raised error, innermost first, so the
        ``alloc.kill`` events come in the order nested calls would
        have torn their frames down."""
        frames = self.frames
        while frames:
            frame = frames.pop()
            for ident in frame.allocs:
                self.model.kill_allocation(ident)
            if frame.mark is not None:
                self.model.stack_release(frame.mark)

    # ------------------------------------------------------------------
    # The dispatch loop
    # ------------------------------------------------------------------

    def _loop(self) -> None:
        # Two inner loops over the per-function dispatch arrays
        # (coreir.finalize_func): the traced variant additionally
        # stamps ``bus.step``/``bus.op``.  Both charge *before*
        # running the op and poll the deadline at 1024-step
        # boundaries, so step accounting is identical regardless of
        # which variant runs.
        frames = self.frames
        bus = self.bus
        max_steps = self._max_steps
        while frames:
            frame = frames[-1]
            func = frame.func
            runs = func.runs
            charges = func.charges
            deadline = self._deadline_at
            if bus is not None:
                ids = func.ids
                while True:
                    pc = frame.pc
                    frame.pc = pc + 1
                    if charges[pc]:
                        steps = self.steps + 1
                        self.steps = steps
                        if steps > max_steps:
                            self._steps_exhausted()
                        if deadline is not None and \
                                not (steps & 1023):
                            self.meter.check_deadline(steps)
                        bus.step = steps
                    bus.op = ids[pc]
                    if runs[pc](self, frame):
                        break
            else:
                while True:
                    pc = frame.pc
                    frame.pc = pc + 1
                    if charges[pc]:
                        steps = self.steps + 1
                        self.steps = steps
                        if steps > max_steps:
                            self._steps_exhausted()
                        if deadline is not None and \
                                not (steps & 1023):
                            self.meter.check_deadline(steps)
                    if runs[pc](self, frame):
                        break

    def charge_step(self) -> None:
        """One evaluation step outside the loop prologue (ops that fold
        the evaluation of an extra AST node into themselves, e.g.
        resolving a call through a function-pointer object)."""
        self.steps += 1
        if self.steps > self._max_steps:
            self._steps_exhausted()
        if self._deadline_at is not None and not (self.steps & 1023):
            self.meter.check_deadline(self.steps)
        if self.bus is not None:
            self.bus.step = self.steps

    # ------------------------------------------------------------------
    # Calling convention (ops delegate here)
    # ------------------------------------------------------------------

    def invoke_user(self, fdef: FuncDef, args: list[MemoryValue],
                    varargs: list[MemoryValue] | None) -> None:
        """Push a frame for a user function and bind its parameters."""
        if fdef.body is None:
            raise CTypeError(f"call to undefined function {fdef.name!r}")
        if len(args) != len(fdef.params):
            raise CTypeError(
                f"{fdef.name} expects {len(fdef.params)} arguments, "
                f"got {len(args)}")
        depth = len(self.frames) - self._base_frames
        if depth > CALL_DEPTH_LIMIT:
            self._cut("call-depth",
                      f"call to {fdef.name}() at depth {depth} "
                      f"over the {CALL_DEPTH_LIMIT}-frame limit")
        bus = self.bus
        if bus is not None:
            bus.emit("interp.call", func=fdef.name, args=len(args),
                     depth=depth,
                     what=f"call {fdef.name}() with {len(args)} arg(s)")
        frame = CoreFrame(fdef.name, self.core.functions[fdef.name],
                          mark=self.model.stack_mark())
        # Push before parameter setup so _unwind_all tears down a
        # partially-initialised frame.
        self._push_frame(frame)
        for param, arg in zip(fdef.params, args):
            value = self.convert(arg, param.ctype)
            ptr = self.model.allocate_object(
                param.ctype, AllocKind.STACK, param.name)
            self.model.store(param.ctype, ptr, value)
            frame.bind(param.name, Binding(
                param.ctype, ptr,
                ptr.prov.ident if not ptr.prov.is_empty else 0))
            frame.allocs.append(ptr.prov.ident)
        if varargs:
            frame.varargs = [(v.ctype, v) for v in varargs]

    def return_from_frame(self, result: MemoryValue | None) -> None:
        """Pop the active frame with teardown; normalize the value for
        the caller (``None`` -> int 0) or record the raw result when the
        entry frame returns."""
        frame = self.frames.pop()
        for ident in frame.allocs:
            self.model.kill_allocation(ident)
        self.model.stack_release(frame.mark)
        if self.frames:
            self.frames[-1].stack.append(
                result if result is not None
                else MVInteger(INT, IntegerValue.of_int(0)))
        else:
            self._result = result

    def resolve_code_pointer(self, ptr: PointerValue) -> FuncDef:
        """Capability checks for an indirect call -- performed *before*
        argument evaluation."""
        cap = ptr.cap
        if self.model.hardware:
            if not cap.tag:
                raise CheriTrap(TrapKind.TAG_VIOLATION,
                                "branch via untagged capability")
            if not cap.has_perm(Permission.EXECUTE):
                raise CheriTrap(TrapKind.PERMISSION_VIOLATION,
                                "branch without EXECUTE permission")
        else:
            if cap.ghost.tag_unspecified:
                raise UndefinedBehaviour(UB.CHERI_UNDEFINED_TAG,
                                         "call via manipulated capability")
            if not cap.tag:
                raise UndefinedBehaviour(UB.CHERI_INVALID_CAP,
                                         "call via untagged capability")
            if not cap.has_perm(Permission.EXECUTE):
                raise UndefinedBehaviour(
                    UB.CHERI_INSUFFICIENT_PERMISSIONS,
                    "call without EXECUTE permission")
        name = self.func_by_addr.get(cap.address)
        if name is None:
            if self.model.hardware:
                raise CheriTrap(TrapKind.SIGSEGV,
                                "jump to non-code address")
            raise UndefinedBehaviour(UB.ACCESS_OUT_OF_BOUNDS,
                                     "call to non-function address")
        return self.functions[name]

    # ------------------------------------------------------------------
    # Objects and identifiers
    # ------------------------------------------------------------------

    def zero_value(self, ctype: CType) -> MemoryValue:
        """Static-storage zero initialisation (null pointers for
        capability-carrying types)."""
        if isinstance(ctype, Pointer):
            return MVPointer(ctype, self.model.null_pointer())
        if isinstance(ctype, Integer):
            return MVInteger(ctype, IntegerValue.of_int(0))
        if isinstance(ctype, ArrayT):
            length = ctype.length or 0
            return MVArray(ctype, tuple(self.zero_value(ctype.elem)
                                        for _ in range(length)))
        if isinstance(ctype, UnionT):
            fields = ctype.fields or ()
            if not fields:
                return MVUnion(ctype, active="", value=None)
            return MVUnion(ctype, active=fields[0].name,
                           value=self.zero_value(fields[0].ctype))
        if isinstance(ctype, StructT):
            return MVStruct(ctype, tuple(
                (f.name, self.zero_value(f.ctype))
                for f in (ctype.fields or ())))
        raise CTypeError(f"cannot zero-initialise {ctype}")

    def _lookup(self, name: str) -> Binding | None:
        if self.frames:
            binding = self.frames[-1].lookup(name)
            if binding is not None:
                return binding
        return self.globals.get(name)

    def _string_ptr(self, text: str) -> PointerValue:
        ptr = self.string_literals.get(text)
        if ptr is None:
            ptr = self.model.allocate_string(text.encode("latin-1"),
                                             name="string-literal")
            self.string_literals[text] = ptr
        return ptr

    def _eval_ident(self, expr: Ident) -> MemoryValue:
        if expr.name in self.functions:
            fdef = self.functions[expr.name]
            ftype = FuncT(ret=fdef.ret,
                          params=tuple(p.ctype for p in fdef.params),
                          variadic=fdef.variadic)
            return MVPointer(Pointer(ftype), self.func_ptrs[expr.name])
        if expr.name in ("stderr", "stdout"):
            return MVPointer(Pointer(VOID), self.model.null_pointer(
                1 if expr.name == "stderr" else 2))
        binding = self._lookup(expr.name)
        if binding is None:
            raise CTypeError(f"undeclared identifier {expr.name!r} "
                             f"(line {expr.line})")
        return self._load_decayed(binding.ctype, binding.ptr)

    def _load_decayed(self, ctype: CType,
                      ptr: PointerValue) -> MemoryValue:
        if isinstance(ctype, ArrayT):
            # Array-to-pointer decay: same capability, element type.
            return MVPointer(Pointer(ctype.elem), ptr)
        if isinstance(ctype, FuncT):
            return MVPointer(Pointer(ctype), ptr)
        return self.model.load(ctype, ptr)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def binary_op(self, op: str, lhs: MemoryValue, rhs: MemoryValue,
                  line: int) -> MemoryValue:
        lptr = isinstance(lhs, MVPointer)
        rptr = isinstance(rhs, MVPointer)
        if lptr or rptr:
            return self._pointer_binary(op, lhs, rhs, line)
        if isinstance(lhs, MVUnspecified) or isinstance(rhs, MVUnspecified):
            return MVUnspecified(lhs.ctype if isinstance(lhs, MVUnspecified)
                                 else rhs.ctype)
        if not (isinstance(lhs, MVInteger) and isinstance(rhs, MVInteger)):
            raise CTypeError(f"binary {op} on {lhs.ctype} and {rhs.ctype}")
        if op in ("<<", ">>"):
            return self._shift(op, lhs, rhs, line)
        lhs2, rhs2 = self.usual_arith(lhs, rhs)
        kind = lhs2.ctype.kind  # type: ignore[union-attr]
        a, b = lhs2.ival.value(), rhs2.ival.value()
        if op in ("==", "!=", "<", ">", "<=", ">="):
            result = {"==": a == b, "!=": a != b, "<": a < b,
                      ">": a > b, "<=": a <= b, ">=": a >= b}[op]
            return MVInteger(INT, IntegerValue.of_int(int(result)))
        if op in ("/", "%") and b == 0:
            if self.model.hardware:
                # Arm semantics: division by zero yields zero, no trap.
                return MVInteger(lhs2.ctype, IntegerValue.of_int(0))
            raise UndefinedBehaviour(UB.DIVISION_BY_ZERO, f"line {line}")
        result = {
            "+": a + b, "-": a - b, "*": a * b,
            "/": _c_div(a, b) if op == "/" else 0,
            "%": _c_mod(a, b) if op == "%" else 0,
            "&": a & b, "|": a | b, "^": a ^ b,
        }[op]
        result = self._finish_arith(kind, result, line)
        ival = derive(lhs2.ival, rhs2.ival, result,
                      signed=kind.is_signed, hardware=self.model.hardware,
                      model=self.model)
        return MVInteger(lhs2.ctype, ival)

    def _shift(self, op: str, lhs: MVInteger, rhs: MVInteger,
               line: int) -> MemoryValue:
        lhs2 = self.integer_promote(lhs)
        kind = lhs2.ctype.kind  # type: ignore[union-attr]
        width = self.layout.value_width(kind)
        amount = rhs.ival.value()
        a = lhs2.ival.value()
        if amount < 0 or amount >= width:
            if self.model.hardware:
                amount %= width
            else:
                raise UndefinedBehaviour(UB.SHIFT_OUT_OF_RANGE,
                                         f"shift by {amount} (line {line})")
        result = a << amount if op == "<<" else _c_shr(a, amount, kind)
        if op == "<<" and kind.is_signed and not self.model.hardware and \
                not self.layout.in_range(kind, result):
            raise UndefinedBehaviour(UB.SIGNED_OVERFLOW,
                                     f"<< overflow (line {line})")
        result = self.layout.wrap(kind, result)
        ival = derive(lhs2.ival, None, result,
                      signed=kind.is_signed, hardware=self.model.hardware,
                      model=self.model)
        return MVInteger(lhs2.ctype, ival)

    def _pointer_binary(self, op: str, lhs: MemoryValue, rhs: MemoryValue,
                        line: int) -> MemoryValue:
        if op == "+":
            if isinstance(lhs, MVPointer) and isinstance(rhs, MVInteger):
                return self._ptr_add(lhs, rhs, line)
            if isinstance(rhs, MVPointer) and isinstance(lhs, MVInteger):
                return self._ptr_add(rhs, lhs, line)
            raise CTypeError("invalid pointer addition")
        if op == "-":
            if isinstance(lhs, MVPointer) and isinstance(rhs, MVInteger):
                neg = MVInteger(rhs.ctype,
                                IntegerValue.of_int(-rhs.ival.value()))
                return self._ptr_add(lhs, neg, line)
            if isinstance(lhs, MVPointer) and isinstance(rhs, MVPointer):
                elem = lhs.ctype.pointee  # type: ignore[union-attr]
                diff = self.model.diff(lhs.ptr, rhs.ptr, elem)
                return MVInteger(PTRDIFF_T, IntegerValue.of_int(diff))
            raise CTypeError("invalid pointer subtraction")
        if op in ("==", "!="):
            pa = self._coerce_ptr_operand(lhs)
            pb = self._coerce_ptr_operand(rhs)
            same = self.model.eq(pa, pb)
            return MVInteger(INT, IntegerValue.of_int(
                int(same if op == "==" else not same)))
        if op in ("<", ">", "<=", ">="):
            pa = self._coerce_ptr_operand(lhs)
            pb = self._coerce_ptr_operand(rhs)
            return MVInteger(INT, IntegerValue.of_int(
                int(self.model.relational(op, pa, pb))))
        raise CTypeError(f"invalid pointer operation {op!r}")

    def _ptr_add(self, ptr: MVPointer, offset: MVInteger,
                 line: int) -> MemoryValue:
        if isinstance(offset, MVUnspecified):
            raise UndefinedBehaviour(UB.READ_UNINITIALISED,
                                     f"pointer offset (line {line})")
        elem = ptr.ctype.pointee  # type: ignore[union-attr]
        moved = self.model.array_shift(ptr.ptr, elem, offset.ival.value())
        return MVPointer(ptr.ctype, moved)

    def _coerce_ptr_operand(self, value: MemoryValue) -> PointerValue:
        if isinstance(value, MVPointer):
            return value.ptr
        if isinstance(value, MVInteger):
            # Comparing a pointer with an integer (usually the 0 of NULL).
            return self.model.int_to_ptr(value.ival, VOID)
        raise CTypeError(f"not a pointer operand: {value.ctype}")

    # ------------------------------------------------------------------
    # Conversions (ISO 6.3 with the CHERI C rank rule of S3.7)
    # ------------------------------------------------------------------

    def integer_promote(self, value: MVInteger) -> MVInteger:
        kind = value.ctype.kind  # type: ignore[union-attr]
        if self.layout.rank(kind) < self.layout.rank(IKind.INT):
            return MVInteger(INT, IntegerValue.of_int(
                self.layout.wrap(IKind.INT, value.ival.value())))
        return value

    def usual_arith(self, lhs: MVInteger,
                    rhs: MVInteger) -> tuple[MVInteger, MVInteger]:
        lhs = self.integer_promote(lhs)
        rhs = self.integer_promote(rhs)
        lk = lhs.ctype.kind  # type: ignore[union-attr]
        rk = rhs.ctype.kind  # type: ignore[union-attr]
        if lk == rk:
            return lhs, rhs
        common = self._common_kind(lk, rk)
        return (self._convert_int(lhs, Integer(common)),
                self._convert_int(rhs, Integer(common)))

    def _common_kind(self, lk: IKind, rk: IKind) -> IKind:
        lr, rr = self.layout.rank(lk), self.layout.rank(rk)
        if lr == rr:
            # Same rank: unsigned wins.
            return lk if not lk.is_signed else rk
        hi, lo = (lk, rk) if lr > rr else (rk, lk)
        if not hi.is_signed:
            return hi
        if self.layout.int_max(hi) >= self.layout.int_max(lo):
            return hi
        # Signed type cannot represent the unsigned one: unsigned version.
        return _unsigned_of(hi)

    def _convert_int(self, value: MVInteger, to: Integer) -> MVInteger:
        ival = value.ival
        wrapped = self.layout.wrap(to.kind, ival.value())
        if to.kind.is_capability_carrying:
            if ival.cap is not None:
                # (u)intptr_t <-> (u)intptr_t: the capability is carried.
                # A same-value conversion is a pure no-op (no SCVALUE is
                # executed), so even sealed capabilities pass through.
                if wrapped == ival.value():
                    return MVInteger(to, IntegerValue.of_cap(
                        ival.cap, to.is_signed, ival.prov))
                moved = (ival.with_value_hardware(wrapped)
                         if self.model.hardware
                         else ival.with_value(wrapped))
                return MVInteger(to, IntegerValue.of_cap(
                    moved.cap, to.is_signed, moved.prov))
            # Converted *from* a non-capability type: stays in the plain
            # arm (NULL-derived), which is what drives the S3.7
            # derivation rule.
            return MVInteger(to, IntegerValue.of_int(wrapped))
        # Keep byte provenance through plain conversions so char-wise
        # pointer copies round-trip (S3.5; only 1-byte stores consult it).
        return MVInteger(to, IntegerValue(num=wrapped, prov=ival.prov))

    def convert(self, value: MemoryValue, to: CType, *,
                explicit: bool = False) -> MemoryValue:
        to_stripped = to.unqualified() if not isinstance(to, ArrayT) else to
        if isinstance(value, MVUnspecified):
            return MVUnspecified(to)
        if isinstance(to_stripped, Void):
            return MVInteger(INT, IntegerValue.of_int(0))
        if isinstance(to_stripped, (ArrayT, StructT, UnionT)):
            if value.ctype.unqualified() == to_stripped.unqualified() or \
                    isinstance(value, (MVArray, MVStruct, MVUnion)):
                return value
            raise CTypeError(f"cannot convert {value.ctype} to {to}")
        if isinstance(to_stripped, Pointer):
            if isinstance(value, MVPointer):
                # Pointer-to-pointer casts (including const casts) are
                # no-ops on the capability (S3.9).
                return MVPointer(to_stripped, value.ptr)
            if isinstance(value, MVInteger):
                ptr = self.model.int_to_ptr(value.ival, to_stripped.pointee)
                return MVPointer(to_stripped, ptr)
            raise CTypeError(f"cannot convert {value.ctype} to {to}")
        if isinstance(to_stripped, Integer):
            if to_stripped.kind is IKind.BOOL:
                return MVInteger(BOOL, IntegerValue.of_int(
                    1 if self.truthy(value) else 0))
            if isinstance(value, MVPointer):
                ival = self.model.ptr_to_int(value.ptr, to_stripped.kind)
                return MVInteger(to_stripped, ival)
            if isinstance(value, MVInteger):
                return self._convert_int(value, to_stripped)
        raise CTypeError(f"cannot convert {value.ctype} to {to}")

    # ------------------------------------------------------------------
    # Misc helpers
    # ------------------------------------------------------------------

    def truthy(self, value: MemoryValue) -> bool:
        if isinstance(value, MVUnspecified):
            if self.model.hardware:
                return False
            raise UndefinedBehaviour(UB.READ_UNINITIALISED,
                                     "branch on unspecified value")
        if isinstance(value, MVInteger):
            return value.ival.value() != 0
        if isinstance(value, MVPointer):
            return value.ptr.address != 0
        raise CTypeError(f"non-scalar used in boolean context: "
                         f"{value.ctype}")

    def _finish_arith(self, kind: IKind, result: int, line: int) -> int:
        if kind.is_signed and not self.layout.in_range(kind, result):
            if not self.model.hardware:
                raise UndefinedBehaviour(UB.SIGNED_OVERFLOW,
                                         f"line {line}")
        return self.layout.wrap(kind, result)

    def _as_pointer(self, value: MemoryValue,
                    line: int) -> tuple[CType, PointerValue]:
        if isinstance(value, MVPointer):
            return value.ctype, value.ptr
        if isinstance(value, MVUnspecified):
            raise UndefinedBehaviour(UB.READ_UNINITIALISED,
                                     f"use of unspecified pointer "
                                     f"(line {line})")
        raise CTypeError(f"expected a pointer, found {value.ctype} "
                         f"(line {line})")

    def _int_of(self, value: MemoryValue, line: int) -> int:
        if isinstance(value, MVInteger):
            return value.ival.value()
        if isinstance(value, MVUnspecified):
            raise UndefinedBehaviour(UB.READ_UNINITIALISED,
                                     f"use of unspecified integer "
                                     f"(line {line})")
        raise CTypeError(f"expected an integer, found {value.ctype}")


def run_program(source: str, model: MemoryModel,
                main: str = "main") -> Outcome:
    """Parse, elaborate and run a translation unit on a caller-supplied
    memory model; never raises for program-level outcomes (UB, traps,
    aborts are returned as :class:`Outcome`)."""
    from repro.core.cparser import parse_program
    from repro.core.elaborate import elaborate_program
    try:
        core = elaborate_program(parse_program(source, model.layout))
    except (CSyntaxError, CTypeError) as exc:
        return Outcome.frontend_error(str(exc))
    return CoreEvaluator(core, model).run(main)
