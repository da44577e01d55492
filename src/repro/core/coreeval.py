"""The iterative Core evaluator.

Executes :class:`~repro.core.coreir.CoreProgram` with an explicit frame
stack: ``Invoke`` pushes a :class:`CoreFrame`, ``Ret`` pops one, and the
dispatch loop below simply runs the active frame's op list.  There is
no host recursion anywhere in the execution path -- call depth is
bounded by the deterministic ``CALL_DEPTH_LIMIT`` counting frames, and
a depth-100000 call chain terminates with a structured
``resource_exhausted`` without ever touching the host recursion limit.
There is likewise no exception-driven control flow: the AST walker's
``ReturnSignal``/``BreakSignal``/``ContinueSignal`` have no Core
counterpart (break/continue are jumps; return is a frame pop).

The evaluator subclasses :class:`~repro.core.interp.Interpreter` for
its *semantic* helpers only -- conversions, arithmetic, truthiness,
lvalue decay, the outcome classification in ``run()`` -- never for its
recursive evaluation strategy: ``_execute`` is overridden wholesale
with the frame-stack loop.

Step metering is per charged op (see the charge-matching discipline in
:mod:`repro.core.elaborate`), so budgets and traces agree with the AST
walker byte-for-byte; when a trace bus is attached, each op publishes
its id (``function:index``) as the events' ``op`` field, which is how
the explainer's causal chains point at explicit Core loads, stores, and
derivations.
"""

from __future__ import annotations

from repro.capability.permissions import Permission
from repro.core.coreir import CoreFunc, CoreProgram
from repro.core.interp import (
    Binding, CALL_DEPTH_LIMIT, Frame, Interpreter,
)
from repro.core.cast import FuncDef
from repro.errors import (
    CheriTrap, CTypeError, Outcome, TrapKind, UB, UndefinedBehaviour,
)
from repro.memory.allocation import AllocKind
from repro.memory.model import MemoryModel
from repro.memory.values import (
    IntegerValue, MemoryValue, MVInteger, PointerValue,
)
from repro.ctypes.types import INT

#: The process-wide default evaluation strategy.  ``compiled`` -- the
#: direct-threaded closure backend (:mod:`repro.core.compile`).  The
#: three-way differential gate (CI job ``evaluator-differential``)
#: holds all three evaluators byte-identical over the full suite and a
#: 500-program fuzz batch, which is what allowed flipping the default
#: first off the AST walker and now onto the compiled backend; ``ast``
#: and ``core`` stay available as differential oracles.
_DEFAULT_EVALUATOR = "compiled"

EVALUATORS = ("ast", "core", "compiled")


def set_default_evaluator(name: str) -> None:
    """Select the process-wide default (worker processes do not inherit
    the parent's choice; the engine re-applies it per task)."""
    global _DEFAULT_EVALUATOR
    if name not in EVALUATORS:
        raise ValueError(f"unknown evaluator {name!r} "
                         f"(expected one of {EVALUATORS})")
    _DEFAULT_EVALUATOR = name


def default_evaluator() -> str:
    return _DEFAULT_EVALUATOR


class CoreFrame(Frame):
    """One Core activation: the AST walker's frame plus an operand
    stack, a program counter into the function's op list, and the
    stack-allocator mark released at teardown (``None`` for the phantom
    globals-phase frame, which owns no stack storage)."""

    def __init__(self, name: str, func: CoreFunc, mark=None) -> None:
        super().__init__(name)
        self.func = func
        self.pc = 0
        self.stack: list = []
        self.mark = mark


class CoreEvaluator(Interpreter):
    """Evaluate one elaborated translation unit iteratively."""

    def __init__(self, core: CoreProgram, model: MemoryModel) -> None:
        super().__init__(core.ast, model)
        self.core = core
        self._result: MemoryValue | None = None
        #: Frames that do not count toward C call depth (the phantom
        #: globals-initialisation frame while it is live).
        self._base_frames = 0

    # ------------------------------------------------------------------
    # Top level (run() and the exception->Outcome mapping are inherited)
    # ------------------------------------------------------------------

    def _execute(self, main: str) -> Outcome:
        try:
            self._register_static_storage()
            # Globals phase: run the initialiser ops on a phantom frame
            # with empty scopes (identifier lookup falls through to the
            # globals map, as the walker's empty frame list does).  A
            # function called from a global initialiser starts at call
            # depth 0, exactly as under the walker.
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

    def _push_frame(self, frame: CoreFrame) -> None:
        """Make ``frame`` the active frame.  Every frame -- the globals
        phase's and each user call's -- enters here, so a dispatch
        strategy (:class:`~repro.core.compile.CompiledEvaluator`) can
        set its entry point in one place."""
        self.frames.append(frame)

    def _unwind_all(self) -> None:
        """Frame teardown on any raised error, innermost first --
        the Core form of the walker's per-call ``finally`` chain, so
        ``alloc.kill`` event order is identical."""
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
        # boundaries, so step accounting is byte-identical to the
        # walker's regardless of which variant runs.
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
        an extra walker ``eval`` into themselves, e.g. resolving a call
        through a function-pointer object)."""
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
        """Push a frame for a user function (the Core counterpart of
        ``call_function`` up to body entry)."""
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
        # partially-initialised frame (the walker's finally does too).
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
        the caller (``None`` -> int 0, like ``_call_user``) or record
        the raw result when the entry frame returns."""
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
        argument evaluation, as in the walker's ``_call_via_pointer``."""
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
