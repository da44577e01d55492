"""Elaboration: typed AST -> Core IR.

The repo's analogue of Cerberus's C-to-Core elaboration (the paper,
S2.2).  Every implicit step of C evaluation becomes an explicit op in
the emitted Core: integer-rank conversions (``ConvertTo``), lvalue
decay (``LoadFrom`` / ``LoadIdent``), short-circuit and sequence-point
ordering (jump structure over a flat op list), and the S4.4
capability-derivation step (inside ``BinOp``/``UnaryArith``/``IncDec``,
which call :func:`repro.memory.derivation.derive` explicitly).

Two properties the rest of the stack depends on:

* **Elaboration is total** over parser output.  Programs the AST walker
  only rejects *when execution reaches the offending node* (calling an
  unknown function, an initialiser list outside a declaration, ``++``
  on a struct, ...) elaborate to a ``RaiseOp`` at the same execution
  point, so both evaluators agree on every outcome -- including which
  of two errors wins when a program contains both.
  :class:`ElaborationError` exists for *malformed* ASTs that the parser
  can never produce.

* **Charge matching.**  The AST walker counts one step per
  ``eval``/``exec_stmt`` call, pre-order.  Elaboration emits exactly
  one charged op per AST node at the same pre-order position (interior
  nodes get a standalone ``Charge``; leaf ops fold the charge in), so
  step budgets, cut-off points, deadline polls, and traced event step
  numbers are identical across evaluators -- the differential gate
  checks reports byte-for-byte.
"""

from __future__ import annotations

from repro.core.cast import (
    AlignofType, Assign, Binary, Block, Break, Call, Cast, Comma,
    Conditional, Continue, DeclStmt, Empty, Expr, ExprStmt, For, FuncDef,
    Ident, If, Index, InitList, IntLit, Member, OffsetofExpr, Program,
    Return, SizeofExpr, SizeofType, Stmt, StrLit, Switch, Unary, VaArg,
    While,
)
from repro.core.coreir import (
    AddrFunc, AddrOf, BinOp, BuildArray, BuildStruct, BuildUnion, Charge,
    ConvertTo, CoreFunc, CoreProgram, DeclAlloc, GlobalStore, Halt, IncDec,
    InitStore, Invoke, Jump, JumpIfFalse, JumpIfTrue, LoadForAssign,
    LoadFrom, LoadIdent, LvArrow, LvDeref, LvDot, LvError, LvIdent,
    LvIndex, LvString, NotOp, Op, PopScope, PopScopes, PopValue, PushInt,
    PushScope, PushString, PushStrArray, PushZero, RaiseOp, ResolveCall,
    ResolveTarget, Ret, SizeofOf, StaticBind, StaticCheck, StoreCompound,
    StoreValue, SwitchDispatch, TypeInfo, UnaryArith, VaArgOp, VaCopy,
    VaStart, finalize_func,
)
from repro.core.interp import CHAR_CONST, _array_of_const
from repro.ctypes.types import ArrayT, INT, StructT, UnionT, Void
from repro.errors import CTypeError


class ElaborationError(CTypeError):
    """A structurally malformed AST reached the elaborator.  Parser
    output never triggers this (elaboration is total over it); it is a
    front-end rejection, cached by :class:`repro.perf.CompileCache`
    exactly like syntax and type errors."""


class _Label:
    """A forward-reference jump target, patched to a pc at finish."""

    __slots__ = ("pc",)

    def __init__(self) -> None:
        self.pc: int | None = None


class _LoopCtx:
    """Targets for break/continue with the static scope depth each
    unwinds to (``PopScopes`` replaces the AST walker's signal
    exceptions)."""

    __slots__ = ("break_label", "break_depth", "continue_label",
                 "continue_depth")

    def __init__(self, break_label, break_depth, continue_label,
                 continue_depth) -> None:
        self.break_label = break_label
        self.break_depth = break_depth
        self.continue_label = continue_label
        self.continue_depth = continue_depth


class _FuncElaborator:
    """Emit the flat op list for one function body (or the globals
    initialisation pseudo-function)."""

    def __init__(self, funcnames: frozenset | set, func_name: str,
                 fdef: FuncDef | None) -> None:
        self.funcnames = funcnames
        self.func_name = func_name
        self.fdef = fdef
        self.ops: list[Op] = []
        self.depth = 0                # lexical scope depth inside the body
        self.loops: list[_LoopCtx] = []
        self._fixups: list[tuple] = []
        self._switch_patches: list[SwitchDispatch] = []

    # -- emission machinery -------------------------------------------

    def emit(self, op: Op) -> Op:
        self.ops.append(op)
        return op

    def here(self) -> int:
        return len(self.ops)

    def mark(self, label: _Label) -> None:
        label.pc = len(self.ops)

    def jump(self, cls, label: _Label, line: int = 0) -> Op:
        op = cls(-1, line)
        self._fixups.append((op, label))
        return self.emit(op)

    def finish(self) -> CoreFunc:
        for op, label in self._fixups:
            op.target = label.pc
        is_main = self.func_name == "main"
        self.emit(Ret("falloff", None, is_main))
        return finalize_func(CoreFunc(self.func_name, self.fdef, self.ops))

    # -- statements ---------------------------------------------------

    def stmt(self, node: Stmt) -> None:
        self.emit(Charge(type(node).__name__, node.line))
        if isinstance(node, Empty):
            return
        if isinstance(node, ExprStmt):
            self.expr(node.expr)
            self.emit(PopValue())
            return
        if isinstance(node, DeclStmt):
            for decl in node.decls:
                self.declaration(decl, static=node.static)
            return
        if isinstance(node, Block):
            self.emit(PushScope())
            self.depth += 1
            for sub in node.stmts:
                self.stmt(sub)
            self.depth -= 1
            self.emit(PopScope())
            return
        if isinstance(node, If):
            after = _Label()
            self.expr(node.cond)
            if node.other is None:
                self.jump(JumpIfFalse, after, node.line)
                self.stmt(node.then)
            else:
                other = _Label()
                self.jump(JumpIfFalse, other, node.line)
                self.stmt(node.then)
                self.jump(Jump, after, node.line)
                self.mark(other)
                self.stmt(node.other)
            self.mark(after)
            return
        if isinstance(node, While):
            self._while(node)
            return
        if isinstance(node, For):
            self._for(node)
            return
        if isinstance(node, Switch):
            self._switch(node)
            return
        if isinstance(node, Return):
            if node.value is not None:
                self.expr(node.value)
                ret_ctype = None if self.fdef is None or \
                    isinstance(self.fdef.ret, Void) else self.fdef.ret
                self.emit(Ret("value", ret_ctype,
                              self.func_name == "main", node.line))
            else:
                self.emit(Ret("void", None, self.func_name == "main",
                              node.line))
            return
        # The parser rejects break/continue outside an enclosing loop
        # or switch (C11 6.8.6.2p1, 6.8.6.3p1), so a target exists.
        if isinstance(node, Break):
            ctx = self.loops[-1]
            self._unwind_to(ctx.break_depth, node.line)
            self.jump(Jump, ctx.break_label, node.line)
            return
        if isinstance(node, Continue):
            ctx = next(ctx for ctx in reversed(self.loops)
                       if ctx.continue_label is not None)
            self._unwind_to(ctx.continue_depth, node.line)
            self.jump(Jump, ctx.continue_label, node.line)
            return
        self.emit(RaiseOp(
            CTypeError, (f"unhandled statement {type(node).__name__}",),
            node.line))

    def _unwind_to(self, target_depth: int, line: int) -> None:
        count = self.depth - target_depth
        if count:
            self.emit(PopScopes(count, line))

    def _while(self, node: While) -> None:
        cond = _Label()
        end = _Label()
        if node.do_while:
            body = _Label()
            self.mark(body)
            self.loops.append(_LoopCtx(end, self.depth, cond, self.depth))
            self.stmt(node.body)
            self.loops.pop()
            self.mark(cond)
            self.expr(node.cond)
            self.jump(JumpIfTrue, body, node.line)
        else:
            self.mark(cond)
            self.expr(node.cond)
            self.jump(JumpIfFalse, end, node.line)
            self.loops.append(_LoopCtx(end, self.depth, cond, self.depth))
            self.stmt(node.body)
            self.loops.pop()
            self.jump(Jump, cond, node.line)
        self.mark(end)

    def _for(self, node: For) -> None:
        cond = _Label()
        step = _Label()
        end = _Label()
        self.emit(PushScope())
        self.depth += 1
        if node.init is not None:
            self.stmt(node.init)
        self.mark(cond)
        if node.cond is not None:
            self.expr(node.cond)
            self.jump(JumpIfFalse, end, node.line)
        self.loops.append(_LoopCtx(end, self.depth, step, self.depth))
        self.stmt(node.body)
        self.loops.pop()
        self.mark(step)
        if node.step is not None:
            self.expr(node.step)
            self.emit(PopValue())
        self.jump(Jump, cond, node.line)
        self.mark(end)
        self.depth -= 1
        self.emit(PopScope())

    def _switch(self, node: Switch) -> None:
        exit_ = _Label()
        self.expr(node.cond)
        dispatch = SwitchDispatch(
            tuple((c.value, c.index) for c in node.cases), node.line)
        self.emit(dispatch)
        stmt_labels = [_Label() for _ in node.stmts]
        # Break unwinds the switch scope too (the AST walker's finally).
        self.loops.append(_LoopCtx(exit_, self.depth, None, 0))
        self.depth += 1
        for label, sub in zip(stmt_labels, node.stmts):
            self.mark(label)
            self.stmt(sub)
        self.depth -= 1
        self.loops.pop()
        self.emit(PopScope())
        self.mark(exit_)
        self._fixups.append((_SwitchEnd(dispatch), exit_))
        dispatch.stmt_targets = stmt_labels
        self._switch_patches.append(dispatch)

    # -- declarations and initialisers --------------------------------

    def declaration(self, decl, *, static: bool) -> None:
        if static:
            key = (self.func_name, decl.name)
            check = StaticCheck(key, decl, decl.line)
            self.emit(check)
            if decl.init is None:
                self.emit(PushZero(decl.ctype, decl.line))
            else:
                self.initializer(decl.init, decl.ctype)
            self.emit(InitStore())
            bind = _Label()
            self.mark(bind)
            self.emit(StaticBind(key, decl.name, decl.line))
            self._fixups.append((_StaticEnd(check), bind))
            return
        readonly = decl.ctype.const or _array_of_const(decl.ctype)
        self.emit(DeclAlloc(decl, readonly, decl.init is not None,
                            decl.line))
        if decl.init is not None:
            self.initializer(decl.init, decl.ctype)
            self.emit(InitStore())

    def initializer(self, init: Expr, ctype) -> None:
        """Emit ops leaving the (already converted) initialiser value on
        the operand stack -- the Core form of ``eval_initializer``."""
        if isinstance(init, InitList):
            self._init_list(init, ctype)
            return
        if isinstance(init, StrLit) and isinstance(ctype, ArrayT):
            self.emit(PushStrArray(ctype, init.value, init.line))
            return
        self.expr(init)
        self.emit(ConvertTo(ctype, False, init.line))

    def _init_list(self, init: InitList, ctype) -> None:
        if isinstance(ctype, ArrayT):
            length = ctype.length if ctype.length is not None \
                else len(init.items)
            given = min(length, len(init.items))
            for i in range(given):
                self.initializer(init.items[i], ctype.elem)
            self.emit(BuildArray(ctype, length, given, init.line))
            return
        if isinstance(ctype, UnionT):
            fields = ctype.fields or ()
            if not init.items or not fields:
                self.emit(BuildUnion(ctype, "", init.line))
                return
            first = fields[0]
            self.initializer(init.items[0], first.ctype)
            self.emit(BuildUnion(ctype, first.name, init.line))
            return
        if isinstance(ctype, StructT):
            fields = ctype.fields or ()
            given = min(len(fields), len(init.items))
            for i in range(given):
                self.initializer(init.items[i], fields[i].ctype)
            self.emit(BuildStruct(ctype, given, init.line))
            return
        if len(init.items) == 1:
            self.initializer(init.items[0], ctype)
            return
        self.emit(RaiseOp(
            CTypeError, (f"brace initialiser for scalar type {ctype}",),
            init.line))

    # -- expressions --------------------------------------------------

    def expr(self, node: Expr) -> None:
        """Rvalue elaboration: exactly one charged op for this node
        (before its sub-evaluations), matching the walker's ``eval``."""
        if isinstance(node, IntLit):
            self.emit(PushInt(node.ctype or INT, node.value, node.line))
            return
        if isinstance(node, StrLit):
            self.emit(PushString(node.value, node.line))
            return
        if isinstance(node, Ident):
            self.emit(LoadIdent(node, node.line))
            return
        self.emit(Charge(type(node).__name__, node.line))
        if isinstance(node, Unary):
            self._unary(node)
            return
        if isinstance(node, Binary):
            self._binary(node)
            return
        if isinstance(node, Assign):
            self.lvalue(node.target)
            if node.op:
                self.emit(LoadForAssign())
                self.expr(node.value)
                self.emit(StoreCompound(node.op, node.line))
            else:
                self.expr(node.value)
                self.emit(StoreValue(node.line))
            return
        if isinstance(node, Conditional):
            other = _Label()
            after = _Label()
            self.expr(node.cond)
            self.jump(JumpIfFalse, other, node.line)
            self.expr(node.then)
            self.jump(Jump, after, node.line)
            self.mark(other)
            self.expr(node.other)
            self.mark(after)
            return
        if isinstance(node, Cast):
            self.expr(node.operand)
            self.emit(ConvertTo(node.ctype, True, node.line))
            return
        if isinstance(node, Comma):
            self.expr(node.lhs)
            self.emit(PopValue())
            self.expr(node.rhs)
            return
        if isinstance(node, Call):
            self._call(node)
            return
        if isinstance(node, Index):
            self.expr(node.base)
            self.expr(node.index)
            self.emit(LvIndex(node.line))
            self.emit(LoadFrom())
            return
        if isinstance(node, Member):
            self._member_lvalue(node)
            self.emit(LoadFrom())
            return
        if isinstance(node, SizeofType):
            self.ops[-1] = TypeInfo("sizeof", node.ctype, "", node.line)
            return
        if isinstance(node, SizeofExpr):
            self._sizeof_expr(node)
            return
        if isinstance(node, AlignofType):
            self.ops[-1] = TypeInfo("alignof", node.ctype, "", node.line)
            return
        if isinstance(node, OffsetofExpr):
            self.ops[-1] = TypeInfo("offsetof", node.ctype, node.member,
                                    node.line)
            return
        if isinstance(node, VaArg):
            self.lvalue(node.ap)
            self.emit(VaArgOp(node.ctype, node.line))
            return
        if isinstance(node, InitList):
            self.emit(RaiseOp(
                CTypeError, ("initialiser list outside a declaration",),
                node.line))
            return
        self.emit(RaiseOp(
            CTypeError, (f"unhandled expression {type(node).__name__}",),
            node.line))

    def lvalue(self, node: Expr) -> None:
        """Lvalue elaboration (``lval`` in the walker): leaves a
        ``(ctype, pointer)`` pair; charges only for sub-*evaluations*,
        never for the lvalue node itself."""
        if isinstance(node, Ident):
            self.emit(LvIdent(node, node.line))
            return
        if isinstance(node, Unary) and node.op == "*":
            self.expr(node.operand)
            self.emit(LvDeref(node.line))
            return
        if isinstance(node, Index):
            self.expr(node.base)
            self.expr(node.index)
            self.emit(LvIndex(node.line))
            return
        if isinstance(node, Member):
            self._member_lvalue(node)
            return
        if isinstance(node, StrLit):
            self.emit(LvString(node.value, node.line))
            return
        if isinstance(node, Cast):
            self.emit(LvError("cast expressions are not lvalues",
                              node.line))
            return
        self.emit(LvError(
            f"expression is not an lvalue: {type(node).__name__} "
            f"(line {node.line})", node.line))

    def _member_lvalue(self, node: Member) -> None:
        if node.arrow:
            self.expr(node.base)
            self.emit(LvArrow(node.name, node.line))
        else:
            self.lvalue(node.base)
            self.emit(LvDot(node.name, node.line))

    def _unary(self, node: Unary) -> None:
        op = node.op
        if op == "&":
            if isinstance(node.operand, Ident) and \
                    node.operand.name in self.funcnames:
                self.emit(AddrFunc(node.operand, node.line))
                return
            self.lvalue(node.operand)
            self.emit(AddrOf())
            return
        if op == "*":
            self.expr(node.operand)
            self.emit(LvDeref(node.line))
            self.emit(LoadFrom())
            return
        if op in ("++", "--"):
            self.lvalue(node.operand)
            self.emit(IncDec(op, node.postfix, node.line))
            return
        self.expr(node.operand)
        if op == "!":
            self.emit(NotOp())
        else:
            self.emit(UnaryArith(op, node.line))

    def _binary(self, node: Binary) -> None:
        op = node.op
        if op in ("&&", "||"):
            shortcut = _Label()
            after = _Label()
            jump_cls = JumpIfFalse if op == "&&" else JumpIfTrue
            self.expr(node.lhs)
            self.jump(jump_cls, shortcut, node.line)
            self.expr(node.rhs)
            self.jump(jump_cls, shortcut, node.line)
            self.emit(PushInt(INT, 1 if op == "&&" else 0, node.line,
                              charge=False))
            self.jump(Jump, after, node.line)
            self.mark(shortcut)
            self.emit(PushInt(INT, 0 if op == "&&" else 1, node.line,
                              charge=False))
            self.mark(after)
            return
        self.expr(node.lhs)
        self.expr(node.rhs)
        self.emit(BinOp(op, node.line))

    def _call(self, node: Call) -> None:
        if isinstance(node.func, Ident):
            name = node.func.name
            if name in ("va_start", "va_end", "va_copy"):
                self._va_builtin(name, node)
                return
            self.emit(ResolveCall(node, node.line))
        else:
            self.expr(node.func)
            self.emit(ResolveTarget(node.line))
        for arg in node.args:
            self.expr(arg)
        self.emit(Invoke(len(node.args), node.line))

    def _va_builtin(self, name: str, node: Call) -> None:
        if name == "va_end":
            # va_end evaluates no arguments and yields 0.
            self.emit(PushInt(INT, 0, node.line, charge=False))
            return
        if name == "va_start":
            if len(node.args) != 2:
                self.emit(RaiseOp(CTypeError,
                                  ("va_start expects (ap, last)",),
                                  node.line))
                return
            # The second argument (`last`) is never evaluated.
            self.lvalue(node.args[0])
            self.emit(VaStart(node.line))
            return
        if len(node.args) != 2:
            self.emit(RaiseOp(CTypeError, ("va_copy expects (dst, src)",),
                              node.line))
            return
        self.lvalue(node.args[0])
        self.expr(node.args[1])
        self.emit(VaCopy(node.line))

    def _sizeof_expr(self, node: SizeofExpr) -> None:
        """Mirror ``type_of``'s static descent; a node it cannot type
        statically becomes an evaluated leaf (the walker's fallback of
        evaluating the operand and taking its ``.ctype``)."""
        steps: list[tuple] = []
        leaf = node.operand
        while True:
            if isinstance(leaf, IntLit):
                leaf_desc = ("static", leaf.ctype or INT)
                break
            if isinstance(leaf, StrLit):
                leaf_desc = ("static",
                             ArrayT(elem=CHAR_CONST,
                                    length=len(leaf.value) + 1))
                break
            if isinstance(leaf, Ident):
                leaf_desc = ("ident", leaf.name)
                break
            if isinstance(leaf, Cast):
                leaf_desc = ("static", leaf.ctype)
                break
            if isinstance(leaf, Unary) and leaf.op == "*":
                steps.append(("deref",))
                leaf = leaf.operand
                continue
            if isinstance(leaf, Unary) and leaf.op == "&":
                steps.append(("addr",))
                leaf = leaf.operand
                continue
            if isinstance(leaf, Index):
                steps.append(("index",))
                leaf = leaf.base
                continue
            if isinstance(leaf, Member):
                steps.append(("member", leaf.name, leaf.arrow))
                leaf = leaf.base
                continue
            leaf_desc = ("eval",)
            break
        steps.reverse()
        if leaf_desc[0] == "eval":
            self.expr(leaf)
        self.emit(SizeofOf(leaf_desc, tuple(steps), node.line))


class _SwitchEnd:
    """Fixup shim: patches a SwitchDispatch's ``end`` field when the
    shared label-fixup pass assigns targets."""

    __slots__ = ("dispatch",)

    def __init__(self, dispatch: SwitchDispatch) -> None:
        self.dispatch = dispatch

    @property
    def target(self):
        return self.dispatch.end

    @target.setter
    def target(self, pc):
        self.dispatch.end = pc


class _StaticEnd:
    """Fixup shim for a StaticCheck's already-initialised jump."""

    __slots__ = ("check",)

    def __init__(self, check: StaticCheck) -> None:
        self.check = check

    @property
    def target(self):
        return self.check.bind_target

    @target.setter
    def target(self, pc):
        self.check.bind_target = pc


def _resolve_switches(func_el: _FuncElaborator) -> None:
    for dispatch in func_el._switch_patches:
        dispatch.stmt_targets = tuple(
            label.pc for label in dispatch.stmt_targets)


def _registered_functions(program: Program) -> dict[str, FuncDef]:
    """The same prototype-vs-definition dedup the interpreter performs
    at setup (a definition always wins over a prototype)."""
    functions: dict[str, FuncDef] = {}
    for fdef in program.functions:
        if fdef.body is None and fdef.name in functions:
            continue
        if fdef.body is not None or fdef.name not in functions:
            functions[fdef.name] = fdef
    return functions


def elaborate_program(program: Program) -> CoreProgram:
    """Elaborate a typed AST ``Program`` into a :class:`CoreProgram`.

    Total over parser output: programs that fail at runtime under the
    AST walker elaborate to Core that fails identically at the same
    execution point.
    """
    if not isinstance(program, Program):
        raise ElaborationError(
            f"cannot elaborate {type(program).__name__}: expected a typed "
            f"AST Program")
    functions = _registered_functions(program)
    funcnames = frozenset(functions)
    core_funcs: dict[str, CoreFunc] = {}
    for name, fdef in functions.items():
        if fdef.body is None:
            core_funcs[name] = CoreFunc(name, fdef, [])
            continue
        el = _FuncElaborator(funcnames, name, fdef)
        for sub in fdef.body.stmts:
            el.stmt(sub)
        func = el.finish()
        _resolve_switches(el)
        core_funcs[name] = func
    gel = _FuncElaborator(funcnames, "<globals>", None)
    for gdecl in program.globals:
        decl = gdecl.decl
        if decl.init is None:
            gel.emit(PushZero(decl.ctype, decl.line))
        else:
            gel.initializer(decl.init, decl.ctype)
        gel.emit(GlobalStore(decl.name, decl.line))
    gel.emit(Halt())
    for op, label in gel._fixups:
        op.target = label.pc
    _resolve_switches(gel)
    globals_init = finalize_func(
        CoreFunc("<globals>", None, gel.ops))
    return CoreProgram(program, core_funcs, globals_init)
