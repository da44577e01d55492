"""Abstract syntax for the CHERI C subset.

Every node carries a source line for error reporting.  The AST is plain
data: elaboration into Core (:mod:`repro.core.elaborate`) gives it
meaning, and the modelled optimiser (:mod:`repro.core.optimizer`)
rewrites it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ctypes.types import CType


@dataclass(frozen=True)
class Node:
    line: int = field(default=0, kw_only=True)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr(Node):
    pass


@dataclass(frozen=True)
class IntLit(Expr):
    value: int = 0
    ctype: CType | None = None   # resolved by the parser from suffix/base


@dataclass(frozen=True)
class StrLit(Expr):
    value: str = ""


@dataclass(frozen=True)
class Ident(Expr):
    name: str = ""


@dataclass(frozen=True)
class Unary(Expr):
    """Prefix ops: ``- + ~ ! & *``, plus ``++``/``--`` (pre and post)."""

    op: str = ""
    operand: Expr = None  # type: ignore[assignment]
    postfix: bool = False


@dataclass(frozen=True)
class Binary(Expr):
    op: str = ""
    lhs: Expr = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Assign(Expr):
    """``=`` and the compound assignments (op is "" for plain ``=``)."""

    op: str = ""
    target: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Conditional(Expr):
    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    other: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Cast(Expr):
    ctype: CType = None  # type: ignore[assignment]
    operand: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Call(Expr):
    func: Expr = None  # type: ignore[assignment]
    args: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class Index(Expr):
    base: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Member(Expr):
    base: Expr = None  # type: ignore[assignment]
    name: str = ""
    arrow: bool = False


@dataclass(frozen=True)
class SizeofType(Expr):
    ctype: CType = None  # type: ignore[assignment]


@dataclass(frozen=True)
class SizeofExpr(Expr):
    operand: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class AlignofType(Expr):
    ctype: CType = None  # type: ignore[assignment]


@dataclass(frozen=True)
class OffsetofExpr(Expr):
    ctype: CType = None  # type: ignore[assignment]
    member: str = ""


@dataclass(frozen=True)
class Comma(Expr):
    lhs: Expr = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class VaArg(Expr):
    """``va_arg(ap, type)``: fetch the next variadic argument."""

    ap: Expr = None  # type: ignore[assignment]
    ctype: CType = None  # type: ignore[assignment]


@dataclass(frozen=True)
class InitList(Expr):
    items: tuple[Expr, ...] = ()


# ---------------------------------------------------------------------------
# Statements and declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stmt(Node):
    pass


@dataclass(frozen=True)
class ExprStmt(Stmt):
    expr: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Declarator:
    name: str
    ctype: CType
    init: Expr | None = None
    line: int = 0


@dataclass(frozen=True)
class DeclStmt(Stmt):
    decls: tuple[Declarator, ...] = ()
    static: bool = False


@dataclass(frozen=True)
class Block(Stmt):
    stmts: tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: Stmt = None  # type: ignore[assignment]
    other: Stmt | None = None


@dataclass(frozen=True)
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]
    do_while: bool = False


@dataclass(frozen=True)
class For(Stmt):
    init: Stmt | None = None     # DeclStmt or ExprStmt
    cond: Expr | None = None
    step: Expr | None = None
    body: Stmt = None  # type: ignore[assignment]


@dataclass(frozen=True)
class SwitchCase:
    """One ``case`` (or ``default`` when ``value`` is None) label: the
    index of the statement it jumps to within the switch body."""

    value: int | None
    index: int


@dataclass(frozen=True)
class Switch(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    stmts: tuple[Stmt, ...] = ()
    cases: tuple[SwitchCase, ...] = ()


@dataclass(frozen=True)
class Return(Stmt):
    value: Expr | None = None


@dataclass(frozen=True)
class Break(Stmt):
    pass


@dataclass(frozen=True)
class Continue(Stmt):
    pass


@dataclass(frozen=True)
class Empty(Stmt):
    pass


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    name: str
    ctype: CType


@dataclass(frozen=True)
class FuncDef(Node):
    name: str = ""
    ret: CType = None  # type: ignore[assignment]
    params: tuple[Param, ...] = ()
    variadic: bool = False
    body: Block | None = None   # None for a declaration (prototype)


@dataclass(frozen=True)
class GlobalDecl(Node):
    decl: Declarator = None  # type: ignore[assignment]
    static: bool = False


@dataclass(frozen=True)
class Program(Node):
    functions: tuple[FuncDef, ...] = ()
    globals: tuple[GlobalDecl, ...] = ()
