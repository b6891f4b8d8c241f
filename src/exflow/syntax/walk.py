"""Traversal helpers over the syntax tree: the direct children of one
node. None of them descends into a nested Block; a walk treats lambda block
bodies and hoisted anonymous-class bodies as statement regions of their
own. A statement whose expression the parser dropped has none to yield."""

from __future__ import annotations

from typing import Iterator

from .ast import (
    Block, BreakStmt, Cast, ContinueStmt, Expr, ExprStmt, FieldAccess,
    IfStmt, Invocation, Lambda, LocalDecl, LoopStmt, NewInstance,
    OpaqueThrow, Operands, ReturnStmt, Statement, ThrowStmt, TryStmt,
)


def sub_expressions(expr: Expr) -> tuple[Expr, ...]:
    """Direct child expressions, left to right, excluding statement blocks."""
    if isinstance(expr, Operands):
        return expr.parts
    if isinstance(expr, Invocation):
        if expr.receiver is None:
            return expr.arguments
        return (expr.receiver, *expr.arguments)
    if isinstance(expr, NewInstance):
        return expr.arguments
    if isinstance(expr, FieldAccess):
        return (expr.target,)
    if isinstance(expr, Cast):
        return (expr.operand,)
    if isinstance(expr, Lambda) and not isinstance(expr.body, Block):
        return (expr.body,)
    return ()  # a name, a literal, or a lambda with a block body


def statement_expressions(stmt: Statement) -> Iterator[Expr]:
    """Top-level expressions owned by one statement."""
    if isinstance(stmt, ExprStmt):
        if stmt.expression is not None:
            yield stmt.expression
    elif isinstance(stmt, LocalDecl):
        for var in stmt.declarations:
            if var.initializer is not None:
                yield var.initializer
    elif isinstance(stmt, IfStmt):
        if stmt.condition is not None:
            yield stmt.condition
    elif isinstance(stmt, LoopStmt):
        if stmt.condition is not None:
            yield stmt.condition
        yield from stmt.update
    elif isinstance(stmt, ReturnStmt):
        if stmt.value is not None:
            yield stmt.value
    elif isinstance(stmt, ThrowStmt):
        if isinstance(stmt.thrown, NewInstance):
            yield stmt.thrown
        elif (isinstance(stmt.thrown, OpaqueThrow)
              and stmt.thrown.expression is not None):
            yield stmt.thrown.expression


def statement_children(stmt: Statement) -> Iterator[Statement]:
    """Direct child statements (try clauses included; callers that filter
    exceptions through catch clauses must handle TryStmt before this)."""
    if isinstance(stmt, Block):
        yield from stmt.statements
    elif isinstance(stmt, IfStmt):
        yield stmt.then_branch
        if stmt.else_branch is not None:
            yield stmt.else_branch
    elif isinstance(stmt, LoopStmt):
        yield from stmt.init
        yield stmt.body
    elif isinstance(stmt, TryStmt):
        yield stmt.body
        for clause in stmt.catches:
            yield clause.body
        if stmt.finally_block is not None:
            yield stmt.finally_block
    elif isinstance(stmt, (ExprStmt, LocalDecl, ReturnStmt, ThrowStmt,
                           ContinueStmt, BreakStmt)):
        return

