"""Traversal helpers over the syntax tree: the direct children of one
node. None of them descends into a nested Block; a walk treats lambda block
bodies and hoisted anonymous-class bodies as statement regions of their
own."""

from __future__ import annotations

from typing import Iterator

from .ast import (
    ArrayAccess, Assignment, Binary, Block, BreakStmt, Cast,
    Conditional, ContinueStmt, Expr, ExprStmt, FieldAccess, IfStmt,
    InstanceOf, Invocation, Lambda, Literal, LocalDecl, LoopStmt, MethodRef,
    Name, NewArray, NewInstance, OpaqueThrow, ReturnStmt, Statement,
    ThrowStmt, TryStmt, Unary,
)


def sub_expressions(expr: Expr) -> list[Expr]:
    """Direct child expressions, left to right, excluding statement blocks."""
    if isinstance(expr, (Literal, Name, MethodRef)):
        return []
    if isinstance(expr, Invocation):
        if expr.receiver is None:
            return list(expr.arguments)
        return [expr.receiver, *expr.arguments]
    if isinstance(expr, NewInstance):
        return list(expr.arguments)
    if isinstance(expr, NewArray):
        return [*expr.dimensions, *expr.initializer]
    if isinstance(expr, FieldAccess):
        return [expr.target]
    if isinstance(expr, (Unary, Cast, InstanceOf)):
        return [expr.operand]
    if isinstance(expr, Binary):
        return [expr.left, expr.right]
    if isinstance(expr, Assignment):
        return [expr.target, expr.value]
    if isinstance(expr, Conditional):
        return [expr.condition, expr.if_true, expr.if_false]
    if isinstance(expr, ArrayAccess):
        return [expr.target, expr.index]
    if isinstance(expr, Lambda) and not isinstance(expr.body, Block):
        return [expr.body]
    return []  # a lambda with a block body


def statement_expressions(stmt: Statement) -> Iterator[Expr]:
    """Top-level expressions owned by one statement."""
    if isinstance(stmt, ExprStmt):
        yield stmt.expression
    elif isinstance(stmt, LocalDecl):
        for var in stmt.declarations:
            if var.initializer is not None:
                yield var.initializer
    elif isinstance(stmt, IfStmt):
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
        elif isinstance(stmt.thrown, OpaqueThrow):
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

