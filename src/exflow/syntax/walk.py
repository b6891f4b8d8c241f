"""Traversal helpers over the syntax tree.

Expression iteration stays within one statement: it never descends into a
nested Block (lambda bodies and hoisted anonymous-class bodies are yielded
separately so callers can treat them as statement regions).
"""

from __future__ import annotations

from typing import Iterator

from .ast import (
    ArrayAccess, Assignment, Binary, Block, BreakStmt, Cast,
    Conditional, ContinueStmt, Expr, ExprStmt, FieldAccess, IfStmt,
    InstanceOf, Invocation, Lambda, Literal, LocalDecl, LoopStmt, MethodRef,
    Name, NewArray, NewInstance, OpaqueThrow, ReturnStmt, Statement,
    ThrowStmt, TryStmt, Unary, VariableRef,
)


def sub_expressions(expr: Expr) -> Iterator[Expr]:
    """Direct child expressions, excluding statement blocks."""
    if isinstance(expr, Invocation):
        if expr.receiver is not None:
            yield expr.receiver
        yield from expr.arguments
    elif isinstance(expr, NewInstance):
        yield from expr.arguments
    elif isinstance(expr, NewArray):
        yield from expr.dimensions
        yield from expr.initializer
    elif isinstance(expr, FieldAccess):
        yield expr.target
    elif isinstance(expr, Unary):
        yield expr.operand
    elif isinstance(expr, Binary):
        yield expr.left
        yield expr.right
    elif isinstance(expr, Assignment):
        yield expr.target
        yield expr.value
    elif isinstance(expr, Conditional):
        yield expr.condition
        yield expr.if_true
        yield expr.if_false
    elif isinstance(expr, Cast):
        yield expr.operand
    elif isinstance(expr, ArrayAccess):
        yield expr.target
        yield expr.index
    elif isinstance(expr, InstanceOf):
        yield expr.operand
    elif isinstance(expr, Lambda):
        if not isinstance(expr.body, Block):
            yield expr.body
    elif isinstance(expr, (Literal, Name, MethodRef)):
        return


def iter_expressions(expr: Expr) -> Iterator[Expr]:
    """The expression and all sub-expressions, without entering blocks."""
    yield expr
    for child in sub_expressions(expr):
        yield from iter_expressions(child)


def nested_blocks(expr: Expr) -> Iterator[Block]:
    """Statement blocks reachable from an expression: lambda bodies and
    hoisted anonymous-class bodies."""
    for node in iter_expressions(expr):
        if isinstance(node, Lambda) and isinstance(node.body, Block):
            yield node.body
        if isinstance(node, NewInstance) and node.anonymous_body is not None:
            yield node.anonymous_body


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


def iter_statements(statements: list[Statement]) -> Iterator[Statement]:
    """All statements in a region, depth-first, nested regions included."""
    for stmt in statements:
        yield stmt
        yield from iter_statements(list(statement_children(stmt)))
        for expr in statement_expressions(stmt):
            for block in nested_blocks(expr):
                yield block
                yield from iter_statements(block.statements)


def try_statements_in(statements: list[Statement]) -> Iterator[TryStmt]:
    for stmt in iter_statements(statements):
        if isinstance(stmt, TryStmt):
            yield stmt
