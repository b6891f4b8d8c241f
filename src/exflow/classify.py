"""Handler classification: strategies and actions.

A handled exception whose type exactly equals the matching caught type is
handled by the Specific strategy; a strict supertype match is Subsumption.
Actions describe what a catch body does with what it caught, as the union
of twelve detectable behaviors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .config import Config
from .model import SemanticModel, method_id_str
from .syntax.ast import (
    Block, CatchClause, ContinueStmt, ExprStmt, FieldAccess, Invocation,
    Name, NewInstance, ReturnStmt, Statement, ThrowStmt, TryStmt,
    VariableRef,
)
from .syntax.walk import (
    iter_expressions, nested_blocks, statement_children,
    statement_expressions,
)


class Strategy(enum.Enum):
    SPECIFIC = "Specific"
    SUBSUMPTION = "Subsumption"


class Action(enum.Enum):
    ABORT = "Abort"
    CONTINUE = "Continue"
    DEFAULT = "Default"
    EMPTY = "Empty"
    LOG = "Log"
    METHOD = "Method"
    NESTED_TRY = "NestedTry"
    RETURN = "Return"
    THROW_CURRENT = "ThrowCurrent"
    THROW_NEW = "ThrowNew"
    THROW_WRAP = "ThrowWrap"
    TODO = "Todo"


@dataclass(slots=True)
class HandlerClassification:
    catch_id: str
    actions: frozenset[Action]


def classify_strategy(fact_type: str, matched_type: str,
                      model: SemanticModel) -> Strategy:
    """Strategy for a fact handled by a clause via matched_type. Raises
    ValueError when the pair does not actually match."""
    if not model.is_subtype(fact_type, matched_type):
        raise ValueError(
            f"{matched_type} does not handle {fact_type}; "
            f"no subtype relationship")
    if fact_type == matched_type:
        return Strategy.SPECIFIC
    return Strategy.SUBSUMPTION


def classify_actions(clause: CatchClause,
                     config: Optional[Config] = None) -> frozenset[Action]:
    """Detect every action the handler performs; see the module docstring
    for the taxonomy. Detection is syntactic except Abort, which prefers
    the callee that the lowering of the method stored on the call."""
    cfg = config if config is not None else Config()
    actions: set[Action] = set()
    statements = clause.body.statements

    if not statements:
        actions.add(Action.EMPTY)

    default_call = _default_invocation(statements, clause.variable)
    if default_call is not None:
        actions.add(Action.DEFAULT)

    abort_sigs = [_split_signature(s) for s in sorted(cfg.abort_signatures)]
    walked, calls = _walk_handler(clause.body)
    for stmt in walked:
        if isinstance(stmt, Block):
            if any(_is_todo(comment.text) for comment in stmt.comments):
                actions.add(Action.TODO)
        elif isinstance(stmt, ContinueStmt):
            actions.add(Action.CONTINUE)
        elif isinstance(stmt, ReturnStmt):
            actions.add(Action.RETURN)
        elif isinstance(stmt, TryStmt):
            actions.add(Action.NESTED_TRY)
        elif isinstance(stmt, ThrowStmt):
            actions.update(_throw_actions(stmt, clause.variable))
    for call in calls:
        if _is_abort(call, abort_sigs, cfg):
            actions.add(Action.ABORT)
        elif _is_log(call, cfg):
            actions.add(Action.LOG)
        elif call is not default_call:
            actions.add(Action.METHOD)
    return frozenset(actions)


def _throw_actions(stmt: ThrowStmt, caught_var: str) -> set[Action]:
    thrown = stmt.thrown
    if isinstance(thrown, VariableRef):
        if thrown.identifier == caught_var:
            return {Action.THROW_CURRENT}
        return set()
    if isinstance(thrown, NewInstance):
        for arg in thrown.arguments:
            for node in iter_expressions(arg):
                if isinstance(node, Name) and node.identifier == caught_var:
                    return {Action.THROW_WRAP}
        return {Action.THROW_NEW}
    return set()


def _default_invocation(statements: list[Statement],
                        caught_var: str) -> Optional[Invocation]:
    if len(statements) != 1 or not isinstance(statements[0], ExprStmt):
        return None
    expr = statements[0].expression
    if (isinstance(expr, Invocation) and expr.name == "printStackTrace"
            and expr.arity == 0 and isinstance(expr.receiver, Name)
            and expr.receiver.identifier == caught_var):
        return expr
    return None


def _walk_handler(body: Block) -> tuple[list[Statement], list[Invocation]]:
    """Every statement in the handler body (the body itself and nested
    regions included) and every invocation, in one walk. Nothing inside a
    throw expression counts: neither its invocations nor its lambda and
    anonymous-class bodies."""
    found: list[Statement] = []
    calls: list[Invocation] = []
    stack: list[Statement] = [body]
    while stack:
        stmt = stack.pop()
        found.append(stmt)
        stack.extend(statement_children(stmt))
        if isinstance(stmt, ThrowStmt):
            continue
        for expr in statement_expressions(stmt):
            for node in iter_expressions(expr):
                if isinstance(node, Invocation):
                    calls.append(node)
            stack.extend(nested_blocks(expr))
    return found, calls


def _is_todo(text: str) -> bool:
    lowered = text.lower()
    return "todo" in lowered or "fixme" in lowered


def _split_signature(signature: str) -> tuple[str, str, str, int]:
    owner, _, rest = signature.partition("#")
    name, _, arity = rest.partition("(")
    return owner, owner.rsplit(".", 1)[-1], name, int(arity.rstrip(")"))


def _is_abort(call: Invocation, abort_sigs: list[tuple[str, str, str, int]],
              cfg: Config) -> bool:
    resolved = call.callee
    if isinstance(resolved, tuple) and method_id_str(resolved) in cfg.abort_signatures:
        return True
    dotted = _receiver_dotted(call)
    if dotted is None:
        return False
    for owner, simple_owner, name, arity in abort_sigs:
        if (call.name == name and call.arity == arity
                and dotted in (owner, simple_owner)):
            return True
    return False


def _is_log(call: Invocation, cfg: Config) -> bool:
    if call.name in cfg.log_method_names:
        return True
    dotted = _receiver_dotted(call)
    return (dotted in ("System.out", "System.err", "java.lang.System.out",
                       "java.lang.System.err")
            and call.name.startswith("print"))


def _receiver_dotted(call: Invocation) -> Optional[str]:
    receiver = call.receiver
    if receiver is None:
        return None
    if isinstance(receiver, Name):
        return receiver.identifier
    if isinstance(receiver, FieldAccess):
        parts: list[str] = []
        node = receiver
        while isinstance(node, FieldAccess):
            parts.append(node.name)
            node = node.target
        if isinstance(node, Name):
            parts.append(node.identifier)
            return ".".join(reversed(parts))
    return None
