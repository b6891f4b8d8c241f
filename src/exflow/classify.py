"""Handler classification: strategies and actions.

A handled exception whose type exactly equals the matching caught type is
handled by the Specific strategy; a strict supertype match is Subsumption.
Actions describe what a catch body does with what it caught, as the union
of twelve detectable behaviors. flow's lowering walks each catch body once
and keeps what it does in a HandlerRecord on the clause; classify_actions
maps the record and the configuration to the clause's actions.
"""

from __future__ import annotations

import enum
from typing import Optional

from .config import Config
from .model import MethodId, SemanticModel, dotted_name, method_id_str
from .record import Record
from .syntax.ast import (
    Block, CatchClause, ExprStmt, Invocation, Name, NewInstance, VariableRef,
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


# (name, arity, dotted receiver or None, resolved callee or None)
HandlerCall = tuple[str, int, Optional[str], Optional[MethodId]]


class HandlerRecord(Record):
    """What one catch body does, as the action detectors read it. actions
    holds those that need no configuration: Empty and Default from the
    shape of the body; Todo, Continue, Return, NestedTry and the throw
    actions from anything it holds, nested blocks and lambda and
    anonymous-class bodies included. calls holds every invocation in it.
    Nothing under a throw counts."""

    __slots__ = ("actions", "calls")

    def __init__(self, actions: frozenset[Action],
                 calls: tuple[HandlerCall, ...]):
        self.actions = actions
        self.calls = calls

    def __hash__(self) -> int:
        return hash((self.actions, self.calls))


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


# one shared frozenset per distinct set of actions, kept for the process;
# there are at most 2 ** 12 of them, and a project holds few
_ACTION_SETS: dict[frozenset[Action], frozenset[Action]] = {}


def classify_actions(handler: HandlerRecord,
                     config: Optional[Config] = None) -> frozenset[Action]:
    """Every action the handler performs, read off its record; see the
    module docstring for the taxonomy. Detection is syntactic except Abort,
    which prefers the callee that the lowering of the method resolved for
    the call. Equal results are the same object."""
    cfg = config if config is not None else Config()
    actions = set(handler.actions)
    abort_sigs = [_split_signature(s) for s in sorted(cfg.abort_signatures)]
    for call in handler.calls:
        if _is_abort(call, abort_sigs, cfg):
            actions.add(Action.ABORT)
        elif _is_log(call, cfg):
            actions.add(Action.LOG)
        elif Action.DEFAULT not in handler.actions:
            # the one call of a Default handler is its printStackTrace
            actions.add(Action.METHOD)
    result = frozenset(actions)
    return _ACTION_SETS.setdefault(result, result)


def opening_actions(clause: CatchClause) -> set[Action]:
    """What the shape of the clause's body shows before it is walked: Empty,
    or Default for a lone printStackTrace() on the caught variable."""
    statements = clause.body.statements
    if not statements:
        return {Action.EMPTY}
    if len(statements) == 1 and isinstance(statements[0], ExprStmt):
        expr = statements[0].expression
        if (isinstance(expr, Invocation) and expr.name == "printStackTrace"
                and expr.arity == 0 and isinstance(expr.receiver, Name)
                and expr.receiver.identifier == clause.variable):
            return {Action.DEFAULT}
    return set()


def throw_action(thrown: object, caught_var: str,
                 named: set[str]) -> Optional[Action]:
    """The action of a throw in a handler for caught_var: named holds the
    names that the arguments of a thrown `new T(...)` mention."""
    if isinstance(thrown, VariableRef):
        if thrown.identifier == caught_var:
            return Action.THROW_CURRENT
    elif isinstance(thrown, NewInstance):
        return Action.THROW_WRAP if caught_var in named else Action.THROW_NEW
    return None


def handler_call(call: Invocation) -> HandlerCall:
    """A call in a handler as its record keeps it."""
    callee = call.callee
    return (call.name, call.arity, dotted_name(call.receiver),
            callee if isinstance(callee, tuple) else None)


def mentions_todo(block: Block) -> bool:
    """Whether a comment attached to the block says TODO or FIXME."""
    for text in block.comments:
        lowered = text.lower()
        if "todo" in lowered or "fixme" in lowered:
            return True
    return False


def _split_signature(signature: str) -> tuple[str, str, str, int]:
    owner, _, rest = signature.partition("#")
    name, _, arity = rest.partition("(")
    return owner, owner.rsplit(".", 1)[-1], name, int(arity.rstrip(")"))


def _is_abort(call: HandlerCall, abort_sigs: list[tuple[str, str, str, int]],
              cfg: Config) -> bool:
    name, arity, dotted, callee = call
    if callee is not None and method_id_str(callee) in cfg.abort_signatures:
        return True
    if dotted is None:
        return False
    for owner, simple_owner, abort_name, abort_arity in abort_sigs:
        if (name == abort_name and arity == abort_arity
                and dotted in (owner, simple_owner)):
            return True
    return False


def _is_log(call: HandlerCall, cfg: Config) -> bool:
    name, _arity, dotted, _callee = call
    if name in cfg.log_method_names:
        return True
    return (dotted in ("System.out", "System.err", "java.lang.System.out",
                       "java.lang.System.err")
            and name.startswith("print"))
