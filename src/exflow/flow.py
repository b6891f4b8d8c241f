"""Possible-exception computation.

Each corpus method body is lowered into a MethodSummary in one walk, the
only walk of the body: the method's declared and doc-tagged exceptions,
and a tree of regions. A region lists the lexical `throw new X()` sites
(type resolved) and the call sites whose exceptions reach it unfiltered,
and the try statements it holds, each with its catch clauses resolved to
type ids and the region of its body. Catch and finally bodies belong to
the region around their try. The walk tracks the declared variables in
scope and resolves each call as it reaches it, through
SemanticModel.resolve_invocation, which keeps the callee on the call node.
It also records what each catch body does (classify.HandlerRecord) on the
clause, until the driver has classified it into the clause's actions.
Then the body is let go: from there on the analysis reads only the
summary, and no statement of the method stays in memory.

Per-method escaping sets are the least fixed point of

    facts(M) = lexical throws surviving M's own try/catch nesting
             ∪ declared throws of M  ∪  doc-tagged throws of M
             ∪ facts(callee) surviving the catch context, per call in M

with external methods contributing their platform-documented exceptions.
A worklist over reverse call edges computes it: every corpus method is
evaluated once in sorted id order, and each time a method's set changes,
its callers are queued again in sorted order. The order never depends on
hashing. Sets only grow, so the worklist empties on recursive and mutually
recursive call graphs too. A method's set maps each exception type to one
MethodFact, and an evaluation merges straight into it, type by type; the
fixed point builds no per-origin fact objects.

Only in transitive mode (`--transitive-origins`) does a MethodFact carry
the contributing methods. Otherwise it is one shared object per evidence
set, and a set changes only as types or evidence kinds are added.

A try block's possible set is read off the same summary: the facts of its
body's own sites plus what each try nested in it propagates, worked out
bottom-up for all tries of a method at once, and its partition is kept
on the try's TryRegion. Only this partition builds a PossibleException
per exception type and origin, as the reports list them.

Evidence accumulates through call chains: a fact arriving at a try block
carries every evidence kind observed anywhere along its paths, and facts
with the same exception type at the same call site are merged.
"""

from __future__ import annotations

from collections import deque
from functools import cache, cached_property, partial
from typing import Iterator, Optional, Union

from .classify import (
    Action, HandlerCall, HandlerRecord, Strategy, classify_strategy,
    handler_call, mentions_todo, opening_actions, throw_action,
)
from .model import (
    CorpusMethod, ExternalMethod, MethodId, Scope, SemanticModel,
    Unresolved, method_id_str,
)
from .record import Record
from .syntax.ast import (
    Block, CatchClause, ContinueStmt, Expr, Invocation, Lambda, LocalDecl,
    LoopStmt, Name, NewInstance, ReturnStmt, SourcePosition, Statement,
    ThrowStmt, TryStmt,
)
from .syntax.walk import (
    statement_children, statement_expressions, sub_expressions,
)

import enum


class EvidenceKind(enum.Enum):
    THROW_STATEMENT = "ThrowStatement"
    THROWS_DECLARATION = "ThrowsDeclaration"
    DOC_COMMENT = "DocComment"
    EXTERNAL_DOCUMENTATION = "ExternalDocumentation"


class LexicalThrowOrigin(Record):
    # the __dict__ keeps label once it is worked out
    __slots__ = ("position", "__dict__")

    def __init__(self, position: SourcePosition):
        self.position = position

    def __hash__(self) -> int:
        return hash((self.position,))

    @cached_property
    def label(self) -> str:
        """How reports name the origin, worked out on first use."""
        return f"throw {self.position}"


class CallSiteOrigin(Record):
    """A call site. Every fact that its callee's set yields there holds it
    and hashes it, so it is hashed once, as it is built."""

    # the __dict__ keeps label once it is worked out
    __slots__ = ("position", "callee", "_hash", "__dict__")

    def __init__(self, position: SourcePosition, callee: MethodId):
        self.position = position
        self.callee = callee
        self._hash = hash((position, callee))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def label(self) -> str:
        """How reports name the origin, worked out on first use."""
        return f"call {self.position} -> {method_id_str(self.callee)}"


Origin = Union[LexicalThrowOrigin, CallSiteOrigin]


class PossibleException(Record):
    """One exception type at one origin within a region.

    source_methods holds every method that contributed the type along the
    call chain when the method sets carry contributing methods (transitive
    mode), and is empty otherwise and for lexical throws. The directly
    invoked method of a call-site fact is its origin's callee.

    A fact is hashed as it is built, once: the partition puts every fact
    in a set or a dict at least once per try it reaches.
    """

    __slots__ = ("type", "origin", "evidence", "source_methods", "_hash")

    def __init__(self, type: str, origin: Origin,
                 evidence: frozenset[EvidenceKind],
                 source_methods: frozenset[MethodId]):
        self.type = type
        self.origin = origin
        self.evidence = evidence
        self.source_methods = source_methods
        self._hash = hash((type, origin, evidence, source_methods))

    def __hash__(self) -> int:
        return self._hash


class MethodFact(Record):
    """Evidence kinds for one type in one method's set; sources holds the
    contributing methods in transitive mode and is empty otherwise."""

    __slots__ = ("evidence", "sources")

    def __init__(self, evidence: frozenset[EvidenceKind],
                 sources: frozenset[MethodId]):
        self.evidence = evidence
        self.sources = sources

    def __hash__(self) -> int:
        return hash((self.evidence, self.sources))


# per method, exception type -> merged fact
MethodSets = dict[MethodId, dict[str, MethodFact]]


class Clause(Record):
    """One catch clause as the analysis keeps it: its caught names resolved
    to type ids (a name that resolves to nothing is left out), those of
    them in the model (a fact can match only these), and what its handler
    does: the record that the lowering keeps until the driver classifies
    it into actions and lets it go."""

    __slots__ = ("caught_types", "position", "caught_ids", "handler",
                 "actions")

    def __init__(self, caught_types: tuple[str, ...],
                 position: SourcePosition, caught_ids: tuple[str, ...],
                 handler: Optional[HandlerRecord],
                 actions: Optional[frozenset[Action]] = None):
        self.caught_types = caught_types
        self.position = position
        self.caught_ids = caught_ids
        self.handler = handler
        self.actions = actions

    @property
    def id(self) -> str:
        return str(self.position)


class TryRegion(Record):
    """One try statement as the analysis keeps it: its clauses, the union of
    their caught ids, the region of its body, and, once analyze_try_block
    has run for its method, its partition under the converged fixed point.
    handled maps each caught fact to its first matching clause, the caught
    type matched and the strategy, in _fact_key order; propagated holds
    the other facts that reach the body. The two are disjoint, and every
    fact that reaches the body is in one of them."""

    __slots__ = ("position", "catches", "caught", "body", "handled",
                 "propagated")

    def __init__(self, position: SourcePosition, catches: tuple[Clause, ...],
                 caught: frozenset[str], body: Region,
                 handled: Optional[dict[PossibleException,
                                        tuple[Clause, str, Strategy]]] = None,
                 propagated: frozenset[PossibleException] = frozenset()):
        self.position = position
        self.catches = catches
        self.caught = caught
        self.body = body
        self.handled = {} if handled is None else handled
        self.propagated = propagated

    @property
    def id(self) -> str:
        return str(self.position)


class Region(Record):
    """The sites whose exceptions reach a region unfiltered: its statements,
    their lambda and anonymous-class bodies, and the catch and finally
    bodies of the tries it holds. Those tries filter their own bodies."""

    __slots__ = ("throws", "calls", "tries")

    def __init__(self, throws: Optional[list[PossibleException]] = None,
                 calls: Optional[list[CallSiteOrigin]] = None,
                 tries: Optional[list[TryRegion]] = None):
        self.throws = [] if throws is None else throws
        self.calls = [] if calls is None else calls
        self.tries = [] if tries is None else tries


class MethodSummary(Record):
    """A corpus method body lowered once for every consumer."""

    __slots__ = ("own", "body", "tries", "callees", "partitioned_under")

    def __init__(self, own: dict[str, frozenset[EvidenceKind]], body: Region,
                 tries: list[TryRegion],
                 callees: Optional[set[MethodId]] = None,
                 partitioned_under: Optional[MethodSets] = None):
        self.own = own  # declared and doc-tagged kinds
        self.body = body
        # in lowering order: a try before those it holds
        self.tries = tries
        self.callees = set() if callees is None else callees
        # the method sets the tries were partitioned under
        self.partitioned_under = partitioned_under


def method_summary(model: SemanticModel, method: CorpusMethod) -> MethodSummary:
    """The method's summary, lowered on first use and kept on the method."""
    if method.summary is None:
        method.summary = _lower(model, method)
    return method.summary


def try_blocks(model: SemanticModel) -> list[tuple[CorpusMethod, TryRegion]]:
    """Every try statement, as its TryRegion, with its enclosing method, in
    position order."""
    pairs = [(method, region) for method in model.corpus_methods()
             for region in method_summary(model, method).tries]
    pairs.sort(key=lambda pair: (pair[1].position.file, pair[1].position.line,
                                 pair[1].position.column))
    return pairs


def compute_method_exception_sets(model: SemanticModel, *,
                                  transitive: bool = False) -> MethodSets:
    """Fixed-point sets for every method; sources only under transitive."""
    sets: MethodSets = {}
    for mid, entry in sorted(model.method_table.items()):
        if isinstance(entry, ExternalMethod):
            fact = _method_fact(_DOCUMENTED, frozenset({mid} if transitive else ()))
            sets[mid] = dict.fromkeys(entry.documented, fact)
        else:
            sets[mid] = {}

    corpus = model.corpus_methods()
    # corpus is sorted, so every callers list is too
    callers: dict[MethodId, list[CorpusMethod]] = {}
    for method in corpus:
        for callee in method_summary(model, method).callees:
            callers.setdefault(callee, []).append(method)

    worklist = deque(corpus)
    queued = {method.id for method in corpus}
    while worklist:
        method = worklist.popleft()
        queued.discard(method.id)
        facts = _evaluate_method(method, sets, model, transitive)
        if facts != sets[method.id]:
            sets[method.id] = facts
            for caller in callers.get(method.id, ()):
                if caller.id not in queued:
                    queued.add(caller.id)
                    worklist.append(caller)
    return sets


def analyze_try_block(t: TryRegion, sets: MethodSets, model: SemanticModel,
                      method: CorpusMethod) -> TryRegion:
    """Partition the try body's possible exceptions into handled (with the
    first matching clause and its strategy) and propagated, on t, a try
    of method, and return t.

    sets is the converged fixed point. The first call for a method
    partitions all of its tries, innermost first; later calls with the
    same sets find them partitioned."""
    summary = method_summary(model, method)
    if summary.partitioned_under is not sets:
        _partition_tries(summary, sets, model)
        summary.partitioned_under = sets
    return t


def attribute_sources(region: TryRegion
                      ) -> dict[str, tuple[int, frozenset[EvidenceKind]]]:
    """Per exception type: how many distinct methods it traces back to and
    the union of its evidence kinds. The methods are those the method sets
    carry: every contributing method if they were computed with
    transitive=True, else the directly invoked method of each call site."""
    by_type: dict[str, tuple[set[MethodId], set[EvidenceKind]]] = {}
    for fact in (*region.propagated, *region.handled):
        methods, evidence = by_type.setdefault(fact.type, (set(), set()))
        if fact.source_methods:
            methods |= fact.source_methods
        elif isinstance(fact.origin, CallSiteOrigin):
            methods.add(fact.origin.callee)
        evidence |= fact.evidence
    return {tid: (len(methods), frozenset(evidence))
            for tid, (methods, evidence) in by_type.items()}


# ---------------------------------------------------------------------------
# lowering and evaluation
# ---------------------------------------------------------------------------

_THROWN = frozenset({EvidenceKind.THROW_STATEMENT})
_DOCUMENTED = frozenset({EvidenceKind.EXTERNAL_DOCUMENTATION})


# the one fact per evidence set that has no contributing methods
_EVIDENCE_ONLY = cache(partial(MethodFact, sources=frozenset()))


def _method_fact(evidence: frozenset, sources: frozenset) -> MethodFact:
    return MethodFact(evidence, sources) if sources else _EVIDENCE_ONLY(evidence)


def _lower(model: SemanticModel, method: CorpusMethod) -> MethodSummary:
    """Resolve the method's own exceptions, throw sites, call sites and
    catch clauses, and record what each handler does, in one walk of its
    body, diagnosing each unknown exception name once. The body is then
    let go: the summary is all that the analysis keeps of it."""
    unit = method.unit
    decl = method.decl
    own: dict[str, frozenset[EvidenceKind]] = {}
    named = [(name, EvidenceKind.THROWS_DECLARATION,
              "unknown declared exception") for name in decl.declared_throws]
    if decl.doc is not None:
        named += [(name, EvidenceKind.DOC_COMMENT,
                   "doc comment names unknown exception")
                  for name, _description in decl.doc.throws_tags]
    for name, kind, complaint in named:
        tid = model.resolve_exception_name(name, unit)
        if tid is None:
            model.diagnostics.append(f"{decl.position}: {complaint} {name}")
        else:
            own[tid] = own.get(tid, frozenset()) | {kind}

    summary = MethodSummary(own, Region(), [])
    if decl.body is not None:
        params = Scope()
        for param in decl.params:
            params.declare(param.name, param.type_name)
        _Lowering(model, method, summary).statement(decl.body, params,
                                                    summary.body)
        decl.body = None
    return summary


class _Lowering:
    """The walk of one method body. A statement list shares one scope, so a
    declaration is seen by the statements after it; every nested statement
    and block opens a scope of its own. Calls resolve in pre-order, left
    to right, and a lambda or anonymous-class body is walked where it
    stands, in the region of the statement that holds it.

    What a catch body does is noted, as the walk passes it, for its clause
    and for each clause around it whose body holds it: handlers lists the
    clauses open at that point as (caught variable, actions, calls).
    Nothing under a throw counts toward any of them."""

    __slots__ = ("model", "method", "summary", "handlers")

    def __init__(self, model: SemanticModel, method: CorpusMethod,
                 summary: MethodSummary):
        self.model = model
        self.method = method
        self.summary = summary
        self.handlers: list[tuple[str, set[Action], list[HandlerCall]]] = []

    def note(self, action: Action) -> None:
        for _variable, actions, _calls in self.handlers:
            actions.add(action)

    def block(self, block: Block, scope: Scope, region: Region) -> None:
        """The block's statements, in the scope given."""
        if self.handlers and mentions_todo(block):
            self.note(Action.TODO)
        for stmt in block.statements:
            self.statement(stmt, scope, region)

    def statement(self, stmt: Statement, scope: Scope, region: Region) -> None:
        if isinstance(stmt, Block):
            self.block(stmt, Scope(scope), region)
        elif isinstance(stmt, LocalDecl):
            for var in stmt.declarations:
                if var.initializer is not None:
                    self.expression(var.initializer, scope, region)
                scope.declare(var.name, var.type_name)
        elif isinstance(stmt, LoopStmt):
            inner = Scope(scope)
            for init in stmt.init:
                self.statement(init, inner, region)
            if stmt.condition is not None:
                self.expression(stmt.condition, inner, region)
            for update in stmt.update:
                self.expression(update, inner, region)
            self.statement(stmt.body, Scope(inner), region)
        elif isinstance(stmt, TryStmt):
            self.try_statement(stmt, scope, region)
        elif isinstance(stmt, ThrowStmt):
            self.throw_statement(stmt, scope, region)
        else:
            if isinstance(stmt, ContinueStmt):
                self.note(Action.CONTINUE)
            elif isinstance(stmt, ReturnStmt):
                self.note(Action.RETURN)
            for expr in statement_expressions(stmt):
                self.expression(expr, scope, region)
            for child in statement_children(stmt):
                self.statement(child, Scope(scope), region)

    def try_statement(self, stmt: TryStmt, scope: Scope,
                      region: Region) -> None:
        """The body goes into the try's own region; each clause's caught
        names are resolved as the clause is reached, and its body, like
        the finally block, stays in the region around the try."""
        self.note(Action.NESTED_TRY)
        inner = TryRegion(stmt.position, (), frozenset(), Region())
        region.tries.append(inner)
        self.summary.tries.append(inner)
        self.block(stmt.body, Scope(scope), inner.body)
        inner.catches = tuple(self.catch_clause(clause, scope, region)
                              for clause in stmt.catches)
        inner.caught = frozenset(tid for clause in inner.catches
                                 for tid in clause.caught_ids)
        if stmt.finally_block is not None:
            self.block(stmt.finally_block, Scope(scope), region)

    def catch_clause(self, clause: CatchClause, scope: Scope,
                     region: Region) -> Clause:
        """The clause with its caught names resolved, and its handler
        recorded by a walk of its body with the clause open. A caught name
        that is not a known exception is diagnosed."""
        model = self.model
        caught, caught_ids = [], []
        for name in clause.caught_types:
            tid = model.resolve_type_name(name, self.method.unit)
            if tid is None or tid not in model.exception_universe:
                model.diagnostics.append(
                    f"{clause.position}: caught type {name} is not a known "
                    f"exception; the clause matches nothing")
            if tid is not None:
                caught.append(tid)
            if tid in model.types:
                caught_ids.append(tid)
        catch_scope = Scope(scope)
        catch_scope.declare(clause.variable, clause.caught_types[0])
        actions, calls = opening_actions(clause), []
        self.handlers.append((clause.variable, actions, calls))
        self.block(clause.body, catch_scope, region)
        self.handlers.pop()
        return Clause(tuple(caught), clause.position, tuple(caught_ids),
                      HandlerRecord(frozenset(actions), tuple(calls)))

    def throw_statement(self, stmt: ThrowStmt, scope: Scope,
                        region: Region) -> None:
        """A thrown `new T(...)` is a throw site of the region. Each open
        handler takes the throw's action under its own caught variable;
        nothing in the thrown expression counts toward a handler."""
        handlers, self.handlers = self.handlers, []
        named: Optional[set[str]] = set() if handlers else None
        if isinstance(stmt.thrown, NewInstance):
            self.throw_site(stmt, region)
        for expr in statement_expressions(stmt):
            self.expression(expr, scope, region, named)
        self.handlers = handlers
        for variable, actions, _calls in handlers:
            action = throw_action(stmt.thrown, variable, named)
            if action is not None:
                actions.add(action)

    def expression(self, expr: Expr, scope: Scope, region: Region,
                   named: Optional[set[str]] = None) -> None:
        """Resolve every call in the expression and note each invocation
        for the open handlers. named, if given, collects the names that
        the expression mentions outside lambda block bodies and
        anonymous-class bodies. The walk keeps its own stack, so calls in
        receivers and arguments nest to any depth; only a lambda body,
        which has its own scope, is walked by a nested call."""
        handlers = self.handlers
        stack = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, (Invocation, NewInstance)):
                self.call(node, scope, region)
                if handlers and isinstance(node, Invocation):
                    call = handler_call(node)
                    for _variable, _actions, calls in handlers:
                        calls.append(call)
                if isinstance(node, NewInstance) and node.anonymous_body is not None:
                    self.block(node.anonymous_body, Scope(scope), region)
            elif isinstance(node, Lambda):
                inner = Scope(scope)
                for param in node.parameters:
                    inner.declare(param, None)
                if isinstance(node.body, Block):
                    self.block(node.body, inner, region)
                else:
                    self.expression(node.body, inner, region, named)
                continue
            elif named is not None and isinstance(node, Name):
                named.add(node.identifier)
            stack.extend(reversed(sub_expressions(node)))

    # -- resolution --------------------------------------------------------

    def call(self, node: Union[Invocation, NewInstance], scope: Scope,
             region: Region) -> None:
        """Resolve a call; a resolved one is a call site of the region and
        an edge of the call graph."""
        callee = self.model.resolve_invocation(node, self.method, scope)
        if not isinstance(callee, Unresolved):
            region.calls.append(CallSiteOrigin(node.position, callee))
            self.summary.callees.add(callee)

    def throw_site(self, stmt: ThrowStmt, region: Region) -> None:
        name = stmt.thrown.type_name
        tid = self.model.resolve_exception_name(name, self.method.unit)
        if tid is None:
            self.model.diagnostics.append(
                f"{stmt.position}: thrown type {name} is not a known "
                f"exception")
        else:
            region.throws.append(PossibleException(
                tid, LexicalThrowOrigin(stmt.position), _THROWN,
                frozenset()))


def _evaluate_method(method: CorpusMethod, sets: MethodSets,
                     model: SemanticModel, transitive: bool
                     ) -> dict[str, MethodFact]:
    """One application of the fixed-point equation to one method: its own
    facts, plus each lexical throw and each callee fact that no try around
    it in the method catches, merged by exception type."""
    summary = method_summary(model, method)
    ancestors = model.ancestors
    itself = frozenset({method.id} if transitive else ())
    facts = {tid: _method_fact(kinds, itself)
             for tid, kinds in summary.own.items()}
    thrown = _method_fact(_THROWN, itself)
    stack: list[tuple[Region, frozenset[str]]] = [(summary.body, frozenset())]
    while stack:
        region, caught = stack.pop()
        for throw in region.throws:
            if ancestors[throw.type].isdisjoint(caught):
                _merge_method_fact(facts, throw.type, thrown)
        for origin in region.calls:
            for tid, callee_fact in sets[origin.callee].items():
                if ancestors[tid].isdisjoint(caught):
                    _merge_method_fact(facts, tid, callee_fact)
        for inner in region.tries:
            stack.append((inner.body, caught | inner.caught))
    return facts


def _site_facts(region: Region, sets: MethodSets
                ) -> Iterator[PossibleException]:
    """The facts of the region's own throw and call sites, unfiltered."""
    yield from region.throws
    for origin in region.calls:
        for tid, callee_fact in sets[origin.callee].items():
            yield PossibleException(tid, origin, callee_fact.evidence,
                                    callee_fact.sources)


def _partition_tries(summary: MethodSummary, sets: MethodSets,
                     model: SemanticModel) -> None:
    """Partition every try of the method bottom-up: the facts reaching a try
    body are its own sites' facts plus what each try nested in it
    propagates, so each site's facts are built once per method."""
    for region in reversed(summary.tries):  # every try after those it holds
        # two sites with one origin call one callee and yield equal facts,
        # which the set keeps once
        possible = frozenset(_site_facts(region.body, sets))
        if region.body.tries:
            possible = possible.union(*(inner.propagated
                                        for inner in region.body.tries))
        _partition(region, possible, model)


def _partition(region: TryRegion, possible: frozenset[PossibleException],
               model: SemanticModel) -> None:
    """Split the facts by the first clause that catches their type, onto
    the region; handled keeps the order of _fact_key."""
    outcome: dict[str, Optional[tuple[Clause, str, Strategy]]] = {}
    caught = []
    for fact in possible:
        tid = fact.type
        if tid not in outcome:
            match = _first_match(model.ancestors[tid], region.catches)
            if match is not None:
                clause, matched_type = match
                match = (clause, matched_type,
                         classify_strategy(tid, matched_type, model))
            outcome[tid] = match
        if outcome[tid] is not None:
            caught.append(fact)
    caught.sort(key=_fact_key)
    region.handled = {fact: outcome[fact.type] for fact in caught}
    region.propagated = (possible.difference(region.handled)
                         if caught else possible)


def _merge_method_fact(facts: dict[str, MethodFact], tid: str,
                       fact: MethodFact) -> None:
    existing = facts.get(tid)
    if existing is None:
        facts[tid] = fact
    elif not (fact.evidence <= existing.evidence
              and fact.sources <= existing.sources):
        facts[tid] = _method_fact(existing.evidence | fact.evidence,
                                  existing.sources | fact.sources)


def _first_match(above: frozenset[str], clauses: tuple[Clause, ...]
                 ) -> Optional[tuple[Clause, str]]:
    """First clause (and first caught alternative) among the ancestors of
    the thrown type."""
    for clause in clauses:
        for tid in clause.caught_ids:
            if tid in above:
                return clause, tid
    return None


def _fact_key(fact: PossibleException) -> tuple:
    position = fact.origin.position
    return (fact.type, position.file, position.line, position.column)
