"""Random corpus generation and independent oracles for the flow tests.

The generator builds a small internal program shape, renders it to Java
source, and keeps the shape around so the oracles can compute expected
possible-exception sets without touching the analyzer's code paths. The
acyclic oracle is a memoized depth-first traversal with catch filtering;
the cyclic oracle is a reachability closure over the call graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from exflow.model import (
    Recoverability, build_semantic_model, parse_platform_document,
)
from exflow.flow import compute_method_exception_sets
from exflow.syntax import parse_compilation_unit
from exflow.syntax.ast import (
    Block, Expr, Lambda, NewInstance, Statement, TryStmt,
)
from exflow.syntax.walk import (
    statement_children, statement_expressions, sub_expressions,
)

PACKAGE = "gen"
APP = f"{PACKAGE}.App"
EXT = f"{PACKAGE}.Ext"

BASES = ("Exception", "RuntimeException")
BASE_QUALIFIED = {
    "Throwable": "java.lang.Throwable",
    "Exception": "java.lang.Exception",
    "RuntimeException": "java.lang.RuntimeException",
}
BASE_PARENT = {"Throwable": None, "Exception": "Throwable",
               "RuntimeException": "Exception"}

TS = "ThrowStatement"
TD = "ThrowsDeclaration"
DC = "DocComment"
ED = "ExternalDocumentation"


@dataclass
class GenCall:
    target: int


@dataclass
class GenExt:
    name: str


@dataclass
class GenThrow:
    exc: str


@dataclass
class GenTry:
    body: list
    catches: list[tuple[list[str], list]]
    fin: Optional[list]


GenStmt = Union[GenCall, GenExt, GenThrow, GenTry]


@dataclass
class GenMethod:
    name: str
    body: list[GenStmt]
    declared: list[str]
    doc: list[str]


@dataclass
class GenCorpus:
    methods: list[GenMethod]
    exceptions: dict[str, str]  # simple name -> parent simple name
    externals: dict[str, list[str]]  # ext method name -> thrown simple names
    parents: dict[str, Optional[str]] = field(default_factory=dict)

    def __post_init__(self):
        self.parents = dict(BASE_PARENT)
        self.parents.update(self.exceptions)

    def qualify(self, simple: str) -> str:
        if simple in BASE_QUALIFIED:
            return BASE_QUALIFIED[simple]
        return f"{PACKAGE}.{simple}"

    def is_sub(self, sub: str, sup: str) -> bool:
        cur: Optional[str] = sub
        while cur is not None:
            if cur == sup:
                return True
            cur = self.parents.get(cur)
        return False


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def generate_corpus(seed: int, *, cyclic: bool = False,
                    max_methods: int = 30, max_types: int = 5,
                    max_try_depth: int = 3,
                    allow_tries: bool = True) -> GenCorpus:
    rng = random.Random(seed)
    n_exc = rng.randint(1, max_types)
    exceptions: dict[str, str] = {}
    names = [f"Ex{i}" for i in range(n_exc)]
    for i, name in enumerate(names):
        parents = list(BASES) + names[:i]
        exceptions[name] = rng.choice(parents)

    externals: dict[str, list[str]] = {}
    for i in range(rng.randint(0, 3)):
        count = rng.randint(0, 2)
        externals[f"e{i}"] = [rng.choice(names) for _ in range(count)]

    n_methods = rng.randint(1, max_methods)
    methods = []
    for i in range(n_methods):
        if cyclic:
            callable_targets = list(range(n_methods))
        else:
            callable_targets = list(range(i + 1, n_methods))
        body = _gen_statements(
            rng, callable_targets, names, list(externals), depth=0,
            max_depth=(max_try_depth if allow_tries else 0),
            budget=rng.randint(0, 5))
        declared = [n for n in names if rng.random() < 0.25]
        doc = [n for n in names if rng.random() < 0.15]
        methods.append(GenMethod(f"m{i}", body, declared, doc))
    return GenCorpus(methods, exceptions, externals)


def _gen_statements(rng: random.Random, targets: list[int],
                    exc_names: list[str], ext_names: list[str],
                    depth: int, max_depth: int, budget: int) -> list[GenStmt]:
    statements: list[GenStmt] = []
    for _ in range(budget):
        kinds = ["throw"]
        if targets:
            kinds += ["call", "call"]
        if ext_names:
            kinds.append("ext")
        if depth < max_depth:
            kinds.append("try")
        kind = rng.choice(kinds)
        if kind == "call":
            statements.append(GenCall(rng.choice(targets)))
        elif kind == "ext":
            statements.append(GenExt(rng.choice(ext_names)))
        elif kind == "throw":
            statements.append(GenThrow(rng.choice(exc_names)))
        else:
            inner = _gen_statements(rng, targets, exc_names, ext_names,
                                    depth + 1, max_depth, rng.randint(0, 3))
            catches = []
            for _ in range(rng.randint(1, 2)):
                pool = exc_names + list(BASES)
                alts = sorted({rng.choice(pool)
                               for _ in range(rng.randint(1, 2))})
                cbody = _gen_statements(rng, targets, exc_names, ext_names,
                                        depth + 1, max_depth,
                                        rng.randint(0, 2))
                catches.append((alts, cbody))
            fin = None
            if rng.random() < 0.3:
                fin = _gen_statements(rng, targets, exc_names, ext_names,
                                      depth + 1, max_depth, rng.randint(0, 2))
            statements.append(GenTry(inner, catches, fin))
    return statements


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_app(corpus: GenCorpus) -> str:
    lines = [f"package {PACKAGE};", "", "public class App {"]
    for method in corpus.methods:
        lines.append("")
        if method.doc:
            lines.append("    /**")
            lines.append("     * Generated behavior.")
            lines.append("     *")
            for exc in method.doc:
                lines.append(f"     * @throws {exc} under some condition")
            lines.append("     */")
        throws = ""
        if method.declared:
            throws = " throws " + ", ".join(method.declared)
        lines.append(f"    public void {method.name}(){throws} {{")
        _render_statements(corpus, method.body, lines, indent=8, counter=[0])
        lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _render_statements(corpus: GenCorpus, statements: list[GenStmt],
                       lines: list[str], indent: int,
                       counter: list[int]) -> None:
    pad = " " * indent
    for stmt in statements:
        if isinstance(stmt, GenCall):
            lines.append(f"{pad}{corpus.methods[stmt.target].name}();")
        elif isinstance(stmt, GenExt):
            lines.append(f"{pad}Ext.{stmt.name}();")
        elif isinstance(stmt, GenThrow):
            lines.append(f"{pad}throw new {stmt.exc}();")
        else:
            lines.append(f"{pad}try {{")
            _render_statements(corpus, stmt.body, lines, indent + 4, counter)
            for alts, cbody in stmt.catches:
                counter[0] += 1
                var = f"e{counter[0]}"
                lines.append(f"{pad}}} catch ({' | '.join(alts)} {var}) {{")
                _render_statements(corpus, cbody, lines, indent + 4, counter)
            if stmt.fin is not None:
                lines.append(f"{pad}}} finally {{")
                _render_statements(corpus, stmt.fin, lines, indent + 4,
                                   counter)
            lines.append(f"{pad}}}")


def render_exceptions(corpus: GenCorpus) -> str:
    lines = [f"package {PACKAGE};", ""]
    for name, parent in corpus.exceptions.items():
        lines.append(f"public class {name} extends {parent} {{}}")
    return "\n".join(lines) + "\n"


def platform_document(corpus: GenCorpus) -> dict:
    types = [
        {"name": "java.lang.Throwable", "superclass": None, "kind": "checked"},
        {"name": "java.lang.Exception", "superclass": "java.lang.Throwable",
         "kind": "checked"},
        {"name": "java.lang.RuntimeException",
         "superclass": "java.lang.Exception", "kind": "unchecked"},
        {"name": "java.lang.Error", "superclass": "java.lang.Throwable",
         "kind": "error"},
    ]
    methods = [
        {"signature": f"{EXT}#{name}(0)",
         "throws": [corpus.qualify(t) for t in throws]}
        for name, throws in sorted(corpus.externals.items())]
    return {"types": types, "methods": methods}


def build_corpus_model(corpus: GenCorpus, *, transitive: bool = True):
    """Render, parse, and analyze; returns (model, method sets). The sets
    carry contributing methods unless transitive is false."""
    units = [
        parse_compilation_unit(render_app(corpus), "gen/App.java"),
        parse_compilation_unit(render_exceptions(corpus),
                               "gen/Exceptions.java"),
    ]
    platform = parse_platform_document(platform_document(corpus),
                                       "generated platform")
    model = build_semantic_model(units, platform)
    sets = compute_method_exception_sets(model, transitive=transitive)
    return model, sets


def namespace_source(corpus: GenCorpus, namespace: str) -> str:
    """The App unit rendered into its own package. Exception types are not
    declared here; pair this with platform_document_multi, which carries
    them as platform types so many corpora can share one project."""
    return render_app(corpus).replace(
        f"package {PACKAGE};", f"package {namespace};", 1)


def platform_document_multi(corpora: list[tuple[str, GenCorpus]]) -> dict:
    """One platform document covering several namespaced corpora: the base
    hierarchy once, plus every corpus exception type and Ext method under
    its namespace."""
    doc = platform_document(GenCorpus([], {}, {}))

    def qualify(ns: str, corpus: GenCorpus, simple: str) -> str:
        if simple in BASE_QUALIFIED:
            return BASE_QUALIFIED[simple]
        return f"{ns}.{simple}"

    def kind(corpus: GenCorpus, name: str) -> str:
        cur = name
        while cur in corpus.exceptions:
            cur = corpus.exceptions[cur]
        return "unchecked" if cur == "RuntimeException" else "checked"

    for ns, corpus in corpora:
        for name, parent in corpus.exceptions.items():
            doc["types"].append({
                "name": f"{ns}.{name}",
                "superclass": qualify(ns, corpus, parent),
                "kind": kind(corpus, name)})
        for ext, throws in sorted(corpus.externals.items()):
            doc["methods"].append({
                "signature": f"{ns}.Ext#{ext}(0)",
                "throws": [qualify(ns, corpus, t) for t in throws]})
    return doc


# ---------------------------------------------------------------------------
# acyclic oracle: depth-first with memoization and catch filtering
# ---------------------------------------------------------------------------

def method_mid(corpus: GenCorpus, index: int) -> tuple:
    return (APP, corpus.methods[index].name, 0)


def ext_mid(name: str) -> tuple:
    return (EXT, name, 0)


class _Facts(dict):
    """type qualified name -> [set evidence, set sources]"""

    def add(self, tid: str, evidence: set, sources: set) -> None:
        entry = self.setdefault(tid, [set(), set()])
        entry[0] |= evidence
        entry[1] |= sources


def oracle_acyclic(corpus: GenCorpus) -> dict[tuple, dict]:
    """Expected per-method facts {mid: {type: (evidence, sources)}} by
    depth-first traversal; methods may only call higher indices."""
    memo: dict[int, _Facts] = {}

    def facts(index: int) -> _Facts:
        if index in memo:
            return memo[index]
        method = corpus.methods[index]
        mid = method_mid(corpus, index)
        out = _Facts()
        for exc in method.declared:
            out.add(corpus.qualify(exc), {TD}, {mid})
        for exc in method.doc:
            out.add(corpus.qualify(exc), {DC}, {mid})
        _collect(corpus, method.body, mid, out, facts)
        memo[index] = out
        return out

    result = {}
    for i in range(len(corpus.methods)):
        result[method_mid(corpus, i)] = {
            t: (frozenset(entry[0]), frozenset(entry[1]))
            for t, entry in facts(i).items()}
    return result


def _collect(corpus: GenCorpus, statements: list[GenStmt], mid: tuple,
             out: _Facts, facts) -> None:
    for stmt in statements:
        if isinstance(stmt, GenThrow):
            out.add(corpus.qualify(stmt.exc), {TS}, {mid})
        elif isinstance(stmt, GenCall):
            for tid, entry in facts(stmt.target).items():
                out.add(tid, set(entry[0]), set(entry[1]))
        elif isinstance(stmt, GenExt):
            for exc in corpus.externals[stmt.name]:
                out.add(corpus.qualify(exc), {ED}, {ext_mid(stmt.name)})
        else:
            inner = _Facts()
            _collect(corpus, stmt.body, mid, inner, facts)
            for tid, entry in inner.items():
                if not _caught(corpus, tid, stmt.catches):
                    out.add(tid, set(entry[0]), set(entry[1]))
            for _alts, cbody in stmt.catches:
                _collect(corpus, cbody, mid, out, facts)
            if stmt.fin is not None:
                _collect(corpus, stmt.fin, mid, out, facts)


def _caught(corpus: GenCorpus, tid: str,
            catches: list[tuple[list[str], list]]) -> bool:
    simple = tid.rsplit(".", 1)[1]
    for alts, _body in catches:
        for alt in alts:
            if corpus.is_sub(simple, alt):
                return True
    return False


def iter_tries(corpus: GenCorpus) -> list[tuple[int, GenTry]]:
    """Every generated try in source-position order (method order, then
    pre-order within the method: node, body, catch bodies, finally)."""
    found: list[tuple[int, GenTry]] = []

    def walk(statements: list[GenStmt], index: int) -> None:
        for stmt in statements:
            if isinstance(stmt, GenTry):
                found.append((index, stmt))
                walk(stmt.body, index)
                for _alts, cbody in stmt.catches:
                    walk(cbody, index)
                if stmt.fin is not None:
                    walk(stmt.fin, index)

    for i, method in enumerate(corpus.methods):
        walk(method.body, i)
    return found


def oracle_try_possible(corpus: GenCorpus, acyclic_facts: dict, index: int,
                        trynode: GenTry) -> tuple[dict, dict]:
    """Expected (facts, direct-method sets) for one try body in method
    `index`, before matching against the try's own clauses. acyclic_facts
    is the oracle_acyclic result for this corpus."""

    def facts(i: int) -> _Facts:
        out = _Facts()
        for t, (ev, src) in acyclic_facts[method_mid(corpus, i)].items():
            out.add(t, set(ev), set(src))
        return out

    out = _Facts()
    direct: dict[str, set] = {}
    _collect_direct(corpus, trynode.body, method_mid(corpus, index), out,
                    facts, direct)
    packed = {t: (frozenset(e[0]), frozenset(e[1])) for t, e in out.items()}
    return packed, direct


def _collect_direct(corpus: GenCorpus, statements: list[GenStmt], mid: tuple,
                    out: _Facts, facts, direct: dict) -> None:
    for stmt in statements:
        if isinstance(stmt, GenThrow):
            # lexical throws trace back to zero methods at the try level
            out.add(corpus.qualify(stmt.exc), {TS}, set())
            direct.setdefault(corpus.qualify(stmt.exc), set())
        elif isinstance(stmt, GenCall):
            for tid, entry in facts(stmt.target).items():
                out.add(tid, set(entry[0]), set(entry[1]))
                direct.setdefault(tid, set()).add(
                    method_mid(corpus, stmt.target))
        elif isinstance(stmt, GenExt):
            for exc in corpus.externals[stmt.name]:
                out.add(corpus.qualify(exc), {ED}, {ext_mid(stmt.name)})
                direct.setdefault(corpus.qualify(exc), set()).add(
                    ext_mid(stmt.name))
        else:
            inner = _Facts()
            inner_direct: dict[str, set] = {}
            _collect_direct(corpus, stmt.body, mid, inner, facts, inner_direct)
            for tid, entry in inner.items():
                if not _caught(corpus, tid, stmt.catches):
                    out.add(tid, set(entry[0]), set(entry[1]))
                    direct.setdefault(tid, set()).update(
                        inner_direct.get(tid, set()))
            for _alts, cbody in stmt.catches:
                _collect_direct(corpus, cbody, mid, out, facts, direct)
            if stmt.fin is not None:
                _collect_direct(corpus, stmt.fin, mid, out, facts, direct)


# ---------------------------------------------------------------------------
# cyclic oracle: reachability closure (corpora without try statements)
# ---------------------------------------------------------------------------

def oracle_cyclic(corpus: GenCorpus) -> dict[tuple, dict]:
    """Expected facts for call graphs that may contain cycles. Only valid
    for corpora generated with allow_tries=False: every call edge is
    unconditional, so facts(M) for type T unions the own contributions of
    every node reachable from M that contributes T."""
    n = len(corpus.methods)
    own: list[dict[str, set]] = []
    edges: list[set[int]] = []
    ext_edges: list[set[str]] = []
    for method in corpus.methods:
        contributions: dict[str, set] = {}
        for exc in method.declared:
            contributions.setdefault(corpus.qualify(exc), set()).add(TD)
        for exc in method.doc:
            contributions.setdefault(corpus.qualify(exc), set()).add(DC)
        callees: set[int] = set()
        ext_callees: set[str] = set()
        for stmt in method.body:
            if isinstance(stmt, GenThrow):
                contributions.setdefault(corpus.qualify(stmt.exc),
                                         set()).add(TS)
            elif isinstance(stmt, GenCall):
                callees.add(stmt.target)
            elif isinstance(stmt, GenExt):
                ext_callees.add(stmt.name)
            else:
                raise AssertionError("cyclic oracle does not model tries")
        own.append(contributions)
        edges.append(callees)
        ext_edges.append(ext_callees)

    result = {}
    for start in range(n):
        reachable = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in edges[node]:
                if nxt not in reachable:
                    reachable.add(nxt)
                    frontier.append(nxt)
        facts = _Facts()
        for node in reachable:
            mid = method_mid(corpus, node)
            for tid, evidence in own[node].items():
                facts.add(tid, set(evidence), {mid})
            for ext_name in ext_edges[node]:
                for exc in corpus.externals[ext_name]:
                    facts.add(corpus.qualify(exc), {ED}, {ext_mid(ext_name)})
        result[method_mid(corpus, start)] = {
            t: (frozenset(e[0]), frozenset(e[1])) for t, e in facts.items()}
    return result


# ---------------------------------------------------------------------------
# reference recoverability split; the analyzer asks recoverability_of per type
# ---------------------------------------------------------------------------

def partition_recoverability(propagated, model) -> tuple[set, set]:
    """Split propagated facts into (potentially recoverable, potentially
    unrecoverable) by their exception type."""
    recoverable: set = set()
    unrecoverable: set = set()
    for fact in propagated:
        if model.recoverability_of(fact.type) is Recoverability.POTENTIALLY_RECOVERABLE:
            recoverable.add(fact)
        else:
            unrecoverable.add(fact)
    return recoverable, unrecoverable


# ---------------------------------------------------------------------------
# reference statement walks; the analyzer indexes tries while it resolves
# ---------------------------------------------------------------------------

def iter_expressions(expr: Expr) -> Iterator[Expr]:
    """The expression and every sub-expression that the parser kept: calls,
    `new`, lambdas, receivers and Operands parts, in pre-order left to
    right, without entering blocks."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(sub_expressions(node)))


def nested_blocks(expr: Expr) -> Iterator[Block]:
    """Statement blocks reachable from an expression: lambda bodies and
    hoisted anonymous-class bodies."""
    for node in iter_expressions(expr):
        if isinstance(node, Lambda) and isinstance(node.body, Block):
            yield node.body
        if isinstance(node, NewInstance) and node.anonymous_body is not None:
            yield node.anonymous_body


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
