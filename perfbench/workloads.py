"""Seeded workload generators and their independent oracles.

Each generator returns a Workload: the Java source files, the platform
model document, and the report exflow must produce for them. The expected
report is computed from the generated program shape by code in this file
alone. It never calls into exflow, so a change to the analyzer cannot move
the oracle with it.

Three shapes:

- corpus: realistic mixed traffic. Random calls, external calls, throws,
  tries up to depth 3 with multi-catch and finally, javadoc @throws and
  throws clauses, padded with ordinary statements. Some files hold a
  call cycle.
- call_chain: one ring m000 -> m001 -> ... -> m(n-1) -> m000 whose names
  sort so that facts move one hop per round-robin pass.
- try_nest: a few methods whose bodies are tries nested to depth d around
  calls, with catch clauses that match nothing.

Every method id is zero-padded, so sorting ids sorts by index; the corpus
only calls lower indices and earlier classes except on its cycle edges.
That fixes the number of fixed-point passes per shape, whatever the seed.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

PACKAGE = "bench"
EXT_PACKAGE = "bench.ext"
EXT = f"{EXT_PACKAGE}.Ext"

TS = "ThrowStatement"
TD = "ThrowsDeclaration"
DC = "DocComment"
ED = "ExternalDocumentation"

DIVERSITY_BUCKETS = ("1", "2", "3", "4", "5", ">5")

# simple name -> (qualified name, parent simple name, kind, recoverable)
BASE_TYPES = {
    "Throwable": ("java.lang.Throwable", None, "checked", None),
    "Exception": ("java.lang.Exception", "Throwable", "checked", None),
    "RuntimeException": ("java.lang.RuntimeException", "Exception",
                         "unchecked", None),
    "Error": ("java.lang.Error", "Throwable", "error", None),
}
PLATFORM_FAULTS = {
    "IoFault": (f"{EXT_PACKAGE}.IoFault", "Exception", "checked", None),
    "TimeoutFault": (f"{EXT_PACKAGE}.TimeoutFault", "IoFault", "checked",
                     None),
    "StateFault": (f"{EXT_PACKAGE}.StateFault", "RuntimeException",
                   "unchecked", True),
    "FatalFault": (f"{EXT_PACKAGE}.FatalFault", "Error", "error", None),
}
LIBRARY_METHODS = [
    {"signature": "java.lang.Throwable#printStackTrace(0)", "throws": []},
    {"signature": "java.lang.System#exit(1)", "throws": []},
]

_COMMENTS = (
    "normalise the running total", "keep the window bounded",
    "fold the current sample in", "guard against a stale value",
    "cheap path first", "recompute the checksum",
    "the limit comes from the settings", "walk the remaining slots",
)


# ---------------------------------------------------------------------------
# program shape
# ---------------------------------------------------------------------------

@dataclass
class Call:
    target: tuple[int, int]  # (class index, method index)
    qualified: bool = False  # rendered as Cnn.mmmm(...)
    line: int = 0
    col: int = 0


@dataclass
class ExtCall:
    name: str
    line: int = 0
    col: int = 0


@dataclass
class Throw:
    exc: str  # simple name
    wrap: Optional[str] = None  # catch variable passed as the cause
    line: int = 0
    col: int = 0


@dataclass
class Guard:
    """An if or for statement around shape statements; filters nothing."""
    kind: str
    body: list


@dataclass
class Catch:
    alts: list[str]
    handler: str  # key of HANDLER_ACTIONS
    body: list
    var: str = ""
    line: int = 0
    col: int = 0


@dataclass
class Try:
    body: list
    catches: list[Catch]
    fin: Optional[list] = None
    line: int = 0
    col: int = 0


Stmt = Union[Call, ExtCall, Throw, Guard, Try]

# actions the fixed statement each handler template adds to a catch body
HANDLER_ACTIONS = {
    "log": {"Log"}, "default": {"Default"}, "rethrow": {"ThrowCurrent"},
    "wrap": {"ThrowWrap"}, "empty": {"Empty"}, "todo": {"Empty", "Todo"},
    "abort": {"Abort"}, "return": {"Return"}, "plain": set(),
}
# the same statements seen from an enclosing catch clause: a rethrow names
# another variable, and printStackTrace there is an ordinary call
NESTED_HANDLER_ACTIONS = {
    "log": {"Log"}, "default": {"Method"}, "rethrow": set(), "wrap": set(),
    "empty": set(), "todo": {"Todo"}, "abort": {"Abort"},
    "return": {"Return"}, "plain": set(),
}


@dataclass
class Method:
    name: str
    arity: int
    body: list
    declared: list[str] = field(default_factory=list)
    doc: list[str] = field(default_factory=list)


@dataclass
class Clazz:
    name: str
    methods: list[Method]

    @property
    def qualified(self) -> str:
        return f"{PACKAGE}.{self.name}"

    @property
    def relpath(self) -> str:
        return f"{PACKAGE}/{self.name}.java"


@dataclass
class Program:
    classes: list[Clazz]
    exceptions: dict[str, str]  # corpus simple name -> parent simple name
    externals: dict[str, tuple[int, list[str]]]  # name -> (arity, throws)

    def __post_init__(self):
        self.types = dict(BASE_TYPES)
        self.types.update(PLATFORM_FAULTS)
        for name, parent in self.exceptions.items():
            self.types[name] = (f"{PACKAGE}.{name}", parent, None, None)

    def qualify(self, simple: str) -> str:
        return self.types[simple][0]

    def is_sub(self, sub: str, sup: str) -> bool:
        cur: Optional[str] = sub
        while cur is not None:
            if cur == sup:
                return True
            cur = self.types[cur][1]
        return False

    def recoverable(self, simple: str) -> bool:
        """Checked kinds recover; a platform type may override its own
        default, which its subtypes in the sources do not inherit."""
        override = self.types[simple][3]
        if override is not None:
            return override
        cur = simple
        while self.types[cur][2] is None:
            cur = self.types[cur][1]
        return self.types[cur][2] == "checked"

    def method_id(self, target: tuple[int, int]) -> str:
        clazz = self.classes[target[0]]
        method = clazz.methods[target[1]]
        return f"{clazz.qualified}#{method.name}({method.arity})"


@dataclass
class Workload:
    name: str
    files: dict[str, str]  # path relative to the project root -> source
    platform: dict
    expected: Callable[[str], dict]  # project path -> report dict
    methods: int
    try_blocks: int

    def write(self, root: Path) -> tuple[Path, Path]:
        """Write the tree under root/<name> and the platform model beside
        it; returns (project dir, platform file)."""
        project = root / self.name
        for rel, text in self.files.items():
            path = project / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        platform = root / f"{self.name}.platform.json"
        platform.write_text(json.dumps(self.platform, indent=1) + "\n")
        return project, platform

    def size(self) -> dict:
        texts = list(self.files.values())
        return {
            "files": len(texts),
            "lines": sum(t.count("\n") for t in texts),
            "bytes": sum(len(t.encode()) for t in texts),
            "tokens": sum(count_tokens(t) for t in texts),
            "methods": self.methods,
            "try_blocks": self.try_blocks,
        }


_TOKEN_RE = re.compile(r"""
    (?P<skip>\s+|//[^\n]*|/\*.*?\*/)
  | [A-Za-z_$][\w$]*
  | \d[\w.]*
  | "(?:\\.|[^"\\])*" | '(?:\\.|[^'\\])*'
  | >>>=|<<=|>>=|>>>|\.\.\.|->|::|\+\+|--|&&|\|\||[<>=!+\-*/%&|^]=|<<|>>
  | .
""", re.S | re.X)


def count_tokens(text: str) -> int:
    """Java tokens in text, comments excluded; the input-size figure is
    counted here so a lexer change in exflow cannot move it."""
    return sum(1 for m in _TOKEN_RE.finditer(text) if m.lastgroup != "skip")


def platform_document(program: Program) -> dict:
    types = []
    for qualified, parent, kind, recoverable in {
            **BASE_TYPES, **PLATFORM_FAULTS}.values():
        entry = {"name": qualified,
                 "superclass": program.qualify(parent) if parent else None,
                 "kind": kind}
        if recoverable is not None:
            entry["recoverable"] = recoverable
        types.append(entry)
    methods = [dict(m) for m in LIBRARY_METHODS]
    for name, (arity, throws) in sorted(program.externals.items()):
        methods.append({"signature": f"{EXT}#{name}({arity})",
                        "throws": [program.qualify(t) for t in throws]})
    return {"types": types, "methods": methods}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

class _Renderer:
    """Writes one class, padding the shape statements with ordinary code and
    recording the line and column of every node the report mentions."""

    def __init__(self, program: Program, seed: Optional[str]):
        self.program = program
        self.seed = seed  # None renders the bare shape, without padding
        self.rng = random.Random()
        self.lines: list[str] = []
        self.locals = 0
        self.catch_vars = 0

    def render_class(self, index: int) -> str:
        clazz = self.program.classes[index]
        self.lines = [f"package {PACKAGE};", "", f"import {EXT_PACKAGE}.*;",
                      "", f"public class {clazz.name} {{"]
        if self.seed is not None:
            self.lines += ["", "    private static int counter = 0;",
                           "    static Settings settings;"]
        for method in clazz.methods:
            self.lines.append("")
            self._method(clazz, method)
        self.lines.append("}")
        return "\n".join(self.lines) + "\n"

    def method_lines(self, clazz: Clazz, method: Method) -> int:
        """Rendered length of one method; its padding is drawn from its own
        stream, so the figure holds wherever the method ends up."""
        saved = self.lines, self.catch_vars
        self.lines = []
        self._method(clazz, method)
        count = len(self.lines)
        self.lines, self.catch_vars = saved
        return count

    def _method(self, clazz: Clazz, method: Method) -> None:
        self.rng.seed(f"{self.seed}:{clazz.name}:{method.name}")
        if method.doc:
            self.lines += ["    /**", f"     * Handles {method.name}.",
                           "     *"]
            self.lines += [f"     * @throws {exc} when the input is rejected"
                           for exc in method.doc]
            self.lines.append("     */")
        params = ", ".join(("int a", "String s")[:method.arity])
        throws = (" throws " + ", ".join(method.declared)
                  if method.declared else "")
        self.lines.append(
            f"    public static void {method.name}({params}){throws} {{")
        self.locals = 0
        if self.seed is not None:
            self.lines.append("        int total = counter;")
        self._block(method.body, 8)
        self.lines.append("    }")

    def _block(self, statements: list, indent: int) -> None:
        for stmt in statements:
            self._pad(indent)
            self._stmt(stmt, indent)
        self._pad(indent)

    def _args(self, arity: int) -> str:
        return ", ".join(("total", '"k"')[:arity] if self.seed is not None
                         else ("a", "s")[:arity])

    def _stmt(self, stmt: Stmt, indent: int) -> None:
        pad = " " * indent
        line = len(self.lines) + 1
        if isinstance(stmt, Call):
            clazz = self.program.classes[stmt.target[0]]
            method = clazz.methods[stmt.target[1]]
            prefix = f"{clazz.name}." if stmt.qualified else ""
            stmt.line, stmt.col = line, indent + len(prefix) + 1
            self.lines.append(
                f"{pad}{prefix}{method.name}({self._args(method.arity)});")
        elif isinstance(stmt, ExtCall):
            arity = self.program.externals[stmt.name][0]
            stmt.line, stmt.col = line, indent + len("Ext.") + 1
            self.lines.append(f"{pad}Ext.{stmt.name}({self._args(arity)});")
        elif isinstance(stmt, Throw):
            stmt.line, stmt.col = line, indent + 1
            self.lines.append(f"{pad}throw new {stmt.exc}({stmt.wrap or ''});")
        elif isinstance(stmt, Guard):
            if stmt.kind == "if":
                self.lines.append(
                    f"{pad}if (total > {self.rng.randint(0, 96)}) {{")
            else:
                self.lines.append(
                    f"{pad}for (int k = 0; k < total; k++) {{")
            self._block(stmt.body, indent + 4)
            self.lines.append(f"{pad}}}")
        else:
            stmt.line, stmt.col = line, indent + 1
            self.lines.append(f"{pad}try {{")
            self._block(stmt.body, indent + 4)
            for clause in stmt.catches:
                self.catch_vars += 1
                clause.var = f"e{self.catch_vars}"
                clause.line, clause.col = len(self.lines) + 1, indent + 3
                self.lines.append(
                    f"{pad}}} catch ({' | '.join(clause.alts)} {clause.var}) {{")
                for inner in clause.body:
                    if isinstance(inner, Throw) and inner.wrap is not None:
                        inner.wrap = clause.var
                self._handler(clause, indent + 4)
            if stmt.fin is not None:
                self.lines.append(f"{pad}}} finally {{")
                self._block(stmt.fin, indent + 4)
            self.lines.append(f"{pad}}}")

    def _handler(self, clause: Catch, indent: int) -> None:
        pad = " " * indent
        kind = clause.handler
        if kind == "default":
            self.lines.append(f"{pad}{clause.var}.printStackTrace();")
            return
        if kind == "empty":
            self.lines.append(f"{pad}// nothing to do here")
            return
        if kind == "todo":
            self.lines.append(f"{pad}// TODO: report this failure")
            return
        if kind == "log":
            self.lines.append(f'{pad}LOG.warn("step failed: " + {clause.var});')
        elif kind == "plain":
            self.lines.append(f"{pad}counter = counter + 1;")
        self._block(clause.body, indent)
        if kind == "rethrow":
            self.lines.append(f"{pad}throw {clause.var};")
        elif kind == "abort":
            self.lines.append(f"{pad}System.exit(1);")
        elif kind == "return":
            self.lines.append(f"{pad}return;")

    def _pad(self, indent: int) -> None:
        """Ordinary statements that neither call nor throw."""
        if self.seed is None:
            return
        rng = self.rng
        pad = " " * indent
        for _ in range(rng.randint(0, 2)):
            kind = rng.randrange(7)
            if kind == 0:
                self.locals += 1
                self.lines.append(f"{pad}int v{self.locals} = total * "
                                  f"{rng.randint(2, 9)} + {rng.randint(0, 99)};")
            elif kind == 1:
                self.locals += 1
                self.lines.append(f'{pad}String t{self.locals} = "item-" + '
                                  f'total + ":" + counter;')
            elif kind == 2:
                self.lines.append(f"{pad}total = total + settings.limits."
                                  f"window.size;")
            elif kind == 3:
                self.lines += [f"{pad}if (total > {rng.randint(10, 999)}) {{",
                               f"{pad}    total = total - counter;",
                               f"{pad}}} else {{",
                               f"{pad}    total += {rng.randint(1, 9)};",
                               f"{pad}}}"]
            elif kind == 4:
                self.lines += [f"{pad}for (int i = 0; i < "
                               f"{rng.randint(2, 16)}; i++) {{",
                               f"{pad}    total += i * counter;",
                               f"{pad}}}"]
            elif kind == 5:
                self.lines.append(f"{pad}// {rng.choice(_COMMENTS)}")
            else:
                self.lines.append(f"{pad}counter = (counter + total) % "
                                  f"{rng.randint(3, 1000)};")


def _exceptions_file(program: Program) -> str:
    lines = [f"package {PACKAGE};", "", f"import {EXT_PACKAGE}.*;", ""]
    for name, parent in program.exceptions.items():
        lines.append(f"class {name} extends {parent} {{}}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# oracle for arbitrary shapes
# ---------------------------------------------------------------------------

def _walk(statements: list, filters: tuple, out: list) -> None:
    """Collect (site, enclosing try bodies) pairs; a site inside a catch or
    finally body is not filtered by that try's own clauses."""
    for stmt in statements:
        if isinstance(stmt, (Call, ExtCall, Throw)):
            out.append((stmt, filters))
        elif isinstance(stmt, Guard):
            _walk(stmt.body, filters, out)
        elif isinstance(stmt, Try):
            _walk(stmt.body, filters + (stmt,), out)
            for clause in stmt.catches:
                _walk(clause.body, filters, out)
            if stmt.fin is not None:
                _walk(stmt.fin, filters, out)


def _tries(statements: list, out: list) -> None:
    for stmt in statements:
        if isinstance(stmt, Guard):
            _tries(stmt.body, out)
        elif isinstance(stmt, Try):
            out.append(stmt)
            _tries(stmt.body, out)
            for clause in stmt.catches:
                _tries(clause.body, out)
            if stmt.fin is not None:
                _tries(stmt.fin, out)


def _first_match(program: Program, exc: str, catches: list[Catch]
                 ) -> Optional[str]:
    for clause in catches:
        for alt in clause.alts:
            if program.is_sub(exc, alt):
                return alt
    return None


def _survives(program: Program, exc: str, filters: tuple) -> bool:
    return all(_first_match(program, exc, t.catches) is None
               for t in filters)


def _site_facts(program: Program, site, method_facts: dict
                ) -> list[tuple[str, frozenset, Optional[str]]]:
    """(exception simple name, evidence, direct method id or None) for each
    exception one site raises, before any filtering."""
    if isinstance(site, Throw):
        return [(site.exc, frozenset({TS}), None)]
    if isinstance(site, ExtCall):
        mid = f"{EXT}#{site.name}({program.externals[site.name][0]})"
        return [(exc, frozenset({ED}), mid)
                for exc in program.externals[site.name][1]]
    mid = program.method_id(site.target)
    return [(exc, evidence, mid)
            for exc, (evidence, _sources) in method_facts[site.target].items()]


def method_facts(program: Program) -> dict:
    """Per method, exception -> (evidence, contributing methods), as the
    union over every method reachable along call edges the exception
    survives; solved separately for each exception type."""
    own: dict = {}
    edges: dict = {}
    for ci, clazz in enumerate(program.classes):
        for mi, method in enumerate(clazz.methods):
            key = (ci, mi)
            mid = program.method_id(key)
            facts: dict = {}

            def add(exc, kind, source):
                evidence, sources = facts.setdefault(exc, (set(), set()))
                evidence.add(kind)
                sources.add(source)

            for exc in method.declared:
                add(exc, TD, mid)
            for exc in method.doc:
                add(exc, DC, mid)
            sites: list = []
            _walk(method.body, (), sites)
            calls = []
            for site, filters in sites:
                if isinstance(site, Call):
                    calls.append((site.target, filters))
                    continue
                for exc, evidence, direct in _site_facts(program, site, {}):
                    if _survives(program, exc, filters):
                        add(exc, next(iter(evidence)), direct or mid)
            own[key] = facts
            edges[key] = calls
    result: dict = {key: {} for key in own}
    for exc in program.types:
        for start in own:
            seen = {start}
            stack = [start]
            evidence: set = set()
            sources: set = set()
            while stack:
                node = stack.pop()
                if exc in own[node]:
                    evidence |= own[node][exc][0]
                    sources |= own[node][exc][1]
                for target, filters in edges[node]:
                    if target not in seen and _survives(program, exc, filters):
                        seen.add(target)
                        stack.append(target)
            if evidence:
                result[start][exc] = (frozenset(evidence), frozenset(sources))
    return result


def _handler_actions(clause: Catch) -> set[str]:
    actions = set(HANDLER_ACTIONS[clause.handler])

    def visit(statements):
        for stmt in statements:
            if isinstance(stmt, (Call, ExtCall)):
                actions.add("Method")
            elif isinstance(stmt, Throw):
                actions.add("ThrowWrap" if stmt.wrap == clause.var
                            else "ThrowNew")
            elif isinstance(stmt, Guard):
                visit(stmt.body)
            elif isinstance(stmt, Try):
                actions.add("NestedTry")
                visit(stmt.body)
                for inner in stmt.catches:
                    actions.update(NESTED_HANDLER_ACTIONS[inner.handler])
                    visit(inner.body)
                if stmt.fin is not None:
                    visit(stmt.fin)

    visit(clause.body)
    return actions


def expected_report(program: Program, project: str) -> dict:
    """The report dict exflow must write for the program rendered under the
    project path, with the default configuration."""
    facts_by_method = method_facts(program)
    rows = []
    appearances: dict[str, int] = {}
    catch_clauses = 0
    for ci, clazz in enumerate(program.classes):
        file = str(Path(project) / clazz.relpath)
        for method in clazz.methods:
            tries: list = []
            _tries(method.body, tries)
            for t in tries:
                rows.append(_try_row(program, t, file, facts_by_method))
                catch_clauses += len(t.catches)
    rows.sort(key=lambda r: (r["file"], r["line"], r["try_id"]))
    for row in rows:
        for entry in row["exceptions"]:
            appearances[entry["type"]] = appearances.get(entry["type"], 0) + 1
    methods = sum(len(c.methods) for c in program.classes)
    return _report(Path(project).name, rows, catch_clauses, methods,
                   appearances)


def _try_row(program: Program, t: Try, file: str, facts_by_method: dict
             ) -> dict:
    sites: list = []
    _walk(t.body, (), sites)
    fact_rows = []
    by_type: dict[str, tuple[set, set]] = {}
    for site, filters in sites:
        for exc, evidence, direct in _site_facts(program, site,
                                                 facts_by_method):
            if not _survives(program, exc, filters):
                continue
            qualified = program.qualify(exc)
            position = f"{file}:{site.line}:{site.col}"
            origin = (f"throw {position}" if direct is None
                      else f"call {position} -> {direct}")
            matched = _first_match(program, exc, t.catches)
            fact_rows.append({"type": qualified, "origin": origin,
                              "evidence": sorted(evidence),
                              "handled": matched is not None})
            kinds, methods = by_type.setdefault(exc, (set(), set()))
            kinds |= evidence
            if direct is not None:
                methods.add(direct)
    fact_rows.sort(key=lambda r: (r["type"], r["origin"]))
    exceptions = []
    propagated = recoverable = 0
    for exc, (kinds, methods) in by_type.items():
        matched = _first_match(program, exc, t.catches)
        if matched is None:
            strategy = "propagated"
            propagated += 1
            recoverable += program.recoverable(exc)
        else:
            strategy = ("specific" if program.qualify(matched)
                        == program.qualify(exc) else "subsumption")
        exceptions.append({"type": program.qualify(exc),
                           "distinct_methods": len(methods),
                           "evidence": sorted(kinds), "strategy": strategy})
    exceptions.sort(key=lambda e: e["type"])
    return {
        "try_id": f"{file}:{t.line}:{t.col}", "file": file, "line": t.line,
        "total": len(exceptions), "propagated": propagated,
        "propagated_recoverable": recoverable, "exceptions": exceptions,
        "facts": fact_rows,
        "handlers": [{"catch_id": f"{file}:{c.line}:{c.col}",
                      "actions": sorted(_handler_actions(c))}
                     for c in t.catches],
    }


def _report(project: str, rows: list, catch_clauses: int, methods: int,
            appearances: dict) -> dict:
    buckets = {b: 0 for b in DIVERSITY_BUCKETS}
    for count in appearances.values():
        buckets[str(count) if count <= 5 else ">5"] += 1
    total = len(appearances)
    return {
        "project": project,
        "totals": {"try_blocks": len(rows), "catch_clauses": catch_clauses,
                   "methods": methods, "distinct_exception_types": total},
        "try_blocks": rows,
        "diversity": {"total_types": total,
                      "buckets": {b: (buckets[b] / total if total else 0.0)
                                  for b in DIVERSITY_BUCKETS}},
    }


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

CORPUS_FILES = 15
CORPUS_FILE_LINES = 800
CORPUS_TRIES_PER_LINE = 0.028
# calls reach this many methods back in the class, or the two classes before
# it; a method called from everywhere would tie the work of the whole tree
# to its random body
CALL_WINDOW = 8
# parent of each corpus exception: a base or platform type, or the index of
# an earlier entry
CORPUS_HIERARCHY = ("Exception", "Exception", "RuntimeException", "IoFault",
                    "StateFault", 0, 1, 2)
# (arity, documented exceptions) of the external methods
CORPUS_EXTERNALS = ((0, []), (1, ["IoFault"]), (2, ["StateFault"]),
                    (0, ["FatalFault", "TimeoutFault"]),
                    (1, ["IoFault", "StateFault"]), (2, []))


def corpus(seed: int, *, files: int = CORPUS_FILES,
           file_lines: int = CORPUS_FILE_LINES) -> Workload:
    """Classes take methods until the tree holds file_lines lines per class
    so far, so its size varies little between seeds."""
    rng = random.Random(f"corpus:{seed}")
    # the seed permutes names over a fixed hierarchy and fixed external
    # methods: a random shape there would move the work of every file at
    # once, where per-method choices average out over the tree
    exc_names = [f"Ex{i}" for i in range(len(CORPUS_HIERARCHY))]
    rng.shuffle(exc_names)
    exceptions = {name: (parent if isinstance(parent, str)
                         else exc_names[parent])
                  for name, parent in zip(exc_names, CORPUS_HIERARCHY)}
    exc_names.sort()
    externals = dict(zip(rng.sample([f"op{i}" for i in range(
        len(CORPUS_EXTERNALS))], len(CORPUS_EXTERNALS)), CORPUS_EXTERNALS))
    program = Program([], exceptions, externals)
    gen = _CorpusGen(rng, program, exc_names)
    renderer = _Renderer(program, f"corpus:{seed}")
    lines = tries = 0
    for ci in range(files):
        clazz = Clazz(f"C{ci:02d}", [])
        program.classes.append(clazz)
        while not clazz.methods or lines < file_lines * (ci + 1):
            mi = len(clazz.methods)
            method = Method(f"m{mi:03d}", rng.randint(0, 2), [])
            clazz.methods.append(method)
            # hold the share of tries steady: a method may open tries only
            # while the tree is below its pace
            depth = 0 if tries < CORPUS_TRIES_PER_LINE * lines else 3
            method.body = gen.block(ci, mi, depth, budget=rng.randint(1, 5))
            method.declared = sorted(e for e in exc_names if rng.random() < 0.08)
            method.doc = sorted(e for e in exc_names if rng.random() < 0.06)
            lines += renderer.method_lines(clazz, method)
            found: list = []
            _tries(method.body, found)
            tries += len(found)
        if _cyclic(ci):
            gen.add_cycle(ci)
    files_out = {c.relpath: renderer.render_class(ci)
                 for ci, c in enumerate(program.classes)}
    files_out[f"{PACKAGE}/Faults.java"] = _exceptions_file(program)
    return Workload("corpus", files_out, platform_document(program),
                    lambda project: expected_report(program, project),
                    methods=sum(len(c.methods) for c in program.classes),
                    try_blocks=tries)


def _cyclic(ci: int) -> bool:
    """Classes 1, 5, 9, 13 hold a call cycle and call no other class, so no
    cycle waits on another and the fixed point always takes three passes."""
    return ci % 4 == 1


class _CorpusGen:
    def __init__(self, rng: random.Random, program: Program,
                 exc_names: list[str]):
        self.rng = rng
        self.program = program
        self.exc_names = exc_names
        self.catchable = (exc_names + list(PLATFORM_FAULTS)
                          + ["Exception", "RuntimeException"])

    def _target(self, ci: int, mi: int) -> Optional[Call]:
        rng = self.rng
        if mi > 0 and (ci == 0 or _cyclic(ci) or rng.random() < 0.7):
            return Call((ci, rng.randrange(max(0, mi - CALL_WINDOW), mi)))
        if ci > 0 and not _cyclic(ci):
            other = rng.randrange(max(0, ci - 2), ci)
            return Call((other, rng.randrange(
                len(self.program.classes[other].methods))), qualified=True)
        return None

    def block(self, ci: int, mi: int, depth: int, budget: int) -> list:
        rng = self.rng
        out: list = []
        for _ in range(budget):
            roll = rng.random()
            if roll < 0.4:
                call = self._target(ci, mi)
                if call is not None:
                    out.append(call)
            elif roll < 0.55:
                out.append(ExtCall(rng.choice(sorted(self.program.externals))))
            elif roll < 0.7:
                throw = Throw(rng.choice(self.exc_names))
                out.append(Guard("if", [throw]) if rng.random() < 0.7
                           else throw)
            elif roll < 0.78:
                out.append(Guard(rng.choice(("if", "for")),
                                 self.block(ci, mi, depth, rng.randint(1, 2))))
            elif depth < 3:
                out.append(self.try_stmt(ci, mi, depth))
        return out

    def try_stmt(self, ci: int, mi: int, depth: int) -> Try:
        rng = self.rng
        body = self.block(ci, mi, depth + 1, rng.randint(1, 4))
        catches = []
        for _ in range(rng.randint(1, 2)):
            alts = sorted(set(rng.choices(self.catchable,
                                          k=rng.choice((1, 1, 2)))))
            handler = rng.choice(sorted(HANDLER_ACTIONS))
            cbody: list = []
            if handler not in ("default", "empty", "todo"):
                cbody = self.block(ci, mi, depth + 1, rng.randint(0, 2))
            if handler == "wrap":
                cbody.append(Throw(rng.choice(self.exc_names), wrap=""))
            catches.append(Catch(alts, handler, cbody))
        fin = (self.block(ci, mi, depth + 1, rng.randint(0, 2))
               if rng.random() < 0.3 else None)
        return Try(body, catches, fin)

    def add_cycle(self, ci: int) -> None:
        """A ring through 3 to 5 methods of the class: each member calls the
        next lower one, and the lowest calls the highest, at top level. The
        highest throws unconditionally, so something crosses the back edge
        and the fixed point takes exactly one extra pass."""
        rng = self.rng
        methods = self.program.classes[ci].methods
        size = min(rng.randint(3, 5), len(methods))
        if size < 2:
            return
        ring = sorted(rng.sample(range(len(methods)), size))
        for lower, upper in zip(ring, ring[1:]):
            body = methods[upper].body
            body.insert(rng.randint(0, len(body)), Call((ci, lower)))
        low = methods[ring[0]].body
        low.insert(rng.randint(0, len(low)), Call((ci, ring[-1])))
        methods[ring[-1]].body.insert(0, Guard("if", [Throw(
            rng.choice(self.exc_names))]))


# ---------------------------------------------------------------------------
# adversarial shapes with closed-form reports
# ---------------------------------------------------------------------------

CHAIN_LENGTH = 400
NEST_METHODS = 2
NEST_DEPTH = 120


def _fault_pair(rng: random.Random) -> dict[str, str]:
    """The propagated fault under a seeded parent, and a sibling type that
    every catch clause names and that never matches it."""
    return {"Fault": rng.choice(("Exception", "RuntimeException", "IoFault",
                                 "StateFault")),
            "OtherFault": "Exception"}


def _propagated_row(program: Program, t: Try, file: str,
                    facts: list[tuple[str, str]], direct: int) -> dict:
    """Row of a try whose only exception is Fault and nothing catches it;
    facts holds (origin, evidence) pairs, evidence given as a "|" list."""
    kinds = sorted({k for _origin, ev in facts for k in ev.split("|")})
    return {
        "try_id": f"{file}:{t.line}:{t.col}", "file": file, "line": t.line,
        "total": 1, "propagated": 1,
        "propagated_recoverable": int(program.recoverable("Fault")),
        "exceptions": [{"type": program.qualify("Fault"),
                        "distinct_methods": direct, "evidence": kinds,
                        "strategy": "propagated"}],
        "facts": sorted(({"type": program.qualify("Fault"), "origin": origin,
                          "evidence": sorted(ev.split("|")),
                          "handled": False}
                         for origin, ev in facts),
                        key=lambda r: r["origin"]),
        "handlers": [{"catch_id": f"{file}:{c.line}:{c.col}",
                      "actions": sorted(HANDLER_ACTIONS[c.handler])}
                     for c in t.catches],
    }


def call_chain(seed: int, *, n: int = CHAIN_LENGTH) -> Workload:
    """Ring m000 -> m001 -> ... -> m(n-1) -> m000; m(n-1) throws. Each call
    sits in a try whose clause names a sibling type, so every try
    propagates Fault: its facts are the one call (and the throw in the last
    method), all with ThrowStatement evidence."""
    rng = random.Random(f"call_chain:{seed}")
    methods = []
    for k in range(n):
        body: list = [Call((0, (k + 1) % n))]
        if k == n - 1:
            body.append(Throw("Fault"))
        handler = rng.choice(("default", "log"))
        methods.append(Method(f"m{k:03d}", 1, [
            Try(body, [Catch(["OtherFault"], handler, [])])]))
    program = Program([Clazz("Ring", methods)], _fault_pair(rng), {})
    files = {program.classes[0].relpath: _Renderer(program, None)
             .render_class(0),
             f"{PACKAGE}/Faults.java": _exceptions_file(program)}

    def expected(project: str) -> dict:
        file = str(Path(project) / program.classes[0].relpath)
        rows = []
        for k, method in enumerate(methods):
            t = method.body[0]
            call = t.body[0]
            facts = [(f"call {file}:{call.line}:{call.col} -> "
                      f"{program.method_id(call.target)}", TS)]
            if k == n - 1:
                throw = t.body[1]
                facts.append((f"throw {file}:{throw.line}:{throw.col}", TS))
            rows.append(_propagated_row(program, t, file, facts, 1))
        return _report(Path(project).name, rows, n, n,
                       {program.qualify("Fault"): n})

    return Workload("call_chain", files, platform_document(program),
                    expected, methods=n, try_blocks=n)


def try_nest(seed: int, *, methods: int = NEST_METHODS,
             depth: int = NEST_DEPTH) -> Workload:
    """Methods n000.. whose bodies nest `depth` tries, each calling leaf()
    before its inner try; the innermost also throws. A try at level L sees
    the calls of levels L..depth and the throw, and propagates them all."""
    rng = random.Random(f"try_nest:{seed}")
    declared = rng.random() < 0.5
    leaf = Method("leaf", 1, [Throw("Fault")],
                  declared=["Fault"] if declared else [])
    nest_methods = []
    for m in range(methods):
        inner: list = [Call((0, 0)), Throw("Fault")]
        for _level in range(depth):
            t = Try(inner, [Catch(["OtherFault"],
                                  rng.choice(("default", "log", "empty")),
                                  [])])
            inner = [Call((0, 0)), t]
        nest_methods.append(Method(f"n{m:03d}", 1, [inner[1]]))
    program = Program([Clazz("Nest", [leaf] + nest_methods)],
                      _fault_pair(rng), {})
    files = {program.classes[0].relpath: _Renderer(program, None)
             .render_class(0),
             f"{PACKAGE}/Faults.java": _exceptions_file(program)}
    leaf_evidence = f"{TD}|{TS}" if declared else TS

    def expected(project: str) -> dict:
        file = str(Path(project) / program.classes[0].relpath)
        rows = []
        for method in nest_methods:
            levels = []
            t = method.body[0]
            while True:
                levels.append(t)
                if not isinstance(t.body[1], Try):
                    break
                t = t.body[1]
            for level, t in enumerate(levels):
                facts = []
                for below in levels[level:]:
                    call = below.body[0]
                    facts.append((f"call {file}:{call.line}:{call.col} -> "
                                  f"{program.method_id((0, 0))}",
                                  leaf_evidence))
                throw = levels[-1].body[1]
                facts.append((f"throw {file}:{throw.line}:{throw.col}", TS))
                rows.append(_propagated_row(program, t, file, facts, 1))
        tries = methods * depth
        return _report(Path(project).name, rows, tries, methods + 1,
                       {program.qualify("Fault"): tries})

    return Workload("try_nest", files, platform_document(program), expected,
                    methods=methods + 1, try_blocks=methods * depth)


WORKLOADS = {"corpus": corpus, "call_chain": call_chain,
             "try_nest": try_nest}
