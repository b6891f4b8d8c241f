"""Semantic model: type hierarchy, method table and the call resolution
policy.

External dependencies are described by declarative platform-model files
rather than compiled binaries. A platform model contributes exception
types (with checked/unchecked/error kinds and optional recoverability
overrides) and per-method documented exceptions, keyed by arity-based
signatures `Owner#name(arity)`.

Call sites resolve against the receiver's declared type only, by method
name and arity, walking up the superclass chain. Receivers whose type
cannot be established statically stay Unresolved and contribute nothing,
which keeps the analysis an under-estimate rather than an over-estimate.
Building the model walks no method body: flow's lowering walks each body
once, tracks the declared variables in a Scope, and hands every call to
SemanticModel.resolve_invocation, which stores the callee on the call.
"""

from __future__ import annotations

import enum
import json
import re
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from .record import Record
from .syntax.ast import (
    Cast, CompilationUnit, Expr, FieldAccess, Invocation, Literal,
    MethodDecl, Name, NewInstance, TypeDecl,
)
from .syntax.errors import not_utf8

if TYPE_CHECKING:
    from .flow import MethodSummary

MethodId = tuple[str, str, int]  # (owner type, method name, arity)

_SIGNATURE_RE = re.compile(
    r"^(?P<owner>[A-Za-z_$][\w$]*(?:\.[A-Za-z_$][\w$]*)*)"
    r"#(?P<name>[A-Za-z_$][\w$]*|<init>)\((?P<arity>\d+)\)$")

_KINDS = ("checked", "unchecked", "error")


class ModelError(Exception):
    """Corpus-level modeling failure: duplicate types or hierarchy
    cycles."""


class PlatformModelError(Exception):
    """Platform model rejected: a malformed file (the message carries the
    JSON path), or a platform type whose superclass neither the platform
    nor the corpus declares."""


class Recoverability(enum.Enum):
    POTENTIALLY_RECOVERABLE = "PotentiallyRecoverable"
    POTENTIALLY_UNRECOVERABLE = "PotentiallyUnrecoverable"


def method_id_str(mid: MethodId) -> str:
    owner, name, arity = mid
    return f"{owner}#{name}({arity})"


def parse_signature(signature: str) -> MethodId:
    match = _SIGNATURE_RE.match(signature)
    if match is None:
        raise PlatformModelError(
            f"malformed signature {signature!r}; expected Owner#name(arity)")
    return (match.group("owner"), match.group("name"), int(match.group("arity")))


# ---------------------------------------------------------------------------
# Platform model
# ---------------------------------------------------------------------------

class PlatformType(Record):
    __slots__ = ("name", "superclass", "kind", "recoverable")

    def __init__(self, name: str, superclass: Optional[str], kind: str,
                 recoverable: Optional[bool] = None):
        self.name = name
        self.superclass = superclass
        self.kind = kind
        self.recoverable = recoverable

    def __hash__(self) -> int:
        return hash((self.name, self.superclass, self.kind, self.recoverable))


class PlatformMethod(Record):
    __slots__ = ("id", "throws")

    def __init__(self, id: MethodId, throws: tuple[str, ...]):
        self.id = id
        self.throws = throws

    def __hash__(self) -> int:
        return hash((self.id, self.throws))


class PlatformModel(Record):
    __slots__ = ("types", "methods")

    def __init__(self, types: Optional[dict[str, PlatformType]] = None,
                 methods: Optional[dict[MethodId, PlatformMethod]] = None):
        self.types = {} if types is None else types
        self.methods = {} if methods is None else methods


def load_platform_model(path: Union[str, Path], *, require_closed: bool = True) -> PlatformModel:
    """Load and validate one platform-model JSON file.

    With require_closed (the default for standalone use), superclass and
    documented-exception references must resolve within the file and the
    type list must contain exactly one root. Loaders that merge several
    files defer those checks until after the merge.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise PlatformModelError(f"{path}: cannot read platform model: {exc}")
    except UnicodeDecodeError as exc:
        raise PlatformModelError(not_utf8(path, exc))
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlatformModelError(f"{path}: invalid JSON: {exc}")
    model = parse_platform_document(doc, str(path))
    if require_closed:
        validate_platform_closure(model, source=str(path))
    return model


def parse_platform_document(doc: object, source: str) -> PlatformModel:
    if not isinstance(doc, dict):
        raise PlatformModelError(f"{source}: $: expected an object")
    unknown = set(doc) - {"types", "methods", "config"}
    if unknown:
        raise PlatformModelError(
            f"{source}: $: unknown keys {sorted(unknown)}")
    for key in ("types", "methods"):
        if key not in doc:
            raise PlatformModelError(f"{source}: $.{key}: missing")
        if not isinstance(doc[key], list):
            raise PlatformModelError(f"{source}: $.{key}: expected a list")

    types: dict[str, PlatformType] = {}
    for i, entry in enumerate(doc["types"]):
        where = f"{source}: $.types[{i}]"
        if not isinstance(entry, dict):
            raise PlatformModelError(f"{where}: expected an object")
        unknown = set(entry) - {"name", "superclass", "kind", "recoverable"}
        if unknown:
            raise PlatformModelError(f"{where}: unknown keys {sorted(unknown)}")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise PlatformModelError(f"{where}.name: expected a non-empty string")
        superclass = entry.get("superclass")
        if superclass is not None and not isinstance(superclass, str):
            raise PlatformModelError(f"{where}.superclass: expected a string or null")
        kind = entry.get("kind")
        if kind not in _KINDS:
            raise PlatformModelError(
                f"{where}.kind: expected one of {list(_KINDS)}, got {kind!r}")
        recoverable = entry.get("recoverable")
        if recoverable is not None and not isinstance(recoverable, bool):
            raise PlatformModelError(f"{where}.recoverable: expected a boolean")
        if name in types:
            raise PlatformModelError(f"{where}.name: duplicate type {name}")
        types[name] = PlatformType(name, superclass, kind, recoverable)

    methods: dict[MethodId, PlatformMethod] = {}
    for i, entry in enumerate(doc["methods"]):
        where = f"{source}: $.methods[{i}]"
        if not isinstance(entry, dict):
            raise PlatformModelError(f"{where}: expected an object")
        unknown = set(entry) - {"signature", "throws"}
        if unknown:
            raise PlatformModelError(f"{where}: unknown keys {sorted(unknown)}")
        signature = entry.get("signature")
        if not isinstance(signature, str):
            raise PlatformModelError(f"{where}.signature: expected a string")
        try:
            mid = parse_signature(signature)
        except PlatformModelError as exc:
            raise PlatformModelError(f"{where}.signature: {exc}")
        throws = entry.get("throws")
        if not isinstance(throws, list) or not all(isinstance(t, str) for t in throws):
            raise PlatformModelError(f"{where}.throws: expected a list of strings")
        if mid in methods:
            raise PlatformModelError(
                f"{where}.signature: duplicate signature {signature}")
        methods[mid] = PlatformMethod(mid, tuple(throws))
    return PlatformModel(types, methods)


def merge_platform_models(models: list[PlatformModel]) -> PlatformModel:
    merged = PlatformModel()
    for model in models:
        for name, ptype in model.types.items():
            if name in merged.types and merged.types[name] != ptype:
                raise PlatformModelError(
                    f"conflicting declarations of type {name} across platform models")
            merged.types[name] = ptype
        for mid, method in model.methods.items():
            if mid in merged.methods and merged.methods[mid] != method:
                raise PlatformModelError(
                    f"conflicting declarations of {method_id_str(mid)} across platform models")
            merged.methods[mid] = method
    return merged


def validate_platform_closure(platform: PlatformModel,
                              corpus_types: frozenset[str] = frozenset(),
                              source: str = "platform model") -> None:
    known = set(platform.types) | corpus_types
    for ptype in platform.types.values():
        if ptype.superclass is not None and ptype.superclass not in known:
            raise PlatformModelError(
                f"{source}: type {ptype.name} has undeclared superclass "
                f"{ptype.superclass}")
    if platform.types:
        roots = [t.name for t in platform.types.values() if t.superclass is None]
        if len(roots) != 1:
            raise PlatformModelError(
                f"{source}: expected exactly one root exception type, "
                f"found {sorted(roots) or 'none'}")
    for method in platform.methods.values():
        for thrown in method.throws:
            if thrown not in known:
                raise PlatformModelError(
                    f"{source}: method {method_id_str(method.id)} documents "
                    f"undeclared exception {thrown}")


# ---------------------------------------------------------------------------
# Semantic model
# ---------------------------------------------------------------------------

class TypeEntry(Record):
    __slots__ = ("id", "superclass", "platform")

    def __init__(self, id: str, superclass: Optional[str],
                 platform: Optional[PlatformType] = None):
        self.id = id
        self.superclass = superclass  # resolved type id
        self.platform = platform  # None for a corpus type


class CorpusMethod(Record):
    __slots__ = ("id", "decl", "owner", "unit", "summary")
    _unequal = ("summary",)

    def __init__(self, id: MethodId, decl: MethodDecl, owner: TypeDecl,
                 unit: CompilationUnit,
                 summary: Optional[MethodSummary] = None):
        self.id = id
        self.decl = decl
        self.owner = owner
        self.unit = unit
        # lowered, and its calls resolved, on first use by
        # flow.method_summary
        self.summary = summary


class ExternalMethod(Record):
    __slots__ = ("id", "documented")

    def __init__(self, id: MethodId, documented: tuple[str, ...]):
        self.id = id
        self.documented = documented  # exception type ids


class Unresolved(Record):
    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason

    def __hash__(self) -> int:
        return hash((self.reason,))


class SemanticModel:
    """Resolved view of a corpus plus its platform model: types, hierarchy
    and method table, and the policy that resolves one call site."""

    def __init__(self):
        self.types: dict[str, TypeEntry] = {}
        self.method_table: dict[MethodId, Union[CorpusMethod, ExternalMethod]] = {}
        self.exception_universe: frozenset[str] = frozenset()
        # reflexive ancestor set and platform kind of every type
        self.ancestors: dict[str, frozenset[str]] = {}
        self._kinds: dict[str, Optional[str]] = {}
        self.diagnostics: list[str] = []
        self.unresolved_count = 0
        self._ambiguous: set[MethodId] = set()
        self._method_owners: set[str] = set()

    # -- queries ----------------------------------------------------------

    def corpus_methods(self) -> list[CorpusMethod]:
        methods = [m for m in self.method_table.values()
                   if isinstance(m, CorpusMethod)]
        methods.sort(key=lambda m: m.id)
        return methods

    def resolve_invocation(self, call: Union[Invocation, NewInstance],
                           method: CorpusMethod, scope: Scope
                           ) -> Union[MethodId, Unresolved]:
        """Resolve one call site of the method under the declared-type
        policy, with the variables the scope declares at the call, and
        store the result as call.callee. An unresolved call is counted and
        diagnosed."""
        if isinstance(call, Invocation):
            result = self._resolve_call(call, method, scope)
        else:
            result = self._lookup_by_name(call.type_name, "<init>",
                                          call.arity, method.unit)
        call.callee = result
        if isinstance(result, Unresolved):
            self.unresolved_count += 1
            name = call.name if isinstance(call, Invocation) else f"new {call.type_name}"
            self.diagnostics.append(
                f"{call.position}: unresolved call to {name!r} ({result.reason})")
        return result

    def is_subtype(self, a: str, b: str) -> bool:
        """True iff b is reachable from a via superclass edges (reflexive)."""
        for tid in (a, b):
            if tid not in self.types:
                raise ModelError(f"unknown type {tid}")
        return b in self.ancestors[a]

    def kind_of(self, tid: str) -> Optional[str]:
        """checked/unchecked/error via the nearest platform ancestor."""
        return self._kinds.get(tid)

    def recoverability_of(self, tid: str) -> Recoverability:
        if tid not in self.exception_universe:
            raise ModelError(f"unknown exception type {tid}")
        entry = self.types[tid]
        if entry.platform is not None and entry.platform.recoverable is not None:
            if entry.platform.recoverable:
                return Recoverability.POTENTIALLY_RECOVERABLE
            return Recoverability.POTENTIALLY_UNRECOVERABLE
        if self.kind_of(tid) == "checked":
            return Recoverability.POTENTIALLY_RECOVERABLE
        return Recoverability.POTENTIALLY_UNRECOVERABLE

    def resolve_type_name(self, name: str,
                          unit: Optional[CompilationUnit]) -> Optional[str]:
        """Map a source type name to a known type id via the unit's package
        and imports; None when nothing known matches."""
        if not name or name.endswith("[]"):
            return None
        if "." in name:
            return name if self._known_type(name) else None
        candidates = []
        package = unit.package if unit is not None else None
        imports = unit.imports if unit is not None else []
        if package:
            candidates.append(f"{package}.{name}")
        for imp in imports:
            if imp.endswith(f".{name}"):
                candidates.append(imp)
        for imp in imports:
            if imp.endswith(".*"):
                candidates.append(imp[:-1] + name)
        candidates.append(f"java.lang.{name}")
        candidates.append(name)
        for candidate in candidates:
            if self._known_type(candidate):
                return candidate
        return None

    def resolve_exception_name(self, name: str, unit: CompilationUnit) -> Optional[str]:
        tid = self.resolve_type_name(name, unit)
        if tid is not None and tid in self.exception_universe:
            return tid
        return None

    def _known_type(self, tid: str) -> bool:
        return tid in self.types or tid in self._method_owners

    # -- call resolution --------------------------------------------------

    def _resolve_call(self, call: Invocation, method: CorpusMethod,
                      scope: Scope) -> Union[MethodId, Unresolved]:
        owner = method.owner.name
        unit = method.unit
        receiver = call.receiver
        if receiver is None:
            if call.name == "this":
                return self._lookup(owner, "<init>", call.arity)
            if call.name == "super":
                parent = self.types[owner].superclass
                if parent is None:
                    return Unresolved("no superclass constructor")
                return self._lookup(parent, "<init>", call.arity)
            return self._lookup(owner, call.name, call.arity)
        if isinstance(receiver, Name):
            ident = receiver.identifier
            if ident == "this":
                return self._lookup(owner, call.name, call.arity)
            if ident == "super":
                parent = self.types[owner].superclass
                if parent is None:
                    return Unresolved("no superclass")
                return self._lookup(parent, call.name, call.arity)
            found, declared = scope.lookup(ident)
            if found:
                if declared is None:
                    return Unresolved(f"untyped variable {ident}")
                return self._lookup_by_name(declared, call.name, call.arity, unit)
            tid = self.resolve_type_name(ident, unit)
            if tid is None:
                return Unresolved(f"unknown receiver {ident}")
            return self._lookup(tid, call.name, call.arity)
        if isinstance(receiver, FieldAccess):
            dotted = dotted_name(receiver)
            if dotted is not None:
                root = dotted.split(".", 1)[0]
                found, _ = scope.lookup(root)
                if not found:
                    tid = self.resolve_type_name(dotted, unit)
                    if tid is not None:
                        return self._lookup(tid, call.name, call.arity)
            return Unresolved("receiver is a field access")
        if isinstance(receiver, (NewInstance, Cast)):
            return self._lookup_by_name(receiver.type_name, call.name,
                                        call.arity, unit)
        if isinstance(receiver, Literal):
            if receiver.text.startswith('"') and self._known_type("java.lang.String"):
                return self._lookup("java.lang.String", call.name, call.arity)
            return Unresolved("literal receiver")
        return Unresolved("receiver type is not declared")

    def _lookup_by_name(self, type_name: str, name: str, arity: int,
                        unit: CompilationUnit) -> Union[MethodId, Unresolved]:
        tid = self.resolve_type_name(type_name, unit)
        if tid is None:
            return Unresolved(f"unknown type {type_name}")
        return self._lookup(tid, name, arity)

    def _lookup(self, tid: str, name: str, arity: int) -> Union[MethodId, Unresolved]:
        cur: Optional[str] = tid
        seen: set[str] = set()
        while cur is not None and cur not in seen:
            seen.add(cur)
            mid: MethodId = (cur, name, arity)
            if mid in self._ambiguous:
                return Unresolved(f"ambiguous: multiple declarations of {method_id_str(mid)}")
            if mid in self.method_table:
                return mid
            entry = self.types.get(cur)
            cur = entry.superclass if entry else None
        return Unresolved(f"no method {name}/{arity} on {tid} or its supertypes")


def build_semantic_model(units: list[CompilationUnit],
                         platform: PlatformModel) -> SemanticModel:
    """Register all types and methods and validate the hierarchy; no method
    body is walked. Raises ModelError for duplicate qualified type names
    and hierarchy cycles, and PlatformModelError for dangling platform
    superclasses."""
    model = SemanticModel()

    for ptype in platform.types.values():
        model.types[ptype.name] = TypeEntry(ptype.name, ptype.superclass,
                                            platform=ptype)

    decl_units: dict[str, CompilationUnit] = {}
    for unit in units:
        for decl in unit.types:
            if decl.name in decl_units:
                raise ModelError(
                    f"duplicate type {decl.name} declared in "
                    f"{decl_units[decl.name].file} and {unit.file}")
            if decl.name in model.types:
                raise ModelError(
                    f"type {decl.name} in {unit.file} collides with a "
                    f"platform-model type")
            decl_units[decl.name] = unit
            model.types[decl.name] = TypeEntry(decl.name, None)

    for method in platform.methods.values():
        model._method_owners.add(method.id[0])

    # resolve corpus superclass names now that every type is registered
    for unit in units:
        for decl in unit.types:
            if decl.superclass is None:
                continue
            resolved = model.resolve_type_name(decl.superclass, unit)
            if resolved is None:
                model.diagnostics.append(
                    f"{decl.position}: unknown superclass {decl.superclass} "
                    f"of {decl.name}")
            else:
                model.types[decl.name].superclass = resolved

    for ptype in platform.types.values():
        if ptype.superclass is not None and ptype.superclass not in model.types:
            raise PlatformModelError(
                f"platform type {ptype.name} has undeclared superclass "
                f"{ptype.superclass}")

    _index_hierarchy(model)

    # method table: corpus declarations first, then external platform entries
    for unit in units:
        for decl in unit.types:
            for mdecl in decl.methods:
                mid: MethodId = (decl.name, mdecl.name, mdecl.arity)
                if mid in model.method_table:
                    model._ambiguous.add(mid)
                    model.diagnostics.append(
                        f"{mdecl.position}: duplicate method "
                        f"{method_id_str(mid)}; calls to it are ambiguous")
                    mdecl.body = None  # never lowered, so never read
                    continue
                model.method_table[mid] = CorpusMethod(mid, mdecl, decl, unit)
    for method in platform.methods.values():
        if method.id in model.method_table:
            model.diagnostics.append(
                f"platform method {method_id_str(method.id)} shadowed by a "
                f"corpus declaration")
            continue
        documented = []
        for thrown in method.throws:
            if thrown in model.types:
                documented.append(thrown)
            else:
                model.diagnostics.append(
                    f"platform method {method_id_str(method.id)} documents "
                    f"unknown exception {thrown}")
        model.method_table[method.id] = ExternalMethod(method.id, tuple(documented))

    universe = set(platform.types)
    for tid, entry in model.types.items():
        if entry.platform is None and model.kind_of(tid) is not None:
            universe.add(tid)
    model.exception_universe = frozenset(universe)
    return model


def _index_hierarchy(model: SemanticModel) -> None:
    """Fill model.ancestors and the kinds, walking each superclass chain
    only up to the first type already indexed; a superclass outside
    model.types ends the chain. A type met twice on one chain closes a
    cycle, which is a ModelError."""
    for start in model.types:
        chain: list[str] = []
        on_chain: set[str] = set()
        cur: Optional[str] = start
        while cur in model.types and cur not in model.ancestors:
            if cur in on_chain:
                cycle = chain[chain.index(cur):] + [cur]
                raise ModelError(
                    "cycle in type hierarchy: " + " -> ".join(cycle))
            chain.append(cur)
            on_chain.add(cur)
            cur = model.types[cur].superclass
        above = model.ancestors.get(cur, frozenset())
        kind = model._kinds.get(cur)
        for tid in reversed(chain):
            platform = model.types[tid].platform
            if platform is not None:
                kind = platform.kind
            above = above | {tid}
            model.ancestors[tid] = above
            model._kinds[tid] = kind


# ---------------------------------------------------------------------------
# Call-site resolution
# ---------------------------------------------------------------------------

class Scope:
    """The variables declared at one point of a method body, with their
    declared type names (None for an untyped lambda parameter)."""

    __slots__ = ("parent", "vars")

    def __init__(self, parent: Optional["Scope"] = None):
        self.parent = parent
        self.vars: dict[str, Optional[str]] = {}

    def declare(self, name: str, type_name: Optional[str]) -> None:
        self.vars[name] = type_name

    def lookup(self, name: str) -> tuple[bool, Optional[str]]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.vars:
                return True, scope.vars[name]
            scope = scope.parent
        return False, None


def dotted_name(expr: Optional[Expr]) -> Optional[str]:
    """`a.b.c` for a chain of field accesses on a name, else None."""
    if isinstance(expr, Name):
        return expr.identifier
    if isinstance(expr, FieldAccess):
        prefix = dotted_name(expr.target)
        if prefix is None:
            return None
        return f"{prefix}.{expr.name}"
    return None
