"""Syntax tree for the supported Java subset, as far as the analysis reads
it.

Declarations, calls, `new`, try and catch clauses and throws carry the
source position of their first token (a call: of its name); no other
statement does. Every block records the character span it covers, so that
comments can be attached to the nearest enclosing statement list after
parsing.

An expression is kept only where the analysis reads it: a call with its
name, arity and receiver shape, a `new`, a lambda, a cast or a dotted name
in a receiver, and inside a throw the names it mentions. The parser builds
one Operands node for every other operator, holding the parts under it
that are read; what reads nothing is dropped.

Every node is a record (see exflow.record): it holds its fields in
__slots__ and nothing else, with no per-instance ``__dict__``, so a tree
of tens of thousands of nodes stays small. Setting an attribute that is
not a field raises AttributeError.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional, Union

from ..record import Record


class SourcePosition(Record):
    """1-based line/column location in a source file."""

    __slots__ = ("file", "line", "column")

    def __init__(self, file: str, line: int, column: int):
        self.file = file
        self.line = line
        self.column = column

    def __hash__(self) -> int:
        return hash((self.file, self.line, self.column))

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Literal(Record):
    """A literal; kept only in a receiver."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


class Name(Record):
    """A simple name, `this` or `super`; kept only in a receiver or inside
    a throw."""

    __slots__ = ("identifier",)

    def __init__(self, identifier: str):
        self.identifier = identifier


class FieldAccess(Record):
    __slots__ = ("target", "name")

    def __init__(self, target: Expr, name: str):
        self.target = target
        self.name = name


class Invocation(Record):
    """A method call site. `receiver` is None for unqualified calls;
    `arguments` holds what the analysis reads of the arguments."""

    __slots__ = ("receiver", "name", "arguments", "arity", "position",
                 "callee")
    _unequal = ("callee",)

    def __init__(self, receiver: Optional[Expr], name: str,
                 arguments: tuple[Expr, ...], arity: int,
                 position: SourcePosition, callee: object = None):
        self.receiver = receiver
        self.name = name
        self.arguments = arguments
        self.arity = arity
        self.position = position
        # MethodId or Unresolved, set by SemanticModel.resolve_invocation
        self.callee = callee


class NewInstance(Record):
    """`new T(args)`, optionally with an anonymous class body.

    Statements from anonymous class method bodies are hoisted into
    `anonymous_body` so they attribute to the enclosing method.
    """

    __slots__ = ("type_name", "arguments", "arity", "position",
                 "anonymous_body", "callee")
    _unequal = ("callee",)

    def __init__(self, type_name: str, arguments: tuple[Expr, ...],
                 arity: int, position: SourcePosition,
                 anonymous_body: Optional[Block] = None,
                 callee: object = None):
        self.type_name = type_name
        self.arguments = arguments
        self.arity = arity
        self.position = position
        self.anonymous_body = anonymous_body
        # MethodId or Unresolved, set by SemanticModel.resolve_invocation
        self.callee = callee


class Cast(Record):
    __slots__ = ("type_name", "operand")

    def __init__(self, type_name: str, operand: Expr):
        self.type_name = type_name
        self.operand = operand


class Lambda(Record):
    __slots__ = ("parameters", "body")

    def __init__(self, parameters: list[str], body: Union[Block, Expr]):
        self.parameters = parameters
        self.body = body


class Operands(Record):
    """Any other expression: an operator, an array access or creation, or a
    method reference. parts holds, left to right, what the analysis reads
    under it: calls, `new`, lambdas, and inside a throw the names. Every
    such expression with no part is the one EMPTY."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Expr, ...]):
        self.parts = parts


EMPTY = Operands(())

Expr = Union[
    Literal, Name, FieldAccess, Invocation, NewInstance, Cast, Lambda,
    Operands,
]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Block(Record):
    __slots__ = ("statements", "span", "comments")

    def __init__(self, statements: list[Statement],
                 span: tuple[int, int] = (0, 0),
                 comments: Sequence[str] = ()):
        self.statements = statements
        # character offsets (start, end) of the region this block covers
        self.span = span
        # the text of each comment attached to the block, a list once it
        # has one
        self.comments = comments


class ExprStmt(Record):
    __slots__ = ("expression",)

    def __init__(self, expression: Optional[Expr]):
        self.expression = expression


class LocalVar(Record):
    __slots__ = ("name", "type_name", "initializer")

    def __init__(self, name: str, type_name: str,
                 initializer: Optional[Expr] = None):
        self.name = name
        self.type_name = type_name
        self.initializer = initializer


class LocalDecl(Record):
    __slots__ = ("declarations",)

    def __init__(self, declarations: list[LocalVar]):
        self.declarations = declarations


class IfStmt(Record):
    __slots__ = ("condition", "then_branch", "else_branch")

    def __init__(self, condition: Optional[Expr], then_branch: Statement,
                 else_branch: Optional[Statement]):
        self.condition = condition
        self.then_branch = then_branch
        self.else_branch = else_branch


class LoopStmt(Record):
    """while / do / for / foreach loops, normalized to one node.

    `init` holds for-init statements (or the foreach variable declaration),
    `update` holds for-update expressions (or the foreach iterable).
    """

    __slots__ = ("init", "condition", "update", "body")

    def __init__(self, init: list[Statement], condition: Optional[Expr],
                 update: list[Expr], body: Statement):
        self.init = init
        self.condition = condition
        self.update = update
        self.body = body


class ReturnStmt(Record):
    __slots__ = ("value",)

    def __init__(self, value: Optional[Expr]):
        self.value = value


class ContinueStmt(Record):
    __slots__ = ()


class BreakStmt(Record):
    __slots__ = ()


class VariableRef(Record):
    __slots__ = ("identifier",)

    def __init__(self, identifier: str):
        self.identifier = identifier


class OpaqueThrow(Record):
    """A thrown expression that is neither `new T(...)` nor a bare variable."""

    __slots__ = ("expression",)

    def __init__(self, expression: Optional[Expr]):
        self.expression = expression


class ThrowStmt(Record):
    __slots__ = ("thrown", "position")

    def __init__(self, thrown: Union[NewInstance, VariableRef, OpaqueThrow],
                 position: SourcePosition):
        self.thrown = thrown
        self.position = position


class CatchClause(Record):
    __slots__ = ("caught_types", "variable", "body", "position")

    def __init__(self, caught_types: list[str], variable: str, body: Block,
                 position: SourcePosition):
        self.caught_types = caught_types
        self.variable = variable
        self.body = body
        self.position = position


class TryStmt(Record):
    __slots__ = ("body", "catches", "finally_block", "position")

    def __init__(self, body: Block, catches: list[CatchClause],
                 finally_block: Optional[Block], position: SourcePosition):
        self.body = body
        self.catches = catches
        self.finally_block = finally_block
        self.position = position


Statement = Union[
    Block, ExprStmt, LocalDecl, IfStmt, LoopStmt, ReturnStmt, ContinueStmt,
    BreakStmt, ThrowStmt, TryStmt,
]


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

class DocComment(Record):
    __slots__ = ("raw", "throws_tags")

    def __init__(self, raw: str, throws_tags: list[tuple[str, str]]):
        self.raw = raw
        self.throws_tags = throws_tags


class Param(Record):
    __slots__ = ("name", "type_name")

    def __init__(self, name: str, type_name: str):
        self.name = name
        self.type_name = type_name


CONSTRUCTOR_NAME = "<init>"


class MethodDecl(Record):
    __slots__ = ("name", "params", "declared_throws", "body", "doc",
                 "position")

    def __init__(self, name: str, params: list[Param],
                 declared_throws: list[str], body: Optional[Block],
                 doc: Optional[DocComment], position: SourcePosition):
        self.name = name
        self.params = params
        self.declared_throws = declared_throws
        self.body = body
        self.doc = doc
        self.position = position

    @property
    def arity(self) -> int:
        return len(self.params)


class TypeDecl(Record):
    __slots__ = ("name", "superclass", "methods", "doc", "position")

    def __init__(self, name: str, superclass: Optional[str],
                 methods: list[MethodDecl], doc: Optional[DocComment],
                 position: SourcePosition):
        self.name = name  # qualified with the unit's package
        self.superclass = superclass
        self.methods = methods
        self.doc = doc
        self.position = position


class CompilationUnit(Record):
    __slots__ = ("package", "imports", "types", "file")

    def __init__(self, package: str, imports: list[str],
                 types: list[TypeDecl], file: str):
        self.package = package
        self.imports = imports
        self.types = types
        self.file = file
