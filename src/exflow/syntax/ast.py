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

Every node is a slotted dataclass: it holds its fields and nothing else,
with no per-instance ``__dict__``, so a tree of tens of thousands of nodes
stays small. Setting an attribute that is not a field raises
AttributeError.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional, Union


@dataclass(frozen=True, slots=True)
class SourcePosition:
    """1-based line/column location in a source file."""

    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Literal:
    """A literal; kept only in a receiver."""

    text: str


@dataclass(slots=True)
class Name:
    """A simple name, `this` or `super`; kept only in a receiver or inside
    a throw."""

    identifier: str


@dataclass(slots=True)
class FieldAccess:
    target: "Expr"
    name: str


@dataclass(slots=True)
class Invocation:
    """A method call site. `receiver` is None for unqualified calls;
    `arguments` holds what the analysis reads of the arguments."""

    receiver: Optional["Expr"]
    name: str
    arguments: tuple["Expr", ...]
    arity: int
    position: SourcePosition
    # MethodId or Unresolved, set by SemanticModel.resolve_invocation
    callee: object = field(default=None, compare=False, repr=False)


@dataclass(slots=True)
class NewInstance:
    """`new T(args)`, optionally with an anonymous class body.

    Statements from anonymous class method bodies are hoisted into
    `anonymous_body` so they attribute to the enclosing method.
    """

    type_name: str
    arguments: tuple["Expr", ...]
    arity: int
    position: SourcePosition
    anonymous_body: Optional["Block"] = None
    # MethodId or Unresolved, set by SemanticModel.resolve_invocation
    callee: object = field(default=None, compare=False, repr=False)


@dataclass(slots=True)
class Cast:
    type_name: str
    operand: "Expr"


@dataclass(slots=True)
class Lambda:
    parameters: list[str]
    body: Union["Block", "Expr"]


@dataclass(slots=True)
class Operands:
    """Any other expression: an operator, an array access or creation, or a
    method reference. parts holds, left to right, what the analysis reads
    under it: calls, `new`, lambdas, and inside a throw the names. Every
    such expression with no part is the one EMPTY."""

    parts: tuple["Expr", ...]


EMPTY = Operands(())

Expr = Union[
    Literal, Name, FieldAccess, Invocation, NewInstance, Cast, Lambda,
    Operands,
]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Block:
    statements: list["Statement"]
    # character offsets (start, end) of the region this block covers
    span: tuple[int, int] = (0, 0)
    # the text of each comment attached to the block, a list once it has one
    comments: Sequence[str] = ()


@dataclass(slots=True)
class ExprStmt:
    expression: Optional[Expr]


@dataclass(slots=True)
class LocalVar:
    name: str
    type_name: str
    initializer: Optional[Expr] = None


@dataclass(slots=True)
class LocalDecl:
    declarations: list[LocalVar]


@dataclass(slots=True)
class IfStmt:
    condition: Optional[Expr]
    then_branch: "Statement"
    else_branch: Optional["Statement"]


@dataclass(slots=True)
class LoopStmt:
    """while / do / for / foreach loops, normalized to one node.

    `init` holds for-init statements (or the foreach variable declaration),
    `update` holds for-update expressions (or the foreach iterable).
    """

    init: list["Statement"]
    condition: Optional[Expr]
    update: list[Expr]
    body: "Statement"


@dataclass(slots=True)
class ReturnStmt:
    value: Optional[Expr]


@dataclass(slots=True)
class ContinueStmt:
    pass


@dataclass(slots=True)
class BreakStmt:
    pass


@dataclass(slots=True)
class VariableRef:
    identifier: str


@dataclass(slots=True)
class OpaqueThrow:
    """A thrown expression that is neither `new T(...)` nor a bare variable."""

    expression: Optional[Expr]


@dataclass(slots=True)
class ThrowStmt:
    thrown: Union[NewInstance, VariableRef, OpaqueThrow]
    position: SourcePosition


@dataclass(slots=True)
class CatchClause:
    caught_types: list[str]
    variable: str
    body: Block
    position: SourcePosition


@dataclass(slots=True)
class TryStmt:
    body: Block
    catches: list[CatchClause]
    finally_block: Optional[Block]
    position: SourcePosition


Statement = Union[
    Block, ExprStmt, LocalDecl, IfStmt, LoopStmt, ReturnStmt, ContinueStmt,
    BreakStmt, ThrowStmt, TryStmt,
]


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class DocComment:
    raw: str
    throws_tags: list[tuple[str, str]]


@dataclass(slots=True)
class Param:
    name: str
    type_name: str


CONSTRUCTOR_NAME = "<init>"


@dataclass(slots=True)
class MethodDecl:
    name: str
    params: list[Param]
    declared_throws: list[str]
    body: Optional[Block]
    doc: Optional[DocComment]
    position: SourcePosition

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass(slots=True)
class TypeDecl:
    name: str  # qualified with the unit's package
    superclass: Optional[str]
    methods: list[MethodDecl]
    doc: Optional[DocComment]
    position: SourcePosition


@dataclass(slots=True)
class CompilationUnit:
    package: str
    imports: list[str]
    types: list[TypeDecl]
    file: str
