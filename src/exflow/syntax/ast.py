"""Syntax tree for the supported Java subset.

Every statement carries a source position pointing at its first token, and
every block records the character span it covers so that comments can be
attached to the nearest enclosing statement list after parsing.

Every node is a slotted dataclass: it holds its fields and nothing else,
with no per-instance ``__dict__``, so a tree of tens of thousands of nodes
stays small. Setting an attribute that is not a field raises
AttributeError.
"""

from __future__ import annotations

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
    text: str


@dataclass(slots=True)
class Name:
    identifier: str


@dataclass(slots=True)
class FieldAccess:
    target: "Expr"
    name: str


@dataclass(slots=True)
class Invocation:
    """A method call site. `receiver` is None for unqualified calls."""

    receiver: Optional["Expr"]
    name: str
    arguments: list["Expr"]
    position: SourcePosition
    # MethodId or Unresolved, set by SemanticModel.resolve_invocation
    callee: object = field(default=None, compare=False, repr=False)

    @property
    def arity(self) -> int:
        return len(self.arguments)


@dataclass(slots=True)
class NewInstance:
    """`new T(args)`, optionally with an anonymous class body.

    Statements from anonymous class method bodies are hoisted into
    `anonymous_body` so they attribute to the enclosing method.
    """

    type_name: str
    arguments: list["Expr"]
    position: SourcePosition
    anonymous_body: Optional["Block"] = None
    # MethodId or Unresolved, set by SemanticModel.resolve_invocation
    callee: object = field(default=None, compare=False, repr=False)

    @property
    def arity(self) -> int:
        return len(self.arguments)


@dataclass(slots=True)
class NewArray:
    type_name: str
    dimensions: list["Expr"]
    initializer: list["Expr"] = field(default_factory=list)


@dataclass(slots=True)
class Unary:
    op: str
    operand: "Expr"


@dataclass(slots=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(slots=True)
class Assignment:
    op: str
    target: "Expr"
    value: "Expr"


@dataclass(slots=True)
class Conditional:
    condition: "Expr"
    if_true: "Expr"
    if_false: "Expr"


@dataclass(slots=True)
class Cast:
    type_name: str
    operand: "Expr"


@dataclass(slots=True)
class ArrayAccess:
    target: "Expr"
    index: "Expr"


@dataclass(slots=True)
class InstanceOf:
    operand: "Expr"
    type_name: str


@dataclass(slots=True)
class Lambda:
    parameters: list[str]
    body: Union["Block", "Expr"]


@dataclass(slots=True)
class MethodRef:
    target: str
    name: str


Expr = Union[
    Literal, Name, FieldAccess, Invocation, NewInstance, NewArray, Unary,
    Binary, Assignment, Conditional, Cast, ArrayAccess, InstanceOf, Lambda,
    MethodRef,
]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Comment:
    """A comment preserved verbatim, attached to its nearest enclosing block."""

    text: str
    position: SourcePosition
    is_doc: bool = False


@dataclass(slots=True)
class Block:
    statements: list["Statement"]
    position: SourcePosition
    # character offsets (start, end) of the region this block covers
    span: tuple[int, int] = (0, 0)
    comments: list[Comment] = field(default_factory=list)


@dataclass(slots=True)
class ExprStmt:
    expression: Expr
    position: SourcePosition


@dataclass(slots=True)
class LocalVar:
    name: str
    type_name: str
    initializer: Optional[Expr] = None


@dataclass(slots=True)
class LocalDecl:
    declarations: list[LocalVar]
    position: SourcePosition


@dataclass(slots=True)
class IfStmt:
    condition: Expr
    then_branch: "Statement"
    else_branch: Optional["Statement"]
    position: SourcePosition


@dataclass(slots=True)
class LoopStmt:
    """while / do / for / foreach loops, normalized to one node.

    `init` holds for-init statements (or the foreach variable declaration),
    `update` holds for-update expressions (or the foreach iterable).
    """

    kind: str
    init: list["Statement"]
    condition: Optional[Expr]
    update: list[Expr]
    body: "Statement"
    position: SourcePosition


@dataclass(slots=True)
class ReturnStmt:
    value: Optional[Expr]
    position: SourcePosition


@dataclass(slots=True)
class ContinueStmt:
    label: Optional[str]
    position: SourcePosition


@dataclass(slots=True)
class BreakStmt:
    label: Optional[str]
    position: SourcePosition


@dataclass(slots=True)
class VariableRef:
    identifier: str


@dataclass(slots=True)
class OpaqueThrow:
    """A thrown expression that is neither `new T(...)` nor a bare variable."""

    expression: Expr


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

    @property
    def id(self) -> str:
        return str(self.position)


@dataclass(slots=True)
class TryStmt:
    body: Block
    catches: list[CatchClause]
    finally_block: Optional[Block]
    position: SourcePosition

    @property
    def id(self) -> str:
        return str(self.position)


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
    kind: str  # "class" | "interface"
    superclass: Optional[str]
    interfaces: list[str]
    methods: list[MethodDecl]
    doc: Optional[DocComment]
    position: SourcePosition


@dataclass(slots=True)
class CompilationUnit:
    package: str
    imports: list[str]
    types: list[TypeDecl]
    file: str
