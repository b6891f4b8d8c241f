"""Recursive-descent parser for the supported Java subset.

The grammar covers packages, imports, classes and interfaces, fields,
constructors, methods with throws clauses, and the statement forms the
analysis consumes: try/catch/finally, throw, invocations, local
declarations, if, loops, return, continue and break. Generic type
arguments are recognized and erased. Constructs outside the subset that
carry control or calls (switch, synchronized, assert) are desugared into
plain blocks so their invocations are not lost; annotations are skipped.

Each choice between alternatives (declaration or expression, cast or
parenthesized expression, foreach or classic for, typed or bare lambda
parameter) is made by a lookahead that consumes nothing, and is final:
nothing is parsed twice and no ParseError is caught, so a ParseError
always means malformed input, found in one pass.

The grammar of expressions is parsed in full, but only what the analysis
reads is built: each operator, array access or creation and method
reference becomes one Operands node that holds the calls, `new`s and
lambdas under it, and inside a throw the names too, flattened in source
order. A name, literal, dotted name or cast stays as it is only where it
can be the receiver of a call, and an operand, argument, initializer or
statement expression that holds nothing to read is dropped.
"""

from __future__ import annotations

from typing import Optional, Union

from .ast import (
    Block, Cast, CatchClause, CompilationUnit, ContinueStmt, BreakStmt,
    CONSTRUCTOR_NAME, DocComment, EMPTY, Expr, ExprStmt, FieldAccess, IfStmt,
    Invocation, Lambda, Literal, LocalDecl, LocalVar, LoopStmt, MethodDecl,
    Name, NewInstance, OpaqueThrow, Operands, Param, ReturnStmt,
    SourcePosition, Statement, ThrowStmt, TryStmt, TypeDecl, VariableRef,
)
from .errors import ParseError
from .javadoc import parse_doc_comment
from .lexer import (
    EOF, IDENT, KEYWORDS, LITERALS, LexedSource, MODIFIERS, PRIMITIVE_TYPES,
    tokenize,
)

_ASSIGN_OPS = frozenset({
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>=",
})

_BINARY_LEVELS = [
    ("||",), ("&&",), ("|",), ("^",), ("&",), ("==", "!="),
    ("<", ">", "<=", ">=", "instanceof"), ("<<", ">>", ">>>"),
    ("+", "-"), ("*", "/", "%"),
]
_BINARY_LEVEL = {
    op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}

# what may follow the first declared name of a local declaration
_LOCAL_FOLLOW = ("=", ",", ";", "[")

_PREFIX_OPS = frozenset({"+", "-", "!", "~", "++", "--"})

# tokens a type-argument list may hold besides its angle brackets
_GENERIC_TAGS = PRIMITIVE_TYPES | {
    IDENT, "extends", "super", ",", ".", "?", "&", "[", "]", "@"}

# tokens that can start the operand of a cast
_CAST_OPERAND_STARTS = LITERALS | {
    IDENT, "(", "!", "~", "this", "super", "new", "true", "false", "null"}


def parse_compilation_unit(source: str, file: str) -> CompilationUnit:
    """Parse one source file into a position-annotated tree.

    Raises ParseError with a SourcePosition on the first syntax error;
    there is no partial result.
    """
    lexed = tokenize(source, file)
    parser = _Parser(lexed)
    unit = parser.parse_unit()
    _attach_comments(lexed, parser.blocks)
    return unit


class _Parser:
    def __init__(self, lexed: LexedSource):
        self.lexed = lexed
        self.tags = lexed.tags
        self.texts = lexed.texts
        self.offsets = lexed.offsets
        self.file = lexed.file
        self._position = lexed.position_at
        self.pos = 0
        self.last = len(lexed.tags) - 1  # the eof token
        self.blocks: list[Block] = []
        # whether names are read: in a throw, outside any block under it
        self.in_throw = False

    # ------------------------------------------------------------------
    # token plumbing: a token is its index into the lexer's arrays
    # ------------------------------------------------------------------

    def _peek(self, k: int = 1) -> str:
        """The tag k tokens ahead, eof past the end."""
        return self.tags[min(self.pos + k, self.last)]

    def _advance(self) -> int:
        """Consume the current token, which is known not to be eof."""
        i = self.pos
        self.pos = i + 1
        return i

    def _at(self, tag: str) -> bool:
        return self.tags[self.pos] == tag

    def _accept(self, tag: str) -> bool:
        if self.tags[self.pos] == tag:
            self.pos += 1
            return True
        return False

    def _expect(self, tag: str) -> int:
        i = self.pos
        if self.tags[i] != tag:
            raise self._error(
                f"expected {tag!r}, found {self.texts[i] or 'end of file'!r}")
        self.pos = i + 1
        return i

    def _ident(self) -> str:
        i = self.pos
        if self.tags[i] != IDENT:
            raise self._error(
                f"expected identifier, found {self.texts[i] or 'end of file'!r}")
        self.pos = i + 1
        return self.texts[i]

    def _error(self, message: str) -> ParseError:
        return ParseError(message, self._position(self.pos))

    # ------------------------------------------------------------------
    # compilation unit
    # ------------------------------------------------------------------

    def parse_unit(self) -> CompilationUnit:
        package = ""
        if self._accept("package"):
            package = self._qualified()
            self._expect(";")
        imports: list[str] = []
        while self._accept("import"):
            # static imports bring in members, not types; skip them
            is_static = self._accept("static")
            name = self._qualified(allow_star=True)
            if not is_static:
                imports.append(name)
            self._expect(";")
        types: list[TypeDecl] = []
        while self.tags[self.pos] != EOF:
            if self._accept(";"):
                continue
            types.extend(self._type_decl(package))
        seen: set[str] = set()
        for decl in types:
            if decl.name in seen:
                raise ParseError(f"duplicate type {decl.name}", decl.position)
            seen.add(decl.name)
        return CompilationUnit(package, imports, types, self.file)

    def _qualified(self, allow_star: bool = False) -> str:
        parts = [self._ident()]
        while self._at("."):
            if allow_star and self._peek() == "*":
                self.pos += 2
                parts.append("*")
                break
            if self._peek() != IDENT:
                break
            self.pos += 1
            parts.append(self._ident())
        return ".".join(parts)

    def _doc_at(self, tok_index: int) -> Optional[DocComment]:
        lexed = self.lexed
        for ci in reversed(lexed.comments_before(tok_index)):
            if lexed.is_doc(ci):
                return parse_doc_comment(lexed.comment_text(ci))
        return None

    # ------------------------------------------------------------------
    # declarations
    # ------------------------------------------------------------------

    def _skip_modifiers(self) -> None:
        tags = self.tags
        while True:
            tag = tags[self.pos]
            if tag in MODIFIERS:
                # `default:` inside a desugared switch is a label, not a modifier
                if tag == "default" and self._peek() == ":":
                    return
                self.pos += 1
                continue
            if tag == "@" and self._peek() != "interface":
                self._skip_annotation()
                continue
            return

    def _skip_annotation(self) -> None:
        self._expect("@")
        self._qualified()
        if self._at("("):
            tags = self.tags
            depth = 0
            while True:
                tag = tags[self.pos]
                if tag == EOF:
                    raise self._error("unterminated annotation arguments")
                if tag in ("(", "[", "{"):
                    depth += 1
                elif tag in (")", "]", "}"):
                    depth -= 1
                self.pos += 1
                if depth == 0:
                    return

    def _type_decl(self, prefix: str) -> list[TypeDecl]:
        doc = self._doc_at(self.pos)
        self._skip_modifiers()
        return self._type_decl_body(prefix, doc)

    def _type_decl_body(self, prefix: str, doc: Optional[DocComment]) -> list[TypeDecl]:
        tags = self.tags
        kind = tags[self.pos]
        if kind == "enum":
            raise self._error("enum declarations are not supported")
        if kind == "@":
            raise self._error("annotation declarations are not supported")
        if kind != "class" and kind != "interface":
            raise self._error("expected a class or interface declaration")
        kind_at = self._advance()
        simple_name = self._ident()
        if self._at("<") and not self._skip_generics():
            raise self._error("malformed type parameters")
        superclass: Optional[str] = None
        if kind == "class" and self._accept("extends"):
            superclass = self._type_name()
        # interfaces are parsed, not modeled
        if self._accept("implements" if kind == "class" else "extends"):
            self._type_name()
            while self._accept(","):
                self._type_name()
        self._expect("{")
        qualified = f"{prefix}.{simple_name}" if prefix else simple_name
        methods: list[MethodDecl] = []
        nested: list[TypeDecl] = []
        while not self._at("}"):
            if tags[self.pos] == EOF:
                raise self._error(f"unterminated body of {qualified}")
            if self._accept(";"):
                continue
            member_doc = self._doc_at(self.pos)
            self._skip_modifiers()
            tag = tags[self.pos]
            if tag == "class" or tag == "interface" or tag == "enum":
                nested.extend(self._type_decl_body(qualified, member_doc))
                continue
            if tag == "{":
                self._block()  # initializer block, not part of any method
                continue
            if tag == "<" and not self._skip_generics():
                raise self._error("malformed type parameters")
            at = self.pos
            if (tags[at] == IDENT and self.texts[at] == simple_name
                    and self._peek() == "("):
                self.pos += 1
                methods.append(self._method_rest(
                    CONSTRUCTOR_NAME, self._position(at), member_doc))
                continue
            self._return_type()
            name_at = self.pos
            mname = self._ident()
            if self._at("("):
                methods.append(self._method_rest(
                    mname, self._position(name_at), member_doc))
            else:
                self._field_rest()
        self._expect("}")
        decl = TypeDecl(qualified, superclass, methods, doc,
                        self._position(kind_at))
        return [decl] + nested

    def _return_type(self) -> str:
        if self._accept("void"):
            return "void"
        return self._type_name()

    def _method_rest(self, name: str, position: SourcePosition,
                     doc: Optional[DocComment]) -> MethodDecl:
        self._expect("(")
        params: list[Param] = []
        if not self._at(")"):
            params.append(self._param())
            while self._accept(","):
                params.append(self._param())
        self._expect(")")
        while self._accept("["):
            self._expect("]")
        throws: list[str] = []
        if self._accept("throws"):
            throws.append(self._type_name())
            while self._accept(","):
                throws.append(self._type_name())
        body: Optional[Block] = None
        if self._at("{"):
            body = self._block()
        else:
            self._expect(";")
        return MethodDecl(name, params, throws, body, doc, position)

    def _param(self) -> Param:
        self._skip_modifiers()
        type_name = self._type_name()
        if self._accept("..."):
            type_name += "[]"
        name = self._ident()
        while self._accept("["):
            self._expect("]")
            type_name += "[]"
        return Param(name, type_name)

    def _field_rest(self) -> None:
        # fields are accepted but not modeled; initializers must still parse
        while True:
            while self._accept("["):
                self._expect("]")
            if self._accept("="):
                self._array_init_or_expr()
            if self._accept(","):
                self._ident()
                continue
            self._expect(";")
            return

    # ------------------------------------------------------------------
    # types
    # ------------------------------------------------------------------

    def _type_name(self) -> str:
        i = self.pos
        tag = self.tags[i]
        if tag in PRIMITIVE_TYPES:
            self.pos = i + 1
            return tag + self._array_dims()
        if tag != IDENT:
            raise self._error(
                f"expected type name, found {self.texts[i] or 'end of file'!r}")
        parts = [self._ident()]
        if self._at("<"):
            self._skip_generics()
        while self._at(".") and self._peek() == IDENT:
            self.pos += 1
            parts.append(self._ident())
            if self._at("<"):
                self._skip_generics()
        return ".".join(parts) + self._array_dims()

    def _typed_name(self) -> tuple[str, str]:
        """Modifiers, a type and a name: the (type, name) of a declaration."""
        self._skip_modifiers()
        return self._type_name(), self._ident()

    def _at_type(self) -> bool:
        tag = self.tags[self.pos]
        return tag == IDENT or tag in PRIMITIVE_TYPES

    def _declaration_ahead(self, follow: Optional[tuple[str, ...]]) -> bool:
        """Whether modifiers, a type and a name start here, the name followed
        by a token in follow (`[` only as `[]`; None admits any token).
        Consumes nothing."""
        start = self.pos
        self._skip_modifiers()
        found = False
        if self._at_type():
            self._type_name()
            nxt = self._peek()
            found = self.tags[self.pos] == IDENT and (
                follow is None or nxt in follow
                and (nxt != "[" or self._peek(2) == "]"))
        self.pos = start
        return found

    def _array_dims(self) -> str:
        dims = ""
        while self._at("[") and self._peek() == "]":
            self.pos += 2
            dims += "[]"
        return dims

    def _skip_generics(self) -> bool:
        """Consume a balanced type-argument list, or restore and report False."""
        tags = self.tags
        start = self.pos
        self.pos += 1  # "<"
        depth = 1
        while depth > 0:
            tag = tags[self.pos]
            if tag == EOF:
                self.pos = start
                return False
            if tag in _GENERIC_TAGS:
                self.pos += 1
                continue
            if tag == "<":
                depth += 1
            elif tag == ">":
                depth -= 1
            elif tag == ">>":
                depth -= 2
            elif tag == ">>>":
                depth -= 3
            else:
                self.pos = start
                return False
            if depth < 0:
                self.pos = start
                return False
            self.pos += 1
        return True

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def _block(self) -> Block:
        open_at = self._expect("{")
        tags = self.tags
        statements: list[Statement] = []
        while tags[self.pos] != "}":
            if tags[self.pos] == EOF:
                raise self._error("unterminated block")
            stmt = self._statement()
            if stmt is not None:
                statements.append(stmt)
        close_at = self._expect("}")
        block = Block(statements,
                      (self.offsets[open_at], self.offsets[close_at] + 1))
        self.blocks.append(block)
        return block

    def _statement_required(self) -> Statement:
        stmt = self._statement()
        return Block([]) if stmt is None else stmt

    def _statement(self) -> Optional[Statement]:
        at = self.pos
        tag = self.tags[at]
        if tag == "{":
            return self._block()
        if tag == ";":
            self.pos = at + 1
            return None
        if tag in KEYWORDS:
            if tag == "if":
                return self._if_statement()
            if tag == "while":
                return self._while_statement()
            if tag == "do":
                return self._do_statement()
            if tag == "for":
                return self._for_statement()
            if tag == "return":
                self.pos = at + 1
                value = None if self._at(";") else self._kept(self._expression())
                self._expect(";")
                return ReturnStmt(value)
            if tag == "continue" or tag == "break":
                self.pos = at + 1
                if self._at(IDENT):
                    self.pos += 1  # the label
                self._expect(";")
                return ContinueStmt() if tag == "continue" else BreakStmt()
            if tag == "throw":
                self.pos = at + 1
                self.in_throw = True
                thrown = self._thrown(self._expression())
                self.in_throw = False
                self._expect(";")
                return ThrowStmt(thrown, self._position(at))
            if tag == "try":
                return self._try_statement()
            if tag == "synchronized":
                return self._synchronized_statement()
            if tag == "switch":
                return self._switch_statement()
            if tag == "assert":
                return self._assert_statement()
            if tag in ("class", "interface", "enum"):
                raise self._error("local type declarations are not supported")
        if self._declaration_ahead(_LOCAL_FOLLOW):
            return self._local_decl()
        if tag == "final":
            raise self._error("expected a declaration after 'final'")
        if tag == IDENT and self._peek() == ":":
            self.pos = at + 2
            return self._statement()
        expr = self._kept(self._expression())
        self._expect(";")
        return ExprStmt(expr)

    def _if_statement(self) -> IfStmt:
        self.pos += 1  # "if"
        self._expect("(")
        condition = self._kept(self._expression())
        self._expect(")")
        then_branch = self._statement_required()
        else_branch = None
        if self._accept("else"):
            else_branch = self._statement_required()
        return IfStmt(condition, then_branch, else_branch)

    def _while_statement(self) -> LoopStmt:
        self.pos += 1  # "while"
        self._expect("(")
        condition = self._kept(self._expression())
        self._expect(")")
        return LoopStmt([], condition, [], self._statement_required())

    def _do_statement(self) -> LoopStmt:
        self.pos += 1  # "do"
        body = self._statement_required()
        self._expect("while")
        self._expect("(")
        condition = self._kept(self._expression())
        self._expect(")")
        self._expect(";")
        return LoopStmt([], condition, [], body)

    def _for_statement(self) -> LoopStmt:
        self.pos += 1  # "for"
        self._expect("(")
        update: list[Expr] = []
        if self._declaration_ahead((":",)):
            type_name, var_name = self._typed_name()
            self.pos += 1  # ":"
            self._gather(self._expression(), update)  # the iterable
            self._expect(")")
            body = self._statement_required()
            var = LocalDecl([LocalVar(var_name, type_name)])
            return LoopStmt([var], None, update, body)
        init: list[Statement] = []
        if self._declaration_ahead(_LOCAL_FOLLOW):
            init.append(self._local_decl())  # the declaration consumed the ';'
        elif not self._accept(";"):
            init.append(ExprStmt(self._kept(self._expression())))
            while self._accept(","):
                init.append(ExprStmt(self._kept(self._expression())))
            self._expect(";")
        condition = None if self._at(";") else self._kept(self._expression())
        self._expect(";")
        if not self._at(")"):
            self._gather(self._expression(), update)
            while self._accept(","):
                self._gather(self._expression(), update)
        self._expect(")")
        body = self._statement_required()
        return LoopStmt(init, condition, update, body)

    def _try_statement(self) -> TryStmt:
        at = self._advance()
        resources: list[Statement] = []
        if self._accept("("):
            while not self._at(")"):
                resources.append(self._resource())
                if not self._accept(";"):
                    break
            self._expect(")")
        body = self._block()
        body.statements[:0] = resources
        catches: list[CatchClause] = []
        while self._at("catch"):
            catch_at = self._advance()
            self._expect("(")
            self._skip_modifiers()
            caught = [self._type_name()]
            while self._accept("|"):
                caught.append(self._type_name())
            variable = self._ident()
            self._expect(")")
            catch_body = self._block()
            catches.append(CatchClause(caught, variable, catch_body,
                                       self._position(catch_at)))
        finally_block = None
        if self._accept("finally"):
            finally_block = self._block()
        if not catches and finally_block is None and not resources:
            raise ParseError("try statement has no catch, finally, or resources",
                             self._position(at))
        return TryStmt(body, catches, finally_block, self._position(at))

    def _resource(self) -> Statement:
        if not self._declaration_ahead(("=",)):
            return ExprStmt(self._kept(self._expression()))
        type_name, name = self._typed_name()
        self.pos += 1  # "="
        value = self._kept(self._expression())
        return LocalDecl([LocalVar(name, type_name, value)])

    def _synchronized_statement(self) -> Block:
        self.pos += 1  # "synchronized"
        self._expect("(")
        lock = self._kept(self._expression())
        self._expect(")")
        return Block([ExprStmt(lock), self._block()])

    def _switch_statement(self) -> Block:
        # desugared to a block so selector and case bodies keep their calls
        at = self._advance()
        self._expect("(")
        selector = self._kept(self._expression())
        self._expect(")")
        self._expect("{")
        statements: list[Statement] = [ExprStmt(selector)]
        tags = self.tags
        while tags[self.pos] != "}":
            tag = tags[self.pos]
            if tag == EOF:
                raise self._error("unterminated switch body")
            if tag == "case":
                # a label is no lambda: `case A -> f();` is a label and a body
                self.pos += 1
                self._conditional()
                while self._accept(","):
                    self._conditional()
                if not self._accept(":"):
                    self._expect("->")
                    stmt = self._statement()
                    if stmt is not None:
                        statements.append(stmt)
                continue
            if tag == "default":
                self.pos += 1
                if not self._accept(":"):
                    self._expect("->")
                    stmt = self._statement()
                    if stmt is not None:
                        statements.append(stmt)
                continue
            stmt = self._statement()
            if stmt is not None:
                statements.append(stmt)
        close_at = self._expect("}")
        block = Block(statements,
                      (self.offsets[at], self.offsets[close_at] + 1))
        self.blocks.append(block)
        return block

    def _assert_statement(self) -> Block:
        self.pos += 1  # "assert"
        statements: list[Statement] = [ExprStmt(self._kept(self._expression()))]
        if self._accept(":"):
            statements.append(ExprStmt(self._kept(self._expression())))
        self._expect(";")
        return Block(statements)

    def _local_decl(self) -> LocalDecl:
        type_name, name = self._typed_name()
        declarations: list[LocalVar] = []
        while True:
            dims = ""
            while self._accept("["):
                self._expect("]")
                dims += "[]"
            initializer = None
            if self._accept("="):
                initializer = self._kept(self._array_init_or_expr())
            declarations.append(LocalVar(name, type_name + dims, initializer))
            if not self._accept(","):
                self._expect(";")
                return LocalDecl(declarations)
            name = self._ident()

    def _array_init_or_expr(self) -> Expr:
        if self._at("{"):
            return self._array_initializer()
        return self._expression()

    def _array_initializer(self) -> Operands:
        self._expect("{")
        elements: list[Expr] = []
        while not self._at("}"):
            elements.append(self._array_init_or_expr())
            if not self._accept(","):
                break
        self._expect("}")
        return self._operands(*elements)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def _gather(self, expr: Expr, parts: list[Expr]) -> None:
        """Add to parts what the analysis reads of expr as an operand: a
        call, a `new` or a lambda itself, the parts of an Operands, what is
        under a cast or field access, and a name only inside a throw."""
        while True:
            kind = type(expr)
            if kind is Operands:
                parts.extend(expr.parts)
            elif kind is Cast:
                expr = expr.operand
                continue
            elif kind is FieldAccess:
                expr = expr.target
                continue
            elif kind is Name:
                if self.in_throw:
                    parts.append(expr)
            elif kind is not Literal:
                parts.append(expr)
            return

    def _operands(self, *operands: Expr) -> Operands:
        """The Operands node of an expression with these operands."""
        parts: list[Expr] = []
        for operand in operands:
            self._gather(operand, parts)
        return _operands_node(parts)

    def _kept(self, expr: Expr) -> Optional[Expr]:
        """expr as a statement, an initializer or a lambda body holds it:
        None when it holds nothing to read, else its one part or its
        Operands."""
        kind = type(expr)
        if kind is Invocation or kind is NewInstance or kind is Lambda:
            return expr
        if kind is Operands:
            parts = expr.parts
        else:
            parts = []
            self._gather(expr, parts)
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return None
        return expr if kind is Operands else Operands(tuple(parts))

    def _thrown(self, expr: Expr) -> Union[NewInstance, VariableRef, OpaqueThrow]:
        """A throw's expression as the throw keeps it: the `new T(...)` or
        the variable under any casts, or else what is read of it."""
        inner = expr
        while type(inner) is Cast:
            inner = inner.operand
        if type(inner) is NewInstance:
            return inner
        if type(inner) is Name:
            return VariableRef(inner.identifier)
        return OpaqueThrow(self._kept(inner))

    def _expression(self) -> Expr:
        lam = self._maybe_lambda()
        if lam is not None:
            return lam
        left = self._conditional()
        if self.tags[self.pos] in _ASSIGN_OPS:
            self.pos += 1
            return self._operands(left, self._expression())
        return left

    def _maybe_lambda(self) -> Optional[Expr]:
        """A lambda that starts here, or EMPTY for one whose body is an
        expression that holds nothing to read; None, with nothing consumed,
        when no lambda starts here."""
        at = self.pos
        tags = self.tags
        tag = tags[at]
        if tag == IDENT and self._peek() == "->":
            self.pos = at + 2
            return self._lambda([self.texts[at]])
        if tag == "(":
            # the token after the matching `)`; no match is no lambda
            depth = 0
            i = at
            while True:
                tag = tags[i]
                if tag == EOF:
                    return None
                if tag == "(":
                    depth += 1
                elif tag == ")":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            if tags[min(i + 1, self.last)] != "->":
                return None
            self.pos = at + 1  # "("
            params: list[str] = []
            while not self._at(")"):
                typed = self._declaration_ahead(None)
                params.append(self._typed_name()[1] if typed else self._ident())
                if not self._accept(","):
                    break
            self._expect(")")
            self._expect("->")
            return self._lambda(params)
        return None

    def _lambda(self, params: list[str]) -> Expr:
        if not self._at("{"):
            body = self._kept(self._expression())
            return EMPTY if body is None else Lambda(params, body)
        # the statements of a block body are no part of a throw around it
        in_throw, self.in_throw = self.in_throw, False
        block = self._block()
        self.in_throw = in_throw
        return Lambda(params, block)

    def _conditional(self) -> Expr:
        expr = self._binary(0)
        if self._accept("?"):
            if_true = self._expression()
            self._expect(":")
            return self._operands(expr, if_true, self._expression())
        return expr

    def _binary(self, min_level: int) -> Expr:
        # Precedence climbing: one loop takes every operator whose level is
        # at least min_level, each with a right operand of tighter operators
        # only. The levels met along the loop never rise, as with one loop
        # per level; that matters after `instanceof`, whose right side is a
        # type, so a tighter operator after it is not taken here. The
        # operands of the whole chain go into one Operands node.
        left = self._unary()
        max_level = len(_BINARY_LEVELS)
        tags = self.tags
        parts: Optional[list[Expr]] = None
        while True:
            tag = tags[self.pos]
            level = _BINARY_LEVEL.get(tag)
            if level is None or not min_level <= level <= max_level:
                break
            self.pos += 1
            max_level = level
            if parts is None:
                parts = []
                self._gather(left, parts)
            if tag == "instanceof":
                self._type_name()
                if tags[self.pos] == IDENT:
                    self.pos += 1  # pattern variable
                continue
            self._gather(self._binary(level + 1), parts)
        return left if parts is None else _operands_node(parts)

    def _unary(self) -> Expr:
        tag = self.tags[self.pos]
        if tag in _PREFIX_OPS:
            self.pos += 1
            return self._operands(self._unary())
        if tag == "(":
            cast = self._try_cast()
            if cast is not None:
                return cast
        return self._postfix(self._primary())

    def _try_cast(self) -> Optional[Cast]:
        """A cast when `(` Type `)` and a token that can start its operand
        come next; otherwise None, with nothing consumed."""
        start = self.pos
        self.pos += 1  # "("
        type_name = self._type_name() if self._at_type() else ""
        primitive = type_name in PRIMITIVE_TYPES
        nxt = self._peek()
        if type_name and self._at(")") and (
                nxt in _CAST_OPERAND_STARTS
                # (int) -x is a cast; (ref) -x would misread subtraction
                or primitive and nxt in ("+", "-", "++", "--")) and (
                # a single lowercase name in parens is far more likely a variable
                primitive or "." in type_name or "[]" in type_name
                or not type_name[0].islower()):
            self.pos += 1  # ")"
            operand = self._maybe_lambda()
            return Cast(type_name, self._unary() if operand is None else operand)
        self.pos = start
        return None

    def _postfix(self, expr: Expr) -> Expr:
        tags = self.tags
        while True:
            tag = tags[self.pos]
            if tag == ".":
                nxt_at = self.pos + 1
                nxt = tags[nxt_at]
                if nxt == "<":
                    self.pos = nxt_at
                    if not self._skip_generics():
                        raise self._error("malformed type arguments")
                    name_at = self.pos
                    name = self._ident()
                    expr = Invocation(expr, name, *self._arguments(),
                                      self._position(name_at))
                    continue
                if nxt == IDENT:
                    self.pos = nxt_at + 1
                    name = self.texts[nxt_at]
                    if tags[self.pos] == "(":
                        expr = Invocation(expr, name, *self._arguments(),
                                          self._position(nxt_at))
                    else:
                        expr = FieldAccess(expr, name)
                    continue
                if nxt in ("this", "class", "super"):
                    self.pos = nxt_at + 1
                    expr = FieldAccess(expr, nxt)
                    continue
                if nxt == "new":
                    self.pos = nxt_at + 1
                    expr = self._new_expression(nxt_at)
                    continue
                raise ParseError("expected member name", self._position(nxt_at))
            if tag == "[":
                self.pos += 1
                index = self._expression()
                self._expect("]")
                expr = self._operands(expr, index)
                continue
            if tag == "::":
                # a method reference: nothing under it is read
                self.pos += 1
                if self._at("<"):
                    self._skip_generics()
                if not self._accept("new"):
                    self._ident()
                expr = EMPTY
                continue
            if tag == "++" or tag == "--":
                self.pos += 1
                expr = self._operands(expr)
                continue
            return expr

    def _arguments(self) -> tuple[tuple[Expr, ...], int]:
        """What is read of the arguments, and how many there are."""
        self._expect("(")
        parts: list[Expr] = []
        arity = 0
        if not self._at(")"):
            self._gather(self._expression(), parts)
            arity = 1
            while self._accept(","):
                self._gather(self._expression(), parts)
                arity += 1
        self._expect(")")
        return tuple(parts), arity

    def _primary(self) -> Expr:
        at = self.pos
        tag = self.tags[at]
        if tag == IDENT:
            self.pos = at + 1
            if self._at("("):
                return Invocation(None, self.texts[at], *self._arguments(),
                                  self._position(at))
            return Name(self.texts[at])
        if tag in LITERALS:
            self.pos = at + 1
            return Literal(self.texts[at])
        if tag in KEYWORDS:
            if tag in ("true", "false", "null"):
                self.pos = at + 1
                return Literal(tag)
            if tag == "this" or tag == "super":
                self.pos = at + 1
                if self._at("("):
                    return Invocation(None, tag, *self._arguments(),
                                      self._position(at))
                return Name(tag)
            if tag == "new":
                self.pos = at + 1
                return self._new_expression(at)
            if tag in PRIMITIVE_TYPES or tag == "void":
                self.pos = at + 1
                return Name(tag + self._array_dims())
        if tag == "(":
            self.pos = at + 1
            expr = self._expression()
            self._expect(")")
            return expr
        raise self._error(
            f"expected expression, found {self.texts[at] or 'end of file'!r}")

    def _new_expression(self, new_at: int) -> Union[NewInstance, Operands]:
        tag = self.tags[self.pos]
        if tag in PRIMITIVE_TYPES:
            self.pos += 1
            type_name = tag
        else:
            parts = [self._ident()]
            if self._at("<"):
                self._skip_generics()
            while self._at(".") and self._peek() == IDENT:
                self.pos += 1
                parts.append(self._ident())
                if self._at("<"):
                    self._skip_generics()
            type_name = ".".join(parts)
        if self._at("["):
            # an array: its dimensions and initializer are its operands
            operands: list[Expr] = []
            while self._accept("["):
                if not self._accept("]"):
                    operands.append(self._expression())
                    self._expect("]")
            if self._at("{"):
                operands.append(self._array_initializer())
            return self._operands(*operands)
        arguments, arity = self._arguments()
        anonymous = None
        if self._at("{"):
            # the statements of the body are no part of a throw around it
            in_throw, self.in_throw = self.in_throw, False
            anonymous = self._anonymous_body()
            self.in_throw = in_throw
        return NewInstance(type_name, arguments, arity,
                           self._position(new_at), anonymous)

    def _anonymous_body(self) -> Block:
        # method bodies of the anonymous class, hoisted into one block so
        # their statements attribute to the enclosing method
        open_at = self._expect("{")
        tags = self.tags
        statements: list[Statement] = []
        while not self._at("}"):
            if tags[self.pos] == EOF:
                raise self._error("unterminated anonymous class body")
            if self._accept(";"):
                continue
            self._skip_modifiers()
            if self._at("{"):
                statements.append(self._block())
                continue
            if self._at("<") and not self._skip_generics():
                raise self._error("malformed type parameters")
            self._return_type()
            name_at = self.pos
            name = self._ident()
            if self._at("("):
                method = self._method_rest(name, self._position(name_at), None)
                if method.body is not None:
                    statements.append(method.body)
            else:
                self._field_rest()
        close_at = self._expect("}")
        block = Block(statements,
                      (self.offsets[open_at], self.offsets[close_at] + 1))
        self.blocks.append(block)
        return block


def _operands_node(parts: list[Expr]) -> Operands:
    return Operands(tuple(parts)) if parts else EMPTY


def _attach_comments(lexed: LexedSource, blocks: list[Block]) -> None:
    """Give each comment to the innermost block whose span holds it.

    One sweep: comments come in order of offset, and every block that
    starts before a comment is pushed on a stack in order of start. A block
    that ends before a comment ends before every later one too, so it is
    popped for good; the top of the stack is then the block with the
    latest start that holds the comment. The parser never yields two blocks
    with the same start; should a caller pass such blocks, the first one
    listed is pushed last and so takes the comment.
    """
    ordered = sorted(reversed(blocks), key=lambda block: block.span[0])
    stack: list[Block] = []
    pushed = 0
    source = lexed.source
    for start, end in lexed.comment_spans:
        while pushed < len(ordered) and ordered[pushed].span[0] < start:
            stack.append(ordered[pushed])
            pushed += 1
        while stack and stack[-1].span[1] < end:
            stack.pop()
        if stack:
            block = stack[-1]
            if block.comments:
                block.comments.append(source[start:end])
            else:
                block.comments = [source[start:end]]
