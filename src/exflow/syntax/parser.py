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
"""

from __future__ import annotations

from typing import Optional, Union

from .ast import (
    ArrayAccess, Assignment, Binary, Block, Cast, CatchClause,
    CompilationUnit, Conditional, ContinueStmt, BreakStmt, CONSTRUCTOR_NAME,
    DocComment, Expr, ExprStmt, FieldAccess, IfStmt, InstanceOf, Invocation,
    Lambda, Literal, LocalDecl, LocalVar, LoopStmt, MethodDecl, MethodRef,
    Name, NewArray, NewInstance, OpaqueThrow, Param, ReturnStmt, SourcePosition,
    Statement, ThrowStmt, TryStmt, TypeDecl, Unary, VariableRef,
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
        comments = self.lexed.comments
        for ci in reversed(self.lexed.comments_before(tok_index)):
            if comments[ci].is_doc:
                return parse_doc_comment(comments[ci].text)
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
        interfaces: list[str] = []
        if kind == "class":
            if self._accept("extends"):
                superclass = self._type_name()
            if self._accept("implements"):
                interfaces.append(self._type_name())
                while self._accept(","):
                    interfaces.append(self._type_name())
        else:
            if self._accept("extends"):
                interfaces.append(self._type_name())
                while self._accept(","):
                    interfaces.append(self._type_name())
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
                self._field_rest(self.texts[at])
        self._expect("}")
        decl = TypeDecl(qualified, kind, superclass, interfaces, methods, doc,
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

    def _field_rest(self, type_hint: str) -> None:
        # fields are accepted but not modeled; initializers must still parse
        while True:
            while self._accept("["):
                self._expect("]")
            if self._accept("="):
                self._array_init_or_expr(type_hint)
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
        block = Block(statements, self._position(open_at),
                      (self.offsets[open_at], self.offsets[close_at] + 1))
        self.blocks.append(block)
        return block

    def _statement_required(self) -> Statement:
        at = self.pos
        stmt = self._statement()
        if stmt is None:
            offset = self.offsets[at]
            return Block([], self._position(at), (offset, offset + 1))
        return stmt

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
                value = None if self._at(";") else self._expression()
                self._expect(";")
                return ReturnStmt(value, self._position(at))
            if tag == "continue":
                self.pos = at + 1
                label = self._ident() if self._at(IDENT) else None
                self._expect(";")
                return ContinueStmt(label, self._position(at))
            if tag == "break":
                self.pos = at + 1
                label = self._ident() if self._at(IDENT) else None
                self._expect(";")
                return BreakStmt(label, self._position(at))
            if tag == "throw":
                self.pos = at + 1
                thrown = self._expression()
                self._expect(";")
                return ThrowStmt(_as_thrown(thrown), self._position(at))
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
        expr = self._expression()
        self._expect(";")
        return ExprStmt(expr, self._position(at))

    def _if_statement(self) -> IfStmt:
        at = self._advance()
        self._expect("(")
        condition = self._expression()
        self._expect(")")
        then_branch = self._statement_required()
        else_branch = None
        if self._accept("else"):
            else_branch = self._statement_required()
        return IfStmt(condition, then_branch, else_branch, self._position(at))

    def _while_statement(self) -> LoopStmt:
        at = self._advance()
        self._expect("(")
        condition = self._expression()
        self._expect(")")
        body = self._statement_required()
        return LoopStmt("while", [], condition, [], body, self._position(at))

    def _do_statement(self) -> LoopStmt:
        at = self._advance()
        body = self._statement_required()
        self._expect("while")
        self._expect("(")
        condition = self._expression()
        self._expect(")")
        self._expect(";")
        return LoopStmt("do", [], condition, [], body, self._position(at))

    def _for_statement(self) -> LoopStmt:
        at = self._advance()
        self._expect("(")
        if self._declaration_ahead((":",)):
            type_name, var_name = self._typed_name()
            self.pos += 1  # ":"
            iterable = self._expression()
            self._expect(")")
            body = self._statement_required()
            var = LocalDecl([LocalVar(var_name, type_name)], self._position(at))
            return LoopStmt("foreach", [var], None, [iterable], body,
                            self._position(at))
        init: list[Statement] = []
        if self._declaration_ahead(_LOCAL_FOLLOW):
            init.append(self._local_decl())  # the declaration consumed the ';'
        elif not self._accept(";"):
            pos = self._position(self.pos)
            init.append(ExprStmt(self._expression(), pos))
            while self._accept(","):
                pos = self._position(self.pos)
                init.append(ExprStmt(self._expression(), pos))
            self._expect(";")
        condition = None if self._at(";") else self._expression()
        self._expect(";")
        update: list[Expr] = []
        if not self._at(")"):
            update.append(self._expression())
            while self._accept(","):
                update.append(self._expression())
        self._expect(")")
        body = self._statement_required()
        return LoopStmt("for", init, condition, update, body, self._position(at))

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
        at = self.pos
        if not self._declaration_ahead(("=",)):
            return ExprStmt(self._expression(), self._position(at))
        type_name, name = self._typed_name()
        self.pos += 1  # "="
        value = self._expression()
        return LocalDecl([LocalVar(name, type_name, value)],
                         self._position(at))

    def _synchronized_statement(self) -> Block:
        at = self._advance()
        self._expect("(")
        lock_pos = self._position(self.pos)
        lock = self._expression()
        self._expect(")")
        body = self._block()
        return Block([ExprStmt(lock, lock_pos), body], self._position(at),
                     (self.offsets[at], body.span[1]))

    def _switch_statement(self) -> Block:
        # desugared to a block so selector and case bodies keep their calls
        at = self._advance()
        self._expect("(")
        selector_pos = self._position(self.pos)
        selector = self._expression()
        self._expect(")")
        self._expect("{")
        statements: list[Statement] = [ExprStmt(selector, selector_pos)]
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
        block = Block(statements, self._position(at),
                      (self.offsets[at], self.offsets[close_at] + 1))
        self.blocks.append(block)
        return block

    def _assert_statement(self) -> Block:
        at = self._advance()
        cond_pos = self._position(self.pos)
        statements: list[Statement] = [ExprStmt(self._expression(), cond_pos)]
        if self._accept(":"):
            msg_pos = self._position(self.pos)
            statements.append(ExprStmt(self._expression(), msg_pos))
        close_at = self._expect(";")
        return Block(statements, self._position(at),
                     (self.offsets[at], self.offsets[close_at] + 1))

    def _local_decl(self) -> LocalDecl:
        at = self.pos
        type_name, name = self._typed_name()
        declarations: list[LocalVar] = []
        while True:
            dims = ""
            while self._accept("["):
                self._expect("]")
                dims += "[]"
            initializer = None
            if self._accept("="):
                initializer = self._array_init_or_expr(type_name)
            declarations.append(LocalVar(name, type_name + dims, initializer))
            if not self._accept(","):
                self._expect(";")
                return LocalDecl(declarations, self._position(at))
            name = self._ident()

    def _array_init_or_expr(self, type_hint: str) -> Expr:
        if self._at("{"):
            return self._array_initializer(type_hint)
        return self._expression()

    def _array_initializer(self, type_hint: str) -> NewArray:
        self._expect("{")
        elements: list[Expr] = []
        while not self._at("}"):
            elements.append(self._array_init_or_expr(type_hint))
            if not self._accept(","):
                break
        self._expect("}")
        return NewArray(type_hint, [], elements)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def _expression(self) -> Expr:
        lam = self._maybe_lambda()
        if lam is not None:
            return lam
        left = self._conditional()
        tag = self.tags[self.pos]
        if tag in _ASSIGN_OPS:
            self.pos += 1
            return Assignment(tag, left, self._expression())
        return left

    def _maybe_lambda(self) -> Optional[Lambda]:
        at = self.pos
        tags = self.tags
        tag = tags[at]
        if tag == IDENT and self._peek() == "->":
            self.pos = at + 2
            return Lambda([self.texts[at]], self._lambda_body())
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
            return Lambda(params, self._lambda_body())
        return None

    def _lambda_body(self) -> Union[Block, Expr]:
        if self._at("{"):
            return self._block()
        return self._expression()

    def _conditional(self) -> Expr:
        expr = self._binary(0)
        if self._accept("?"):
            if_true = self._expression()
            self._expect(":")
            if_false = self._expression()
            return Conditional(expr, if_true, if_false)
        return expr

    def _binary(self, min_level: int) -> Expr:
        # Precedence climbing: one loop takes every operator whose level is
        # at least min_level, each with a right operand of tighter operators
        # only. The levels met along the loop never rise, as with one loop
        # per level; that matters after `instanceof`, whose right side is a
        # type, so a tighter operator after it is not taken here.
        left = self._unary()
        max_level = len(_BINARY_LEVELS)
        tags = self.tags
        while True:
            tag = tags[self.pos]
            level = _BINARY_LEVEL.get(tag)
            if level is None or not min_level <= level <= max_level:
                return left
            self.pos += 1
            max_level = level
            if tag == "instanceof":
                left = InstanceOf(left, self._type_name())
                if tags[self.pos] == IDENT:
                    self.pos += 1  # pattern variable, type already recorded
                continue
            left = Binary(tag, left, self._binary(level + 1))

    def _unary(self) -> Expr:
        tag = self.tags[self.pos]
        if tag in _PREFIX_OPS:
            self.pos += 1
            return Unary(tag, self._unary())
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
            return Cast(type_name, self._maybe_lambda() or self._unary())
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
                    expr = Invocation(expr, name, self._arguments(),
                                      self._position(name_at))
                    continue
                if nxt == IDENT:
                    self.pos = nxt_at + 1
                    name = self.texts[nxt_at]
                    if tags[self.pos] == "(":
                        expr = Invocation(expr, name, self._arguments(),
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
                expr = ArrayAccess(expr, index)
                continue
            if tag == "::":
                self.pos += 1
                if self._at("<"):
                    self._skip_generics()
                if self._accept("new"):
                    name = "new"
                else:
                    name = self._ident()
                expr = MethodRef(_render_chain(expr), name)
                continue
            if tag == "++" or tag == "--":
                self.pos += 1
                expr = Unary("post" + tag, expr)
                continue
            return expr

    def _arguments(self) -> list[Expr]:
        self._expect("(")
        args: list[Expr] = []
        if not self._at(")"):
            args.append(self._expression())
            while self._accept(","):
                args.append(self._expression())
        self._expect(")")
        return args

    def _primary(self) -> Expr:
        at = self.pos
        tag = self.tags[at]
        if tag == IDENT:
            self.pos = at + 1
            if self._at("("):
                return Invocation(None, self.texts[at], self._arguments(),
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
                    return Invocation(None, tag, self._arguments(),
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

    def _new_expression(self, new_at: int) -> Union[NewInstance, NewArray]:
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
            dimensions: list[Expr] = []
            while self._accept("["):
                if not self._accept("]"):
                    dimensions.append(self._expression())
                    self._expect("]")
            initializer: list[Expr] = []
            if self._at("{"):
                initializer = self._array_initializer(type_name).initializer
            return NewArray(type_name, dimensions, initializer)
        arguments = self._arguments()
        anonymous = None
        if self._at("{"):
            anonymous = self._anonymous_body()
        return NewInstance(type_name, arguments, self._position(new_at),
                           anonymous)

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
            type_at = self.pos
            self._return_type()
            name_at = self.pos
            name = self._ident()
            if self._at("("):
                method = self._method_rest(name, self._position(name_at), None)
                if method.body is not None:
                    statements.append(method.body)
            else:
                self._field_rest(self.texts[type_at])
        close_at = self._expect("}")
        block = Block(statements, self._position(open_at),
                      (self.offsets[open_at], self.offsets[close_at] + 1))
        self.blocks.append(block)
        return block


def _as_thrown(expr: Expr) -> Union[NewInstance, VariableRef, OpaqueThrow]:
    inner = expr
    while isinstance(inner, Cast):
        inner = inner.operand
    if isinstance(inner, NewInstance):
        return inner
    if isinstance(inner, Name):
        return VariableRef(inner.identifier)
    return OpaqueThrow(inner)


def _render_chain(expr: Expr) -> str:
    if isinstance(expr, Name):
        return expr.identifier
    if isinstance(expr, FieldAccess):
        prefix = _render_chain(expr.target)
        return f"{prefix}.{expr.name}" if prefix else expr.name
    return ""


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
    for comment, (start, end) in zip(lexed.comments, lexed.comment_spans):
        while pushed < len(ordered) and ordered[pushed].span[0] < start:
            stack.append(ordered[pushed])
            pushed += 1
        while stack and stack[-1].span[1] < end:
            stack.pop()
        if stack:
            stack[-1].comments.append(comment)
