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
from .lexer import LexedSource, MODIFIERS, PRIMITIVE_TYPES, Token, tokenize

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
        self.toks = lexed.tokens
        self.file = lexed.file
        self.pos = 0
        self.blocks: list[Block] = []

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------

    def _cur(self) -> Token:
        return self.toks[self.pos]

    def _peek(self, k: int = 1) -> Token:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def _advance(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def _at(self, text: str) -> bool:
        tok = self._cur()
        return tok.text == text and tok.kind in ("punct", "kw")

    def _accept(self, text: str) -> bool:
        if self._at(text):
            self._advance()
            return True
        return False

    def _expect(self, text: str) -> Token:
        if not self._at(text):
            tok = self._cur()
            raise ParseError(
                f"expected {text!r}, found {tok.text or 'end of file'!r}",
                tok.position(self.file))
        return self._advance()

    def _ident(self) -> str:
        tok = self._cur()
        if tok.kind != "ident":
            raise ParseError(
                f"expected identifier, found {tok.text or 'end of file'!r}",
                tok.position(self.file))
        self._advance()
        return tok.text

    def _error(self, message: str) -> ParseError:
        return ParseError(message, self._cur().position(self.file))

    # ------------------------------------------------------------------
    # compilation unit
    # ------------------------------------------------------------------

    def parse_unit(self) -> CompilationUnit:
        package = ""
        if self._at("package"):
            self._advance()
            package = self._qualified()
            self._expect(";")
        imports: list[str] = []
        while self._at("import"):
            self._advance()
            # static imports bring in members, not types; skip them
            is_static = bool(self._accept("static"))
            name = self._qualified(allow_star=True)
            if not is_static:
                imports.append(name)
            self._expect(";")
        types: list[TypeDecl] = []
        while self._cur().kind != "eof":
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
            if allow_star and self._peek().text == "*":
                self._advance()
                self._advance()
                parts.append("*")
                break
            if self._peek().kind != "ident":
                break
            self._advance()
            parts.append(self._ident())
        return ".".join(parts)

    def _doc_at(self, tok_index: int) -> Optional[DocComment]:
        for ci in reversed(self.lexed.comments_before[tok_index]):
            comment = self.lexed.comments[ci]
            if comment.is_doc:
                return parse_doc_comment(comment.text)
        return None

    # ------------------------------------------------------------------
    # declarations
    # ------------------------------------------------------------------

    def _skip_modifiers(self) -> None:
        while True:
            tok = self._cur()
            if tok.kind == "kw" and tok.text in MODIFIERS:
                # `default:` inside a desugared switch is a label, not a modifier
                if tok.text == "default" and self._peek().text == ":":
                    return
                self._advance()
                continue
            if tok.text == "@" and self._peek().text != "interface":
                self._skip_annotation()
                continue
            return

    def _skip_annotation(self) -> None:
        self._expect("@")
        self._qualified()
        if self._at("("):
            depth = 0
            while True:
                tok = self._cur()
                if tok.kind == "eof":
                    raise self._error("unterminated annotation arguments")
                if tok.text in ("(", "[", "{"):
                    depth += 1
                elif tok.text in (")", "]", "}"):
                    depth -= 1
                self._advance()
                if depth == 0:
                    return

    def _type_decl(self, prefix: str) -> list[TypeDecl]:
        doc = self._doc_at(self.pos)
        self._skip_modifiers()
        return self._type_decl_body(prefix, doc)

    def _type_decl_body(self, prefix: str, doc: Optional[DocComment]) -> list[TypeDecl]:
        if self._at("enum"):
            raise self._error("enum declarations are not supported")
        if self._at("@"):
            raise self._error("annotation declarations are not supported")
        if not (self._at("class") or self._at("interface")):
            raise self._error("expected a class or interface declaration")
        kind_tok = self._advance()
        kind = kind_tok.text
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
            if self._cur().kind == "eof":
                raise self._error(f"unterminated body of {qualified}")
            if self._accept(";"):
                continue
            member_doc = self._doc_at(self.pos)
            self._skip_modifiers()
            if self._at("class") or self._at("interface") or self._at("enum"):
                nested.extend(self._type_decl_body(qualified, member_doc))
                continue
            if self._at("{"):
                self._block()  # initializer block, not part of any method
                continue
            if self._at("<") and not self._skip_generics():
                raise self._error("malformed type parameters")
            if (self._cur().kind == "ident" and self._cur().text == simple_name
                    and self._peek().text == "("):
                ctor_tok = self._advance()
                methods.append(self._method_rest(
                    CONSTRUCTOR_NAME, ctor_tok.position(self.file), member_doc))
                continue
            rtype_tok = self._cur()
            self._return_type()
            name_tok = self._cur()
            mname = self._ident()
            if self._at("("):
                methods.append(self._method_rest(
                    mname, name_tok.position(self.file), member_doc))
            else:
                self._field_rest(rtype_tok)
        self._expect("}")
        decl = TypeDecl(qualified, kind, superclass, interfaces, methods, doc,
                        kind_tok.position(self.file))
        return [decl] + nested

    def _return_type(self) -> str:
        if self._at("void"):
            self._advance()
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

    def _field_rest(self, type_tok: Token) -> None:
        # fields are accepted but not modeled; initializers must still parse
        type_hint = type_tok.text
        while True:
            while self._at("["):
                self._advance()
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
        tok = self._cur()
        if tok.kind == "kw" and tok.text in PRIMITIVE_TYPES:
            self._advance()
            return tok.text + self._array_dims()
        if tok.kind != "ident":
            raise self._error(
                f"expected type name, found {tok.text or 'end of file'!r}")
        parts = [self._ident()]
        if self._at("<"):
            self._skip_generics()
        while self._at(".") and self._peek().kind == "ident":
            self._advance()
            parts.append(self._ident())
            if self._at("<"):
                self._skip_generics()
        return ".".join(parts) + self._array_dims()

    def _typed_name(self) -> tuple[str, str]:
        """Modifiers, a type and a name: the (type, name) of a declaration."""
        self._skip_modifiers()
        return self._type_name(), self._ident()

    def _at_type(self) -> bool:
        tok = self._cur()
        return tok.kind == "ident" or (tok.kind == "kw" and tok.text in PRIMITIVE_TYPES)

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
            found = self._cur().kind == "ident" and (
                follow is None or nxt.text in follow
                and (nxt.text != "[" or self._peek(2).text == "]"))
        self.pos = start
        return found

    def _array_dims(self) -> str:
        dims = ""
        while self._at("[") and self._peek().text == "]":
            self._advance()
            self._advance()
            dims += "[]"
        return dims

    def _skip_generics(self) -> bool:
        """Consume a balanced type-argument list, or restore and report False."""
        start = self.pos
        self._advance()  # "<"
        depth = 1
        while depth > 0:
            tok = self._cur()
            if tok.kind == "eof":
                self.pos = start
                return False
            if tok.kind == "ident":
                self._advance()
                continue
            if tok.kind == "kw" and tok.text in PRIMITIVE_TYPES | {"extends", "super"}:
                self._advance()
                continue
            if tok.text in (",", ".", "?", "&", "[", "]", "@"):
                self._advance()
                continue
            if tok.text == "<":
                depth += 1
            elif tok.text == ">":
                depth -= 1
            elif tok.text == ">>":
                depth -= 2
            elif tok.text == ">>>":
                depth -= 3
            else:
                self.pos = start
                return False
            if depth < 0:
                self.pos = start
                return False
            self._advance()
        return True

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def _block(self) -> Block:
        open_tok = self._expect("{")
        statements: list[Statement] = []
        while not self._at("}"):
            if self._cur().kind == "eof":
                raise self._error("unterminated block")
            stmt = self._statement()
            if stmt is not None:
                statements.append(stmt)
        close_tok = self._expect("}")
        block = Block(statements, open_tok.position(self.file),
                      (open_tok.offset, close_tok.offset + 1))
        self.blocks.append(block)
        return block

    def _statement_required(self) -> Statement:
        tok = self._cur()
        stmt = self._statement()
        if stmt is None:
            return Block([], tok.position(self.file),
                         (tok.offset, tok.offset + 1))
        return stmt

    def _statement(self) -> Optional[Statement]:
        tok = self._cur()
        text = tok.text
        if text == "{":
            return self._block()
        if text == ";":
            self._advance()
            return None
        if tok.kind == "kw":
            if text == "if":
                return self._if_statement()
            if text == "while":
                return self._while_statement()
            if text == "do":
                return self._do_statement()
            if text == "for":
                return self._for_statement()
            if text == "return":
                self._advance()
                value = None if self._at(";") else self._expression()
                self._expect(";")
                return ReturnStmt(value, tok.position(self.file))
            if text == "continue":
                self._advance()
                label = self._ident() if self._cur().kind == "ident" else None
                self._expect(";")
                return ContinueStmt(label, tok.position(self.file))
            if text == "break":
                self._advance()
                label = self._ident() if self._cur().kind == "ident" else None
                self._expect(";")
                return BreakStmt(label, tok.position(self.file))
            if text == "throw":
                self._advance()
                thrown = self._expression()
                self._expect(";")
                return ThrowStmt(_as_thrown(thrown), tok.position(self.file))
            if text == "try":
                return self._try_statement()
            if text == "synchronized":
                return self._synchronized_statement()
            if text == "switch":
                return self._switch_statement()
            if text == "assert":
                return self._assert_statement()
            if text in ("class", "interface", "enum"):
                raise self._error("local type declarations are not supported")
        if self._declaration_ahead(_LOCAL_FOLLOW):
            return self._local_decl()
        if text == "final":
            raise self._error("expected a declaration after 'final'")
        if (tok.kind == "ident" and self._peek().text == ":"
                and self._peek().kind == "punct"):
            self._advance()
            self._advance()
            return self._statement()
        expr = self._expression()
        self._expect(";")
        return ExprStmt(expr, tok.position(self.file))

    def _if_statement(self) -> IfStmt:
        tok = self._advance()
        self._expect("(")
        condition = self._expression()
        self._expect(")")
        then_branch = self._statement_required()
        else_branch = None
        if self._accept("else"):
            else_branch = self._statement_required()
        return IfStmt(condition, then_branch, else_branch, tok.position(self.file))

    def _while_statement(self) -> LoopStmt:
        tok = self._advance()
        self._expect("(")
        condition = self._expression()
        self._expect(")")
        body = self._statement_required()
        return LoopStmt("while", [], condition, [], body, tok.position(self.file))

    def _do_statement(self) -> LoopStmt:
        tok = self._advance()
        body = self._statement_required()
        self._expect("while")
        self._expect("(")
        condition = self._expression()
        self._expect(")")
        self._expect(";")
        return LoopStmt("do", [], condition, [], body, tok.position(self.file))

    def _for_statement(self) -> LoopStmt:
        tok = self._advance()
        self._expect("(")
        if self._declaration_ahead((":",)):
            type_name, var_name = self._typed_name()
            self._advance()  # ":"
            iterable = self._expression()
            self._expect(")")
            body = self._statement_required()
            var = LocalDecl([LocalVar(var_name, type_name)], tok.position(self.file))
            return LoopStmt("foreach", [var], None, [iterable], body,
                            tok.position(self.file))
        init: list[Statement] = []
        if self._declaration_ahead(_LOCAL_FOLLOW):
            init.append(self._local_decl())  # the declaration consumed the ';'
        elif not self._accept(";"):
            pos = self._cur().position(self.file)
            init.append(ExprStmt(self._expression(), pos))
            while self._accept(","):
                pos = self._cur().position(self.file)
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
        return LoopStmt("for", init, condition, update, body, tok.position(self.file))

    def _try_statement(self) -> TryStmt:
        tok = self._advance()
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
            catch_tok = self._advance()
            self._expect("(")
            self._skip_modifiers()
            caught = [self._type_name()]
            while self._accept("|"):
                caught.append(self._type_name())
            variable = self._ident()
            self._expect(")")
            catch_body = self._block()
            catches.append(CatchClause(caught, variable, catch_body,
                                       catch_tok.position(self.file)))
        finally_block = None
        if self._accept("finally"):
            finally_block = self._block()
        if not catches and finally_block is None and not resources:
            raise ParseError("try statement has no catch, finally, or resources",
                             tok.position(self.file))
        return TryStmt(body, catches, finally_block, tok.position(self.file))

    def _resource(self) -> Statement:
        start = self._cur()
        if not self._declaration_ahead(("=",)):
            return ExprStmt(self._expression(), start.position(self.file))
        type_name, name = self._typed_name()
        self._advance()  # "="
        value = self._expression()
        return LocalDecl([LocalVar(name, type_name, value)],
                         start.position(self.file))

    def _synchronized_statement(self) -> Block:
        tok = self._advance()
        self._expect("(")
        lock_pos = self._cur().position(self.file)
        lock = self._expression()
        self._expect(")")
        body = self._block()
        return Block([ExprStmt(lock, lock_pos), body], tok.position(self.file),
                     (tok.offset, body.span[1]))

    def _switch_statement(self) -> Block:
        # desugared to a block so selector and case bodies keep their calls
        tok = self._advance()
        self._expect("(")
        selector_pos = self._cur().position(self.file)
        selector = self._expression()
        self._expect(")")
        self._expect("{")
        statements: list[Statement] = [ExprStmt(selector, selector_pos)]
        while not self._at("}"):
            if self._cur().kind == "eof":
                raise self._error("unterminated switch body")
            if self._at("case"):
                # a label is no lambda: `case A -> f();` is a label and a body
                self._advance()
                self._conditional()
                while self._accept(","):
                    self._conditional()
                if not self._accept(":"):
                    self._expect("->")
                    stmt = self._statement()
                    if stmt is not None:
                        statements.append(stmt)
                continue
            if self._at("default"):
                self._advance()
                if not self._accept(":"):
                    self._expect("->")
                    stmt = self._statement()
                    if stmt is not None:
                        statements.append(stmt)
                continue
            stmt = self._statement()
            if stmt is not None:
                statements.append(stmt)
        close_tok = self._expect("}")
        block = Block(statements, tok.position(self.file),
                      (tok.offset, close_tok.offset + 1))
        self.blocks.append(block)
        return block

    def _assert_statement(self) -> Block:
        tok = self._advance()
        cond_pos = self._cur().position(self.file)
        statements: list[Statement] = [ExprStmt(self._expression(), cond_pos)]
        if self._accept(":"):
            msg_pos = self._cur().position(self.file)
            statements.append(ExprStmt(self._expression(), msg_pos))
        close_tok = self._expect(";")
        return Block(statements, tok.position(self.file),
                     (tok.offset, close_tok.offset + 1))

    def _local_decl(self) -> LocalDecl:
        start = self._cur()
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
                return LocalDecl(declarations, start.position(self.file))
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
        tok = self._cur()
        if tok.kind == "punct" and tok.text in _ASSIGN_OPS:
            self._advance()
            return Assignment(tok.text, left, self._expression())
        return left

    def _maybe_lambda(self) -> Optional[Lambda]:
        tok = self._cur()
        if tok.kind == "ident" and self._peek().text == "->":
            self._advance()
            self._advance()
            return Lambda([tok.text], self._lambda_body())
        if tok.text == "(" and tok.kind == "punct":
            depth = 0
            i = self.pos
            while True:
                scan = self.toks[i]
                if scan.kind == "eof":
                    return None
                if scan.text == "(":
                    depth += 1
                elif scan.text == ")":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            if self.toks[min(i + 1, len(self.toks) - 1)].text != "->":
                return None
            self._advance()  # "("
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
        while True:
            tok = self._cur()
            level = _BINARY_LEVEL.get(tok.text)
            if level is None or not min_level <= level <= max_level:
                return left
            self._advance()
            max_level = level
            if tok.text == "instanceof":
                left = InstanceOf(left, self._type_name())
                if self._cur().kind == "ident":
                    self._ident()  # pattern variable, type already recorded
                continue
            left = Binary(tok.text, left, self._binary(level + 1))

    def _unary(self) -> Expr:
        tok = self._cur()
        if tok.kind == "punct" and tok.text in ("+", "-", "!", "~", "++", "--"):
            self._advance()
            return Unary(tok.text, self._unary())
        if tok.text == "(":
            cast = self._try_cast()
            if cast is not None:
                return cast
        return self._postfix(self._primary())

    def _try_cast(self) -> Optional[Cast]:
        """A cast when `(` Type `)` and a token that can start its operand
        come next; otherwise None, with nothing consumed."""
        start = self.pos
        self._advance()  # "("
        type_name = self._type_name() if self._at_type() else ""
        primitive = type_name in PRIMITIVE_TYPES
        nxt = self._peek()
        if type_name and self._at(")") and (
                nxt.kind in ("ident", "int", "float", "char", "string")
                or nxt.text in ("(", "!", "~")
                or (nxt.kind == "kw"
                    and nxt.text in ("this", "super", "new", "true", "false", "null"))
                # (int) -x is a cast; (ref) -x would misread subtraction
                or primitive and nxt.text in ("+", "-", "++", "--")) and (
                # a single lowercase name in parens is far more likely a variable
                primitive or "." in type_name or "[]" in type_name
                or not type_name[0].islower()):
            self._advance()  # ")"
            return Cast(type_name, self._maybe_lambda() or self._unary())
        self.pos = start
        return None

    def _postfix(self, expr: Expr) -> Expr:
        while True:
            tok = self._cur()
            if tok.text == "." and tok.kind == "punct":
                nxt = self._peek()
                if nxt.text == "<":
                    self._advance()
                    if not self._skip_generics():
                        raise self._error("malformed type arguments")
                    name_tok = self._cur()
                    name = self._ident()
                    expr = Invocation(expr, name, self._arguments(),
                                      name_tok.position(self.file))
                    continue
                if nxt.kind == "ident":
                    self._advance()
                    name_tok = self._cur()
                    name = self._ident()
                    if self._at("("):
                        expr = Invocation(expr, name, self._arguments(),
                                          name_tok.position(self.file))
                    else:
                        expr = FieldAccess(expr, name)
                    continue
                if nxt.kind == "kw" and nxt.text in ("this", "class", "super"):
                    self._advance()
                    self._advance()
                    expr = FieldAccess(expr, nxt.text)
                    continue
                if nxt.kind == "kw" and nxt.text == "new":
                    self._advance()
                    new_tok = self._advance()
                    expr = self._new_expression(new_tok)
                    continue
                raise ParseError("expected member name",
                                 nxt.position(self.file))
            if tok.text == "[" and tok.kind == "punct":
                self._advance()
                index = self._expression()
                self._expect("]")
                expr = ArrayAccess(expr, index)
                continue
            if tok.text == "::":
                self._advance()
                if self._at("<"):
                    self._skip_generics()
                if self._at("new"):
                    self._advance()
                    name = "new"
                else:
                    name = self._ident()
                expr = MethodRef(_render_chain(expr), name)
                continue
            if tok.kind == "punct" and tok.text in ("++", "--"):
                self._advance()
                expr = Unary("post" + tok.text, expr)
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
        tok = self._cur()
        if tok.kind in ("int", "float", "char", "string"):
            self._advance()
            return Literal(tok.text)
        if tok.kind == "kw":
            if tok.text in ("true", "false", "null"):
                self._advance()
                return Literal(tok.text)
            if tok.text == "this":
                self._advance()
                if self._at("("):
                    return Invocation(None, "this", self._arguments(),
                                      tok.position(self.file))
                return Name("this")
            if tok.text == "super":
                self._advance()
                if self._at("("):
                    return Invocation(None, "super", self._arguments(),
                                      tok.position(self.file))
                return Name("super")
            if tok.text == "new":
                self._advance()
                return self._new_expression(tok)
            if tok.text in PRIMITIVE_TYPES or tok.text == "void":
                self._advance()
                return Name(tok.text + self._array_dims())
        if tok.kind == "ident":
            self._advance()
            if self._at("("):
                return Invocation(None, tok.text, self._arguments(),
                                  tok.position(self.file))
            return Name(tok.text)
        if tok.text == "(":
            self._advance()
            expr = self._expression()
            self._expect(")")
            return expr
        raise ParseError(
            f"expected expression, found {tok.text or 'end of file'!r}",
            tok.position(self.file))

    def _new_expression(self, new_tok: Token) -> Union[NewInstance, NewArray]:
        tok = self._cur()
        if tok.kind == "kw" and tok.text in PRIMITIVE_TYPES:
            self._advance()
            type_name = tok.text
        else:
            parts = [self._ident()]
            if self._at("<"):
                self._skip_generics()
            while self._at(".") and self._peek().kind == "ident":
                self._advance()
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
        return NewInstance(type_name, arguments, new_tok.position(self.file),
                           anonymous)

    def _anonymous_body(self) -> Block:
        # method bodies of the anonymous class, hoisted into one block so
        # their statements attribute to the enclosing method
        open_tok = self._expect("{")
        statements: list[Statement] = []
        while not self._at("}"):
            if self._cur().kind == "eof":
                raise self._error("unterminated anonymous class body")
            if self._accept(";"):
                continue
            self._skip_modifiers()
            if self._at("{"):
                statements.append(self._block())
                continue
            if self._at("<") and not self._skip_generics():
                raise self._error("malformed type parameters")
            type_tok = self._cur()
            self._return_type()
            name_tok = self._cur()
            name = self._ident()
            if self._at("("):
                method = self._method_rest(name, name_tok.position(self.file), None)
                if method.body is not None:
                    statements.append(method.body)
            else:
                self._field_rest(type_tok)
        close_tok = self._expect("}")
        block = Block(statements, open_tok.position(self.file),
                      (open_tok.offset, close_tok.offset + 1))
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
