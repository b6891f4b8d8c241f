import gc
import importlib.util
import random
import sys
import threading
import time
from pathlib import Path
from typing import get_args

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _corpus import iter_statements, try_statements_in
from exflow.record import Record, fields
from exflow.syntax import ParseError, parse_compilation_unit
from exflow.syntax import ast
from exflow.syntax.ast import (
    Block, Cast, ExprStmt, FieldAccess, IfStmt, Invocation, Lambda,
    LocalDecl, LoopStmt, Name, NewInstance, OpaqueThrow, Operands, ThrowStmt,
    VariableRef, CONSTRUCTOR_NAME,
)
from exflow.syntax.lexer import tokenize
from exflow.syntax.parser import _Parser, _attach_comments


def parse(source: str):
    return parse_compilation_unit(source, "T.java")


def only_method(unit, type_index=0):
    return unit.types[type_index].methods[0]


def body_of(source_statements: str):
    unit = parse("class T { void m() { " + source_statements + " } }")
    return only_method(unit).body.statements


def test_package_imports_and_type():
    unit = parse(
        "package a.b;\n"
        "import java.io.IOException;\n"
        "import java.util.*;\n"
        "import static java.lang.Math.max;\n"
        "public class C {}\n")
    assert unit.package == "a.b"
    assert unit.imports == ["java.io.IOException", "java.util.*"]
    assert unit.types[0].name == "a.b.C"


def test_extends_implements_and_interface():
    # interfaces are parsed but not modeled: an interface's extends list
    # names no superclass
    unit = parse(
        "package p;\n"
        "interface I extends K, L { void f(); }\n"
        "class C extends Base implements I, J {}\n")
    iface, cls = unit.types
    assert iface.superclass is None
    assert iface.methods[0].body is None
    assert cls.superclass == "Base"


def test_method_signature_parameters_and_throws():
    unit = parse(
        "class C { int f(String a, int[] b) throws E1, E2 { return 0; } }")
    method = only_method(unit)
    assert method.name == "f"
    assert method.arity == 2
    assert [p.name for p in method.params] == ["a", "b"]
    assert method.declared_throws == ["E1", "E2"]


def test_constructor_uses_reserved_name():
    unit = parse("class C { C(int x) {} void m() {} }")
    ctor = unit.types[0].methods[0]
    assert ctor.name == CONSTRUCTOR_NAME
    assert ctor.arity == 1


def test_figure_shape_try_catch_throw():
    unit = parse(
        "package fig1;\n"
        "public class Example {\n"
        "  public void A() throws IOException {\n"
        "    try { B(); } catch (InvalidPathException e) {\n"
        "      e.printStackTrace();\n"
        "    }\n"
        "  }\n"
        "  public void B() throws IOException { C(); }\n"
        "  /** @throws IOException on failure */\n"
        "  public void C() throws IOException {\n"
        "    throw new IOException();\n"
        "  }\n"
        "}\n")
    methods = unit.types[0].methods
    assert [m.declared_throws for m in methods] == [["IOException"]] * 3
    tries = list(try_statements_in(methods[0].body.statements))
    assert len(tries) == 1
    assert tries[0].catches[0].caught_types == ["InvalidPathException"]
    assert tries[0].catches[0].variable == "e"
    throw = methods[2].body.statements[0]
    assert isinstance(throw, ThrowStmt)
    assert isinstance(throw.thrown, NewInstance)
    assert throw.thrown.type_name == "IOException"
    assert unit.types[0].methods[2].doc.throws_tags == [
        ("IOException", "on failure")]


def test_unqualified_call_parses_as_invocation():
    (stmt,) = body_of("helper(1, 2);")
    call = stmt.expression
    assert isinstance(call, Invocation)
    assert call.receiver is None
    assert call.name == "helper"
    assert call.arity == 2


def test_qualified_call_receiver_chain():
    (stmt,) = body_of("a.b.c(x);")
    call = stmt.expression
    assert isinstance(call, Invocation)
    assert call.name == "c"
    assert isinstance(call.receiver, FieldAccess)
    assert isinstance(call.receiver.target, Name)


def test_throw_variants():
    throw_new, throw_var, throw_opaque = body_of(
        "throw new E(); throw e; throw f();")
    assert isinstance(throw_new.thrown, NewInstance)
    assert isinstance(throw_var.thrown, VariableRef)
    assert throw_var.thrown.identifier == "e"
    assert isinstance(throw_opaque.thrown, OpaqueThrow)


def test_multi_catch_alternatives():
    (trystmt,) = body_of("try { f(); } catch (A | B e) {}")
    assert trystmt.catches[0].caught_types == ["A", "B"]


def test_try_with_resources_folds_into_body():
    (trystmt,) = body_of(
        "try (Reader r = open(); Writer w = create()) { use(r); }"
        " catch (E e) {}")
    statements = trystmt.body.statements
    assert isinstance(statements[0], LocalDecl)
    assert statements[0].declarations[0].name == "r"
    assert isinstance(statements[1], LocalDecl)
    assert isinstance(statements[2], ExprStmt)


def test_try_requires_catch_or_finally():
    with pytest.raises(ParseError):
        body_of("try { f(); }")


def test_finally_only_try():
    (trystmt,) = body_of("try { f(); } finally { g(); }")
    assert trystmt.catches == []
    assert trystmt.finally_block is not None


def test_switch_desugars_to_block_with_selector_and_cases():
    (block,) = body_of(
        "switch (x) { case 1: f(); break; default: g(); }")
    assert isinstance(block, Block)
    calls = [s.expression.name for s in block.statements
             if isinstance(s, ExprStmt) and isinstance(s.expression, Invocation)]
    assert calls == ["f", "g"]


def test_synchronized_desugars_to_block():
    (block,) = body_of("synchronized (lock) { f(); }")
    assert isinstance(block, Block)
    inner = [s for s in iter_statements([block])
             if isinstance(s, ExprStmt) and isinstance(s.expression, Invocation)]
    assert any(c.expression.name == "f" for c in inner)


def test_assert_desugars_to_block():
    (block,) = body_of("assert ready() : describe();")
    assert isinstance(block, Block)
    names = [s.expression.name for s in block.statements
             if isinstance(s, ExprStmt) and isinstance(s.expression, Invocation)]
    assert names == ["ready", "describe"]


def test_local_declaration_vs_expression_disambiguation():
    decl, expr = body_of("List<String> xs = make(); a * b;")
    assert isinstance(decl, LocalDecl)
    assert decl.declarations[0].name == "xs"
    assert isinstance(expr, ExprStmt)


def test_classic_and_foreach_loops():
    classic, foreach = body_of(
        "for (int i = 0; i < n(); i++) { f(i); }"
        " for (String s : items()) { g(s); }")
    assert isinstance(classic, LoopStmt)
    assert classic.init[0].declarations[0].name == "i"
    assert classic.condition.name == "n"
    assert classic.update == []
    assert isinstance(foreach.init[0], LocalDecl)
    assert foreach.condition is None
    assert isinstance(foreach.update[0], Invocation)


def test_if_else_and_while():
    (ifstmt,) = body_of("if (a) { f(); } else while (b) g();")
    assert isinstance(ifstmt, IfStmt)
    assert isinstance(ifstmt.else_branch, LoopStmt)


def test_labeled_statement_and_continue_break_labels():
    outer, = body_of(
        "outer: while (a) { if (b) continue outer; else break outer; }")
    assert isinstance(outer, LoopStmt)
    inner = [type(s).__name__ for s in iter_statements([outer])]
    assert inner.count("ContinueStmt") == inner.count("BreakStmt") == 1


def test_cast_vs_parenthesized_expression():
    cast_stmt, assign_stmt, call_stmt = body_of(
        "Object o = ((Foo) bar).baz(); x = (y).z(); f();")
    cast = cast_stmt.declarations[0].initializer.receiver
    assert isinstance(cast, Cast)
    assert cast.type_name == "Foo"
    assert assign_stmt.expression.receiver == Name("y")
    assert isinstance(call_stmt.expression, Invocation)


def test_lambda_forms():
    ident_lambda, paren_lambda = [
        s.declarations[0].initializer
        for s in body_of("F a = x -> f(x); F b = (u, v) -> { g(u); };")]
    assert isinstance(ident_lambda, Lambda)
    assert ident_lambda.parameters == ["x"]
    assert isinstance(paren_lambda, Lambda)
    assert isinstance(paren_lambda.body, Block)


def test_anonymous_class_body_is_kept():
    (stmt,) = body_of("run(new Runnable() { public void run() { f(); } });")
    new = stmt.expression.arguments[0]
    assert isinstance(new, NewInstance)
    assert new.anonymous_body is not None


def test_nested_types_get_qualified_names():
    unit = parse("package p; class Outer { class Inner { void m() {} } "
                 "void top() {} }")
    names = sorted(t.name for t in unit.types)
    assert names == ["p.Outer", "p.Outer.Inner"]
    outer = next(t for t in unit.types if t.name == "p.Outer")
    assert [m.name for m in outer.methods] == ["top"]


def test_duplicate_type_names_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse("class C {} class C {}")


def test_enum_is_rejected_clearly():
    with pytest.raises(ParseError):
        parse("enum E { A, B }")


def test_fields_are_tolerated():
    unit = parse("class C { private int x = 1; static final String S = \"s\"; "
                 "void m() {} }")
    assert [m.name for m in unit.types[0].methods] == ["m"]


def test_comment_attached_to_innermost_block():
    unit = parse(
        "class C { void m() { if (a) { // inside then\n g(); } } }")
    method = only_method(unit)
    ifstmt = method.body.statements[0]
    assert list(ifstmt.then_branch.comments) == ["// inside then"]
    assert not method.body.comments


def test_error_position_is_precise():
    with pytest.raises(ParseError) as info:
        parse("class C { void m() { f( } }")
    assert "T.java:" in str(info.value)


def test_generic_method_calls_and_types_survive():
    statements = body_of(
        "Map<String, List<Integer>> m = new HashMap<>();"
        " util.<String>singleton(x);")
    assert isinstance(statements[0], LocalDecl)
    assert isinstance(statements[1], ExprStmt)


def test_do_while_and_ternary_and_instanceof():
    statements = body_of(
        "do { f(); } while (x < limit());"
        " int r = a ? b : c();"
        " if (o instanceof String s) { use(s); }")
    assert isinstance(statements[0], LoopStmt)
    assert statements[0].condition.name == "limit"
    assert statements[1].declarations[0].initializer.name == "c"
    assert isinstance(statements[2], IfStmt)
    assert statements[2].condition is None


def test_array_operations():
    statements = body_of(
        "int[] xs = new int[10]; xs[0] = f(); int[] ys = {1, 2};")
    assert isinstance(statements[0], LocalDecl)
    assert isinstance(statements[1], ExprStmt)


def test_method_reference_postfix():
    (stmt,) = body_of("accept(Util::convert, make()::run);")
    assert stmt.expression.name == "accept"
    # nothing under a method reference is read, the call in it neither
    assert (stmt.expression.arguments, stmt.expression.arity) == ((), 2)


def test_position_of_try_statement():
    unit = parse("class C {\n  void m() {\n    try { f(); } catch (E e) {}\n"
                 "  }\n}\n")
    (trystmt,) = try_statements_in(only_method(unit).body.statements)
    assert trystmt.position.line == 3
    assert str(trystmt.position) == "T.java:3:5"


# ---------------------------------------------------------------------------
# expressions: minimal parentheses against full parentheses
# ---------------------------------------------------------------------------

# binary operators from the loosest level to the tightest, as in the Java
# grammar; `instanceof` shares the relational level
LEVELS = [["||"], ["&&"], ["|"], ["^"], ["&"], ["==", "!="],
          ["<", ">", "<=", ">=", "instanceof"], ["<<", ">>", ">>>"],
          ["+", "-"], ["*", "/", "%"]]
# binding strength: assignment 0, conditional 1, binary levels 2.., unary
# and leaves above them
ASSIGN, COND = 0, 1
BINDING = {op: level + 2 for level, ops in enumerate(LEVELS) for op in ops}
UNARY = len(LEVELS) + 2
ATOM = UNARY + 1

# An expression to render is a tuple: ("binary", op, left, right),
# ("unary", op, operand), ("instanceof", operand, type),
# ("conditional", condition, if_true, if_false), ("assign", op, target,
# value), or a leaf: ("name", identifier) or ("call", name).


def binding(expr):
    kind = expr[0]
    if kind == "binary":
        return BINDING[expr[1]]
    if kind == "instanceof":
        return BINDING["instanceof"]
    return {"unary": UNARY, "conditional": COND, "assign": ASSIGN}.get(
        kind, ATOM)


def render(expr, full):
    """Source for expr with only the parentheses the grammar needs, or
    (full) with every compound operand parenthesized."""
    def operand(child, needs_parens):
        text = render(child, full)
        if needs_parens or (full and binding(child) != ATOM):
            return f"({text})"
        return text

    here = binding(expr)
    kind = expr[0]
    if kind == "name":
        return expr[1]
    if kind == "call":
        return f"{expr[1]}()"
    if kind == "binary":
        _, op, left, right = expr
        return (f"{operand(left, binding(left) < here)} {op} "
                f"{operand(right, binding(right) <= here)}")
    if kind == "instanceof":
        # array types, so that a following `<` cannot read as type
        # arguments; the minimal form also binds a pattern variable
        pattern = "" if full else " v"
        return (f"{operand(expr[1], binding(expr[1]) < here)} "
                f"instanceof {expr[2]}{pattern}")
    if kind == "unary":
        return f"{expr[1]} {operand(expr[2], binding(expr[2]) < here)}"
    if kind == "conditional":
        _, condition, if_true, if_false = expr
        return (f"{operand(condition, binding(condition) <= COND)}"
                f" ? {operand(if_true, False)}"
                f" : {operand(if_false, False)}")
    _, op, target, value = expr
    return (f"{operand(target, binding(target) <= COND)} "
            f"{op} {operand(value, False)}")


def leaf_calls(expr):
    """The names of the calls among the leaves, left to right."""
    if expr[0] == "call":
        return [expr[1]]
    if expr[0] == "name":
        return []
    return [name for child in expr[1:] if isinstance(child, tuple)
            for name in leaf_calls(child)]


BINARY_OPS = [op for ops in LEVELS for op in ops if op != "instanceof"]
EXPRESSIONS = st.recursive(
    st.one_of(st.sampled_from("abcde").map(lambda name: ("name", name)),
              st.sampled_from(["f", "g", "h"]).map(lambda name: ("call", name))),
    lambda children: st.one_of(
        st.tuples(st.just("binary"), st.sampled_from(BINARY_OPS), children,
                  children),
        st.tuples(st.just("unary"),
                  st.sampled_from(["+", "-", "!", "~", "++", "--"]), children),
        st.tuples(st.just("instanceof"), children,
                  st.sampled_from(["T[]", "int[][]", "p.Q[]"])),
        st.tuples(st.just("conditional"), children, children, children),
        st.tuples(st.just("assign"), st.sampled_from(["=", "+=", ">>>=", "^="]),
                  children, children)),
    max_leaves=12)


def parse_returned(text):
    (stmt,) = body_of(f"return {text};")
    return stmt.value


def calls_in(expr):
    """The names of the calls the lowering reaches, in its order."""
    if expr is None:
        return []
    if isinstance(expr, Invocation):
        return [expr.name]
    assert isinstance(expr, Operands) and expr.parts, expr
    return [call.name for call in expr.parts]


@settings(max_examples=400, deadline=None)
@given(EXPRESSIONS)
def test_minimal_and_full_parentheses_parse_alike(expr):
    # both renderings parse to the end of the expression, and keep every
    # call at a leaf, in order, and nothing else
    minimal = render(expr, full=False)
    assert calls_in(parse_returned(minimal)) == leaf_calls(expr), minimal
    full = render(expr, full=True)
    assert calls_in(parse_returned(full)) == leaf_calls(expr), full


def test_instanceof_leaves_tighter_operators_unbound():
    # after `instanceof`, only operators of the relational level or looser
    # ones may follow; a tighter one is left over
    assert calls_in(parse_returned("f() instanceof T < g() == h()")) == [
        "f", "g", "h"]
    assert parse_returned("a instanceof T < b == c") is None
    with pytest.raises(ParseError, match="expected ';', found '\\+'"):
        parse_returned("a == b instanceof T + c")
    with pytest.raises(ParseError, match="expected ';', found '\\+'"):
        parse_returned("f() == g() instanceof T + h()")


# ---------------------------------------------------------------------------
# comment attachment against the one-block-at-a-time reference
# ---------------------------------------------------------------------------

def reference_attach_comments(lexed, blocks):
    """Quadratic reference: for each comment, scan every block."""
    for start, end in lexed.comment_spans:
        innermost = None
        for block in blocks:
            if block.span[0] < start and end <= block.span[1]:
                if innermost is None or block.span[0] > innermost.span[0]:
                    innermost = block
        if innermost is not None:
            innermost.comments = [*innermost.comments, lexed.source[start:end]]


def attachment(source, attach):
    lexed = tokenize(source, "T.java")
    parser = _Parser(lexed)
    parser.parse_unit()
    attach(lexed, parser.blocks)
    return [(block.span, list(block.comments)) for block in parser.blocks]


def random_statements(rng, depth):
    def comment():
        return rng.choice(["", "", "// c\n", "/* c */", "/** d */"])

    def body():
        return random_statements(rng, depth + 1)

    parts = [comment()]
    for _ in range(rng.randint(0, 3)):
        kinds = ["call", "block", "if", "lambda", "anonymous", "switch"]
        kind = rng.choice(kinds if depth < 3 else ["call"])
        if kind == "call":
            parts.append("f();")
        elif kind == "block":
            parts.append("{" + body() + "}")
        elif kind == "if":
            parts.append("if (a) {" + body() + "} else {" + body() + "}")
        elif kind == "lambda":
            parts.append("run(() -> {" + body() + "});")
        elif kind == "anonymous":
            parts.append("run(new Runnable() { public void run() {"
                         + body() + "} });")
        else:
            parts.append("switch (a) { case 1: " + body()
                         + " default: {" + body() + "} }")
        parts.append(comment())
    return rng.choice(["", " ", "\n"]).join(parts)


EDGE_CASES = [
    # nested blocks, siblings, and comments right inside and outside braces
    "class C { // type\n void m() {/* first */ if (a) {// then\n f(); }"
    "/* between */{ g(); /* last */}/* after */ } /* after m */ }",
    "class C { void m() { run(() -> { /* lambda */ f(); }); } }",
    "class C { void m() { run(new Runnable() { /* anon */ public void run()"
    " { /* run */ } }); } }",
    "class C { void m() { switch (a) { /* selector */ case 1: /* one */ f();"
    " default: { /* block */ } } } }",
    "/* before */ class C { void m() {} void n() { /* n */ } } // tail",
]


@pytest.mark.parametrize("source", EDGE_CASES, ids=[
    "nested-and-siblings", "lambda", "anonymous-class", "switch",
    "outside-every-block"])
def test_comment_attachment_matches_reference_on_edges(source):
    swept = attachment(source, _attach_comments)
    assert swept == attachment(source, reference_attach_comments)
    assert any(comments for _span, comments in swept)


def test_comment_attachment_matches_reference_on_random_nesting():
    attached = 0
    for seed in range(200):
        rng = random.Random(seed)
        source = ("class C { void m() {" + random_statements(rng, 0)
                  + "} /* between */ void n() {" + random_statements(rng, 0)
                  + "} }")
        swept = attachment(source, _attach_comments)
        assert swept == attachment(source, reference_attach_comments), source
        attached += sum(len(comments) for _span, comments in swept)
    assert attached > 500


def test_comment_attachment_matches_reference_on_arbitrary_spans():
    # the sweep relies only on the comments coming in order, so any block
    # spans, even overlapping or equal ones, attach as the reference does
    source = "a /* 1 */ b // 2\n c /** 3 */ d /* 4 */"
    lexed = tokenize(source, "T.java")
    offsets = sorted({o + d for span in lexed.comment_spans for o in span
                      for d in (-1, 0, 1)})
    rng = random.Random(0)
    for _ in range(500):
        spans = [tuple(sorted(rng.sample(offsets, 2)))
                 for _ in range(rng.randint(1, 6))]
        spans += rng.sample(spans, rng.randint(0, len(spans)))
        swept = [Block([], span) for span in spans]
        reference = [Block([], span) for span in spans]
        _attach_comments(lexed, swept)
        reference_attach_comments(lexed, reference)
        assert ([list(b.comments) for b in swept]
                == [list(b.comments) for b in reference]), spans


def big_class(methods):
    return "class Big {\n" + "".join(
        f"  int m{i}(int x) {{ // m{i}\n"
        f"    if (x > {i}) {{ x--; }} /* e */ return x; }}\n"
        for i in range(methods)) + "}\n"


def best_parse_seconds(source, repeats=3):
    # timed with the cyclic collector paused, as the command runs, so that
    # collections over a growing heap do not count as parse time
    collecting = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            unit = parse_compilation_unit(source, "Big.java")
            best = min(best, time.perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    assert len(unit.types[0].methods[-1].body.comments) == 2
    return best


def test_parse_time_grows_linearly_with_file_size():
    # a linear parse takes about 4 times as long for 4 times the methods;
    # comment attachment that scans every block per comment takes about 19
    small = best_parse_seconds(big_class(1000))
    large = best_parse_seconds(big_class(4000))
    assert large <= 8 * small, (small, large)


# -- nesting depth under the default recursion limit -----------------------

NESTINGS = {
    "parentheses": lambda depth: (
        "class D { int f() { return " + "(" * depth + "1" + ")" * depth
        + "; } }"),
    "if": lambda depth: (
        "class D { void f() { " + "if (a) { " * depth + "}" * depth + " } }"),
    "lambda": lambda depth: (
        "class D { void f() { " + "Runnable r = () -> { " * depth
        + "};" * depth + " } }"),
    "block": lambda depth: (
        "class D { void f() { " + "{ " * depth + "}" * depth + " } }"),
}

# the deepest of each nesting that the parser took when it read Token
# tuples, measured by deepest_nesting on Python 3.11; moving the token
# plumbing must not send shallower files to "nesting too deep"
NESTING_FLOORS = {"parentheses": 196, "if": 196, "lambda": 140, "block": 492}


def deepest_nesting():
    """The deepest of each nesting that parses, each parse made as a
    top-level parse is: at the bottom of a fresh thread's stack, under the
    default recursion limit."""
    def parses(source):
        try:
            parse(source)
        except RecursionError:
            return False
        return True

    def measure():
        for kind, nest in NESTINGS.items():
            low, high = 1, 2000
            while low < high:
                middle = (low + high + 1) // 2
                if parses(nest(middle)):
                    low = middle
                else:
                    high = middle - 1
            depths[kind] = low

    depths: dict[str, int] = {}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        thread = threading.Thread(target=measure)
        thread.start()
        thread.join()
    finally:
        sys.setrecursionlimit(limit)
    return depths


def test_nesting_is_parsed_as_deep_as_with_token_tuples():
    depths = deepest_nesting()
    assert all(depths[kind] >= floor
               for kind, floor in NESTING_FLOORS.items()), depths


# -- lookahead decisions: each choice is made once, before consuming -------

def shape(node):
    """A node as nested tuples (class name, then field values), leaving out
    positions, spans, comments and the fields that equality ignores; a
    list or tuple of nodes as a list."""
    if isinstance(node, (list, tuple)):
        return [shape(item) for item in node]
    if isinstance(node, Record):
        return (type(node).__name__,) + tuple(
            shape(getattr(node, name)) for name in fields(node)
            if name not in ("position", "span", "comments"))
    return node


def call(name, *arguments, receiver=None, arity=None):
    """The shape of a call whose arguments are all read."""
    return ("Invocation", receiver, name, list(arguments),
            len(arguments) if arity is None else arity)


A, X, Y = (("Name", n) for n in "axy")
NOTHING = ("Operands", [])
EMPTY = ("Block", [])

# one case per lookahead site: the statement and the tree it must give, or
# the message of the ParseError it must raise. The parser keeps only calls,
# `new`, lambdas and receivers, so a case whose decision would leave no
# trace in the tree has a twin below it that holds calls, where the
# decision shows in a receiver or in the calls kept
DECISIONS = {
    # declaration or expression statement: `[` after the name counts only
    # as `[]`
    "a<b> c[0] = 1;": ("ExprStmt", None),
    "a<b> c[f()] = g();": ("ExprStmt", ("Operands", [call("f"), call("g")])),
    "int[] a = {1};": ("LocalDecl", [("LocalVar", "a", "int[]", None)]),
    "int[] a = {f(), 1, g()};": ("LocalDecl", [
        ("LocalVar", "a", "int[]", ("Operands", [call("f"), call("g")]))]),
    "final T x;": ("LocalDecl", [("LocalVar", "x", "T", None)]),
    # foreach or classic for
    "for (final Map.Entry<K, V> e : m) ;": (
        "LoopStmt", [("LocalDecl", [("LocalVar", "e", "Map.Entry", None)])],
        None, [], EMPTY),
    "for (final Map.Entry<K, V> e : m()) ;": (
        "LoopStmt", [("LocalDecl", [("LocalVar", "e", "Map.Entry", None)])],
        None, [call("m")], EMPTY),
    "for (int i = 0; i < n; i++) ;": (
        "LoopStmt", [("LocalDecl", [("LocalVar", "i", "int", None)])],
        None, [], EMPTY),
    "for (int i = f(); i < n(); g(i++)) ;": (
        "LoopStmt", [("LocalDecl", [("LocalVar", "i", "int", call("f"))])],
        call("n"), [call("g", arity=1)], EMPTY),
    "for (x = 1, y = 1; ; ) ;": (
        "LoopStmt", [("ExprStmt", None), ("ExprStmt", None)], None, [], EMPTY),
    # a resource that declares, and one that names a variable
    "try (Foo r = open()) { }": ("TryStmt", ("Block", [("LocalDecl", [
        ("LocalVar", "r", "Foo", call("open"))])]), [], None),
    "try (r) { }": ("TryStmt", ("Block", [("ExprStmt", None)]), [], None),
    # typed and bare lambda parameters
    "x = (int a, b) -> a;": ("ExprStmt", None),
    "x = (int a, b) -> a.f(b);": ("ExprStmt", (
        "Lambda", ["a", "b"], call("f", receiver=A, arity=1))),
    # cast or parenthesized expression
    "x = (Foo) y;": ("ExprStmt", None),
    "((Foo) y).f();": ("ExprStmt", call("f", receiver=("Cast", "Foo", Y))),
    "x = (foo) y;": "expected ';', found 'y'",
    "x = (foo) + y;": ("ExprStmt", None),
    "((foo) + y).f();": ("ExprStmt", call("f", receiver=NOTHING)),
    "x = (int) -y;": ("ExprStmt", None),
    "((int) -y).f();": ("ExprStmt", call(
        "f", receiver=("Cast", "int", NOTHING))),
    "x = (Foo) -y;": ("ExprStmt", None),
    "((Foo) -y).f();": ("ExprStmt", call("f", receiver=NOTHING)),
    # once taken, a cast is final: its operand is not reread as `int++`
    "x = (int) ++;": "expected expression, found ';'",
    # a cast's operand, and only there among unary operands, may be a lambda
    "x = (Runnable) () -> f();": ("ExprStmt", ("Lambda", [], call("f"))),
    "((Runnable) () -> f()).run();": ("ExprStmt", call("run", receiver=(
        "Cast", "Runnable", ("Lambda", [], call("f"))))),
    "x = (F) a -> a;": ("ExprStmt", None),
    "((F) a -> a.g()).h();": ("ExprStmt", call("h", receiver=(
        "Cast", "F", ("Lambda", ["a"], call("g", receiver=A))))),
    "h(a + () -> 1);": "expected expression, found '\\)'",
    # an arrow case label is an expression, not a lambda's parameters
    "switch (k) { case A -> f(); default -> g(); }": ("Block", [
        ("ExprStmt", None), ("ExprStmt", call("f")), ("ExprStmt", call("g"))]),
    "switch (k) { case A, B -> f(); }": ("Block", [
        ("ExprStmt", None), ("ExprStmt", call("f"))]),
    "switch (k) { case (1) -> f(); }": ("Block", [
        ("ExprStmt", None), ("ExprStmt", call("f"))]),
}


@pytest.mark.parametrize("statement", list(DECISIONS))
def test_lookahead_decisions(statement):
    expected = DECISIONS[statement]
    if isinstance(expected, str):
        with pytest.raises(ParseError, match=expected):
            body_of(statement)
    else:
        assert shape(body_of(statement)[0]) == expected


def nested_declarations(depth, resource=False):
    """A method whose innermost statement, `x +;`, is malformed and sits
    depth lambdas deep, each lambda in the initializer of a declaration or
    of a try resource."""
    inner = "x +;"
    for i in range(depth):
        if resource:
            inner = f"try (Map<K, V> r{i} = open(() -> {{ {inner} }})) {{ }}"
        else:
            inner = f"List<String> a = f(() -> {{ {inner} }});"
    return "class N { void m() { " + inner + " } }"


JAVA_FILES = sorted(Path(__file__).parent.glob("**/*.java"))


@pytest.mark.parametrize("source", [
    *(path.read_text() for path in JAVA_FILES),
    nested_declarations(10),
    nested_declarations(10, resource=True),
], ids=[*(path.name for path in JAVA_FILES), "nested-10", "resources-10"])
def test_no_expression_is_parsed_twice(monkeypatch, source):
    # nor is a lambda looked for twice at one position: at a `(`, that
    # scans ahead to the matching `)`
    starts = []
    lambdas = []
    expression = _Parser._expression
    maybe_lambda = _Parser._maybe_lambda

    def entered(self):
        starts.append(self.pos)
        return expression(self)

    def looked(self):
        lambdas.append(self.pos)
        return maybe_lambda(self)

    monkeypatch.setattr(_Parser, "_expression", entered)
    monkeypatch.setattr(_Parser, "_maybe_lambda", looked)
    try:
        parse(source)
    except ParseError:
        pass  # the nested sources are malformed on purpose
    assert starts and len(starts) == len(set(starts))
    assert lambdas and len(lambdas) == len(set(lambdas))


@pytest.mark.parametrize("resource", [False, True],
                         ids=["declarations", "resources"])
def test_deeply_nested_malformed_declaration_fails_fast(resource):
    source = nested_declarations(20, resource)
    start = time.perf_counter()
    with pytest.raises(ParseError) as info:
        parse(source)
    assert time.perf_counter() - start < 1.0
    fault = source.index("x +;") + 3
    assert info.value.position.column == fault + 1
    assert info.value.message == "expected expression, found ';'"


@pytest.mark.parametrize("statement", [
    "int x = 1 +;",
    "for (String s : names) { x +; }",
    "try (Map<K, V> r = open(x +)) { }",
], ids=["declaration-initializer", "foreach-body", "resource"])
def test_error_points_at_the_fault(statement):
    # the fault is the token after the dangling `+`
    with pytest.raises(ParseError) as info:
        body_of(statement)
    fault = statement.index("+") + 1
    assert info.value.position.column == len("class T { void m() { ") + fault + 1
    assert info.value.message == f"expected expression, found {statement[fault]!r}"


# -- what the tree keeps of an expression ------------------------------------

# the fields whose expression is a receiver or sits under one: these keep
# their shape, whatever they hold
SHAPE_FIELDS = {("Invocation", "receiver"), ("FieldAccess", "target"),
                ("Cast", "operand")}
EXPRESSIONS_CLASSES = get_args(ast.Expr)


def reads_something(expr):
    """Whether a call, a `new` or a lambda with a block body is under expr."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, (Invocation, NewInstance)):
            return True
        if isinstance(node, Lambda) and isinstance(node.body, Block):
            return True
        for name in fields(node):
            value = getattr(node, name)
            values = value if isinstance(value, (list, tuple)) else [value]
            stack.extend(v for v in values
                         if isinstance(v, EXPRESSIONS_CLASSES))
    return False


def call_free_operands(node, in_throw=False):
    """Each expression in the tree under node that sits in an operand,
    argument, initializer or statement and reads nothing, outside a throw,
    as (class of its holder, field)."""
    found = []
    if isinstance(node, ast.ThrowStmt):
        in_throw = True
    elif isinstance(node, Block):
        in_throw = False
    for name in fields(node):
        value = getattr(node, name)
        values = value if isinstance(value, (list, tuple)) else [value]
        for item in values:
            if not isinstance(item, Record):
                continue
            if (isinstance(item, EXPRESSIONS_CLASSES) and not in_throw
                    and (type(node).__name__, name) not in SHAPE_FIELDS
                    and not reads_something(item)):
                found.append((type(node).__name__, name))
            found.extend(call_free_operands(item, in_throw))
    return found


def benchmark_corpus_sources():
    """The sources of the benchmark's corpus workload at seed 1."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        return list(module.corpus(1).files.values())
    finally:
        del sys.modules[spec.name]


def test_no_call_free_operand_remains_outside_a_throw():
    sources = [path.read_text() for path in JAVA_FILES]
    sources += benchmark_corpus_sources()
    calls = 0
    for source in sources:
        unit = parse(source)
        assert call_free_operands(unit) == []
        calls += sum(isinstance(node, Invocation) for node in walk_all(unit))
    assert calls > 1000


def walk_all(node):
    yield node
    for name in fields(node):
        value = getattr(node, name)
        for item in value if isinstance(value, (list, tuple)) else [value]:
            if isinstance(item, Record):
                yield from walk_all(item)
