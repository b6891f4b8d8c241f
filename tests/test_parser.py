import gc
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exflow.syntax import ParseError, parse_compilation_unit
from exflow.syntax.ast import (
    Assignment, Binary, Block, Cast, Conditional, ExprStmt, FieldAccess,
    IfStmt, InstanceOf, Invocation, Lambda, LocalDecl, LoopStmt, Name,
    NewInstance, OpaqueThrow, ReturnStmt, ThrowStmt, TryStmt, Unary,
    VariableRef, CONSTRUCTOR_NAME,
)
from exflow.syntax.lexer import tokenize
from exflow.syntax.parser import _Parser, _attach_comments
from exflow.syntax.walk import iter_statements, try_statements_in


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
    assert unit.types[0].kind == "class"


def test_extends_implements_and_interface():
    unit = parse(
        "package p;\n"
        "interface I { void f(); }\n"
        "class C extends Base implements I, J {}\n")
    iface, cls = unit.types
    assert iface.kind == "interface"
    assert iface.methods[0].body is None
    assert cls.superclass == "Base"
    assert cls.interfaces == ["I", "J"]


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
        "for (int i = 0; i < n; i++) { f(i); }"
        " for (String s : items()) { g(s); }")
    assert isinstance(classic, LoopStmt)
    assert classic.kind == "for"
    assert foreach.kind == "foreach"
    assert isinstance(foreach.init[0], LocalDecl)
    assert isinstance(foreach.update[0], Invocation)


def test_if_else_and_while():
    (ifstmt,) = body_of("if (a) { f(); } else while (b) g();")
    assert isinstance(ifstmt, IfStmt)
    assert isinstance(ifstmt.else_branch, LoopStmt)


def test_labeled_statement_and_continue_break_labels():
    outer, = body_of(
        "outer: while (a) { if (b) continue outer; else break outer; }")
    assert isinstance(outer, LoopStmt)
    inner = list(iter_statements([outer]))
    continues = [s for s in inner if s.__class__.__name__ == "ContinueStmt"]
    assert continues[0].label == "outer"


def test_cast_vs_parenthesized_expression():
    cast_stmt, assign_stmt, call_stmt = body_of(
        "Object o = (Foo) bar; x = (y); f();")
    cast = cast_stmt.declarations[0].initializer
    assert isinstance(cast, Cast)
    assert cast.type_name == "Foo"
    assert not isinstance(assign_stmt.expression.value, Cast)
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
    then_comments = [c.text for c in ifstmt.then_branch.comments]
    assert then_comments == ["// inside then"]
    assert method.body.comments == []


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
        "do { f(); } while (x < 10);"
        " int r = a ? b : c;"
        " if (o instanceof String s) { use(s); }")
    assert statements[0].kind == "do"
    assert isinstance(statements[2], IfStmt)


def test_array_operations():
    statements = body_of(
        "int[] xs = new int[10]; xs[0] = f(); int[] ys = {1, 2};")
    assert isinstance(statements[0], LocalDecl)
    assert isinstance(statements[1], ExprStmt)


def test_method_reference_postfix():
    (stmt,) = body_of("accept(Util::convert);")
    assert stmt.expression.name == "accept"


def test_position_of_try_statement():
    unit = parse("class C {\n  void m() {\n    try { f(); } catch (E e) {}\n"
                 "  }\n}\n")
    (trystmt,) = try_statements_in(only_method(unit).body.statements)
    assert trystmt.position.line == 3
    assert trystmt.id == "T.java:3:5"


# ---------------------------------------------------------------------------
# expressions: minimal parentheses against full parentheses
# ---------------------------------------------------------------------------

# binary operators from the loosest level to the tightest, as in the Java
# grammar; `instanceof` shares the relational level
LEVELS = [["||"], ["&&"], ["|"], ["^"], ["&"], ["==", "!="],
          ["<", ">", "<=", ">=", "instanceof"], ["<<", ">>", ">>>"],
          ["+", "-"], ["*", "/", "%"]]
# binding strength: assignment 0, conditional 1, binary levels 2.., unary
# and names above them
ASSIGN, COND = 0, 1
BINDING = {op: level + 2 for level, ops in enumerate(LEVELS) for op in ops}
UNARY = len(LEVELS) + 2
ATOM = UNARY + 1


def binding(expr):
    if isinstance(expr, Binary):
        return BINDING[expr.op]
    if isinstance(expr, InstanceOf):
        return BINDING["instanceof"]
    if isinstance(expr, Unary):
        return UNARY
    if isinstance(expr, Conditional):
        return COND
    if isinstance(expr, Assignment):
        return ASSIGN
    return ATOM


def render(expr, full):
    """Source for expr with only the parentheses the grammar needs, or
    (full) with every compound operand parenthesized."""
    def operand(child, needs_parens):
        text = render(child, full)
        if needs_parens or (full and binding(child) != ATOM):
            return f"({text})"
        return text

    here = binding(expr)
    if isinstance(expr, Name):
        return expr.identifier
    if isinstance(expr, Binary):
        return (f"{operand(expr.left, binding(expr.left) < here)} {expr.op} "
                f"{operand(expr.right, binding(expr.right) <= here)}")
    if isinstance(expr, InstanceOf):
        # array types, so that a following `<` cannot read as type
        # arguments; the minimal form also binds a pattern variable
        pattern = "" if full else " v"
        return (f"{operand(expr.operand, binding(expr.operand) < here)} "
                f"instanceof {expr.type_name}{pattern}")
    if isinstance(expr, Unary):
        return (f"{expr.op} "
                f"{operand(expr.operand, binding(expr.operand) < here)}")
    if isinstance(expr, Conditional):
        return (f"{operand(expr.condition, binding(expr.condition) <= COND)}"
                f" ? {operand(expr.if_true, False)}"
                f" : {operand(expr.if_false, False)}")
    return (f"{operand(expr.target, binding(expr.target) <= COND)} "
            f"{expr.op} {operand(expr.value, False)}")


BINARY_OPS = [op for ops in LEVELS for op in ops if op != "instanceof"]
EXPRESSIONS = st.recursive(
    st.sampled_from("abcde").map(Name),
    lambda children: st.one_of(
        st.builds(Binary, st.sampled_from(BINARY_OPS), children, children),
        st.builds(Unary, st.sampled_from(["+", "-", "!", "~", "++", "--"]),
                  children),
        st.builds(InstanceOf, children,
                  st.sampled_from(["T[]", "int[][]", "p.Q[]"])),
        st.builds(Conditional, children, children, children),
        st.builds(Assignment, st.sampled_from(["=", "+=", ">>>=", "^="]),
                  children, children)),
    max_leaves=12)


def parse_returned(text):
    (stmt,) = body_of(f"return {text};")
    return stmt.value


@settings(max_examples=400, deadline=None)
@given(EXPRESSIONS)
def test_minimal_and_full_parentheses_parse_alike(expr):
    minimal = render(expr, full=False)
    assert parse_returned(minimal) == expr, minimal
    full = render(expr, full=True)
    assert parse_returned(full) == expr, full


def test_instanceof_leaves_tighter_operators_unbound():
    # after `instanceof`, only operators of the relational level or looser
    # ones may follow; a tighter one is left over
    assert parse_returned("a instanceof T < b == c") == Binary(
        "==", Binary("<", InstanceOf(Name("a"), "T"), Name("b")), Name("c"))
    with pytest.raises(ParseError, match="expected ';', found '\\+'"):
        parse_returned("a == b instanceof T + c")


# ---------------------------------------------------------------------------
# comment attachment against the one-block-at-a-time reference
# ---------------------------------------------------------------------------

def reference_attach_comments(lexed, blocks):
    """Quadratic reference: for each comment, scan every block."""
    for comment, (start, end) in zip(lexed.comments, lexed.comment_spans):
        innermost = None
        for block in blocks:
            if block.span[0] < start and end <= block.span[1]:
                if innermost is None or block.span[0] > innermost.span[0]:
                    innermost = block
        if innermost is not None:
            innermost.comments.append(comment)


def attachment(source, attach):
    lexed = tokenize(source, "T.java")
    parser = _Parser(lexed)
    parser.parse_unit()
    attach(lexed, parser.blocks)
    return [(block.span, [(c.text, str(c.position)) for c in block.comments])
            for block in parser.blocks]


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
    position = lexed.tokens[0].position("T.java")
    offsets = sorted({o + d for span in lexed.comment_spans for o in span
                      for d in (-1, 0, 1)})
    rng = random.Random(0)
    for _ in range(500):
        spans = [tuple(sorted(rng.sample(offsets, 2)))
                 for _ in range(rng.randint(1, 6))]
        spans += rng.sample(spans, rng.randint(0, len(spans)))
        swept = [Block([], position, span) for span in spans]
        reference = [Block([], position, span) for span in spans]
        _attach_comments(lexed, swept)
        reference_attach_comments(lexed, reference)
        assert ([b.comments for b in swept]
                == [b.comments for b in reference]), spans


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
