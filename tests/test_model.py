"""Platform-model loading and semantic-model construction."""

import json
import shutil
from collections import Counter

import pytest

from exflow.model import (
    ModelError,
    SemanticModel,
    PlatformModelError,
    Recoverability,
    Unresolved,
    build_semantic_model,
    load_platform_model,
    merge_platform_models,
    parse_platform_document,
    parse_signature,
    validate_platform_closure,
)
from _corpus import (
    generate_corpus, iter_expressions, iter_statements, platform_document,
    render_app, render_exceptions, try_statements_in,
)
from exflow.driver import analyze_project
from exflow import flow
from exflow.flow import method_summary, try_blocks
from exflow.syntax import parse_compilation_unit
from exflow.syntax.ast import Invocation, NewInstance
from exflow.syntax.walk import statement_expressions


def base_types():
    return [
        {"name": "java.lang.Throwable", "superclass": None, "kind": "checked"},
        {"name": "java.lang.Exception",
         "superclass": "java.lang.Throwable", "kind": "checked"},
        {"name": "java.lang.RuntimeException",
         "superclass": "java.lang.Exception", "kind": "unchecked"},
        {"name": "java.lang.Error",
         "superclass": "java.lang.Throwable", "kind": "error"},
        {"name": "java.io.IOException",
         "superclass": "java.lang.Exception", "kind": "checked"},
    ]


def platform(extra_types=(), methods=()):
    doc = {"types": base_types() + list(extra_types),
           "methods": list(methods)}
    return parse_platform_document(doc, "test")


def model_from(sources, platform_model):
    units = [parse_compilation_unit(src, f"U{i}.java")
             for i, src in enumerate(sources)]
    return build_semantic_model(units, platform_model)


def model_and_units(sources, platform_model):
    units = [parse_compilation_unit(src, f"U{i}.java")
             for i, src in enumerate(sources)]
    return build_semantic_model(units, platform_model), units


def calls_in(body):
    out = []
    for stmt in iter_statements(body.statements):
        for expr in statement_expressions(stmt):
            for node in iter_expressions(expr):
                if isinstance(node, (Invocation, NewInstance)):
                    out.append(node)
    return out


def lowered_calls(model, mid):
    """The method's calls once its body is lowered, which stores the
    resolved callee on each call. The body is taken first: the lowering
    lets it go."""
    method = model.method_table[mid]
    body = method.decl.body
    method_summary(model, method)
    return calls_in(body)


# -- signatures and document schema -----------------------------------------

def test_parse_signature():
    assert parse_signature("java.nio.file.Paths#getPath(1)") == (
        "java.nio.file.Paths", "getPath", 1)
    assert parse_signature("A#<init>(0)") == ("A", "<init>", 0)


@pytest.mark.parametrize("bad", [
    "NoHash(1)", "A#b", "A#b()", "A#b(x)", "#b(1)", "A#b(1) ", "A##b(1)",
])
def test_malformed_signatures_rejected(bad):
    with pytest.raises(PlatformModelError):
        parse_signature(bad)


def test_document_must_be_object():
    with pytest.raises(PlatformModelError, match=r"\$: expected an object"):
        parse_platform_document([], "test")


def test_unknown_top_level_key():
    with pytest.raises(PlatformModelError, match=r"unknown keys \['extra'\]"):
        parse_platform_document(
            {"types": [], "methods": [], "extra": 1}, "test")


def test_missing_sections():
    with pytest.raises(PlatformModelError, match=r"\$\.methods: missing"):
        parse_platform_document({"types": []}, "test")


@pytest.mark.parametrize("entry,fragment", [
    ({"superclass": None, "kind": "checked"}, r"\.name"),
    ({"name": "A", "superclass": 3, "kind": "checked"}, r"\.superclass"),
    ({"name": "A", "superclass": None, "kind": "fatal"}, r"\.kind"),
    ({"name": "A", "superclass": None, "kind": "checked",
      "recoverable": "yes"}, r"\.recoverable"),
    ({"name": "A", "superclass": None, "kind": "checked", "color": 1},
     "unknown keys"),
])
def test_bad_type_entries(entry, fragment):
    with pytest.raises(PlatformModelError, match=fragment):
        parse_platform_document({"types": [entry], "methods": []}, "test")


def test_duplicate_type_rejected():
    entry = {"name": "A", "superclass": None, "kind": "checked"}
    with pytest.raises(PlatformModelError, match="duplicate type A"):
        parse_platform_document({"types": [entry, entry], "methods": []}, "test")


def test_bad_method_entries():
    with pytest.raises(PlatformModelError, match=r"\.signature"):
        parse_platform_document(
            {"types": [], "methods": [{"signature": "oops", "throws": []}]},
            "test")
    with pytest.raises(PlatformModelError, match=r"\.throws"):
        parse_platform_document(
            {"types": [], "methods": [{"signature": "A#b(0)", "throws": [1]}]},
            "test")
    with pytest.raises(PlatformModelError, match="duplicate signature"):
        parse_platform_document(
            {"types": [],
             "methods": [{"signature": "A#b(0)", "throws": []},
                         {"signature": "A#b(0)", "throws": []}]},
            "test")


def test_error_messages_carry_json_paths():
    with pytest.raises(PlatformModelError, match=r"\$\.types\[1\]"):
        parse_platform_document(
            {"types": [{"name": "A", "superclass": None, "kind": "checked"},
                       "nope"],
             "methods": []},
            "test")


# -- file loading and merging ----------------------------------------------

def test_load_from_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"types": base_types(), "methods": []}))
    loaded = load_platform_model(path)
    assert "java.io.IOException" in loaded.types
    assert loaded.types["java.lang.RuntimeException"].kind == "unchecked"


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "p.json"
    path.write_text("{not json")
    with pytest.raises(PlatformModelError, match="invalid JSON"):
        load_platform_model(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(PlatformModelError, match="cannot read"):
        load_platform_model(tmp_path / "absent.json")


def test_require_closed_controls_validation(tmp_path):
    fragment = {"types": [{"name": "a.Sub", "superclass": "a.Base",
                           "kind": "checked"}],
                "methods": []}
    path = tmp_path / "frag.json"
    path.write_text(json.dumps(fragment))
    with pytest.raises(PlatformModelError, match="undeclared superclass"):
        load_platform_model(path)
    loaded = load_platform_model(path, require_closed=False)
    assert "a.Sub" in loaded.types


def test_merge_disjoint_and_identical():
    first = platform()
    second = parse_platform_document(
        {"types": base_types(),
         "methods": [{"signature": "A#b(0)", "throws": []}]},
        "test2")
    merged = merge_platform_models([first, second])
    assert ("A", "b", 0) in merged.methods
    assert len(merged.types) == len(base_types())


def test_merge_conflicting_type():
    first = platform()
    doc = {"types": base_types(), "methods": []}
    doc["types"][-1] = dict(doc["types"][-1], kind="unchecked")
    second = parse_platform_document(doc, "test2")
    with pytest.raises(PlatformModelError, match="conflicting declarations"):
        merge_platform_models([first, second])


def test_merge_conflicting_method():
    def with_throws(throws):
        return parse_platform_document(
            {"types": base_types(),
             "methods": [{"signature": "A#b(0)", "throws": throws}]},
            "test")
    with pytest.raises(PlatformModelError, match="A#b\\(0\\)"):
        merge_platform_models(
            [with_throws(["java.io.IOException"]), with_throws([])])


def test_closure_requires_single_root():
    doc = {"types": [
        {"name": "A", "superclass": None, "kind": "checked"},
        {"name": "B", "superclass": None, "kind": "checked"},
    ], "methods": []}
    with pytest.raises(PlatformModelError, match="exactly one root"):
        validate_platform_closure(parse_platform_document(doc, "t"))


def test_closure_checks_documented_throws():
    doc = {"types": base_types(),
           "methods": [{"signature": "A#b(0)", "throws": ["x.Missing"]}]}
    with pytest.raises(PlatformModelError, match="undeclared exception"):
        validate_platform_closure(parse_platform_document(doc, "t"))


def test_closure_accepts_corpus_types():
    doc = {"types": base_types(),
           "methods": [{"signature": "A#b(0)", "throws": ["app.MyError"]}]}
    model = parse_platform_document(doc, "t")
    validate_platform_closure(model, corpus_types=frozenset({"app.MyError"}))


# -- semantic model ---------------------------------------------------------

def test_types_and_methods_registered():
    model = model_from([
        "package app;\n"
        "class A { void m() {} void m(int x) {} }\n"
    ], platform())
    assert model.types["app.A"].platform is None
    assert ("app.A", "m", 0) in model.method_table
    assert ("app.A", "m", 1) in model.method_table


def test_duplicate_corpus_type_rejected():
    with pytest.raises(ModelError, match="duplicate type"):
        model_from(["package p; class A {}", "package p; class A {}"],
                   platform())


def test_corpus_platform_collision_rejected():
    with pytest.raises(ModelError, match="collides"):
        model_from(["package java.io; class IOException {}"], platform())


def test_unknown_superclass_is_diagnosed_not_fatal():
    model = model_from(["package p; class A extends Mystery {}"], platform())
    assert model.types["p.A"].superclass is None
    assert any("unknown superclass" in d for d in model.diagnostics)


def test_hierarchy_cycle_rejected():
    with pytest.raises(ModelError, match="cycle in type hierarchy"):
        model_from(["package p;\n"
                    "class A extends B {}\n"
                    "class B extends A {}\n"], platform())


@pytest.mark.parametrize("types, cycle", [
    ("class A extends A {}", "p.A -> p.A"),
    ("class A {} class B extends C {} class C extends B {}",
     "p.B -> p.C -> p.B"),
    ("class A extends B {} class B extends C {} class C extends B {}",
     "p.B -> p.C -> p.B"),
], ids=["self", "apart-from-the-first-type", "through-another-type"])
def test_hierarchy_cycle_is_named(types, cycle):
    with pytest.raises(ModelError) as info:
        model_from(["package p;\n" + types], platform())
    assert str(info.value) == f"cycle in type hierarchy: {cycle}"


def test_exception_universe_includes_corpus_subtypes():
    model = model_from([
        "package app;\n"
        "import java.io.IOException;\n"
        "class AppError extends IOException {}\n"
        "class Plain {}\n"
    ], platform())
    assert "app.AppError" in model.exception_universe
    assert "app.Plain" not in model.exception_universe
    assert model.kind_of("app.AppError") == "checked"
    assert model.kind_of("app.Plain") is None


def test_is_subtype():
    model = model_from([
        "package app;\n"
        "import java.io.IOException;\n"
        "class AppError extends IOException {}\n"
    ], platform())
    assert model.is_subtype("app.AppError", "app.AppError")
    assert model.is_subtype("app.AppError", "java.lang.Throwable")
    assert not model.is_subtype("java.io.IOException", "app.AppError")
    with pytest.raises(ModelError, match="unknown type"):
        model.is_subtype("app.AppError", "nope.Missing")


def test_ancestor_sets_follow_the_superclass_chain():
    # Leaf is indexed before its superclass, a platform type extends a
    # corpus type, and Orphan's superclass is unknown
    model = model_from([
        "package app;\n"
        "class Leaf extends Mid {}\n"
        "class Mid extends RuntimeException {}\n"
        "class Orphan extends Nowhere {}\n"
    ], platform(extra_types=[
        {"name": "x.Outer", "superclass": "app.Mid", "kind": "checked"}]))
    rte = "java.lang.RuntimeException"
    chain = {"app.Leaf", "app.Mid", rte, "java.lang.Exception",
             "java.lang.Throwable"}
    assert model.ancestors["app.Leaf"] == chain
    assert model.ancestors["x.Outer"] == (chain - {"app.Leaf"}) | {"x.Outer"}
    assert model.ancestors["app.Orphan"] == {"app.Orphan"}
    assert model.kind_of("app.Leaf") == "unchecked"
    assert model.kind_of("x.Outer") == "checked"
    assert model.kind_of("app.Orphan") is None
    assert model.kind_of("nope.Missing") is None
    assert model.is_subtype("x.Outer", "app.Mid")
    assert not model.is_subtype("app.Mid", "x.Outer")


def test_recoverability_defaults_and_override():
    override = {"name": "x.Fragile", "superclass": "java.lang.RuntimeException",
                "kind": "unchecked", "recoverable": True}
    damned = {"name": "x.Doomed", "superclass": "java.io.IOException",
              "kind": "checked", "recoverable": False}
    model = model_from([], platform(extra_types=[override, damned]))
    r = Recoverability
    assert model.recoverability_of("java.io.IOException") == r.POTENTIALLY_RECOVERABLE
    assert model.recoverability_of("java.lang.RuntimeException") == r.POTENTIALLY_UNRECOVERABLE
    assert model.recoverability_of("java.lang.Error") == r.POTENTIALLY_UNRECOVERABLE
    assert model.recoverability_of("x.Fragile") == r.POTENTIALLY_RECOVERABLE
    assert model.recoverability_of("x.Doomed") == r.POTENTIALLY_UNRECOVERABLE
    with pytest.raises(ModelError):
        model.recoverability_of("x.Unknown")


def test_resolve_type_name_routes():
    model, (unit,) = model_and_units([
        "package app;\n"
        "import java.io.IOException;\n"
        "import java.nio.file.*;\n"
        "class A {}\n"
    ], platform(extra_types=[
        {"name": "java.nio.file.InvalidPathException",
         "superclass": "java.lang.RuntimeException", "kind": "unchecked"}]))
    assert model.resolve_type_name("java.io.IOException", unit) == "java.io.IOException"
    assert model.resolve_type_name("IOException", unit) == "java.io.IOException"
    assert model.resolve_type_name("InvalidPathException", unit) == \
        "java.nio.file.InvalidPathException"
    assert model.resolve_type_name("A", unit) == "app.A"
    assert model.resolve_type_name("RuntimeException", unit) == \
        "java.lang.RuntimeException"
    assert model.resolve_type_name("Mystery", unit) is None
    assert model.resolve_type_name("int[]", unit) is None
    assert model.resolve_type_name("", unit) is None
    # without a unit only qualified and java.lang fallbacks apply
    assert model.resolve_type_name("IOException", None) is None
    assert model.resolve_type_name("Exception", None) == "java.lang.Exception"


def test_resolve_exception_name_requires_exception():
    model, (unit,) = model_and_units(["package app; class Plain {}"],
                                     platform())
    assert model.resolve_exception_name("Plain", unit) is None
    assert model.resolve_exception_name("IOException", unit) is None  # not imported
    assert model.resolve_exception_name("java.io.IOException", unit) == \
        "java.io.IOException"


def test_unqualified_and_this_calls_resolve_to_own_type():
    model = model_from([
        "package app;\n"
        "class A { void f() { g(); this.g(); } void g() {}\n"
        "  void k() { try { new Object() { void h() { g(); } }; }\n"
        "             catch (Exception e) {} } }\n"
    ], platform())
    for call in lowered_calls(model, ("app.A", "f", 0)):
        assert call.callee == ("app.A", "g", 0)
    # a call in an anonymous-class body counts in the region around it
    method = model.method_table[("app.A", "k", 0)]
    body = method.decl.body
    (guarded,) = method_summary(model, method).body.tries
    (call,) = [c for c in calls_in(body) if isinstance(c, Invocation)]
    assert call.callee == ("app.A", "g", 0)
    assert [(o.position, o.callee) for o in guarded.body.calls] == [
        (call.position, ("app.A", "g", 0))]


def test_local_variable_receiver_uses_declared_type():
    model = model_from([
        "package app;\n"
        "class B { void g() {} boolean ok() { return true; } void next() {} }\n"
        "class A { void f() { B b = make(); b.g(); } B make() { return null; }\n"
        "  void loop() { for (B it = make(); it.ok(); it.next()) {} } }\n"
    ], platform())
    targets = [c.callee for c in lowered_calls(model, ("app.A", "f", 0))]
    assert ("app.B", "g", 0) in targets
    assert ("app.A", "make", 0) in targets
    # a for-init declaration is in scope for the condition and the update
    targets = {c.callee for c in lowered_calls(model, ("app.A", "loop", 0))}
    assert targets == {("app.A", "make", 0), ("app.B", "ok", 0),
                       ("app.B", "next", 0)}


def test_parameter_receiver_and_inherited_method():
    model = model_from([
        "package app;\n"
        "class Base { void g() {} }\n"
        "class Sub extends Base {}\n"
        "class A { void f(Sub s) { s.g(); } }\n"
        "class E1 extends Exception { void m() {} }\n"
        "class E2 extends Exception { void m() {} }\n"
        "class C { void f() { try { } catch (E1 | E2 e) { e.m(); } } }\n"
    ], platform())
    (call,) = lowered_calls(model, ("app.A", "f", 1))
    assert call.callee == ("app.Base", "g", 0)
    # a multi-catch variable takes the first caught type
    (call,) = lowered_calls(model, ("app.C", "f", 0))
    assert call.callee == ("app.E1", "m", 0)


def test_static_style_receiver_through_imports(jre_mini):
    model = model_from([
        "package app;\n"
        "import java.nio.file.Paths;\n"
        "class A { void f() { Paths.getPath(\"x\"); } }\n"
    ], jre_mini)
    (call,) = lowered_calls(model, ("app.A", "f", 0))
    assert call.callee == ("java.nio.file.Paths", "getPath", 1)


def test_fully_qualified_receiver_chain(jre_mini):
    model = model_from([
        "package app;\n"
        "class A { void f() { java.nio.file.Paths.getPath(\"x\"); } }\n"
    ], jre_mini)
    (call,) = lowered_calls(model, ("app.A", "f", 0))
    assert call.callee == ("java.nio.file.Paths", "getPath", 1)


def test_constructor_resolution():
    ctor_doc = {"signature": "java.io.IOException#<init>(0)", "throws": []}
    model = model_from([
        "package app;\n"
        "import java.io.IOException;\n"
        "class A { void f() { new IOException(); } }\n"
    ], platform(methods=[ctor_doc]))
    (call,) = lowered_calls(model, ("app.A", "f", 0))
    assert call.callee == ("java.io.IOException", "<init>", 0)
    assert model.unresolved_count == 0


def test_missing_constructor_is_unresolved_and_counted():
    model = model_from([
        "package app;\n"
        "import java.io.IOException;\n"
        "class A { void f() { new IOException(); } }\n"
    ], platform())
    (call,) = lowered_calls(model, ("app.A", "f", 0))
    assert isinstance(call.callee, Unresolved)
    assert model.unresolved_count == 1
    assert any("unresolved call" in d for d in model.diagnostics)


def test_untyped_and_unknown_receivers_unresolved():
    model = model_from([
        "package app;\n"
        "class B { void g() {} }\n"
        "class A { void f() { var v = g(); v.h(); ghost.h(); } int g() { return 0; }\n"
        "  void k() { B b = make(() -> { b.g(); }); }\n"
        "  void m(B b) { run(b -> b.g()); }\n"
        "  B make(Runnable r) { return null; } void run(Object o) {} }\n"
    ], platform())
    results = {c.name if isinstance(c, Invocation) else None: c.callee
               for c in lowered_calls(model, ("app.A", "f", 0))}
    assert results["g"] == ("app.A", "g", 0)
    assert isinstance(results["h"], Unresolved)
    assert model.unresolved_count == 2
    # an initializer resolves before its variable is declared, lambda
    # bodies in it too
    make, inner = lowered_calls(model, ("app.A", "k", 0))
    assert make.callee == ("app.A", "make", 1)
    assert inner.callee == Unresolved("unknown receiver b")
    # a lambda parameter shadows a typed variable, untyped
    run, inner = lowered_calls(model, ("app.A", "m", 1))
    assert run.callee == ("app.A", "run", 1)
    assert inner.callee == Unresolved("untyped variable b")


def test_no_matching_method_unresolved():
    model = model_from([
        "package app;\n"
        "class B {}\n"
        "class A { void f(B b) { b.g(); } }\n"
    ], platform())
    (call,) = lowered_calls(model, ("app.A", "f", 1))
    assert isinstance(call.callee, Unresolved)
    assert "no method g/0" in call.callee.reason


def test_duplicate_method_is_ambiguous():
    model = model_from([
        "package app;\n"
        "class A { void g() {} void g() {} void f() { g(); } }\n"
    ], platform())
    (call,) = lowered_calls(model, ("app.A", "f", 0))
    assert isinstance(call.callee, Unresolved)
    assert "ambiguous" in call.callee.reason


def test_platform_method_shadowed_by_corpus():
    doc = {"signature": "app.A#g(0)", "throws": []}
    model = model_from([
        "package app;\n"
        "class A { void g() {} void f() { g(); } }\n"
    ], platform(methods=[doc]))
    (call,) = lowered_calls(model, ("app.A", "f", 0))
    assert call.callee == ("app.A", "g", 0)
    assert any("shadowed" in d for d in model.diagnostics)


def test_platform_method_with_unknown_throws_filtered():
    doc = {"signature": "x.Svc#run(0)", "throws": ["x.Ghost"]}
    model = model_from([], platform(methods=[doc]))
    external = model.method_table[("x.Svc", "run", 0)]
    assert external.documented == ()
    assert any("unknown exception" in d for d in model.diagnostics)


@pytest.mark.parametrize("tree", ["fig1", "corpus"])
def test_each_call_site_resolves_once(tree, tmp_path, monkeypatch, fig1_dir,
                                      jre_mini):
    if tree == "fig1":
        shutil.copytree(fig1_dir, tmp_path / "fig1")
        platform_model = jre_mini
    else:
        corpus = generate_corpus(5, cyclic=True, max_methods=30)
        (tmp_path / "gen").mkdir()
        (tmp_path / "gen" / "App.java").write_text(render_app(corpus))
        (tmp_path / "gen" / "Exceptions.java").write_text(
            render_exceptions(corpus))
        platform_model = parse_platform_document(platform_document(corpus),
                                                 "gen")
    resolved = Counter()
    resolve = SemanticModel.resolve_invocation

    def counting(model, call, *args):
        resolved[id(call)] += 1
        return resolve(model, call, *args)

    # the lowering lets each body go, so each is taken as it is lowered
    bodies = []
    lower = flow._lower

    def taking_body(model, method):
        bodies.append(method.decl.body)
        return lower(model, method)

    monkeypatch.setattr(SemanticModel, "resolve_invocation", counting)
    monkeypatch.setattr(flow, "_lower", taking_body)
    analyze_project(tmp_path, platform_model)
    sites = [call for body in bodies if body is not None
             for call in calls_in(body)]
    assert sites
    assert resolved == Counter(id(call) for call in sites)

    # building the model alone resolves nothing
    units = [parse_compilation_unit(path.read_text(), str(path))
             for path in sorted(tmp_path.rglob("*.java"))]
    resolved.clear()
    model = build_semantic_model(units, platform_model)
    assert not resolved
    assert not any("unresolved call" in d for d in model.diagnostics)
    assert all(call.callee is None for method in model.corpus_methods()
               for call in calls_in(method.decl.body))


def test_unknown_caught_type_diagnosed():
    model = model_from([
        "package app;\n"
        "class A { void f() { try { g(); } catch (Mystery e) {} } void g() {} }\n"
    ], platform())
    lowered_calls(model, ("app.A", "f", 0))
    assert any("matches nothing" in d for d in model.diagnostics)


def test_try_blocks_listed_in_position_order():
    model = model_from([
        "package app;\n"
        "class A {\n"
        "  void f() { try { g(); } catch (Exception e) {} }\n"
        "  void g() { try { f(); } catch (Exception e) {} }\n"
        "}\n"
    ], platform())
    entries = try_blocks(model)
    assert [m.id[1] for m, _ in entries] == ["f", "g"]
    lines = [t.position.line for _, t in entries]
    assert lines == sorted(lines)


# -- the try index -----------------------------------------------------------

NESTED_TRIES = (
    "package app;\n"
    "class A {\n"
    "  void g() {}\n"
    "  void f() {\n"
    "    try { g(); } catch (Exception e) {\n"
    "      try { g(); } catch (RuntimeException x) {}\n"
    "    } finally {\n"
    "      try { g(); } catch (Exception e) {}\n"
    "    }\n"
    "    Runnable r = () -> { try { g(); } catch (Exception e) {} };\n"
    "    Object o = new Object() {\n"
    "      void h() { try { g(); } catch (Exception e) {} }\n"
    "    };\n"
    "    for (int i = 0; i < 2; i++) { try { g(); } catch (Exception e) {} }\n"
    "  }\n"
    "}\n")


def walked_tries(model):
    """The try index rebuilt by walking every corpus method body; taken
    before the lowering lets the bodies go."""
    pairs = [(method, t) for method in model.corpus_methods()
             if method.decl.body is not None
             for t in try_statements_in(method.decl.body.statements)]
    pairs.sort(key=lambda pair: (pair[1].position.file, pair[1].position.line,
                                 pair[1].position.column))
    return [(method.id, t.position) for method, t in pairs]


def indexed_tries(model):
    return [(method.id, t.position) for method, t in try_blocks(model)]


def test_try_index_matches_a_walk_of_every_body():
    model = model_from([NESTED_TRIES], platform())
    walked = walked_tries(model)
    assert len(try_blocks(model)) == 6
    assert indexed_tries(model) == walked
    for seed in range(60):
        for cyclic in (False, True):
            units = [parse_compilation_unit(
                render_app(generate_corpus(seed, cyclic=cyclic)),
                "gen/App.java")]
            model = build_semantic_model(units, platform())
            walked = walked_tries(model)
            assert indexed_tries(model) == walked, f"seed {seed}"


def test_unknown_caught_name_in_nested_tries_diagnosed_once(tmp_path):
    (tmp_path / "A.java").write_text(
        "package app;\n"
        "class A {\n"
        "  void g() {}\n"
        "  void f() {\n"
        "    try {\n"
        "      try { g(); } catch (Bogus e) {}\n"
        "    } catch (Exception e) {}\n"
        "  }\n"
        "}\n")
    result = analyze_project(tmp_path, platform())
    complaint = ("A.java:6:20: caught type Bogus is not a known exception; "
                 "the clause matches nothing")
    assert sum(d.endswith(complaint) for d in result.diagnostics) == 1
