"""What the lowering of a method body keeps, and what it lets go.

The lowering is the last reader of a method body: it records what each
catch body does as it walks it, so classifying a handler walks nothing,
and once a method is lowered no statement of it is reachable from the
analysis. Once a clause is classified, its handler record goes too.
"""

import gc
from pathlib import Path

import pytest

from _corpus import generate_corpus, platform_document_multi, render_app
from exflow import driver, flow
from exflow.classify import HandlerRecord
from exflow.config import Config, config_from_dict
from exflow.driver import analyze_project
from exflow.model import parse_platform_document
from exflow.syntax import ast
from exflow.syntax import walk

HANDLERS_DIR = Path(__file__).parent / "data" / "handlers"

# an extra log name and an abort signature that the fixtures call through
# a receiver
CONFIG = config_from_dict({
    "log_method_names": ["warn", "shout"],
    "abort_signatures": ["java.lang.System#exit(1)",
                         "handlers.Fatal#stop(1)"],
})

# every node of a method body: statements, clauses, expressions
BODY_NODES = tuple(
    cls for cls in vars(ast).values()
    if isinstance(cls, type) and cls.__module__ == ast.__name__
    and cls not in (ast.SourcePosition, ast.CompilationUnit, ast.TypeDecl,
                    ast.MethodDecl, ast.Param, ast.DocComment))


def tree(name, tmp_path, fig1_dir, jre_mini):
    """The project directory and platform model of one test tree."""
    if name == "fig1":
        return fig1_dir, jre_mini
    if name == "handlers":
        return HANDLERS_DIR, jre_mini
    corpus = generate_corpus(3, cyclic=True, max_methods=30)
    (tmp_path / "gen").mkdir()
    (tmp_path / "gen" / "App.java").write_text(render_app(corpus))
    platform = parse_platform_document(
        platform_document_multi([("gen", corpus)]), "gen")
    return tmp_path, platform


def reachable(root):
    """Every object reachable from root through containers and exflow
    objects; types, modules and functions are not followed."""
    seen = {id(root): root}
    queue = [root]
    while queue:
        obj = queue.pop()
        for ref in gc.get_referents(obj):
            if id(ref) in seen or isinstance(ref, type):
                continue
            if not isinstance(ref, (list, tuple, dict, set, frozenset)) \
                    and not type(ref).__module__.startswith("exflow"):
                continue
            seen[id(ref)] = ref
            queue.append(ref)
    return seen.values()


def test_handler_fixture_actions(jre_mini):
    # nested tries, lambdas and anonymous classes inside handlers count,
    # and nothing under a throw does
    result = analyze_project(HANDLERS_DIR, jre_mini, CONFIG)
    actions = {c.id.rsplit(":", 2)[1]: sorted(a.value for a in c.actions)
               for region in result.bundles for c in region.catches}
    assert actions == {
        "21": ["Abort", "Log", "Method", "NestedTry", "ThrowWrap"],
        "25": ["Log", "ThrowNew"],
        "37": ["Abort", "Method", "Return", "Todo"],
        "54": ["Method", "ThrowWrap", "Todo"],
        "66": ["ThrowNew"],
        "72": ["Method", "Return"],
        "85": ["Continue", "Log"],
        "88": ["ThrowCurrent"],
        "90": ["Default"],
        "92": ["Empty"],
        "100": ["Log", "Method", "NestedTry"],
        "104": ["Method"],
    }


def test_equal_action_sets_are_one_object(jre_mini):
    # under the default configuration and the fixtures' own, the clauses of
    # the handler fixtures share a set wherever their actions are equal
    clauses = [{c.id: c for region in analyze_project(
                    HANDLERS_DIR, jre_mini, config).bundles
                for c in region.catches}
               for config in (None, CONFIG)]
    equal = [(clause, clauses[1][cid]) for cid, clause in clauses[0].items()
             if clause.actions == clauses[1][cid].actions]
    assert len(equal) >= 6
    for default, configured in equal:
        assert default is not configured
        assert default.actions is configured.actions, default.id


def test_classifying_a_handler_walks_nothing(monkeypatch, jre_mini):
    inside = []
    counted = []
    classified = []
    classify = driver.classify_actions

    def classifying(*args):
        classified.append(args[0])
        inside.append(True)
        try:
            return classify(*args)
        finally:
            inside.pop()

    def counting(module):
        real = module.sub_expressions

        def sub_expressions(expr):
            if inside:
                counted.append(expr)
            return real(expr)
        return sub_expressions

    monkeypatch.setattr(walk, "sub_expressions", counting(walk))
    monkeypatch.setattr(flow, "sub_expressions", counting(flow))
    monkeypatch.setattr(driver, "classify_actions", classifying)
    analyze_project(HANDLERS_DIR, jre_mini, CONFIG)
    assert len(classified) == 12
    assert counted == []


@pytest.mark.parametrize("transitive", [False, True])
@pytest.mark.parametrize("name", ["fig1", "cyclic"])
def test_no_statement_reachable_after_analysis(name, transitive, tmp_path,
                                               fig1_dir, jre_mini):
    project, platform = tree(name, tmp_path, fig1_dir, jre_mini)
    result = analyze_project(project, platform,
                             Config(transitive_origins=transitive))
    objects = list(reachable(result))
    assert any(isinstance(obj, flow.TryRegion) for obj in objects)
    assert any(isinstance(obj, flow.Clause) for obj in objects)
    assert any(isinstance(obj, ast.MethodDecl) for obj in objects)
    kept = sorted({type(obj).__name__ for obj in objects
                   if isinstance(obj, (*BODY_NODES, HandlerRecord))})
    assert kept == []


def test_every_corpus_body_is_let_go(tmp_path, jre_mini):
    (tmp_path / "A.java").write_text(
        "package app;\n"
        "class A {\n"
        "  void f() { try { g(); } catch (Exception e) { g(); } }\n"
        "  void g() {}\n"
        "  void g() { f(); }\n"
        "  abstract void h();\n"
        "}\n")
    for project in (tmp_path, HANDLERS_DIR):
        result = analyze_project(project, jre_mini)
        units = {id(m.unit): m.unit for m in result.model.corpus_methods()}
        decls = [m for unit in units.values() for t in unit.types
                 for m in t.methods]
        assert len(decls) > 3
        assert [m.name for m in decls if m.body is not None] == []
