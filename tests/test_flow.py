"""Fixed-point exception sets and per-try partitioning."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from _clauses import distinct_counts, possible
from _corpus import build_corpus_model, generate_corpus
from exflow import flow
from exflow.classify import Strategy, classify_strategy
from exflow.driver import analyze_project
from exflow.flow import (
    CallSiteOrigin,
    EvidenceKind,
    LexicalThrowOrigin,
    PossibleException,
    analyze_try_block,
    attribute_sources,
    compute_method_exception_sets,
    try_blocks,
)
from exflow.model import build_semantic_model, parse_platform_document
from exflow.syntax import parse_compilation_unit

TS = EvidenceKind.THROW_STATEMENT
TD = EvidenceKind.THROWS_DECLARATION
DC = EvidenceKind.DOC_COMMENT
ED = EvidenceKind.EXTERNAL_DOCUMENTATION

IOE = "java.io.IOException"
RTE = "java.lang.RuntimeException"


def flow_platform(methods=()):
    doc = {
        "types": [
            {"name": "java.lang.Throwable", "superclass": None,
             "kind": "checked"},
            {"name": "java.lang.Exception",
             "superclass": "java.lang.Throwable", "kind": "checked"},
            {"name": "java.lang.RuntimeException",
             "superclass": "java.lang.Exception", "kind": "unchecked"},
            {"name": "java.io.IOException",
             "superclass": "java.lang.Exception", "kind": "checked"},
        ],
        "methods": [
            {"signature": "java.io.IOException#<init>(0)", "throws": []},
            {"signature": "java.lang.RuntimeException#<init>(0)", "throws": []},
            {"signature": "java.lang.Exception#<init>(0)", "throws": []},
        ] + list(methods),
    }
    return parse_platform_document(doc, "flow-test")


def build(source, platform=None, *, transitive=True):
    unit = parse_compilation_unit(
        "package app;\nimport java.io.IOException;\n" + source, "A.java")
    model = build_semantic_model([unit], platform or flow_platform())
    return model, compute_method_exception_sets(model, transitive=transitive)


def mid(name, arity=0):
    return ("app.A", name, arity)


def facts_of(sets, name):
    return sets[mid(name)]


def first_try(model):
    return try_blocks(model)[0]


# -- method-level sets -------------------------------------------------------

def test_lexical_throw_with_declaration_and_doc():
    _, sets = build(
        "class A {\n"
        "  /** @throws IOException on failure */\n"
        "  void f() throws IOException { throw new IOException(); }\n"
        "}\n")
    facts = facts_of(sets, "f")
    assert set(facts) == {IOE}
    assert facts[IOE].evidence == {TS, TD, DC}
    assert facts[IOE].sources == {mid("f")}


def test_callee_facts_lift_with_evidence_union():
    _, sets = build(
        "class A {\n"
        "  void g() throws IOException { throw new IOException(); }\n"
        "  void f() { g(); }\n"
        "}\n")
    facts = facts_of(sets, "f")
    assert facts[IOE].evidence == {TS, TD}
    assert facts[IOE].sources == {mid("g")}


def test_sources_accumulate_along_call_chain():
    _, sets = build(
        "class A {\n"
        "  void h() { throw new RuntimeException(); }\n"
        "  void g() { h(); }\n"
        "  void f() { g(); }\n"
        "}\n")
    assert facts_of(sets, "h")[RTE].sources == {mid("h")}
    assert facts_of(sets, "g")[RTE].sources == {mid("h")}
    assert facts_of(sets, "f")[RTE].sources == {mid("h")}


def test_own_declaration_joins_callee_sources():
    _, sets = build(
        "class A {\n"
        "  void g() throws IOException {}\n"
        "  void f() throws IOException { g(); }\n"
        "}\n")
    facts = facts_of(sets, "f")
    assert facts[IOE].sources == {mid("f"), mid("g")}
    assert facts[IOE].evidence == {TD}


def test_merge_across_callees_of_same_type():
    _, sets = build(
        "class A {\n"
        "  void g() { throw new IOException(); }\n"
        "  void h() throws IOException {}\n"
        "  void f() { g(); h(); }\n"
        "}\n")
    facts = facts_of(sets, "f")
    assert facts[IOE].evidence == {TS, TD}
    assert facts[IOE].sources == {mid("g"), mid("h")}


def test_catch_stops_escape_at_method_level():
    _, sets = build(
        "class A {\n"
        "  void f() { try { throw new IOException(); } catch (IOException e) {} }\n"
        "}\n")
    assert facts_of(sets, "f") == {}


def test_subsumption_catch_also_stops_escape():
    _, sets = build(
        "class A {\n"
        "  void f() { try { throw new IOException(); } catch (Exception e) {} }\n"
        "}\n")
    assert facts_of(sets, "f") == {}


def test_catch_body_throw_escapes():
    _, sets = build(
        "class A {\n"
        "  void f() {\n"
        "    try { throw new IOException(); }\n"
        "    catch (IOException e) { throw new RuntimeException(); }\n"
        "  }\n"
        "}\n")
    assert set(facts_of(sets, "f")) == {RTE}


def test_finally_throw_escapes():
    _, sets = build(
        "class A {\n"
        "  void f() { try { g(); } finally { throw new RuntimeException(); } }\n"
        "  void g() {}\n"
        "}\n")
    assert set(facts_of(sets, "f")) == {RTE}


def test_rethrow_of_variable_contributes_nothing():
    _, sets = build(
        "class A { void f(Exception e) { throw e; } }\n")
    assert sets[mid("f", 1)] == {}


def test_opaque_throw_keeps_call_effects():
    _, sets = build(
        "class A {\n"
        "  Exception make() throws IOException { return null; }\n"
        "  void f() { throw make(); }\n"
        "}\n")
    facts = facts_of(sets, "f")
    assert set(facts) == {IOE}
    assert facts[IOE].evidence == {TD}


def test_external_documentation(jre_mini):
    unit = parse_compilation_unit(
        "package app;\n"
        "import java.nio.file.Paths;\n"
        "class A { void f() { Paths.getPath(\"x\"); } }\n", "A.java")
    model = build_semantic_model([unit], jre_mini)
    sets = compute_method_exception_sets(model, transitive=True)
    facts = sets[("app.A", "f", 0)]
    ipe = "java.nio.file.InvalidPathException"
    assert facts[ipe].evidence == {ED}
    assert facts[ipe].sources == {("java.nio.file.Paths", "getPath", 1)}


def test_self_recursion_converges():
    _, sets = build(
        "class A { void f() throws IOException { f(); } }\n")
    facts = facts_of(sets, "f")
    assert facts[IOE].evidence == {TD}
    assert facts[IOE].sources == {mid("f")}


def test_mutual_recursion_converges():
    _, sets = build(
        "class A {\n"
        "  void f() { g(); }\n"
        "  void g() { f(); throw new RuntimeException(); }\n"
        "}\n")
    for name in ("f", "g"):
        facts = facts_of(sets, name)
        assert set(facts) == {RTE}
        assert facts[RTE].sources == {mid("g")}


def test_unknown_names_are_diagnosed():
    model, sets = build(
        "class A {\n"
        "  /** @throws Mist2 gone */\n"
        "  void f() throws Mist1 { throw new Mist3(); }\n"
        "}\n")
    assert facts_of(sets, "f") == {}
    text = "\n".join(model.diagnostics)
    assert "unknown declared exception Mist1" in text
    assert "doc comment names unknown exception Mist2" in text
    assert "thrown type Mist3 is not a known exception" in text


# -- try-block analysis ------------------------------------------------------

def fig1_try(fig1_result):
    model = fig1_result.model
    (method, stmt), = [(m, t) for m, t in try_blocks(model)]
    return model, method, stmt


def test_figure_one_method_sets(fig1_transitive_result):
    sets = fig1_transitive_result.method_sets
    ex = "fig1.Example"
    ipe = "java.nio.file.InvalidPathException"
    c_facts = sets[(ex, "C", 0)]
    assert c_facts[IOE].evidence == {TS, TD, DC}
    assert c_facts[IOE].sources == {(ex, "C", 0)}
    b_facts = sets[(ex, "B", 0)]
    assert b_facts[IOE].evidence == {TS, TD, DC}
    assert b_facts[IOE].sources == {(ex, "B", 0), (ex, "C", 0)}
    assert b_facts[ipe].evidence == {ED}
    assert b_facts[ipe].sources == {("java.nio.file.Paths", "getPath", 1)}
    a_facts = sets[(ex, "A", 0)]
    assert set(a_facts) == {IOE}


def test_figure_one_try_partition(fig1_result):
    model, method, stmt = fig1_try(fig1_result)
    analysis = analyze_try_block(stmt, fig1_result.method_sets, model, method)
    ipe = "java.nio.file.InvalidPathException"
    by_type = {f.type: f for f in possible(analysis)}
    assert set(by_type) == {IOE, ipe}
    call_b = by_type[IOE].origin
    assert isinstance(call_b, CallSiteOrigin)
    assert call_b.callee == ("fig1.Example", "B", 0)
    assert by_type[ipe].origin == call_b

    assert set(analysis.handled) == {by_type[ipe]}
    clause, matched, strategy = analysis.handled[by_type[ipe]]
    assert matched == ipe
    assert strategy == Strategy.SPECIFIC
    assert analysis.propagated == {by_type[IOE]}
    assert distinct_counts(analysis) == {IOE: 1, ipe: 1}


def test_figure_one_attribution_direct_and_transitive(
        fig1_result, fig1_transitive_result):
    # the counts are those of the method sets the try was partitioned
    # under: the call to B() under the default sets, B() and C() under the
    # transitive ones
    ipe = "java.nio.file.InvalidPathException"
    counts = {}
    for mode, result in (("direct", fig1_result),
                         ("transitive", fig1_transitive_result)):
        model, method, stmt = fig1_try(result)
        counts[mode] = attribute_sources(
            analyze_try_block(stmt, result.method_sets, model, method))
    assert counts["direct"] == {IOE: (1, frozenset({TS, TD, DC})),
                                ipe: (1, frozenset({ED}))}
    assert counts["transitive"] == {IOE: (2, frozenset({TS, TD, DC})),
                                    ipe: (1, frozenset({ED}))}


@pytest.mark.parametrize("cyclic", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_only_transitive_sets_give_facts_source_methods(seed, cyclic):
    # attribute_sources counts a fact's source methods when it has any and
    # its call site's callee otherwise, so the default sets must leave
    # every fact without them and the transitive sets must give them to
    # every call-site fact
    corpus = generate_corpus(seed, cyclic=cyclic, max_methods=20,
                             max_try_depth=3)
    for transitive in (False, True):
        model, sets = build_corpus_model(corpus, transitive=transitive)
        calls = throws = 0
        for method, stmt in try_blocks(model):
            for fact in possible(analyze_try_block(stmt, sets, model, method)):
                if isinstance(fact.origin, LexicalThrowOrigin):
                    throws += 1
                    assert fact.source_methods == frozenset(), fact
                else:
                    calls += 1
                    assert bool(fact.source_methods) == transitive, fact
        assert calls and throws, (seed, cyclic, transitive)


def test_direct_throw_in_try_has_no_source_methods():
    model, sets = build(
        "class A {\n"
        "  void f() { try { throw new IOException(); } catch (Exception e) {} }\n"
        "}\n")
    method, stmt = first_try(model)
    analysis = analyze_try_block(stmt, sets, model, method)
    (fact,) = possible(analysis)
    assert isinstance(fact.origin, LexicalThrowOrigin)
    assert fact.source_methods == frozenset()
    assert distinct_counts(analysis) == {IOE: 0}


def test_two_callees_counted_distinctly():
    model, sets = build(
        "class A {\n"
        "  void g() throws IOException {}\n"
        "  void h() throws IOException {}\n"
        "  void f() { try { g(); h(); } catch (IOException e) {} }\n"
        "}\n")
    method, stmt = first_try(model)
    analysis = analyze_try_block(stmt, sets, model, method)
    assert len(possible(analysis)) == 2
    assert distinct_counts(analysis) == {IOE: 2}


def test_first_matching_clause_wins():
    model, sets = build(
        "class A {\n"
        "  void f() {\n"
        "    try { throw new IOException(); }\n"
        "    catch (Exception e) {}\n"
        "    catch (IOException e) {}\n"
        "  }\n"
        "}\n")
    method, stmt = first_try(model)
    analysis = analyze_try_block(stmt, sets, model, method)
    (fact,) = possible(analysis)
    clause, matched, strategy = analysis.handled[fact]
    assert clause is stmt.catches[0]
    assert matched == "java.lang.Exception"
    assert strategy == Strategy.SUBSUMPTION


def test_multi_catch_matches_first_alternative():
    model, sets = build(
        "class A {\n"
        "  void f() {\n"
        "    try { throw new IOException(); }\n"
        "    catch (IOException | RuntimeException e) {}\n"
        "  }\n"
        "}\n")
    method, stmt = first_try(model)
    analysis = analyze_try_block(stmt, sets, model, method)
    (fact,) = possible(analysis)
    _, matched, strategy = analysis.handled[fact]
    assert matched == IOE
    assert strategy == Strategy.SPECIFIC


def test_nested_try_filters_inner_handled_types():
    model, sets = build(
        "class A {\n"
        "  void f() {\n"
        "    try {\n"
        "      try { throw new IOException(); } catch (IOException e) {}\n"
        "      throw new RuntimeException();\n"
        "    } catch (RuntimeException e) {}\n"
        "  }\n"
        "}\n")
    sets_by_line = {t.position.line: (m, t) for m, t in try_blocks(model)}
    outer_line = min(sets_by_line)
    method, outer = sets_by_line[outer_line]
    analysis = analyze_try_block(outer, sets, model, method)
    assert {f.type for f in possible(analysis)} == {RTE}


def test_nested_catch_and_finally_feed_outer_region():
    model, sets = build(
        "class A {\n"
        "  void f() {\n"
        "    try {\n"
        "      try { g(); }\n"
        "      catch (RuntimeException e) { throw new IOException(); }\n"
        "      finally { h(); }\n"
        "    } catch (Exception e) {}\n"
        "  }\n"
        "  void g() {}\n"
        "  void h() throws IOException {}\n"
        "}\n")
    entries = sorted(try_blocks(model), key=lambda p: p[1].position.line)
    method, outer = entries[0]
    analysis = analyze_try_block(outer, sets, model, method)
    origins = {type(f.origin).__name__ for f in possible(analysis)}
    assert {f.type for f in possible(analysis)} == {IOE}
    assert origins == {"LexicalThrowOrigin", "CallSiteOrigin"}


def test_catch_body_facts_not_part_of_own_try():
    model, sets = build(
        "class A {\n"
        "  void f() {\n"
        "    try { g(); } catch (Exception e) { throw new RuntimeException(); }\n"
        "  }\n"
        "  void g() throws IOException {}\n"
        "}\n")
    method, stmt = first_try(model)
    analysis = analyze_try_block(stmt, sets, model, method)
    assert {f.type for f in possible(analysis)} == {IOE}


def test_same_type_from_two_origins_shares_strategy():
    model, sets = build(
        "class A {\n"
        "  void g() throws IOException {}\n"
        "  void f() {\n"
        "    try { g(); throw new IOException(); } catch (Exception e) {}\n"
        "  }\n"
        "}\n")
    method, stmt = first_try(model)
    analysis = analyze_try_block(stmt, sets, model, method)
    strategies = {analysis.handled[f][2] for f in possible(analysis)}
    assert strategies == {Strategy.SUBSUMPTION}


def test_lambda_body_counts_toward_enclosing_region():
    model, sets = build(
        "class A {\n"
        "  void f() { Runnable r = () -> { throw new RuntimeException(); }; }\n"
        "}\n")
    assert set(facts_of(sets, "f")) == {RTE}


# -- worklist fixed point ----------------------------------------------------

def count_evaluations(monkeypatch):
    """Record the id of every method the fixed point evaluates, in order."""
    seen = []
    evaluate = flow._evaluate_method

    def counting(method, *args):
        seen.append(method.id)
        return evaluate(method, *args)

    monkeypatch.setattr(flow, "_evaluate_method", counting)
    return seen


@pytest.mark.parametrize("tree", ["fig1", "cyclic-corpus"])
def test_fixed_point_builds_no_fact_objects(monkeypatch, fig1_result, tree):
    # an evaluation merges type -> MethodFact; PossibleException is for the
    # per-try partition only (and for the throw sites a summary lists)
    if tree == "fig1":
        model = fig1_result.model
    else:
        model, _sets = build_corpus_model(
            generate_corpus(3, cyclic=True, max_methods=30))
    for method in model.corpus_methods():
        flow.method_summary(model, method)
    built = []
    real = flow.PossibleException

    def counting(*args):
        built.append(args[0])
        return real(*args)

    monkeypatch.setattr(flow, "PossibleException", counting)
    sets = compute_method_exception_sets(model)
    assert built == []
    assert any(sets[method.id] for method in model.corpus_methods())


def test_call_ring_takes_linear_work(monkeypatch):
    # m000 -> m001 -> ... -> m799 -> m000; names sort in call order, so
    # facts travel against the evaluation order, one hop per round-robin
    # pass, which took n * (n + 1) evaluations
    n = 800
    last = f"m{n - 1:03d}"
    body = "".join(
        f"  void m{i:03d}() {{ try {{ m{i + 1:03d}(); }} "
        f"catch (IllegalStateException e) {{}} }}\n" for i in range(n - 1))
    body += (f"  void {last}() {{ try {{ m000(); throw new IOException(); }} "
             f"catch (IllegalStateException e) {{}} }}\n")
    evaluations = count_evaluations(monkeypatch)
    model, sets = build("class A {\n" + body + "}\n")
    assert len(evaluations) <= 2 * n + 1
    for i in range(n):
        facts = facts_of(sets, f"m{i:03d}")
        assert set(facts) == {IOE}
        assert facts[IOE].sources == {mid(last)}
        assert facts[IOE].evidence == {TS}
    assert len(try_blocks(model)) == n


def test_default_fixed_point_work_is_linear_when_every_method_throws(
        monkeypatch):
    # m000 -> m001 -> ... -> m399, each throwing IOException: tracking the
    # contributing methods grows every set once per method below it and
    # takes n * (n + 1) / 2 evaluations; evidence alone never grows
    n = 400
    body = "".join(
        f"  void m{i:03d}() {{ m{i + 1:03d}(); throw new IOException(); }}\n"
        for i in range(n - 1))
    body += f"  void m{n - 1:03d}() {{ throw new IOException(); }}\n"
    evaluations = count_evaluations(monkeypatch)
    _model, sets = build("class A {\n" + body + "}\n", transitive=False)
    assert len(evaluations) <= 2 * n + 1
    for i in range(n):
        facts = facts_of(sets, f"m{i:03d}")
        assert set(facts) == {IOE}
        assert facts[IOE] == flow.MethodFact(frozenset({TS}), frozenset())


@pytest.mark.parametrize("tree", ["fig1", "cyclic-corpus"])
def test_default_sets_share_one_fact_per_evidence_set(fig1_result, tree):
    if tree == "fig1":
        model, sets = fig1_result.model, fig1_result.method_sets
    else:
        model, sets = build_corpus_model(
            generate_corpus(5, cyclic=True, max_methods=40, max_try_depth=3),
            transitive=False)
    facts = [fact for by_type in sets.values() for fact in by_type.values()]
    assert facts
    assert all(fact.sources == frozenset() for fact in facts)
    distinct = {id(fact) for fact in facts}
    assert len(distinct) <= 16
    assert len(distinct) == len({fact.evidence for fact in facts})
    analyses = [analyze_try_block(stmt, sets, model, method)
                for method, stmt in try_blocks(model)]
    assert any(possible(analysis) for analysis in analyses)
    assert all(fact.source_methods == frozenset()
               for analysis in analyses for fact in possible(analysis))


def test_deep_try_nest_partition():
    # try k (k = 0 outermost) calls h() on its own line and wraps try k + 1;
    # every 50th try catches RuntimeException, the others a name that
    # matches nothing; the innermost try throws IOException
    depth = 200
    first_line = 6  # after package, import, class, h() and f()
    lines = ["class A {", "  void h() { throw new RuntimeException(); }",
             "  void f() {"]
    lines += ["    try { h();"] * depth
    lines.append("    throw new IOException();")
    for k in reversed(range(depth)):
        caught = "RuntimeException" if k % 50 == 0 else "Mystery"
        lines.append(f"    }} catch ({caught} e) {{}}")
    lines += ["  }", "}", ""]
    model, sets = build("\n".join(lines))
    throw_line = first_line + depth
    entries = sorted(try_blocks(model), key=lambda p: p[1].position.line)
    assert len(entries) == depth
    for k, (method, stmt) in enumerate(entries):
        assert stmt.position.line == first_line + k
        analysis = analyze_try_block(stmt, sets, model, method)
        got = {(f.type, f.origin.position.line, type(f.origin).__name__)
               for f in possible(analysis)}
        # a call at level j reaches try k unless a try in (k, j] catches it
        stop = next((m for m in range(k + 1, depth) if m % 50 == 0), depth)
        calls = {(RTE, first_line + j, "CallSiteOrigin")
                 for j in range(k, stop)}
        want = calls | {(IOE, throw_line, "LexicalThrowOrigin")}
        assert got == want, f"try {k}"
        propagated = {(f.type, f.origin.position.line, type(f.origin).__name__)
                      for f in analysis.propagated}
        assert propagated == (want - calls if k % 50 == 0 else want), \
            f"try {k}"


_EVALUATION_ORDER = """
import json
from _corpus import build_corpus_model, generate_corpus
from exflow import flow
order = []
evaluate = flow._evaluate_method
def counting(method, *args):
    order.append(list(method.id))
    return evaluate(method, *args)
flow._evaluate_method = counting
for seed in range(5):
    build_corpus_model(generate_corpus(seed, cyclic=True, max_methods=40))
print(json.dumps(order))
"""


def test_evaluation_order_does_not_depend_on_hashing():
    tests = Path(__file__).parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    orders = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", _EVALUATION_ORDER],
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        orders.append(json.loads(done.stdout))
    assert orders[0] == orders[1]
    assert len(orders[0]) > len(set(map(tuple, orders[0])))  # re-evaluations


def test_unknown_thrown_type_is_diagnosed_once(tmp_path):
    (tmp_path / "A.java").write_text(
        "package app;\n"
        "class A {\n"
        "  void f() { g(); }\n"
        "  void g() { h(); }\n"
        "  void h() {\n"
        "    try {\n"
        "      try { f(); throw new Bogus(); } catch (RuntimeException e) {}\n"
        "    } catch (Exception e) {}\n"
        "  }\n"
        "}\n")
    result = analyze_project(tmp_path, flow_platform())
    compute_method_exception_sets(result.model)  # summaries are reused
    complaint = "thrown type Bogus is not a known exception"
    assert sum(complaint in d for d in result.model.diagnostics) == 1


# -- bottom-up partition against a per-try walk -----------------------------

def _reaching(region, sets, ancestors):
    """Facts reaching a region: its own throws and its callees' facts, and
    those of each nested try's body that no try in between catches."""
    facts = {}
    stack = [(region, frozenset())]
    while stack:
        region, caught = stack.pop()
        for fact in region.throws:
            if ancestors[fact.type].isdisjoint(caught):
                _add(facts, fact)
        for origin in region.calls:
            for tid, callee_fact in sets[origin.callee].items():
                if ancestors[tid].isdisjoint(caught):
                    _add(facts, PossibleException(tid, origin, callee_fact.evidence,
                                                  callee_fact.sources))
        for inner in region.tries:
            stack.append((inner.body, caught | inner.caught))
    return facts


def _add(facts, fact):
    key = (fact.type, fact.origin)
    existing = facts.get(key)
    if existing is None:
        facts[key] = fact
    else:
        facts[key] = PossibleException(
            fact.type, fact.origin,
            existing.evidence | fact.evidence,
            existing.source_methods | fact.source_methods)


def walked_partition(model, sets, method, stmt):
    """The partition of one try from a walk of its own body that shares no
    work with any other try: _reaching over the body region, then the
    first matching clause per fact in _fact_key order."""
    (region,) = [t for t in flow.method_summary(model, method).tries
                 if t.position == stmt.position]
    reaching = frozenset(_reaching(region.body, sets, model.ancestors).values())
    handled = {}
    for fact in sorted(reaching, key=flow._fact_key):
        match = flow._first_match(model.ancestors[fact.type], region.catches)
        if match is not None:
            clause, matched = match
            handled[fact] = (clause, matched,
                             classify_strategy(fact.type, matched, model))
    return reaching, handled, reaching - handled.keys()


def assert_partitions_match_walk(model, sets):
    for method, stmt in try_blocks(model):
        analysis = analyze_try_block(stmt, sets, model, method)
        reaching, handled, propagated = walked_partition(
            model, sets, method, stmt)
        assert possible(analysis) == reaching, stmt.id
        assert analysis.handled == handled, stmt.id
        assert analysis.propagated == propagated, stmt.id
        keys = [flow._fact_key(f) for f in analysis.handled]
        assert keys == sorted(keys), stmt.id


@pytest.mark.parametrize("seed", range(8))
def test_partition_matches_per_try_walk_on_cyclic_corpora(seed):
    corpus = generate_corpus(seed, cyclic=True, max_methods=30,
                             max_try_depth=4)
    model, sets = build_corpus_model(corpus)
    assert_partitions_match_walk(model, sets)


def test_partition_matches_per_try_walk_on_deep_nest():
    # 60 nested tries in one method, each calling h() (RuntimeException)
    # and g() (IOException) before its inner try; the clauses alternate
    # between RuntimeException, IOException, Exception and a name that
    # matches nothing, and the innermost try throws both types
    depth = 60
    caught = ("Mystery", "RuntimeException", "Mystery", "IOException",
              "Mystery", "Exception")
    lines = ["class A {",
             "  void h() { throw new RuntimeException(); }",
             "  void g() throws IOException {}",
             "  void f() {"]
    lines += ["    try { h(); g();"] * depth
    lines += ["    throw new IOException();",
              "    } catch (RuntimeException e) { throw new RuntimeException(); }"]
    for k in reversed(range(depth - 1)):
        lines.append(f"    }} catch ({caught[k % len(caught)]} e) {{ g(); }}")
    lines += ["  }", "}", ""]
    model, sets = build("\n".join(lines))
    assert len(try_blocks(model)) == depth
    assert_partitions_match_walk(model, sets)
    analyses = [analyze_try_block(stmt, sets, model, method)
                for method, stmt in try_blocks(model)]
    assert sum(len(a.handled) for a in analyses) > depth
    assert sum(len(a.propagated) for a in analyses) > depth
