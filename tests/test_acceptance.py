"""End-to-end acceptance suite.

One test per criterion; each prints a single "ACCEPTANCE NN PASS" line on
success (visible under -s, captured otherwise), and a failing criterion
shows up as that test failing.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time

import pytest

from exflow.classify import (
    Action, Strategy, classify_actions, classify_strategy,
)
from exflow.cli import main
from exflow.driver import analyze_project, try_bundles
from exflow.flow import (
    analyze_try_block, compute_method_exception_sets, try_blocks,
)
from exflow.model import build_semantic_model, parse_platform_document
from exflow.report import aggregate_project
from exflow.stats import wilcoxon_rank_sum
from exflow.syntax import parse_compilation_unit

from _clauses import distinct_counts, lowered_clause, possible
from _corpus import (
    build_corpus_model, generate_corpus, iter_tries, method_mid,
    namespace_source, oracle_acyclic, oracle_cyclic, oracle_try_possible,
    platform_document_multi,
)

IOE = "java.io.IOException"
IPE = "java.nio.file.InvalidPathException"

CSV_NAMES = ("tryblocks.csv", "diversity.csv", "sources.csv",
             "strategies.csv", "actions.csv")


def _pass(criterion: int) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS")


def _method_facts(sets, corpus):
    """Implementation facts in the oracle's shape: per method, type ->
    (evidence kind names, contributing methods)."""
    out = {}
    for i in range(len(corpus.methods)):
        mid = method_mid(corpus, i)
        out[mid] = {
            tid: (frozenset(k.value for k in fact.evidence), fact.sources)
            for tid, fact in sets[mid].items()}
    return out


def _without_sources(by_type):
    """Oracle facts {type: (evidence, sources)} as sets computed without
    transitive=True hold them: the same evidence, no contributing methods."""
    return {tid: (evidence, frozenset())
            for tid, (evidence, _sources) in by_type.items()}


def _try_facts(analysis):
    """A try's possible facts in the oracle's shape: per type, (evidence
    kind names, contributing methods)."""
    got: dict = {}
    for fact in possible(analysis):
        evidence, sources = got.setdefault(fact.type, [set(), set()])
        evidence.update(k.value for k in fact.evidence)
        sources.update(fact.source_methods)
    return {t: (frozenset(e), frozenset(s)) for t, (e, s) in got.items()}


# -- criterion 1: Figure 1 golden corpus -------------------------------------

def test_criterion_01_figure_one_golden(fig1_dir, jre_mini):
    start = time.perf_counter()
    result = analyze_project(fig1_dir, jre_mini)
    elapsed = time.perf_counter() - start

    (analysis,) = result.bundles
    by_type = {f.type: f for f in possible(analysis)}
    assert set(by_type) == {IOE, IPE}

    assert {f.type for f in analysis.propagated} == {IOE}
    assert [(fact.type, strategy) for fact, (_c, _m, strategy)
            in analysis.handled.items()] == [(IPE, Strategy.SPECIFIC)]

    kinds = lambda fact: {k.value for k in fact.evidence}
    assert kinds(by_type[IOE]) == {
        "ThrowStatement", "ThrowsDeclaration", "DocComment"}
    assert kinds(by_type[IPE]) == {"ExternalDocumentation"}
    assert distinct_counts(analysis) == {IOE: 1, IPE: 1}

    assert elapsed < 1.0, f"analysis took {elapsed:.3f}s"
    _pass(1)


# -- criterion 2: acyclic corpora against the depth-first oracle -------------

def test_criterion_02_acyclic_oracle_equivalence():
    # transitive sets against the whole oracle; the default sets against
    # its evidence, with no contributing methods anywhere. A try's counts
    # are the oracle's contributing methods under transitive sets and its
    # directly invoked methods under the default ones
    start = time.perf_counter()
    corpora = 0
    tries_checked = 0
    for seed in range(1000):
        corpus = generate_corpus(seed)
        model, sets = build_corpus_model(corpus)
        expected = oracle_acyclic(corpus)
        assert _method_facts(sets, corpus) == expected, f"seed {seed}"
        direct_sets = compute_method_exception_sets(model)
        assert _method_facts(direct_sets, corpus) == {
            mid: _without_sources(by_type)
            for mid, by_type in expected.items()}, f"seed {seed}"
        corpora += 1

        gen_tries = iter_tries(corpus)
        model_tries = try_blocks(model)
        assert len(gen_tries) == len(model_tries), f"seed {seed}"
        tries_checked += len(model_tries)
        for mode_sets in (sets, direct_sets):
            for (owner_index, gen_try), (method, stmt) in zip(gen_tries,
                                                              model_tries):
                analysis = analyze_try_block(stmt, mode_sets, model, method)
                want_facts, want_direct = oracle_try_possible(
                    corpus, expected, owner_index, gen_try)
                if mode_sets is direct_sets:
                    want_facts = _without_sources(want_facts)
                    want_counts = {t: len(m) for t, m in want_direct.items()}
                else:
                    want_counts = {t: len(src)
                                   for t, (_e, src) in want_facts.items()}
                assert _try_facts(analysis) == want_facts, f"seed {seed}"
                assert distinct_counts(analysis) == want_counts, \
                    f"seed {seed}"
    elapsed = time.perf_counter() - start
    assert corpora == 1000 and tries_checked > 1000
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    _pass(2)


# -- criterion 3: cyclic call graphs against the closure oracle --------------

def test_criterion_03_cyclic_oracle_equivalence():
    for seed in range(300):
        corpus = generate_corpus(seed, cyclic=True, max_methods=10,
                                 allow_tries=False)
        model, sets = build_corpus_model(corpus)
        expected = oracle_cyclic(corpus)
        assert _method_facts(sets, corpus) == expected, f"seed {seed}"
        assert _method_facts(compute_method_exception_sets(model), corpus) \
            == {mid: _without_sources(by_type)
                for mid, by_type in expected.items()}, f"seed {seed}"
    _pass(3)


# -- criterion 4: partition and stacking invariants --------------------------

def test_criterion_04_partition_and_stacking(fig1_result):
    tries_checked = 0
    rows_checked = 0
    for seed in range(150):
        corpus = generate_corpus(seed, max_methods=12)
        if not iter_tries(corpus):
            continue
        model, sets = build_corpus_model(corpus)
        bundles = try_bundles(model, sets)
        for analysis in bundles:
            handled = set(analysis.handled)
            propagated = set(analysis.propagated)
            assert handled | propagated == set(possible(analysis))
            assert handled.isdisjoint(propagated)
            tries_checked += 1
        report = aggregate_project(bundles, model, "gen")
        for row in report.try_blocks:
            assert 0 <= row.propagated_recoverable <= row.propagated \
                <= row.total
            rows_checked += 1
    for row in fig1_result.report.try_blocks:
        assert 0 <= row.propagated_recoverable <= row.propagated <= row.total
    assert tries_checked > 100 and rows_checked > 100
    _pass(4)


# -- criterion 5: action detector fixtures -----------------------------------

def _handler_actions(body: str) -> frozenset:
    source = (
        "package p;\n"
        "import java.io.IOException;\n"
        "class A {\n"
        "  void f() {\n"
        "    while (true) {\n"
        "      try { recover(); } catch (Exception e) { " + body + " }\n"
        "    }\n"
        "  }\n"
        "  void recover() {}\n"
        "}\n")
    return classify_actions(lowered_clause(source).handler)


def test_criterion_05_action_fixtures():
    fixtures = [
        ("System.exit(1);", {Action.ABORT}),
        ("continue;", {Action.CONTINUE}),
        ("e.printStackTrace();", {Action.DEFAULT}),
        ("", {Action.EMPTY}),
        ("log.error(e);", {Action.LOG}),
        ("recover();", {Action.METHOD}),
        ("try {} catch (Exception inner) {}", {Action.NESTED_TRY}),
        ("return;", {Action.RETURN}),
        ("throw e;", {Action.THROW_CURRENT}),
        ("throw new IOException();", {Action.THROW_NEW}),
        ("throw new IllegalStateException(e);", {Action.THROW_WRAP}),
        ("// TODO deal with this\n", {Action.EMPTY, Action.TODO}),
    ]
    assert len(fixtures) == 12
    covered = set()
    for body, expected in fixtures:
        assert _handler_actions(body) == expected, body
        covered |= expected
    assert covered == set(Action)

    multi = [
        ("log.warn(e); throw new RuntimeException(e);",
         {Action.LOG, Action.THROW_WRAP}),
        ("e.printStackTrace(); return;", {Action.METHOD, Action.RETURN}),
        ("if (retries > 0) { continue; } System.exit(1);",
         {Action.CONTINUE, Action.ABORT}),
    ]
    for body, expected in multi:
        assert _handler_actions(body) == expected, body
    _pass(5)


# -- criterion 6: strategy classification over a 3-level hierarchy -----------

def test_criterion_06_strategy_hierarchy():
    source = (
        "package h;\n"
        "class A extends Exception {}\n"
        "class B extends A {}\n"
        "class C extends B {}\n"
        "class Use {\n"
        "  void f1() { try { throw new C(); } catch (C e) {} catch (A e) {} }\n"
        "  void f2() { try { throw new C(); } catch (A e) {} catch (C e) {} }\n"
        "  void f3() { try { throw new B(); } catch (C e) {} catch (A e) {} }\n"
        "}\n")
    platform = parse_platform_document({
        "types": [
            {"name": "java.lang.Throwable", "superclass": None,
             "kind": "checked"},
            {"name": "java.lang.Exception",
             "superclass": "java.lang.Throwable", "kind": "checked"},
            {"name": "java.lang.RuntimeException",
             "superclass": "java.lang.Exception", "kind": "unchecked"},
        ],
        "methods": []}, "hier")
    unit = parse_compilation_unit(source, "H.java")
    model = build_semantic_model([unit], platform)

    levels = ("h.A", "h.B", "h.C")
    depth = {tid: i for i, tid in enumerate(levels)}
    for fact in levels:
        for caught in levels:
            if depth[fact] < depth[caught]:
                with pytest.raises(ValueError):
                    classify_strategy(fact, caught, model)
            elif fact == caught:
                assert classify_strategy(fact, caught, model) == \
                    Strategy.SPECIFIC
            else:
                assert classify_strategy(fact, caught, model) == \
                    Strategy.SUBSUMPTION

    sets = compute_method_exception_sets(model)
    expected = [
        ("h.C", 0, "h.C", Strategy.SPECIFIC),
        ("h.C", 0, "h.A", Strategy.SUBSUMPTION),
        ("h.B", 1, "h.A", Strategy.SUBSUMPTION),
    ]
    entries = try_blocks(model)
    assert len(entries) == 3
    for (method, stmt), (fact_type, clause_index, matched_type, strategy) \
            in zip(entries, expected):
        analysis = analyze_try_block(stmt, sets, model, method)
        (fact,) = possible(analysis)
        assert fact.type == fact_type
        assert analysis.propagated == frozenset()
        clause, matched, got = analysis.handled[fact]
        assert clause is stmt.catches[clause_index]
        assert matched == matched_type
        assert got == strategy
    _pass(6)


# -- criterion 7: rank-sum test against the enumeration oracle ---------------

def _enumeration_p(a, b) -> float:
    """Two-sided p by enumerating every size-|a| rank subset directly."""
    pooled = sorted(list(a) + list(b))
    ranks = []
    for value in list(a) + list(b):
        where = [i + 1 for i, v in enumerate(pooled) if v == value]
        ranks.append(sum(where) / len(where))
    n = len(a)
    total = len(ranks)
    mu = n * (total + 1) / 2
    observed = sum(ranks[:n])
    hits = 0
    combos = 0
    for combo in itertools.combinations(range(total), n):
        combos += 1
        w = sum(ranks[i] for i in combo)
        if abs(w - mu) >= abs(observed - mu) - 1e-9:
            hits += 1
    return hits / combos


def test_criterion_07_rank_sum():
    for n in range(1, 9):
        for m in range(1, 9):
            rng = random.Random(100 * n + m)
            tie_free = rng.sample(range(1000), n + m)
            tied = [rng.randrange(4) for _ in range(n + m)]
            for pool in (tie_free, tied):
                a, b = pool[:n], pool[n:]
                result = wilcoxon_rank_sum(a, b)
                assert result.method == "exact"
                assert result.p_value == pytest.approx(
                    _enumeration_p(a, b), abs=1e-12), (n, m, pool)

    # normal approximation at n = m = 10, tie-free
    worst = 0.0
    for shift in range(21):
        a = list(range(1, 11))
        b = [v + shift + 0.5 for v in a]
        exact = wilcoxon_rank_sum(a, b, exact_cutoff=12).p_value
        approx = wilcoxon_rank_sum(a, b, exact_cutoff=1).p_value
        worst = max(worst, abs(exact - approx))
    rng = random.Random(7)
    for _ in range(200):
        pool = rng.sample(range(10000), 20)
        a, b = pool[:10], pool[10:]
        exact = wilcoxon_rank_sum(a, b, exact_cutoff=12).p_value
        approx = wilcoxon_rank_sum(a, b, exact_cutoff=1).p_value
        worst = max(worst, abs(exact - approx))
    assert worst < 1e-2, f"worst exact-vs-normal gap {worst:.4f}"

    # anchors
    small = wilcoxon_rank_sum([1, 2], [3, 4])
    assert small.p_value == pytest.approx(1 / 3, abs=1e-12)
    assert small.p_value == pytest.approx(0.3333, abs=1e-4)
    separated = wilcoxon_rank_sum(list(range(1, 11)), list(range(11, 21)))
    assert separated.p_value == pytest.approx(2 / math.comb(20, 10),
                                              abs=1e-15)
    assert separated.p_value == pytest.approx(1.08e-5, abs=1e-7)
    _pass(7)


# -- criterion 8: lint behavior ----------------------------------------------

def test_criterion_08_lint(fig1_dir, jre_mini_path, tmp_path, capsys):
    code = main(["lint", "--project", str(fig1_dir),
                 "--platform", str(jre_mini_path),
                 "--fail-on", "recoverable-propagated"])
    out = capsys.readouterr().out
    assert code == 1
    findings = [line for line in out.splitlines() if line.strip()]
    assert len(findings) == 1
    assert "RecoverablePropagated" in findings[0]

    project = tmp_path / "generic"
    project.mkdir()
    (project / "G.java").write_text(
        "package g;\n"
        "class G {\n"
        "  void f() { try { g(); } catch (Exception e) {} }\n"
        "  void g() { try { f(); } catch (Exception e) {} }\n"
        "  void h() { try { f(); } catch (IllegalStateException e) {} }\n"
        "}\n")
    code = main(["lint", "--project", str(project),
                 "--platform", str(jre_mini_path),
                 "--fail-on", "catch-generic"])
    out = capsys.readouterr().out
    assert code == 1
    generic = [line for line in out.splitlines() if "CatchGeneric" in line]
    assert len(generic) == 2  # one per catch (Exception e) clause
    _pass(8)


# -- criterion 9: byte-identical outputs -------------------------------------

def test_criterion_09_determinism(tmp_path):
    project = tmp_path / "corpus"
    project.mkdir()
    entries = []
    for i in range(100):
        namespace = f"gen{i:03d}"
        corpus = generate_corpus(1000 + i, max_methods=8)
        (project / f"App{i:03d}.java").write_text(
            namespace_source(corpus, namespace))
        entries.append((namespace, corpus))
    platform_path = tmp_path / "platform.json"
    platform_path.write_text(json.dumps(platform_document_multi(entries)))

    outputs = []
    for run in ("one", "two"):
        run_dir = tmp_path / run
        out_json = run_dir / "report.json"
        out_csv = run_dir / "tables"
        base = [sys.executable, "-m", "exflow.cli", "analyze",
                "--project", str(project), "--platform", str(platform_path)]
        first = subprocess.run(base + ["--out", str(out_json)],
                               capture_output=True)
        assert first.returncode == 0, first.stderr.decode()
        second = subprocess.run(
            base + ["--format", "csv", "--out", str(out_csv)],
            capture_output=True)
        assert second.returncode == 0, second.stderr.decode()
        blobs = [out_json.read_bytes()]
        blobs += [(out_csv / name).read_bytes() for name in CSV_NAMES]
        outputs.append(blobs)

    assert outputs[0] == outputs[1]
    document = json.loads(outputs[0][0])
    assert document["totals"]["try_blocks"] > 50
    _pass(9)
