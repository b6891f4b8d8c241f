"""Cross-cutting invariants checked against generated inputs."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exflow.classify import Action, Strategy, classify_actions
from exflow.driver import try_bundles
from exflow.flow import analyze_try_block, try_blocks
from exflow.report import aggregate_project, report_to_json
from exflow.stats import wilcoxon_rank_sum
from exflow.syntax.javadoc import extract_doc_throws

from _clauses import lowered_clause, possible
from _corpus import (
    build_corpus_model, generate_corpus, iter_tries, partition_recoverability,
)

# -- doc-comment extraction --------------------------------------------------

tag_names = st.from_regex(r"[A-Z][a-zA-Z0-9]{0,8}", fullmatch=True)
tag_words = st.lists(st.from_regex(r"[a-z0-9]{1,6}", fullmatch=True),
                     max_size=4)


@given(st.lists(st.tuples(tag_names, tag_words), max_size=5))
def test_doc_tags_extracted_in_order(tags):
    lines = ["/**", " * Summary line."]
    for name, words in tags:
        lines.append(" * @throws " + " ".join([name] + words))
    lines.append(" */")
    extracted = extract_doc_throws("\n".join(lines))
    assert extracted == [(name, " ".join(words)) for name, words in tags]


# -- rank-sum test -----------------------------------------------------------

samples = st.lists(st.integers(-50, 50), min_size=1, max_size=10)


@given(samples, samples)
def test_rank_sum_symmetry(a, b):
    left = wilcoxon_rank_sum(a, b)
    right = wilcoxon_rank_sum(b, a)
    assert left.p_value == right.p_value
    assert left.statistic + right.statistic == len(a) * len(b)


@given(samples, samples, st.integers(1, 3), st.integers(-5, 5))
def test_rank_sum_invariant_under_positive_affine_maps(a, b, scale, shift):
    base = wilcoxon_rank_sum(a, b)
    moved = wilcoxon_rank_sum([scale * v + shift for v in a],
                              [scale * v + shift for v in b])
    assert moved.p_value == base.p_value
    assert moved.statistic == base.statistic


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=15),
       st.lists(st.integers(-9, 9), min_size=1, max_size=15))
def test_rank_sum_p_in_unit_interval(a, b):
    p = wilcoxon_rank_sum(a, b).p_value
    assert 0.0 <= p <= 1.0


@given(st.sets(st.integers(0, 400), min_size=20, max_size=24))
def test_exact_and_normal_agree_without_ties(pool):
    values = sorted(pool)
    a = values[::2][:10]
    b = values[1::2][:10]
    exact = wilcoxon_rank_sum(a, b, exact_cutoff=12)
    approx = wilcoxon_rank_sum(a, b, exact_cutoff=1)
    assert exact.method == "exact"
    assert approx.method == "normal-approximation"
    assert abs(exact.p_value - approx.p_value) < 1.5e-2


# -- generated corpora -------------------------------------------------------

seeds = st.integers(0, 10 ** 6)


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_subtype_is_partial_order(seed):
    corpus = generate_corpus(seed, max_methods=3, allow_tries=False)
    model, _ = build_corpus_model(corpus)
    universe = sorted(model.exception_universe)
    for a in universe:
        assert model.is_subtype(a, a)
    for a in universe:
        for b in universe:
            if model.is_subtype(a, b) and model.is_subtype(b, a):
                assert a == b
            for c in universe:
                if model.is_subtype(a, b) and model.is_subtype(b, c):
                    assert model.is_subtype(a, c)


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_try_partition_invariants(seed):
    corpus = generate_corpus(seed, max_methods=12)
    assume(iter_tries(corpus))
    model, sets = build_corpus_model(corpus)
    for method, stmt in try_blocks(model):
        analysis = analyze_try_block(stmt, sets, model, method)
        handled = set(analysis.handled)
        assert handled | set(analysis.propagated) == set(possible(analysis))
        assert handled.isdisjoint(analysis.propagated)
        for fact, (clause, matched, strategy) in analysis.handled.items():
            assert clause in stmt.catches
            assert model.is_subtype(fact.type, matched)
            expected = (Strategy.SPECIFIC if fact.type == matched
                        else Strategy.SUBSUMPTION)
            assert strategy == expected
        recoverable, unrecoverable = partition_recoverability(
            analysis.propagated, model)
        assert recoverable | unrecoverable == set(analysis.propagated)
        assert recoverable.isdisjoint(unrecoverable)
        for fact in recoverable:
            assert model.kind_of(fact.type) == "checked"


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_catch_all_clause_stops_all_propagation(seed):
    corpus = generate_corpus(seed, max_methods=8)
    tries = iter_tries(corpus)
    assume(tries)
    model, sets = build_corpus_model(corpus)
    (method, stmt) = try_blocks(model)[0]
    before = analyze_try_block(stmt, sets, model, method)

    tries[0][1].catches.append((["Throwable"], []))
    model2, sets2 = build_corpus_model(corpus)
    (method2, stmt2) = try_blocks(model2)[0]
    after = analyze_try_block(stmt2, sets2, model2, method2)

    assert possible(after) == possible(before)
    assert after.propagated == frozenset()
    assert set(after.handled) == set(possible(after))


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_analysis_deterministic_for_a_seed(seed):
    reports = []
    for _ in range(2):
        corpus = generate_corpus(seed, max_methods=8)
        model, sets = build_corpus_model(corpus)
        reports.append(report_to_json(
            aggregate_project(try_bundles(model, sets), model, "gen")))
    assert reports[0] == reports[1]


# -- handler actions ---------------------------------------------------------

ACTION_POOL = [
    "return;",
    "continue;",
    "log.error(e);",
    "System.exit(1);",
    "recover();",
    "throw e;",
    "throw new RuntimeException(e);",
    "throw new IOException();",
    "try { recover(); } catch (Exception inner) {}",
    "e.printStackTrace();",
    "int x = 0;",
]


def actions_for(statements):
    source = (
        "package p;\n"
        "import java.io.IOException;\n"
        "class A {\n"
        "  void f() {\n"
        "    while (true) {\n"
        "      try { recover(); } catch (Exception e) { "
        + " ".join(statements) + " }\n"
        "    }\n"
        "  }\n"
        "  void recover() {}\n"
        "}\n")
    return classify_actions(lowered_clause(source).handler)


@given(st.lists(st.sampled_from(ACTION_POOL), min_size=1, max_size=4),
       st.sampled_from(ACTION_POOL))
def test_actions_monotone_under_extension(statements, extra):
    base = actions_for(statements)
    extended = actions_for(statements + [extra])
    # Default and Empty describe the whole handler, not one statement
    assert base - {Action.DEFAULT, Action.EMPTY} <= extended
