"""Report aggregation, serialization, and CSV emission."""

import json
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _corpus import (
    generate_corpus, platform_document, render_app, render_exceptions,
)
from exflow import report as report_module
from exflow.config import Config
from exflow.driver import analyze_project
from exflow.lint import lint
from exflow.model import parse_platform_document
from exflow.report import (
    DIVERSITY_BUCKETS,
    Diversity,
    FactRow,
    HandlerRow,
    ProjectReport,
    Totals,
    TryRow,
    TypeAttribution,
    documentation_coverage,
    emit_csv_tables,
    emit_report,
    report_from_json,
    report_to_json,
)

IOE = "java.io.IOException"
RTE = "java.lang.RuntimeException"
IPE = "java.nio.file.InvalidPathException"

DEMO = (
    "package demo;\n"
    "import java.io.IOException;\n"
    "class D {\n"
    "  void f() { try { g(); } catch (IOException e) {} }\n"
    "  void h() {\n"
    "    try { g(); throw new RuntimeException(); }\n"
    "    catch (IOException e) { e.printStackTrace(); }\n"
    "  }\n"
    "  void g() throws IOException {}\n"
    "}\n")


@pytest.fixture()
def demo_result(tmp_path, jre_mini):
    (tmp_path / "D.java").write_text(DEMO)
    return analyze_project(tmp_path, jre_mini, name="demo")


def test_figure_one_totals(fig1_result):
    totals = fig1_result.report.totals
    assert totals.try_blocks == 1
    assert totals.catch_clauses == 1
    assert totals.methods == 3
    assert totals.distinct_exception_types == 2


def test_figure_one_row(fig1_result):
    (row,) = fig1_result.report.try_blocks
    assert (row.total, row.propagated, row.propagated_recoverable) == (2, 1, 1)
    assert [e.type for e in row.exceptions] == [IOE, IPE]
    by_type = {e.type: e for e in row.exceptions}
    assert by_type[IOE].strategy == "propagated"
    assert by_type[IOE].distinct_methods == 1
    assert by_type[IOE].evidence == [
        "DocComment", "ThrowStatement", "ThrowsDeclaration"]
    assert by_type[IPE].strategy == "specific"
    assert by_type[IPE].evidence == ["ExternalDocumentation"]
    handled = {f.type: f.handled for f in row.facts}
    assert handled == {IOE: False, IPE: True}
    assert all(f.origin.startswith("call ") for f in row.facts)
    (handler,) = row.handlers
    assert handler.actions == ["Default"]


def test_figure_one_diversity(fig1_result):
    diversity = fig1_result.report.diversity
    assert diversity.total_types == 2
    assert diversity.buckets["1"] == 1.0
    assert sum(diversity.buckets.values()) == 1.0


def test_demo_counts_and_buckets(demo_result):
    report = demo_result.report
    assert report.totals.try_blocks == 2
    assert report.totals.catch_clauses == 2
    assert report.totals.methods == 3
    assert report.totals.distinct_exception_types == 2
    assert report.diversity.buckets == {
        "1": 0.5, "2": 0.5, "3": 0.0, "4": 0.0, "5": 0.0, ">5": 0.0}
    first, second = report.try_blocks
    assert first.line < second.line
    assert (first.total, first.propagated) == (1, 0)
    assert (second.total, second.propagated, second.propagated_recoverable) \
        == (2, 1, 0)


def test_coverage_recount(fig1_result):
    coverage = documentation_coverage(fig1_result.report)
    assert coverage.total_facts == 2
    assert coverage.counts == {
        "DocComment": 1, "ExternalDocumentation": 1,
        "ThrowStatement": 1, "ThrowsDeclaration": 1}
    assert coverage.overlaps["DocComment&ThrowStatement"] == 1
    assert coverage.overlaps["DocComment&ThrowsDeclaration"] == 1
    assert coverage.overlaps["ThrowStatement&ThrowsDeclaration"] == 1
    assert coverage.overlaps["DocComment&ExternalDocumentation"] == 0
    # every fact contributes to each kind it carries
    assert sum(coverage.counts.values()) >= coverage.total_facts


def test_json_round_trip(fig1_result):
    text = report_to_json(fig1_result.report)
    assert text.endswith("\n")
    assert report_from_json(text) == fig1_result.report


def test_json_stable_across_runs(fig1_dir, jre_mini):
    first = analyze_project(fig1_dir, jre_mini, name="fig1")
    second = analyze_project(fig1_dir, jre_mini, name="fig1")
    assert report_to_json(first.report) == report_to_json(second.report)


def test_emit_json_to_file_and_stdout(tmp_path, capsys, fig1_result):
    target = tmp_path / "deep" / "out.json"
    written = emit_report(fig1_result.report, "json", target)
    assert written == [target]
    assert json.loads(target.read_text())["project"] == fig1_result.report.project

    assert emit_report(fig1_result.report, "json", None) == []
    assert json.loads(capsys.readouterr().out)["project"] == \
        fig1_result.report.project


def test_emit_rejects_bad_requests(fig1_result):
    with pytest.raises(ValueError, match="destination directory"):
        emit_report(fig1_result.report, "csv", None)
    with pytest.raises(ValueError, match="unknown report format"):
        emit_report(fig1_result.report, "yaml", "out.yaml")


def test_csv_headers_and_rows(tmp_path, demo_result):
    written = emit_csv_tables([demo_result.report], tmp_path)
    names = sorted(p.name for p in written)
    assert names == ["actions.csv", "diversity.csv", "sources.csv",
                     "strategies.csv", "tryblocks.csv"]

    lines = (tmp_path / "tryblocks.csv").read_text().splitlines()
    assert lines[0] == \
        "project,try_id,file,line,total,propagated,propagated_recoverable"
    assert len(lines) == 3
    assert all(line.startswith("demo,") for line in lines[1:])

    lines = (tmp_path / "diversity.csv").read_text().splitlines()
    assert lines[0] == "project,bucket,fraction,total_types"
    assert [line.split(",")[1] for line in lines[1:]] == list(DIVERSITY_BUCKETS)

    lines = (tmp_path / "sources.csv").read_text().splitlines()
    assert lines[0] == \
        "project,exception_type,try_id,distinct_methods,evidence_kinds"
    assert len(lines) == 4  # one per (try, type)

    lines = (tmp_path / "strategies.csv").read_text().splitlines()
    assert lines[0] == "project,try_id,exception_type,strategy"
    strategies = {line.split(",")[3] for line in lines[1:]}
    assert strategies == {"specific", "propagated"}

    lines = (tmp_path / "actions.csv").read_text().splitlines()
    assert lines[0] == "project,catch_id,action"
    actions = sorted(line.split(",")[2] for line in lines[1:])
    assert actions == ["Default", "Empty"]


def test_sources_evidence_kinds_joined(tmp_path, fig1_result):
    emit_csv_tables([fig1_result.report], tmp_path)
    lines = (tmp_path / "sources.csv").read_text().splitlines()
    joined = {line.split(",")[1]: line.split(",")[4] for line in lines[1:]}
    assert joined[IOE] == "DocComment|ThrowStatement|ThrowsDeclaration"
    assert joined[IPE] == "ExternalDocumentation"


def test_csv_emission_deterministic(tmp_path, demo_result):
    first_dir = tmp_path / "one"
    second_dir = tmp_path / "two"
    emit_csv_tables([demo_result.report], first_dir)
    emit_csv_tables([demo_result.report], second_dir)
    for name in ("tryblocks.csv", "diversity.csv", "sources.csv",
                 "strategies.csv", "actions.csv"):
        assert (first_dir / name).read_bytes() == (second_dir / name).read_bytes()


def test_multiple_reports_concatenate(tmp_path, fig1_result, demo_result):
    emit_csv_tables([fig1_result.report, demo_result.report], tmp_path)
    lines = (tmp_path / "tryblocks.csv").read_text().splitlines()
    projects = [line.split(",")[0] for line in lines[1:]]
    assert projects == [fig1_result.report.project, "demo", "demo"]


# -- the JSON writer against json.dumps --------------------------------------

def reference_dict(report):
    """The report document in schema order, for json.dumps(indent=2)."""
    return {
        "project": report.project,
        "totals": {
            "try_blocks": report.totals.try_blocks,
            "catch_clauses": report.totals.catch_clauses,
            "methods": report.totals.methods,
            "distinct_exception_types": report.totals.distinct_exception_types,
        },
        "try_blocks": [
            {
                "try_id": row.try_id,
                "file": row.file,
                "line": row.line,
                "total": row.total,
                "propagated": row.propagated,
                "propagated_recoverable": row.propagated_recoverable,
                "exceptions": [
                    {"type": e.type, "distinct_methods": e.distinct_methods,
                     "evidence": list(e.evidence), "strategy": e.strategy}
                    for e in row.exceptions],
                "facts": [
                    {"type": f.type, "origin": f.origin,
                     "evidence": list(f.evidence), "handled": f.handled}
                    for f in row.facts],
                "handlers": [
                    {"catch_id": h.catch_id, "actions": list(h.actions)}
                    for h in row.handlers],
            }
            for row in report.try_blocks],
        "diversity": {
            "total_types": report.diversity.total_types,
            "buckets": {b: report.diversity.buckets[b]
                        for b in DIVERSITY_BUCKETS},
        },
    }


def assert_writer_matches_json_dumps(report):
    expected = json.dumps(reference_dict(report), indent=2) + "\n"
    assert report_to_json(report) == expected


# quotes, backslashes, control characters, non-ASCII (one outside the BMP)
# and the line separators JavaScript treats specially
awkward = st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80é€\u2028\u2029😀a ')
strings = st.text(awkward | st.characters(), max_size=6)
labels = st.lists(strings, max_size=3)
counts = st.integers(-10**12, 10**12)
fractions = st.sampled_from([1 / 3, 2 / 3, 0.0, 1.0, 0.5, 1e-7]) \
    | st.floats(0.0, 1.0)
rows = st.builds(
    TryRow, strings, strings, counts, counts, counts, counts,
    st.lists(st.builds(TypeAttribution, strings, counts, labels, strings),
             max_size=3),
    st.lists(st.builds(FactRow, strings, strings, labels, st.booleans()),
             max_size=3),
    st.lists(st.builds(HandlerRow, strings, labels), max_size=3))
reports = st.builds(
    ProjectReport, strings,
    st.builds(Totals, counts, counts, counts, counts),
    st.lists(rows, max_size=3),
    st.builds(Diversity, counts,
              st.fixed_dictionaries({b: fractions for b in DIVERSITY_BUCKETS})))


@settings(deadline=None)
@given(reports)
def test_writer_matches_json_dumps(report):
    assert_writer_matches_json_dumps(report)


def test_writer_on_empty_lists():
    empty = ProjectReport(
        "", Totals(0, 0, 0, 0),
        [TryRow("t", "f", 1, 0, 0, 0, [], [], []),
         TryRow("u", "g", 2, 1, 1, 0,
                [TypeAttribution("X", 0, [], "propagated")],
                [FactRow("X", "throw g:2:3", [], False)],
                [HandlerRow("c", [])])],
        Diversity(0, {b: 0.0 for b in DIVERSITY_BUCKETS}))
    assert_writer_matches_json_dumps(empty)
    assert_writer_matches_json_dumps(ProjectReport(
        "p", Totals(0, 0, 0, 0), [],
        Diversity(3, {b: 1 / 3 for b in DIVERSITY_BUCKETS})))


def test_writer_on_figure_one(fig1_result):
    assert_writer_matches_json_dumps(fig1_result.report)


def cyclic_tree(root, seed):
    """A generated cyclic corpus written under root; returns its platform."""
    corpus = generate_corpus(seed, cyclic=True, max_methods=30)
    (root / "gen").mkdir()
    (root / "gen" / "App.java").write_text(render_app(corpus))
    (root / "gen" / "Exceptions.java").write_text(render_exceptions(corpus))
    return parse_platform_document(platform_document(corpus), "gen")


@pytest.mark.parametrize("seed", range(4))
def test_writer_on_cyclic_corpora(tmp_path, seed):
    platform = cyclic_tree(tmp_path, seed)
    for transitive in (False, True):
        result = analyze_project(tmp_path, platform,
                                 Config(transitive_origins=transitive),
                                 name="gen")
        assert result.report.try_blocks
        assert_writer_matches_json_dumps(result.report)


def test_emit_writes_no_piece_longer_than_a_row(tmp_path, monkeypatch):
    platform = cyclic_tree(tmp_path, 3)
    report = analyze_project(tmp_path, platform, name="gen").report
    assert len(report.try_blocks) > 1
    written = []

    class Recorder:
        def write(self, text):
            written.append(text)
            return len(text)

        def writelines(self, lines):
            written.extend(lines)

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert emit_report(report, "json", None) == []
    assert "".join(written) == report_to_json(report)
    # a row as the document holds it: json.dumps at two levels deep
    longest_row = max(len(textwrap.indent(json.dumps(row, indent=2), "    "))
                      for row in reference_dict(report)["try_blocks"])
    assert max(map(len, written)) <= longest_row


# -- rows built as they are read ----------------------------------------------

def test_aggregated_rows_are_a_sequence(tmp_path):
    platform = cyclic_tree(tmp_path, 1)
    rows = analyze_project(tmp_path, platform, name="gen").report.try_blocks
    assert not isinstance(rows, list)
    first, again = list(rows), list(rows)
    assert len(rows) == len(first) > 2
    assert first == again
    assert all(a is not b for a, b in zip(first, again))
    assert rows[0] == first[0]
    assert rows[-1] == first[-1]
    assert rows[1:3] == first[1:3]
    with pytest.raises(IndexError):
        rows[len(first)]
    assert [(r.file, r.line) for r in rows] == \
        sorted((r.file, r.line) for r in rows)
    # one evidence list per distinct evidence set, shared by the rows
    lists = [x.evidence for r in first for x in (*r.exceptions, *r.facts)]
    assert len({id(x) for x in lists}) == len({tuple(x) for x in lists})


def test_empty_project_has_no_rows(tmp_path, jre_mini):
    report = analyze_project(tmp_path, jre_mini, name="empty").report
    assert not report.try_blocks
    assert len(report.try_blocks) == 0
    assert list(report.try_blocks) == []
    assert report.try_blocks == []
    assert '"try_blocks": [],' in report_to_json(report)
    assert report_from_json(report_to_json(report)) == report


@pytest.mark.parametrize("transitive", [False, True])
def test_aggregated_and_loaded_reports_are_equal(tmp_path, transitive):
    platform = cyclic_tree(tmp_path, 2)
    report = analyze_project(tmp_path, platform,
                             Config(transitive_origins=transitive),
                             name="gen").report
    loaded = report_from_json(report_to_json(report))
    assert isinstance(loaded.try_blocks, list)
    assert loaded == report
    assert report == loaded
    assert report.try_blocks == loaded.try_blocks
    assert loaded.try_blocks == report.try_blocks
    loaded.try_blocks[0].total += 1
    assert loaded != report
    assert report != loaded


@pytest.fixture()
def built_rows(monkeypatch):
    """The try_id of every TryRow that report.py builds, in order."""
    built = []
    real = report_module.TryRow

    def counting(*args, **kwargs):
        row = real(*args, **kwargs)
        built.append(row.try_id)
        return row

    monkeypatch.setattr(report_module, "TryRow", counting)
    return built


def test_each_emission_builds_each_row_once(tmp_path, built_rows):
    platform = cyclic_tree(tmp_path, 3)
    report = analyze_project(tmp_path, platform, name="gen").report
    assert built_rows == []
    assert report.totals.try_blocks == len(report.try_blocks) > 2
    assert built_rows == []

    assert emit_report(report, "json", tmp_path / "out.json") == \
        [tmp_path / "out.json"]
    ids = list(built_rows)
    assert len(ids) == len(set(ids)) == report.totals.try_blocks
    built_rows.clear()

    assert len(emit_csv_tables([report], tmp_path / "csv")) == 5
    assert built_rows == ids
    built_rows.clear()

    assert documentation_coverage(report).total_facts > 0
    assert built_rows == ids


def test_lint_builds_no_row(tmp_path, built_rows):
    platform = cyclic_tree(tmp_path, 3)
    result = analyze_project(tmp_path, platform, name="gen")
    assert lint(result.bundles, Config(), result.model)
    assert built_rows == []
