"""Command-line behavior and exit codes."""

import gc
import json

import pytest

from _corpus import (
    generate_corpus, platform_document, render_app, render_exceptions,
)
from exflow import cli
from exflow.cli import main
from exflow.driver import analyze_project
from exflow.model import parse_platform_document

DEMO = (
    "package demo;\n"
    "import java.io.IOException;\n"
    "class D {\n"
    "  void g() throws IOException {}\n"
    "  void f() { try { g(); } catch (IllegalStateException e) {} }\n"
    "}\n")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_demo(tmp_path):
    project = tmp_path / "src"
    project.mkdir()
    (project / "D.java").write_text(DEMO)
    return project


def test_analyze_json_to_stdout(capsys, fig1_dir, jre_mini_path):
    code, out, _err = run(capsys, "analyze", "--project", str(fig1_dir),
                          "--platform", str(jre_mini_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["project"] == "fig1"
    assert doc["totals"]["try_blocks"] == 1


def test_analyze_json_to_file(capsys, tmp_path, fig1_dir, jre_mini_path):
    target = tmp_path / "report.json"
    code, out, _err = run(capsys, "analyze", "--project", str(fig1_dir),
                          "--platform", str(jre_mini_path),
                          "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["project"] == "fig1"


def test_analyze_csv(capsys, tmp_path, fig1_dir, jre_mini_path):
    out_dir = tmp_path / "tables"
    code, *_ = run(capsys, "analyze", "--project", str(fig1_dir),
                   "--platform", str(jre_mini_path),
                   "--format", "csv", "--out", str(out_dir))
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "actions.csv", "diversity.csv", "sources.csv", "strategies.csv",
        "tryblocks.csv"]


def test_analyze_csv_needs_out(capsys, fig1_dir, jre_mini_path):
    code, _out, err = run(capsys, "analyze", "--project", str(fig1_dir),
                          "--platform", str(jre_mini_path), "--format", "csv")
    assert code == 2
    assert "destination" in err


def test_lint_prints_without_failing(capsys, fig1_dir, jre_mini_path):
    code, out, _err = run(capsys, "lint", "--project", str(fig1_dir),
                          "--platform", str(jre_mini_path))
    assert code == 0
    assert "RecoverablePropagated" in out


def test_lint_fail_on_matching_rule(capsys, fig1_dir, jre_mini_path):
    code, out, _err = run(capsys, "lint", "--project", str(fig1_dir),
                          "--platform", str(jre_mini_path),
                          "--fail-on", "recoverable-propagated")
    assert code == 1
    assert out.count("RecoverablePropagated") == 1


def test_lint_fail_on_other_rule(capsys, fig1_dir, jre_mini_path):
    code, out, _err = run(capsys, "lint", "--project", str(fig1_dir),
                          "--platform", str(jre_mini_path),
                          "--fail-on", "catch-generic")
    assert code == 0
    assert "RecoverablePropagated" in out  # still reported


def test_lint_unknown_rule(capsys, fig1_dir, jre_mini_path):
    code, _out, err = run(capsys, "lint", "--project", str(fig1_dir),
                          "--platform", str(jre_mini_path),
                          "--fail-on", "made-up")
    assert code == 2
    assert "unknown lint rule" in err


def test_missing_project_dir(capsys, tmp_path, jre_mini_path):
    code, _out, err = run(capsys, "analyze",
                          "--project", str(tmp_path / "nope"),
                          "--platform", str(jre_mini_path))
    assert code == 2
    assert "not a directory" in err


def test_no_platform_model(capsys, fig1_dir, monkeypatch):
    monkeypatch.delenv("EXFLOW_PLATFORM_PATH", raising=False)
    code, _out, err = run(capsys, "analyze", "--project", str(fig1_dir))
    assert code == 2
    assert "no platform model" in err


def test_platform_path_environment(capsys, fig1_dir, jre_mini_path,
                                   monkeypatch):
    monkeypatch.setenv("EXFLOW_PLATFORM_PATH", str(jre_mini_path.parent))
    code, out, _err = run(capsys, "analyze", "--project", str(fig1_dir))
    assert code == 0
    assert json.loads(out)["project"] == "fig1"


def test_platform_path_rejects_non_directory(capsys, fig1_dir, jre_mini_path,
                                             monkeypatch):
    monkeypatch.setenv("EXFLOW_PLATFORM_PATH", str(jre_mini_path))
    code, _out, err = run(capsys, "analyze", "--project", str(fig1_dir))
    assert code == 2
    assert "not a directory" in err


def test_bad_platform_file(capsys, tmp_path, fig1_dir):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"types\": [], \"methods\": [], \"oops\": 1}")
    code, _out, err = run(capsys, "analyze", "--project", str(fig1_dir),
                          "--platform", str(bad))
    assert code == 2
    assert "unknown keys" in err


def test_unparseable_file_skipped_by_default(capsys, tmp_path, jre_mini_path):
    project = write_demo(tmp_path)
    (project / "Broken.java").write_text("class {{{")
    code, out, err = run(capsys, "analyze", "--project", str(project),
                         "--platform", str(jre_mini_path))
    assert code == 0
    assert "skipped unparseable file" in err
    assert json.loads(out)["totals"]["try_blocks"] == 1


def test_strict_promotes_parse_errors(capsys, tmp_path, jre_mini_path):
    project = write_demo(tmp_path)
    (project / "Broken.java").write_text("class {{{")
    code, _out, err = run(capsys, "analyze", "--project", str(project),
                          "--platform", str(jre_mini_path), "--strict")
    assert code == 3
    assert "error:" in err


def nested_parentheses(depth):
    return ("class Deep { int f() { return " + "(" * depth + "1"
            + ")" * depth + "; } }\n")


# deeper than the parser can follow under the default recursion limit on
# every supported Python
NESTED = nested_parentheses(1000).encode()


@pytest.mark.parametrize("name, content, reason", [
    ("Latin.java", b'class L { String s = "caf\xe9"; }\n',
     "not valid UTF-8: byte 0xe9 at offset 25"),
    ("Deep.java", NESTED, "nesting too deep"),
], ids=["not-utf8", "nested-1000-deep"])
def test_undecodable_or_deep_file_is_a_parse_error(
        capsys, tmp_path, jre_mini_path, name, content, reason):
    project = write_demo(tmp_path)
    (project / name).write_bytes(content)
    code, out, err = run(capsys, "analyze", "--project", str(project),
                         "--platform", str(jre_mini_path))
    assert code == 0
    assert f"skipped unparseable file: {project / name}: {reason}" in err
    assert "Traceback" not in err
    assert json.loads(out)["totals"]["try_blocks"] == 1
    code, _out, err = run(capsys, "analyze", "--project", str(project),
                          "--platform", str(jre_mini_path), "--strict")
    assert code == 3
    assert f"error: {project / name}: {reason}" in err


def test_150_nested_parentheses_are_analyzed(capsys, tmp_path,
                                             jre_mini_path):
    project = write_demo(tmp_path)
    (project / "Deep.java").write_text(nested_parentheses(150))
    code, out, err = run(capsys, "analyze", "--project", str(project),
                         "--platform", str(jre_mini_path), "--strict")
    assert code == 0
    assert "skipped" not in err
    assert json.loads(out)["totals"]["methods"] == 3


# 1500 string terms make a left-deep chain of 1499 Binary nodes, deeper than
# the default recursion limit; calls sit at both ends of the chain, inside a
# try, and the handler logs another long concatenation
TERMS = " + ".join(f'"s{i}"' for i in range(1500))
CONCATENATION = (
    "package demo;\n"
    "class Long {\n"
    "  String g() { return \"\"; }\n"
    "  String f() {\n"
    f"    try {{ return g() + {TERMS} + g(); }}\n"
    f"    catch (IllegalStateException e) {{ System.out.println({TERMS}); }}\n"
    "    return null;\n"
    "  }\n"
    "}\n")


def test_long_concatenation_is_analyzed(capsys, tmp_path, jre_mini_path):
    project = write_demo(tmp_path)
    (project / "Long.java").write_text(CONCATENATION)
    code, out, err = run(capsys, "analyze", "--project", str(project),
                         "--platform", str(jre_mini_path))
    assert code == 0
    assert "Traceback" not in err and "RecursionError" not in err
    doc = json.loads(out)
    assert doc["totals"]["try_blocks"] == 2
    assert doc["totals"]["methods"] == 4


def test_model_error_exits_three(capsys, tmp_path, jre_mini_path):
    project = tmp_path / "src"
    project.mkdir()
    (project / "Cycle.java").write_text(
        "package p; class A extends B {} class B extends A {}")
    code, _out, err = run(capsys, "analyze", "--project", str(project),
                          "--platform", str(jre_mini_path))
    assert code == 3
    assert "cycle" in err


def test_bad_config_exits_two(capsys, tmp_path, fig1_dir, jre_mini_path):
    conf = tmp_path / "conf.json"
    conf.write_text("{\"config\": {\"mystery\": 1}}")
    code, _out, err = run(capsys, "analyze", "--project", str(fig1_dir),
                          "--platform", str(jre_mini_path),
                          "--config", str(conf))
    assert code == 2
    assert "unknown keys" in err


def test_report_command_roundtrip(capsys, tmp_path, fig1_dir, jre_mini_path):
    first = tmp_path / "a.json"
    run(capsys, "analyze", "--project", str(fig1_dir),
        "--platform", str(jre_mini_path), "--out", str(first))
    project = write_demo(tmp_path)
    second = tmp_path / "b.json"
    run(capsys, "analyze", "--project", str(project),
        "--platform", str(jre_mini_path), "--out", str(second))

    out_dir = tmp_path / "tables"
    code, *_ = run(capsys, "report", "--inputs", str(first), str(second),
                   "--out", str(out_dir))
    assert code == 0
    lines = (out_dir / "tryblocks.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["fig1", "src"]


def test_report_command_rejects_bad_input(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    code, _out, err = run(capsys, "report", "--inputs", str(bad),
                          "--out", str(tmp_path / "tables"))
    assert code == 2
    assert "cannot load report" in err


def test_stats_command(capsys, tmp_path, fig1_dir, jre_mini_path):
    first = tmp_path / "a.json"
    run(capsys, "analyze", "--project", str(fig1_dir),
        "--platform", str(jre_mini_path), "--out", str(first))
    project = write_demo(tmp_path)
    second = tmp_path / "b.json"
    run(capsys, "analyze", "--project", str(project),
        "--platform", str(jre_mini_path), "--out", str(second))

    code, out, _err = run(capsys, "stats", "--group-a", str(first),
                          "--group-b", str(second), "--metric", "total")
    assert code == 0
    doc = json.loads(out)
    assert doc["metric"] == "total"
    assert doc["n_a"] == 1 and doc["n_b"] == 1
    assert doc["method"] == "exact"
    assert 0.0 <= doc["p_value"] <= 1.0

    target = tmp_path / "stat.json"
    code, out, _err = run(capsys, "stats", "--group-a", str(first),
                          "--group-b", str(second), "--metric", "propagated",
                          "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["metric"] == "propagated"


def test_stats_needs_rows(capsys, tmp_path, jre_mini_path, fig1_dir):
    project = tmp_path / "empty"
    project.mkdir()
    (project / "E.java").write_text("package p; class E { void f() {} }")
    empty = tmp_path / "empty.json"
    run(capsys, "analyze", "--project", str(project),
        "--platform", str(jre_mini_path), "--out", str(empty))
    full = tmp_path / "full.json"
    run(capsys, "analyze", "--project", str(fig1_dir),
        "--platform", str(jre_mini_path), "--out", str(full))
    code, _out, err = run(capsys, "stats", "--group-a", str(empty),
                          "--group-b", str(full), "--metric", "total")
    assert code == 2
    assert "at least one try-block row" in err


@pytest.mark.parametrize("value", ['"x"', "null", '"3"', "true", "[1]"])
def test_stats_rejects_non_numeric_metric(capsys, tmp_path, fig1_dir,
                                          jre_mini_path, value):
    good = tmp_path / "good.json"
    run(capsys, "analyze", "--project", str(fig1_dir),
        "--platform", str(jre_mini_path), "--out", str(good))
    doc = json.loads(good.read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(good.read_text().replace(
        f'"total": {doc["try_blocks"][0]["total"]},', f'"total": {value},'))
    code, out, err = run(capsys, "stats", "--group-a", str(good),
                         "--group-b", str(bad), "--metric", "total")
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"error: report {bad}: total of try block ")
    assert line.endswith(f"is not a number: {json.loads(value)!r}")


def test_usage_errors_from_argparse(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["analyze"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("tree", ["fig1", "cyclic-corpus"])
def test_analysis_makes_no_reference_cycles(tmp_path, fig1_dir, jre_mini,
                                            tree):
    # main pauses the cyclic collector because of this; if garbage shows
    # up here, that pause must be reconsidered
    if tree == "fig1":
        project, platform = fig1_dir, jre_mini
    else:
        corpus = generate_corpus(3, cyclic=True, max_methods=30)
        project = tmp_path
        (project / "gen").mkdir()
        (project / "gen" / "App.java").write_text(render_app(corpus))
        (project / "gen" / "Exceptions.java").write_text(
            render_exceptions(corpus))
        platform = parse_platform_document(platform_document(corpus), "gen")
    flags = gc.get_debug()
    kept = len(gc.garbage)
    gc.collect()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        result = analyze_project(project, platform)
        gc.collect()
        garbage = [type(o).__name__ for o in gc.garbage[kept:]]
    finally:
        gc.set_debug(flags)
        del gc.garbage[kept:]
    assert gc.get_debug() == flags
    assert result.report.try_blocks
    assert garbage == []


@pytest.mark.parametrize("collecting", [True, False])
def test_main_leaves_the_collector_as_it_found_it(
        capsys, monkeypatch, tmp_path, fig1_dir, jre_mini_path, collecting):
    project = write_demo(tmp_path)
    (project / "Broken.java").write_text("class {{{")
    platform = ["--platform", str(jre_mini_path)]
    seen = []

    def failing_analysis(*args, **kwargs):
        seen.append(gc.isenabled())
        raise RuntimeError("unexpected")

    was_collecting = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        for argv, expected in [
                (["analyze", "--project", str(fig1_dir)], 0),
                (["analyze", "--project", str(tmp_path / "missing")], 2),
                (["analyze", "--project", str(project), "--strict"], 3)]:
            assert run(capsys, *argv, *platform)[0] == expected
            assert gc.isenabled() is collecting
        monkeypatch.setattr(cli, "analyze_project", failing_analysis)
        with pytest.raises(RuntimeError, match="unexpected"):
            main(["analyze", "--project", str(fig1_dir), *platform])
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was_collecting else gc.disable)()
    assert seen == [False]
