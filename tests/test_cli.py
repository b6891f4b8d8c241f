"""Command-line behavior and exit codes."""

import errno
import gc
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _corpus import (
    generate_corpus, platform_document, render_app, render_exceptions,
)
import exflow
from exflow import cli, report
from exflow.cli import main
from exflow.driver import analyze_project
from exflow.model import parse_platform_document
from exflow.syntax import ParseError, parse_compilation_unit

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


@pytest.mark.parametrize("command", ["json", "csv", "report"])
def test_unwritable_report_exits_two(capsys, tmp_path, fig1_dir,
                                     jre_mini_path, command):
    analyze = ["analyze", "--project", str(fig1_dir),
               "--platform", str(jre_mini_path)]
    taken = tmp_path / "taken"
    if command == "json":
        taken.mkdir()
        argv = [*analyze, "--out", str(taken)]
    else:
        taken.write_text("kept")
        if command == "csv":
            argv = [*analyze, "--format", "csv", "--out", str(taken)]
        else:
            saved = tmp_path / "saved.json"
            assert main([*analyze, "--out", str(saved)]) == 0
            argv = ["report", "--inputs", str(saved), "--out", str(taken)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith(
        f"error: cannot write report to {taken}: ")
    assert "Traceback" not in err
    assert taken.is_dir() if command == "json" else \
        taken.read_text() == "kept"


class _FailingFile:
    """A real file whose writes fail with ENOSPC after the first few."""

    def __init__(self, path, writes):
        self.path = Path(path)
        self.file = open(path, "w")
        self.writes = writes
        self.partial = ""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.file.close()

    def write(self, text):
        if not self.writes:
            self.file.flush()
            self.partial = self.path.read_text()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.writes -= 1
        return self.file.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


@pytest.mark.parametrize("format", ["json", "csv"])
def test_report_failing_partway_is_removed(capsys, tmp_path, monkeypatch,
                                           fig1_dir, jre_mini_path, format):
    sinks = []

    def failing_open(path, mode, newline=None):
        sinks.append(_FailingFile(path, writes=2))
        return sinks[-1]

    monkeypatch.setattr(report, "open", failing_open, raising=False)
    target = tmp_path / "report"
    code, out, err = run(capsys, "analyze", "--project", str(fig1_dir),
                         "--platform", str(jre_mini_path),
                         "--format", format, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        f"error: cannot write report to {target}: [Errno {errno.ENOSPC}] "
        f"{os.strerror(errno.ENOSPC)}")
    # the diversity table is written first and fails on its third write
    failed = target if format == "json" else target / "diversity.csv"
    assert sinks[-1].path == failed
    assert sinks[-1].partial.startswith(
        '{\n  "project": "fig1"' if format == "json" else "project,bucket,")
    assert not failed.exists()


def _big_project(root: Path, jre_mini_path: Path) -> tuple[Path, Path]:
    """A project of 150 tries that each call 20 methods throwing 20
    exception types: rows of about 8 KB, a report far larger than a pipe
    holds. Returns the project and its report, saved to a file."""
    project = root / "src"
    project.mkdir()
    calls = " ".join(f"t{i}();" for i in range(20))
    (project / "Big.java").write_text(
        "".join(f"class E{i} extends Exception {{}}\n" for i in range(20))
        + "class Big {\n"
        + "".join(f"  void t{i}() throws E{i} {{}}\n" for i in range(20))
        + "".join(f"  void m{m}() {{ try {{ {calls} }} catch (E0 e) {{}} }}\n"
                  for m in range(150))
        + "}\n")
    saved = root / "report.json"
    assert main(["analyze", "--project", str(project),
                 "--platform", str(jre_mini_path), "--out", str(saved)]) == 0
    assert saved.stat().st_size >= 1 << 20
    return project, saved


def _run_with_closed_stdout(argv: list[str], keep: int, unbuffered: str,
                            root: Path) -> tuple[bytes, int, str]:
    """Run exflow in a child whose stdout reader closes after keep bytes;
    returns those bytes, the exit code and stderr. Without
    PYTHONUNBUFFERED, bytes are still buffered when the reader closes,
    and the interpreter flushes stdout once more as it exits."""
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered, PYTHONPATH=os.pathsep
               .join([str(Path(exflow.__file__).parents[1]),
                      os.environ.get("PYTHONPATH", "")]))
    command = [sys.executable, "-c",
               "import sys; from exflow.cli import main; sys.exit(main())",
               *argv]
    with open(root / "stderr", "w+") as stderr:
        with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=stderr,
                              env=env) as child:
            head = child.stdout.read(keep)
            child.stdout.close()
            code = child.wait(timeout=300)
        stderr.seek(0)
        return head, code, stderr.read()


def _assert_one_error_line(err: str, what: str) -> None:
    assert [line for line in err.splitlines()
            if line.startswith("error:")] == [
        f"error: cannot write {what} to -: "
        f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"]
    assert "Traceback" not in err
    assert "Exception ignored" not in err


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_two_with_one_line(tmp_path, jre_mini_path,
                                               unbuffered):
    project, saved = _big_project(tmp_path, jre_mini_path)
    head, code, err = _run_with_closed_stdout(
        ["analyze", "--project", str(project), "--platform",
         str(jre_mini_path)], 20, unbuffered, tmp_path)
    assert head == saved.read_bytes()[:20]
    assert code == 2
    _assert_one_error_line(err, "report")


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("command", ["lint", "stats"])
def test_closed_stdout_for_lint_and_stats_exits_two(tmp_path, jre_mini_path,
                                                    command, unbuffered):
    # lint prints far more than a pipe holds, and its reader closes after
    # 20 bytes; stats prints a few lines, so its reader closes at once
    project, saved = _big_project(tmp_path, jre_mini_path)
    if command == "lint":
        argv = ["lint", "--project", str(project),
                "--platform", str(jre_mini_path)]
        what, keep = "lint findings", 20
    else:
        argv = ["stats", "--group-a", str(saved), "--group-b", str(saved),
                "--metric", "total"]
        what, keep = "statistics", 0
    head, code, err = _run_with_closed_stdout(argv, keep, unbuffered,
                                              tmp_path)
    assert len(head) == keep
    assert code == 2
    _assert_one_error_line(err, what)


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


PROJECT_EXCEPTION = (
    "package gen;\n"
    "class MyEx extends Exception {}\n"
    "class A { void f() { try { Ext.e0(); } catch (MyEx e) {} } }\n")


def platform_with(tmp_path, jre_mini_path, types=(), methods=()):
    doc = json.loads(jre_mini_path.read_text())
    doc["types"] += types
    doc["methods"] += methods
    path = tmp_path / "platform.json"
    path.write_text(json.dumps(doc))
    return path


def test_platform_may_document_a_project_exception(capsys, tmp_path,
                                                   jre_mini_path):
    # the platform is closed over its own types plus the project's
    project = tmp_path / "src"
    project.mkdir()
    (project / "A.java").write_text(PROJECT_EXCEPTION)
    platform = platform_with(tmp_path, jre_mini_path, methods=[
        {"signature": "gen.Ext#e0(0)", "throws": ["gen.MyEx"]}])
    target = tmp_path / "report.json"
    code, _out, err = run(capsys, "analyze", "--project", str(project),
                          "--platform", str(platform), "--out", str(target))
    assert code == 0, err
    (row,) = json.loads(target.read_text())["try_blocks"]
    assert row["exceptions"][0]["type"] == "gen.MyEx"
    assert row["exceptions"][0]["strategy"] == "specific"


@pytest.mark.parametrize("case", ["exception", "superclass"])
def test_platform_not_closed_by_the_project_exits_two(
        capsys, tmp_path, jre_mini_path, case):
    project = tmp_path / "src"
    project.mkdir()
    (project / "A.java").write_text(PROJECT_EXCEPTION)
    if case == "exception":
        platform = platform_with(tmp_path, jre_mini_path, methods=[
            {"signature": "gen.Ext#e0(0)", "throws": ["gen.Nowhere"]}])
        expected = "documents undeclared exception gen.Nowhere"
    else:
        platform = platform_with(tmp_path, jre_mini_path, types=[
            {"name": "x.Sub", "superclass": "x.Base", "kind": "checked"}])
        expected = "x.Sub has undeclared superclass x.Base"
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "analyze", "--project", str(project),
                         "--platform", str(platform), "--out", str(target))
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and line.endswith(expected)
    assert not target.exists()


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


FIG1 = (Path(__file__).parent / "data" / "fig1" / "Example.java").read_text()
FIG1_LINES = FIG1.splitlines(keepends=True)
cut = st.integers(0, len(FIG1))
damaged_fig1 = st.one_of(
    cut.map(lambda end: FIG1[:end]),
    st.tuples(cut, cut).map(lambda ends: FIG1[:ends[0]] + FIG1[ends[1]:]),
    st.tuples(st.integers(0, len(FIG1_LINES) - 1), st.integers(2, 4)).map(
        lambda line: "".join(FIG1_LINES[:line[0]]
                             + FIG1_LINES[line[0]:line[0] + 1] * line[1]
                             + FIG1_LINES[line[0] + 1:])),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(damaged_fig1)
def test_damaged_fig1_is_analyzed_or_skipped(capsys, jre_mini_path, source):
    # truncated, spliced and line-duplicated copies of fig1: the command
    # either analyzes the file or skips it with a diagnostic, never a crash
    try:
        parse_compilation_unit(source, "Example.java")
        parses = True
    except ParseError:
        parses = False
    with tempfile.TemporaryDirectory() as tmp:
        project = Path(tmp) / "fig1"
        project.mkdir()
        (project / "Example.java").write_text(source)
        report = Path(tmp) / "report.json"
        code = main(["analyze", "--project", str(project),
                     "--platform", str(jre_mini_path), "--out", str(report)])
        doc = json.loads(report.read_text())
    err = capsys.readouterr().err
    assert code == 0
    assert "Traceback" not in err
    assert ("skipped unparseable file" in err) is not parses
    assert doc["project"] == "fig1"


# 1500 string terms make a chain of 1499 `+` operators, which a recursive
# parse or walk would take deeper than the default recursion limit; the
# parser reads the chain in a loop and keeps one Operands node of the calls
# at both ends of it, inside a try, and the handler logs another long
# concatenation
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


NOT_UTF8 = b"\xff\xfe{}"


@pytest.mark.parametrize("entry", [
    "config", "platform", "platform-path", "report", "stats"])
def test_json_input_that_is_not_utf8_exits_two(capsys, tmp_path, monkeypatch,
                                               fig1_dir, jre_mini_path,
                                               entry):
    (tmp_path / "platforms").mkdir()
    bad = tmp_path / "platforms" / "bad.json"
    bad.write_bytes(NOT_UTF8)
    analyze = ["analyze", "--project", str(fig1_dir)]
    argv = {
        "config": [*analyze, "--platform", str(jre_mini_path),
                   "--config", str(bad)],
        "platform": [*analyze, "--platform", str(bad)],
        "platform-path": analyze,
        "report": ["report", "--inputs", str(bad), "--out", str(tmp_path)],
        "stats": ["stats", "--group-a", str(bad), "--group-b", str(bad),
                  "--metric", "total"],
    }[entry]
    monkeypatch.setenv("EXFLOW_PLATFORM_PATH", str(bad.parent))
    code, out, err = run(capsys, *argv)
    reason = f"{bad}: not valid UTF-8: byte 0xff at offset 0"
    if entry in ("report", "stats"):
        reason = f"cannot load report {reason}"
    assert (code, out, err) == (2, "", f"error: {reason}\n")


@pytest.mark.parametrize("debug", [False, True])
def test_internal_error_exits_four_with_one_line(capsys, monkeypatch,
                                                 fig1_dir, jre_mini_path,
                                                 debug):
    def failing_analysis(*args, **kwargs):
        raise KeyError("injected")

    monkeypatch.setattr(cli, "analyze_project", failing_analysis)
    code, out, err = run(capsys, *(["--debug"] if debug else []), "analyze",
                         "--project", str(fig1_dir),
                         "--platform", str(jre_mini_path))
    assert (code, out) == (4, "")
    assert err.endswith("error: internal error: KeyError: 'injected'\n")
    if debug:
        assert err.startswith("Traceback (most recent call last):\n")
        assert "in failing_analysis" in err
    else:
        assert err.count("\n") == 1


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


def test_stats_out_naming_a_directory_exits_two(capsys, tmp_path, fig1_dir,
                                               jre_mini_path):
    saved = tmp_path / "fig1.json"
    code, *_ = run(capsys, "analyze", "--project", str(fig1_dir),
                   "--platform", str(jre_mini_path), "--out", str(saved))
    assert code == 0
    code, out, err = run(capsys, "stats", "--group-a", str(saved),
                         "--group-b", str(saved), "--metric", "total",
                         "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"error: cannot write statistics to {tmp_path}: ")


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
        assert run(capsys, "analyze", "--project", str(fig1_dir),
                   *platform)[::2] == (
            4, "error: internal error: RuntimeError: unexpected\n")
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was_collecting else gc.disable)()
    assert seen == [False]
