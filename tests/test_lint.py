"""Lint rules on analyzed projects."""

import json

from exflow.cli import main
from exflow.config import Config, config_from_dict
from exflow.driver import analyze_project
from exflow.lint import (
    RULE_CATCH_GENERIC,
    RULE_RECOVERABLE_PROPAGATED,
    lint,
)

IOE = "java.io.IOException"


def run_lint(tmp_path, jre_mini, source, config=None):
    (tmp_path / "L.java").write_text(source)
    result = analyze_project(tmp_path, jre_mini, config, name="lint-demo")
    return lint(result.bundles, config or Config(), result.model)


def test_figure_one_single_finding(fig1_result):
    findings = lint(fig1_result.bundles, Config(), fig1_result.model)
    (finding,) = findings
    assert finding.rule == RULE_RECOVERABLE_PROPAGATED
    assert finding.subject == IOE
    assert finding.position.line == fig1_result.report.try_blocks[0].line
    assert IOE in finding.render()


def test_unchecked_propagation_not_flagged(tmp_path, jre_mini):
    findings = run_lint(
        tmp_path, jre_mini,
        "package p;\n"
        "class L {\n"
        "  void f() {\n"
        "    try { throw new RuntimeException(); }\n"
        "    catch (IllegalStateException e) {}\n"
        "  }\n"
        "}\n")
    assert findings == []


def test_one_finding_per_propagated_recoverable_type(tmp_path, jre_mini):
    findings = run_lint(
        tmp_path, jre_mini,
        "package p;\n"
        "import java.io.IOException;\n"
        "import java.io.FileNotFoundException;\n"
        "class L {\n"
        "  void g() throws IOException {}\n"
        "  void h() throws FileNotFoundException {}\n"
        "  void f() {\n"
        "    try { g(); h(); h(); }\n"
        "    catch (IllegalStateException e) {}\n"
        "  }\n"
        "}\n")
    assert [f.rule for f in findings] == [RULE_RECOVERABLE_PROPAGATED] * 2
    assert sorted(f.subject for f in findings) == [
        "java.io.FileNotFoundException", IOE]


def test_catch_generic_per_clause(tmp_path, jre_mini):
    findings = run_lint(
        tmp_path, jre_mini,
        "package p;\n"
        "class L {\n"
        "  void f() {\n"
        "    try { g(); }\n"
        "    catch (IllegalStateException e) {}\n"
        "    catch (Exception e) {}\n"
        "  }\n"
        "  void g() {\n"
        "    try { h(); } catch (Throwable t) {}\n"
        "  }\n"
        "  void h() {}\n"
        "}\n")
    assert [f.rule for f in findings] == [RULE_CATCH_GENERIC] * 2
    assert sorted(f.subject for f in findings) == [
        "java.lang.Exception", "java.lang.Throwable"]


def test_generic_catch_set_is_configurable(tmp_path, jre_mini):
    source = (
        "package p;\n"
        "class L {\n"
        "  void f() { try { g(); } catch (IllegalStateException e) {} }\n"
        "  void g() {}\n"
        "}\n")
    config = config_from_dict(
        {"generic_catch_types": ["java.lang.IllegalStateException"]})
    findings = run_lint(tmp_path, jre_mini, source, config)
    (finding,) = findings
    assert finding.rule == RULE_CATCH_GENERIC
    assert finding.subject == "java.lang.IllegalStateException"
    assert run_lint(tmp_path, jre_mini, source) == []


def test_multi_catch_alternative_triggers(tmp_path, jre_mini):
    findings = run_lint(
        tmp_path, jre_mini,
        "package p;\n"
        "class L {\n"
        "  void f() {\n"
        "    try { g(); } catch (IllegalStateException | Exception e) {}\n"
        "  }\n"
        "  void g() {}\n"
        "}\n")
    assert [f.subject for f in findings] == ["java.lang.Exception"]


def test_findings_ordered_by_position(tmp_path, jre_mini):
    findings = run_lint(
        tmp_path, jre_mini,
        "package p;\n"
        "import java.io.IOException;\n"
        "class L {\n"
        "  void g() throws IOException {}\n"
        "  void a() { try { g(); } catch (IllegalStateException e) {} }\n"
        "  void b() { try { g(); } catch (Exception e) {} }\n"
        "}\n")
    assert [f.rule for f in findings] == [
        RULE_RECOVERABLE_PROPAGATED, RULE_CATCH_GENERIC]
    assert findings[0].position.line < findings[1].position.line


def test_render_format(fig1_result):
    (finding,) = lint(fig1_result.bundles, Config(), fig1_result.model)
    rendered = finding.render()
    assert rendered.startswith(str(finding.position))
    assert f": {finding.rule}: " in rendered


def test_catch_generic_on_a_type_known_only_as_a_method_owner(tmp_path,
                                                              capsys):
    # java.lang.Exception owns a platform method but has no type entry: the
    # clause is diagnosed as matching nothing, yet it catches a generic type
    platform = tmp_path / "platform.json"
    platform.write_text(json.dumps({
        "types": [
            {"name": "java.lang.Throwable", "superclass": None,
             "kind": "checked"},
            {"name": "java.lang.RuntimeException",
             "superclass": "java.lang.Throwable", "kind": "unchecked"},
        ],
        "methods": [{"signature": "java.lang.Exception#getMessage(0)",
                     "throws": []}],
    }))
    project = tmp_path / "p"
    project.mkdir()
    (project / "L.java").write_text(
        "package p;\n"
        "class L {\n"
        "  void f() {\n"
        "    try { g(); } catch (Exception e) {}\n"
        "  }\n"
        "  void g() {}\n"
        "}\n")
    code = main(["lint", "--project", str(project),
                 "--platform", str(platform)])
    out, err = capsys.readouterr()
    clause = f"{project / 'L.java'}:4:18"
    assert code == 0
    assert err == (f"{clause}: caught type Exception is not a known "
                   f"exception; the clause matches nothing\n")
    assert out == (f"{clause}: CatchGeneric: clause catches the generic "
                   f"type java.lang.Exception\n")
