"""Strategy, recoverability, and handler-action detection."""

import pytest

from exflow.classify import (
    Action,
    Strategy,
    classify_actions,
    classify_strategy,
)
from exflow.config import config_from_dict
from exflow.flow import EvidenceKind, LexicalThrowOrigin, PossibleException
from exflow.model import build_semantic_model, parse_platform_document
from exflow.syntax.ast import SourcePosition

from _clauses import lowered_clause
from _corpus import partition_recoverability

IOE = "java.io.IOException"
RTE = "java.lang.RuntimeException"


def tiny_platform():
    return parse_platform_document({
        "types": [
            {"name": "java.lang.Throwable", "superclass": None,
             "kind": "checked"},
            {"name": "java.lang.Exception",
             "superclass": "java.lang.Throwable", "kind": "checked"},
            {"name": "java.lang.RuntimeException",
             "superclass": "java.lang.Exception", "kind": "unchecked"},
            {"name": "java.lang.Error",
             "superclass": "java.lang.Throwable", "kind": "error"},
            {"name": "java.io.IOException",
             "superclass": "java.lang.Exception", "kind": "checked"},
        ],
        "methods": [],
    }, "tiny")


def empty_model():
    return build_semantic_model([], tiny_platform())


def lexical(tid):
    return PossibleException(tid, LexicalThrowOrigin(SourcePosition("x", 1, 1)),
                             frozenset({EvidenceKind.THROW_STATEMENT}),
                             frozenset())


def clause_of(handler_body, catch_type="Exception", extra=""):
    source = (
        "package app;\n"
        "import java.io.IOException;\n"
        "class A {\n"
        "  void f() {\n"
        "    while (true) {\n"
        "      try { g(); } catch (" + catch_type + " e) { " + handler_body + " }\n"
        "    }\n"
        "  }\n"
        "  void g() {}\n"
        "  " + extra + "\n"
        "}\n")
    return lowered_clause(source, tiny_platform())


def actions_of(handler_body, **kwargs):
    config = kwargs.pop("config", None)
    return classify_actions(clause_of(handler_body, **kwargs).handler, config)


# -- strategy and recoverability --------------------------------------------

def test_strategy_specific_and_subsumption():
    model = empty_model()
    assert classify_strategy(IOE, IOE, model) == Strategy.SPECIFIC
    assert classify_strategy(IOE, "java.lang.Exception", model) == \
        Strategy.SUBSUMPTION
    assert classify_strategy(RTE, "java.lang.Throwable", model) == \
        Strategy.SUBSUMPTION


def test_strategy_rejects_non_match():
    model = empty_model()
    with pytest.raises(ValueError, match="no subtype relationship"):
        classify_strategy("java.lang.Exception", IOE, model)


def test_partition_recoverability():
    model = empty_model()
    checked = lexical(IOE)
    unchecked = lexical(RTE)
    severe = lexical("java.lang.Error")
    recoverable, unrecoverable = partition_recoverability(
        [checked, unchecked, severe], model)
    assert recoverable == {checked}
    assert unrecoverable == {unchecked, severe}


# -- single-action handlers --------------------------------------------------

def test_empty_handler():
    assert actions_of("") == {Action.EMPTY}


def test_empty_with_todo_comment():
    assert actions_of("/* TODO handle this */") == {Action.EMPTY, Action.TODO}
    assert actions_of("// FiXmE\n") == {Action.EMPTY, Action.TODO}


def test_default_is_lone_print_stack_trace():
    assert actions_of("e.printStackTrace();") == {Action.DEFAULT}


def test_print_stack_trace_with_company_is_method():
    assert actions_of("e.printStackTrace(); return;") == \
        {Action.METHOD, Action.RETURN}


def test_print_stack_trace_on_other_receiver_is_method():
    assert actions_of("other.printStackTrace();") == {Action.METHOD}


def test_log_by_method_name():
    assert actions_of("log.error(\"boom\");") == {Action.LOG}
    assert actions_of("logger.info(e);") == {Action.LOG}


def test_log_by_console_stream():
    assert actions_of("System.out.println(e);") == {Action.LOG}
    assert actions_of("System.err.print(\"x\");") == {Action.LOG}
    assert actions_of("java.lang.System.err.println(e);") == {Action.LOG}


def test_abort_syntactic():
    assert actions_of("System.exit(1);") == {Action.ABORT}
    assert actions_of("java.lang.System.exit(2);") == {Action.ABORT}
    assert actions_of("Runtime.halt(0);") == {Action.ABORT}


def test_return_and_continue():
    assert actions_of("return;") == {Action.RETURN}
    assert actions_of("continue;") == {Action.CONTINUE}


def test_nested_try():
    actions = actions_of("try { h(); } catch (Exception x) {}",
                         extra="void h() {}")
    assert actions == {Action.NESTED_TRY, Action.METHOD}


def test_throw_current():
    assert actions_of("throw e;") == {Action.THROW_CURRENT}


def test_throw_new():
    assert actions_of("throw new IOException();") == {Action.THROW_NEW}


def test_throw_wrap_direct_argument():
    assert actions_of("throw new RuntimeException(e);") == {Action.THROW_WRAP}


def test_throw_wrap_through_accessor():
    assert actions_of("throw new RuntimeException(e.getMessage());") == \
        {Action.THROW_WRAP}


def test_throw_of_unrelated_variable_is_no_action():
    assert actions_of("throw saved;") == frozenset()


def test_method_fallback():
    assert actions_of("recover();", extra="void recover() {}") == \
        {Action.METHOD}


# -- combinations and scoping ------------------------------------------------

def test_calls_inside_throw_do_not_count_as_method():
    assert actions_of("throw new RuntimeException(describe());",
                      extra="String describe() { return null; }") == \
        {Action.THROW_NEW}



def test_anonymous_body_inside_throw_does_not_count():
    assert actions_of(
        "throw new RuntimeException(new Object() {\n"
        "  void h() { /* TODO */ recover(); return; }\n"
        "}.toString());",
        extra="void recover() {}") == {Action.THROW_NEW}


def test_todo_found_in_nested_block():
    actions = actions_of("if (flag) { /* todo: retry */ }")
    assert Action.TODO in actions


def test_union_of_actions():
    actions = actions_of("log.warn(e); throw new RuntimeException(e);")
    assert actions == {Action.LOG, Action.THROW_WRAP}


def test_statements_inside_nested_try_still_detected():
    actions = actions_of("try { return; } catch (Exception x) { throw x; }")
    assert actions == {Action.NESTED_TRY, Action.RETURN}


def test_abort_via_resolved_signature():
    config = config_from_dict({"abort_signatures": ["app.A#die(0)"]})
    # a call that resolves to no method has no callee, and only
    # receiver-based matching applies
    unresolved = clause_of("die();")
    assert classify_actions(unresolved.handler, config) == {Action.METHOD}
    resolved = clause_of("die();", extra="void die() {}")
    assert classify_actions(resolved.handler, config) == {Action.ABORT}


def test_log_names_follow_config():
    config = config_from_dict({"log_method_names": ["shout"]})
    assert actions_of("shout(e);", config=config) == {Action.LOG}
    assert actions_of("log.error(e);", config=config) == {Action.METHOD}


def test_lambda_body_actions_detected():
    actions = actions_of("run(() -> { log.error(e); });",
                         extra="void run(Runnable r) {}")
    assert actions == {Action.LOG, Action.METHOD}
