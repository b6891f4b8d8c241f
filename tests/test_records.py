"""exflow's records: field-wise ==, hashes that agree with it, a repr that
names the fields, and a start-up that loads no code generator."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import exflow
import exflow.cli  # noqa: F401  (defines the records of every module)
from exflow.flow import CallSiteOrigin, LexicalThrowOrigin
from exflow.record import Record, fields
from exflow.syntax.ast import Invocation, Name, NewInstance, SourcePosition

SRC = Path(exflow.__file__).resolve().parents[1]

RECORDS = sorted((cls for cls in Record.__subclasses__()
                  if cls.__module__.startswith("exflow.")),
                 key=lambda cls: (cls.__module__, cls.__qualname__))
# the classes that were frozen, and so hashable, when they were dataclasses
HASHABLE = {
    "SourcePosition", "PlatformType", "PlatformMethod", "Unresolved",
    "HandlerRecord", "LintFinding", "StatResult", "Config",
    "LexicalThrowOrigin", "CallSiteOrigin", "PossibleException",
    "MethodFact",
}


def build(cls, changed=None):
    """An instance whose every argument is a new tuple naming it, equal to
    but not the same object as the one another call builds; the argument
    named changed gets another value."""
    names = list(inspect.signature(cls).parameters)
    return cls(*(tuple(["other" if name == changed else "value", name])
                 for name in names))


def test_every_module_defines_records():
    modules = {cls.__module__ for cls in RECORDS}
    assert {"exflow.syntax.ast", "exflow.model", "exflow.flow",
            "exflow.report", "exflow.config", "exflow.stats"} <= modules
    assert HASHABLE <= {cls.__name__ for cls in RECORDS}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_fields_are_the_init_arguments(cls):
    assert "__slots__" in vars(cls)
    arguments = [name for name in inspect.signature(cls).parameters
                 if name not in cls._unequal]
    assert fields(build(cls)) == arguments


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_equal_fields_mean_equal_records(cls):
    a, b = build(cls), build(cls)
    assert a is not b
    assert a == b and not a != b
    if cls.__name__ in HASHABLE:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        assert cls.__hash__ is None
    for name in fields(a):
        assert build(cls, changed=name) != a, name


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_a_record_is_not_its_fields(cls):
    record = build(cls)
    values = tuple(getattr(record, name) for name in fields(record))
    assert record != values
    assert values != record


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_repr_names_each_field(cls):
    record = build(cls)
    shown = ", ".join(f"{name}={getattr(record, name)!r}"
                      for name in fields(record))
    assert repr(record) == f"{cls.__qualname__}({shown})"


def test_records_of_different_classes_differ():
    position = SourcePosition("A.java", 3, 5)
    assert LexicalThrowOrigin(position) == LexicalThrowOrigin(position)
    assert LexicalThrowOrigin(position) != CallSiteOrigin(
        position, ("A", "f", 0))
    assert position != ("A.java", 3, 5)


@pytest.mark.parametrize("cls, args", [
    (Invocation, (None, "f", (), 0)),
    (NewInstance, ("T", (), 0)),
], ids=["Invocation", "NewInstance"])
def test_callee_is_left_out_of_eq_and_repr(cls, args):
    position = SourcePosition("A.java", 1, 1)
    resolved = cls(*args, position)
    resolved.callee = ("A", "f", 0)
    assert resolved == cls(*args, position)
    assert cls.__hash__ is None
    assert "callee" not in repr(resolved)
    assert "callee" not in fields(resolved)


def test_repr_reads_like_a_call():
    assert repr(Name("y")) == "Name(identifier='y')"
    assert (repr(SourcePosition("A.java", 3, 5))
            == "SourcePosition(file='A.java', line=3, column=5)")


def test_import_loads_no_code_generator():
    """Importing exflow and its command line, what every run does before
    it starts work, loads neither dataclasses nor inspect, which only a
    generator of methods needs, nor csv, which only CSV output needs. -S
    keeps site hooks from loading them first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = ("import exflow, exflow.cli, sys; "
              "print(' '.join(sorted(sys.modules)))")
    loaded = set(subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True,
        text=True, check=True).stdout.split())
    assert "exflow.cli" in loaded
    assert not {"dataclasses", "inspect", "csv"} & loaded
