"""The classes exflow builds in bulk are slotted records: an instance
holds its fields and no per-instance __dict__."""

import pytest

from exflow import flow, model, report
from exflow.classify import HandlerRecord
from exflow.config import Config
from exflow.driver import AnalysisResult
from exflow.lint import LintFinding
from exflow.record import Record
from exflow.stats import StatResult
from exflow.syntax import ast

from _clauses import possible

TREE = [cls for cls in vars(ast).values()
        if isinstance(cls, type) and issubclass(cls, Record)
        and cls.__module__ == ast.__name__]
SLOTTED = [
    *TREE,
    flow.PossibleException, flow.MethodFact, flow.Clause, flow.TryRegion,
    flow.Region, flow.MethodSummary,
    model.PlatformType, model.PlatformMethod, model.PlatformModel,
    model.TypeEntry, model.CorpusMethod, model.ExternalMethod,
    model.Unresolved,
    LintFinding, HandlerRecord, Config, StatResult, AnalysisResult,
    report.TypeAttribution, report.FactRow, report.HandlerRow,
    report.TryRow, report.Totals, report.Diversity, report.ProjectReport,
    report.CoverageSummary,
]


def test_tree_classes_are_found():
    assert {ast.SourcePosition, ast.Operands, ast.CompilationUnit} <= set(TREE)


@pytest.mark.parametrize("cls", SLOTTED, ids=lambda cls: cls.__qualname__)
def test_class_defines_slots(cls):
    assert "__slots__" in vars(cls)
    assert cls.__dictoffset__ == 0  # instances get no __dict__


def test_analysis_result_objects_have_no_dict(fig1_result):
    (region,) = fig1_result.bundles
    built = [
        region, region.position, region.body, *region.catches,
        next(iter(possible(region))),
        fig1_result.report.try_blocks[0],
    ]
    for obj in built:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    with pytest.raises(AttributeError):
        region.note = "not a field"
    with pytest.raises(AttributeError):
        region.catches[0].note = "not a field"
