"""End-to-end analysis of a source tree: parse, resolve, propagate,
classify, aggregate."""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from .classify import classify_actions
from .config import Config
from .flow import (
    MethodSets, TryRegion, analyze_try_block, compute_method_exception_sets,
    try_blocks,
)
from .model import PlatformModel, SemanticModel, build_semantic_model
from .record import Record
from .report import ProjectReport, aggregate_project
from .syntax import CompilationUnit, ParseError, parse_compilation_unit
from .syntax.errors import not_utf8


class AnalysisResult(Record):
    __slots__ = ("model", "method_sets", "bundles", "report", "diagnostics")

    def __init__(self, model: SemanticModel, method_sets: MethodSets,
                 bundles: list[TryRegion], report: ProjectReport,
                 diagnostics: Optional[list[str]] = None):
        self.model = model
        self.method_sets = method_sets
        # every try, partitioned and classified, in try_blocks order
        self.bundles = bundles
        self.report = report
        self.diagnostics = [] if diagnostics is None else diagnostics


def analyze_project(project_dir: Union[str, Path], platform: PlatformModel,
                    config: Optional[Config] = None, *,
                    name: Optional[str] = None,
                    strict: bool = False) -> AnalysisResult:
    """Analyze every .java file under project_dir. Files that fail to parse
    (including ones that are not UTF-8 or nest too deeply for the parser)
    are skipped with a diagnostic unless strict, which re-raises."""
    config = config or Config()
    root = Path(project_dir)
    diagnostics: list[str] = []
    units = []
    for path in sorted(root.rglob("*.java")):
        try:
            units.append(_parse_file(path))
        except ParseError as exc:
            if strict:
                raise
            diagnostics.append(f"skipped unparseable file: {exc}")
    model = build_semantic_model(units, platform)
    sets = compute_method_exception_sets(
        model, transitive=config.transitive_origins)
    bundles = try_bundles(model, sets, config)
    report = aggregate_project(bundles, model, name or root.name)
    diagnostics.extend(model.diagnostics)
    return AnalysisResult(model, sets, bundles, report, diagnostics)


def try_bundles(model: SemanticModel, sets: MethodSets,
                config: Optional[Config] = None) -> list[TryRegion]:
    """Every try statement of the model, in try_blocks order, partitioned,
    with the actions of each of its clauses classified from the clause's
    handler record. The record is then let go, so the clauses of a model
    are classified once."""
    regions = []
    for method, region in try_blocks(model):
        regions.append(analyze_try_block(region, sets, model, method))
        for clause in region.catches:
            clause.actions = classify_actions(clause.handler, config)
            clause.handler = None
    return regions


def _parse_file(path: Path) -> CompilationUnit:
    """Parse one source file. A file that is not UTF-8, or that nests
    deeper than the recursive-descent parser can follow, raises ParseError
    like a syntax error does."""
    try:
        source = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(not_utf8(path, exc)) from None
    try:
        return parse_compilation_unit(source, str(path))
    except RecursionError:
        raise ParseError(f"{path}: nesting too deep") from None
