"""Project-level aggregation of try-block analyses and report emission.

The JSON report is a single document mirroring ProjectReport with stable
field order; the CSV form is five files with fixed schemas. Identical
inputs produce identical bytes.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from .classify import HandlerClassification, Strategy, partition_recoverability
from .flow import EvidenceKind, TryBlockAnalysis, attribute_sources
from .model import SemanticModel, method_id_str
from .syntax.ast import CompilationUnit, TryStmt

DIVERSITY_BUCKETS = ("1", "2", "3", "4", "5", ">5")

STRATEGY_LABELS = {Strategy.SPECIFIC: "specific",
                   Strategy.SUBSUMPTION: "subsumption"}
PROPAGATED_LABEL = "propagated"


@dataclass
class TypeAttribution:
    type: str
    distinct_methods: int
    evidence: list[str]
    strategy: str  # specific | subsumption | propagated


@dataclass
class FactRow:
    type: str
    origin: str
    evidence: list[str]
    handled: bool


@dataclass
class HandlerRow:
    catch_id: str
    actions: list[str]


@dataclass
class TryRow:
    try_id: str
    file: str
    line: int
    total: int
    propagated: int
    propagated_recoverable: int
    exceptions: list[TypeAttribution]
    facts: list[FactRow]
    handlers: list[HandlerRow]


@dataclass
class Totals:
    try_blocks: int
    catch_clauses: int
    methods: int
    distinct_exception_types: int


@dataclass
class Diversity:
    total_types: int
    buckets: dict[str, float]


@dataclass
class ProjectReport:
    project: str
    totals: Totals
    try_blocks: list[TryRow]
    diversity: Diversity


@dataclass
class CoverageSummary:
    """Per-evidence-kind fact counts with pairwise overlaps."""
    total_facts: int
    counts: dict[str, int]
    overlaps: dict[str, int] = field(default_factory=dict)  # "KindA&KindB"


@dataclass
class TryBundle:
    """One analyzed try statement plus its handler classifications."""
    stmt: TryStmt
    analysis: TryBlockAnalysis
    handlers: list[HandlerClassification]
    unit: Optional[CompilationUnit] = None


def aggregate_project(bundles: list[TryBundle], model: SemanticModel,
                      name: str, *, transitive: bool = False) -> ProjectReport:
    """Reduce per-try analyses into the project report."""
    rows = []
    all_types: set[str] = set()
    appearances: dict[str, int] = {}
    catch_clauses = 0
    for bundle in bundles:
        analysis = bundle.analysis
        possible_types = {f.type for f in analysis.possible}
        propagated_types = {f.type for f in analysis.propagated}
        recoverable, _ = partition_recoverability(analysis.propagated, model)
        recoverable_types = {f.type for f in recoverable}
        strategy_by_type: dict[str, str] = {t: PROPAGATED_LABEL
                                            for t in propagated_types}
        for fact, (_clause, _matched, strategy) in analysis.handled.items():
            strategy_by_type[fact.type] = STRATEGY_LABELS[strategy]
        attribution = attribute_sources(analysis, transitive=transitive)
        exceptions = [
            TypeAttribution(t, attribution[t][0],
                            sorted(k.value for k in attribution[t][1]),
                            strategy_by_type[t])
            for t in sorted(possible_types)]
        facts = [FactRow(f.type, _origin_label(f.origin),
                         sorted(k.value for k in f.evidence),
                         f in analysis.handled)
                 for f in analysis.possible]
        facts.sort(key=lambda r: (r.type, r.origin))
        handlers = [HandlerRow(h.catch_id, sorted(a.value for a in h.actions))
                    for h in bundle.handlers]
        rows.append(TryRow(
            analysis.try_id, analysis.position.file, analysis.position.line,
            total=len(possible_types), propagated=len(propagated_types),
            propagated_recoverable=len(recoverable_types),
            exceptions=exceptions, facts=facts, handlers=handlers))
        catch_clauses += len(bundle.stmt.catches)
        all_types.update(possible_types)
        for t in possible_types:
            appearances[t] = appearances.get(t, 0) + 1
    rows.sort(key=lambda r: (r.file, r.line, r.try_id))

    buckets = {b: 0 for b in DIVERSITY_BUCKETS}
    for t, count in appearances.items():
        buckets[str(count) if count <= 5 else ">5"] += 1
    total_types = len(all_types)
    fractions = {b: (buckets[b] / total_types if total_types else 0.0)
                 for b in DIVERSITY_BUCKETS}

    totals = Totals(try_blocks=len(rows), catch_clauses=catch_clauses,
                    methods=len(model.corpus_methods()),
                    distinct_exception_types=total_types)
    return ProjectReport(name, totals, rows,
                         Diversity(total_types, fractions))


def documentation_coverage(report: ProjectReport) -> CoverageSummary:
    """How many facts each evidence kind identifies, with pairwise overlap
    counts; a fact with several kinds counts toward each of them."""
    kinds = sorted(k.value for k in EvidenceKind)
    counts = {k: 0 for k in kinds}
    overlaps = {f"{a}&{b}": 0 for i, a in enumerate(kinds)
                for b in kinds[i + 1:]}
    total = 0
    for row in report.try_blocks:
        for fact in row.facts:
            total += 1
            present = sorted(fact.evidence)
            for k in present:
                counts[k] += 1
            for i, a in enumerate(present):
                for b in present[i + 1:]:
                    overlaps[f"{a}&{b}"] += 1
    return CoverageSummary(total, counts, overlaps)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def report_to_dict(report: ProjectReport) -> dict:
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


def report_from_dict(doc: dict) -> ProjectReport:
    totals = Totals(**doc["totals"])
    rows = [
        TryRow(
            row["try_id"], row["file"], row["line"], row["total"],
            row["propagated"], row["propagated_recoverable"],
            [TypeAttribution(e["type"], e["distinct_methods"],
                             list(e["evidence"]), e["strategy"])
             for e in row["exceptions"]],
            [FactRow(f["type"], f["origin"], list(f["evidence"]), f["handled"])
             for f in row["facts"]],
            [HandlerRow(h["catch_id"], list(h["actions"]))
             for h in row["handlers"]],
        )
        for row in doc["try_blocks"]]
    diversity = Diversity(doc["diversity"]["total_types"],
                          dict(doc["diversity"]["buckets"]))
    return ProjectReport(doc["project"], totals, rows, diversity)


def report_to_json(report: ProjectReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def report_from_json(text: str) -> ProjectReport:
    return report_from_dict(json.loads(text))


def emit_report(report: ProjectReport, format: str,
                destination: Optional[Union[str, Path]]) -> list[Path]:
    """Write the report. json: one file (or stdout when destination is None
    or "-"). csv: five files under the destination directory. Returns the
    paths written."""
    if format == "json":
        text = report_to_json(report)
        if destination is None or str(destination) == "-":
            sys.stdout.write(text)
            return []
        path = Path(destination)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return [path]
    if format == "csv":
        if destination is None or str(destination) == "-":
            raise ValueError("csv output requires a destination directory")
        return emit_csv_tables([report], Path(destination))
    raise ValueError(f"unknown report format: {format}")


def emit_csv_tables(reports: list[ProjectReport],
                    directory: Union[str, Path]) -> list[Path]:
    """The five CSV tables, rows from all reports in input order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []

    def table(name: str, header: list[str], rows: list[list]) -> None:
        path = directory / name
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
        written.append(path)

    table("tryblocks.csv",
          ["project", "try_id", "file", "line", "total", "propagated",
           "propagated_recoverable"],
          [[rep.project, r.try_id, r.file, r.line, r.total, r.propagated,
            r.propagated_recoverable]
           for rep in reports for r in rep.try_blocks])
    table("diversity.csv",
          ["project", "bucket", "fraction", "total_types"],
          [[rep.project, bucket, rep.diversity.buckets[bucket],
            rep.diversity.total_types]
           for rep in reports for bucket in DIVERSITY_BUCKETS])
    table("sources.csv",
          ["project", "exception_type", "try_id", "distinct_methods",
           "evidence_kinds"],
          [[rep.project, e.type, r.try_id, e.distinct_methods,
            "|".join(e.evidence)]
           for rep in reports for r in rep.try_blocks for e in r.exceptions])
    table("strategies.csv",
          ["project", "try_id", "exception_type", "strategy"],
          [[rep.project, r.try_id, e.type, e.strategy]
           for rep in reports for r in rep.try_blocks for e in r.exceptions])
    table("actions.csv",
          ["project", "catch_id", "action"],
          [[rep.project, h.catch_id, action]
           for rep in reports for r in rep.try_blocks for h in r.handlers
           for action in h.actions])
    return written


def _origin_label(origin) -> str:
    callee = getattr(origin, "callee", None)
    if callee is not None:
        return f"call {origin.position} -> {method_id_str(callee)}"
    return f"throw {origin.position}"
