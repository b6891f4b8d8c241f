"""Project-level aggregation of try-block analyses and report emission.

The JSON report is a single document mirroring ProjectReport with stable
field order, written exactly as json.dumps(document, indent=2) would write
it (ASCII escapes, no trailing spaces) plus a newline, and written one try
row at a time; the CSV form is five files with fixed schemas. Identical
inputs produce identical bytes.
"""

from __future__ import annotations

import csv
import json
import sys
from collections import Counter
from collections.abc import Sequence
from contextlib import ExitStack, contextmanager
from itertools import chain
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterator, Optional, TextIO, Union

from .classify import Strategy
from .flow import EvidenceKind, TryRegion, attribute_sources
from .model import Recoverability, SemanticModel

DIVERSITY_BUCKETS = ("1", "2", "3", "4", "5", ">5")

STRATEGY_LABELS = {Strategy.SPECIFIC: "specific",
                   Strategy.SUBSUMPTION: "subsumption"}
PROPAGATED_LABEL = "propagated"


@dataclass(slots=True)
class TypeAttribution:
    type: str
    distinct_methods: int
    evidence: list[str]
    strategy: str  # specific | subsumption | propagated


@dataclass(slots=True)
class FactRow:
    type: str
    origin: str
    evidence: list[str]
    handled: bool


@dataclass(slots=True)
class HandlerRow:
    catch_id: str
    actions: list[str]


@dataclass(slots=True)
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


@dataclass(slots=True)
class Totals:
    try_blocks: int
    catch_clauses: int
    methods: int
    distinct_exception_types: int


@dataclass(slots=True)
class Diversity:
    total_types: int
    buckets: dict[str, float]


@dataclass(slots=True)
class ProjectReport:
    project: str
    totals: Totals
    try_blocks: Sequence[TryRow]  # a list when loaded from JSON
    diversity: Diversity


@dataclass(slots=True)
class CoverageSummary:
    """Per-evidence-kind fact counts with pairwise overlaps."""
    total_facts: int
    counts: dict[str, int]
    overlaps: dict[str, int] = field(default_factory=dict)  # "KindA&KindB"


def aggregate_project(regions: list[TryRegion], model: SemanticModel,
                      name: str) -> ProjectReport:
    """Reduce partitioned and classified tries into the project report. One
    pass over the tries counts the totals and the diversity; the rows are
    built from the tries, in (file, line, try_id) order, each time they
    are read. Distinct-method counts are attribute_sources's, so they are
    transitive if the tries were partitioned under transitive sets."""
    appearances = Counter(t for region in regions for t in {
        f.type for f in chain(region.propagated, region.handled)})
    buckets = {b: 0 for b in DIVERSITY_BUCKETS}
    for count in appearances.values():
        buckets[str(count) if count <= 5 else ">5"] += 1
    total_types = len(appearances)
    fractions = {b: (buckets[b] / total_types if total_types else 0.0)
                 for b in DIVERSITY_BUCKETS}
    totals = Totals(try_blocks=len(regions),
                    catch_clauses=sum(len(r.catches) for r in regions),
                    methods=len(model.corpus_methods()),
                    distinct_exception_types=total_types)
    # rows share one label list per evidence set; nothing mutates a row
    labels = _Memo(lambda kinds: sorted(k.value for k in kinds))
    recoverable = _Memo(lambda tid: model.recoverability_of(tid)
                        is Recoverability.POTENTIALLY_RECOVERABLE)

    def row(region: TryRegion) -> TryRow:
        # handled and propagated are disjoint and hold every fact reaching it
        facts = [FactRow(f.type, f.origin.label, labels[f.evidence], False)
                 for f in region.propagated]
        strategy_by_type = dict.fromkeys((r.type for r in facts),
                                         PROPAGATED_LABEL)
        propagated = len(strategy_by_type)
        propagated_recoverable = sum(recoverable[t] for t in strategy_by_type)
        for fact, (_clause, _matched, strategy) in region.handled.items():
            facts.append(FactRow(fact.type, fact.origin.label,
                                 labels[fact.evidence], True))
            strategy_by_type[fact.type] = STRATEGY_LABELS[strategy]
        facts.sort(key=lambda r: (r.type, r.origin))
        attribution = attribute_sources(region)
        exceptions = [
            TypeAttribution(t, attribution[t][0], labels[attribution[t][1]],
                            strategy_by_type[t])
            for t in sorted(strategy_by_type)]
        handlers = [HandlerRow(c.id, sorted(a.value for a in c.actions))
                    for c in region.catches]
        return TryRow(
            region.id, region.position.file, region.position.line,
            total=len(strategy_by_type), propagated=propagated,
            propagated_recoverable=propagated_recoverable,
            exceptions=exceptions, facts=facts, handlers=handlers)

    ordered = sorted(regions, key=lambda r: (r.position.file,
                                             r.position.line, r.id))
    return ProjectReport(name, totals, _TryRows(ordered, row),
                         Diversity(total_types, fractions))


class _TryRows(Sequence):
    """The rows of aggregated tries: a sequence that builds the row of a
    try from it whenever the row is read, and keeps none of them."""
    __slots__ = ("_regions", "_row")

    def __init__(self, regions: list[TryRegion], row: Callable):
        self._regions = regions
        self._row = row

    def __len__(self) -> int:
        return len(self._regions)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(self._row, self._regions[index]))
        return self._row(self._regions[index])

    def __iter__(self) -> Iterator[TryRow]:
        return map(self._row, self._regions)

    def __eq__(self, other):  # and so unhashable, as a list is
        return (list(self) == list(other) if isinstance(other, Sequence)
                else NotImplemented)


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


# json.dumps(doc, indent=2) of the document, field by field: every string
# goes through the encoder json itself uses for ensure_ascii, every float
# through float.__repr__, and an empty list is "[]". The try_blocks array
# stands between the head and the tail.
_HEAD = """{
  "project": %s,
  "totals": {
    "try_blocks": %d,
    "catch_clauses": %d,
    "methods": %d,
    "distinct_exception_types": %d
  },
  "try_blocks": """
_TAIL = """,
  "diversity": {
    "total_types": %d,
    "buckets": {
%s
    }
  }
}
"""
_BUCKET = '      %s: %s'
_ROW = """    {
      "try_id": %s,
      "file": %s,
      "line": %d,
      "total": %d,
      "propagated": %d,
      "propagated_recoverable": %d,
      "exceptions": %s,
      "facts": %s,
      "handlers": %s
    }"""
_EXCEPTION = """        {
          "type": %s,
          "distinct_methods": %d,
          "evidence": %s,
          "strategy": %s
        }"""
_FACT = """        {
          "type": %s,
          "origin": %s,
          "evidence": %s,
          "handled": %s
        }"""
_HANDLER = """        {
          "catch_id": %s,
          "actions": %s
        }"""


def report_to_json(report: ProjectReport) -> str:
    """The report as json.dumps(document, indent=2) plus a newline, where
    the document holds the fields of ProjectReport in declaration order."""
    return "".join(_json_chunks(report))


def _json_chunks(report: ProjectReport) -> Iterator[str]:
    """The text of report_to_json in pieces: the head with the project and
    totals, each try row and the punctuation between rows, and the
    diversity tail. No piece holds more than one row."""
    # the memo keeps the strings that repeat (types, files, strategies and
    # labels); try ids, catch ids and origin labels are each written once
    encode = encode_basestring_ascii
    string = _Memo(encode)
    labels = _Memo(lambda values: _items(
        ["            " + string[v] for v in values], "          "))
    totals = report.totals
    yield _HEAD % (
        string[report.project], totals.try_blocks, totals.catch_clauses,
        totals.methods, totals.distinct_exception_types)
    separator = "[\n"
    for row in report.try_blocks:
        yield separator
        yield _ROW % (
            encode(row.try_id), string[row.file], row.line, row.total,
            row.propagated, row.propagated_recoverable,
            _items([_EXCEPTION % (string[e.type], e.distinct_methods,
                                  labels[tuple(e.evidence)],
                                  string[e.strategy])
                    for e in row.exceptions], "      "),
            _items([_FACT % (string[f.type], encode(f.origin),
                             labels[tuple(f.evidence)],
                             "true" if f.handled else "false")
                    for f in row.facts], "      "),
            _items([_HANDLER % (encode(h.catch_id), labels[tuple(h.actions)])
                    for h in row.handlers], "      "))
        separator = ",\n"
    yield "\n  ]" if report.try_blocks else "[]"
    buckets = report.diversity.buckets
    yield _TAIL % (
        report.diversity.total_types,
        ",\n".join(_BUCKET % (string[b], float.__repr__(buckets[b]))
                   for b in DIVERSITY_BUCKETS))


def _items(rendered: list[str], indent: str) -> str:
    """A JSON array of rendered items, closed at the given indent."""
    if not rendered:
        return "[]"
    return "[\n" + ",\n".join(rendered) + "\n" + indent + "]"


def report_from_json(text: str) -> ProjectReport:
    return report_from_dict(json.loads(text))


def emit_report(report: ProjectReport, format: str,
                destination: Optional[Union[str, Path]]) -> list[Path]:
    """Write the report. json: one file (or stdout when destination is None
    or "-"), written one try row at a time. csv: five files under the
    destination directory. Returns the paths written. A file left partly
    written by a failure is removed before the error propagates."""
    if format == "json":
        if destination is None or str(destination) == "-":
            sys.stdout.writelines(_json_chunks(report))
            return []
        path = Path(destination)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        with _created(path) as handle:
            handle.writelines(_json_chunks(report))
        return [path]
    if format == "csv":
        if destination is None or str(destination) == "-":
            raise ValueError("csv output requires a destination directory")
        return emit_csv_tables([report], Path(destination))
    raise ValueError(f"unknown report format: {format}")


def emit_csv_tables(reports: list[ProjectReport],
                    directory: Union[str, Path]) -> list[Path]:
    """The five CSV tables, rows from all reports in input order: first
    diversity, then the other four in one pass over each report's rows. A
    failure removes each table still open."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    headers = {
        "tryblocks.csv": ["project", "try_id", "file", "line", "total",
                          "propagated", "propagated_recoverable"],
        "diversity.csv": ["project", "bucket", "fraction", "total_types"],
        "sources.csv": ["project", "exception_type", "try_id",
                        "distinct_methods", "evidence_kinds"],
        "strategies.csv": ["project", "try_id", "exception_type", "strategy"],
        "actions.csv": ["project", "catch_id", "action"],
    }
    with ExitStack() as files:
        def table(name: str):
            writer = csv.writer(files.enter_context(
                _created(directory / name, newline="")))
            writer.writerow(headers[name])
            return writer

        table("diversity.csv").writerows(
            [rep.project, bucket, rep.diversity.buckets[bucket],
             rep.diversity.total_types]
            for rep in reports for bucket in DIVERSITY_BUCKETS)
        tryblocks, sources, strategies, actions = map(table, (
            "tryblocks.csv", "sources.csv", "strategies.csv", "actions.csv"))
        for rep in reports:
            for r in rep.try_blocks:
                tryblocks.writerow([rep.project, r.try_id, r.file, r.line,
                                    r.total, r.propagated,
                                    r.propagated_recoverable])
                for e in r.exceptions:
                    sources.writerow([rep.project, e.type, r.try_id,
                                      e.distinct_methods, "|".join(e.evidence)])
                    strategies.writerow([rep.project, r.try_id, e.type,
                                         e.strategy])
                actions.writerows([rep.project, h.catch_id, action]
                                  for h in r.handlers for action in h.actions)
    return [directory / name for name in headers]


@contextmanager
def _created(path: Path, newline: Optional[str] = None) -> Iterator[TextIO]:
    """The file at path opened for writing as text; removed again if the
    block that writes it, or closing it, fails."""
    handle = open(path, "w", newline=newline)
    try:
        with handle:
            yield handle
    except BaseException:
        path.unlink(missing_ok=True)
        raise


class _Memo(dict):
    """A dict that fills a missing key with function(key)."""

    def __init__(self, function):
        super().__init__()
        self.function = function

    def __missing__(self, key):
        value = self[key] = self.function(key)
        return value
