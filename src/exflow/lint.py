"""Lint rules over completed try-block analyses.

RecoverablePropagated: a try block lets a potentially recoverable
exception type escape unhandled. CatchGeneric: a clause catches one of
the configured catch-all types.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import Config
from .model import Recoverability, SemanticModel
from .report import TryBundle, _Memo
from .syntax.ast import SourcePosition

RULE_RECOVERABLE_PROPAGATED = "RecoverablePropagated"
RULE_CATCH_GENERIC = "CatchGeneric"

RULE_FLAGS = {
    "recoverable-propagated": RULE_RECOVERABLE_PROPAGATED,
    "catch-generic": RULE_CATCH_GENERIC,
}


@dataclass(frozen=True)
class LintFinding:
    rule: str
    position: SourcePosition
    subject: str  # exception type (RecoverablePropagated) or caught type
    message: str

    def render(self) -> str:
        return f"{self.position}: {self.rule}: {self.message}"


def lint(bundles: list[TryBundle], config: Config,
         model: SemanticModel) -> list[LintFinding]:
    findings: list[LintFinding] = []
    recoverable = _Memo(lambda tid: model.recoverability_of(tid)
                        is Recoverability.POTENTIALLY_RECOVERABLE)
    for bundle in bundles:
        analysis = bundle.analysis
        types = {f.type for f in analysis.propagated}
        for tid in sorted(t for t in types if recoverable[t]):
            findings.append(LintFinding(
                RULE_RECOVERABLE_PROPAGATED, analysis.position, tid,
                f"potentially recoverable {tid} propagates unhandled "
                f"from this try block"))
        for clause in bundle.stmt.catches:
            for name in clause.caught_types:
                caught = model.resolve_type_name(name, bundle.unit)
                if caught in config.generic_catch_types:
                    findings.append(LintFinding(
                        RULE_CATCH_GENERIC, clause.position, caught,
                        f"clause catches the generic type {caught}"))
    findings.sort(key=lambda f: (f.position.file, f.position.line,
                                 f.position.column, f.rule, f.subject))
    return findings
