"""Static exception-flow analysis for a Java source subset.

Parses source trees, resolves calls against platform models, computes
per-method and per-try possible exceptions with documentation evidence,
classifies handling strategies and actions, and emits metric reports and
lint findings.
"""

from .classify import (
    Action, Strategy, classify_actions, classify_strategy,
)
from .config import Config, ConfigError, load_config
from .driver import AnalysisResult, analyze_project
from .flow import (
    CallSiteOrigin, Clause, EvidenceKind, LexicalThrowOrigin, MethodFact,
    PossibleException, TryRegion, analyze_try_block, attribute_sources,
    compute_method_exception_sets, try_blocks,
)
from .lint import LintFinding, lint
from .model import (
    ModelError, PlatformModel, PlatformModelError, Recoverability,
    SemanticModel, Unresolved, build_semantic_model, load_platform_model,
    merge_platform_models, validate_platform_closure,
)
from .report import (
    ProjectReport, aggregate_project, documentation_coverage,
    emit_csv_tables, emit_report, report_from_json, report_to_json,
)
from .stats import StatResult, wilcoxon_rank_sum
from .syntax import ParseError, parse_compilation_unit

__version__ = "0.1.0"

__all__ = [
    "Action",
    "AnalysisResult",
    "CallSiteOrigin",
    "Clause",
    "Config",
    "ConfigError",
    "EvidenceKind",
    "LexicalThrowOrigin",
    "LintFinding",
    "MethodFact",
    "ModelError",
    "ParseError",
    "PlatformModel",
    "PlatformModelError",
    "PossibleException",
    "ProjectReport",
    "Recoverability",
    "SemanticModel",
    "StatResult",
    "Strategy",
    "TryRegion",
    "Unresolved",
    "aggregate_project",
    "analyze_project",
    "analyze_try_block",
    "attribute_sources",
    "build_semantic_model",
    "classify_actions",
    "classify_strategy",
    "compute_method_exception_sets",
    "documentation_coverage",
    "emit_csv_tables",
    "emit_report",
    "lint",
    "load_config",
    "load_platform_model",
    "merge_platform_models",
    "parse_compilation_unit",
    "report_from_json",
    "report_to_json",
    "try_blocks",
    "validate_platform_closure",
    "wilcoxon_rank_sum",
]
