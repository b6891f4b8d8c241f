"""Command-line entry point.

    exflow analyze --project DIR --platform FILE [--out PATH] [--format F]
    exflow lint    --project DIR --platform FILE [--fail-on RULE[,RULE]]
    exflow report  --inputs FILE... --out DIR
    exflow stats   --group-a FILE... --group-b FILE... --metric NAME

Platform model files come from --platform (repeatable) or, when absent,
from every *.json under the directories in EXFLOW_PLATFORM_PATH.

Exit codes: 0 clean, 1 lint findings under --fail-on, 2 usage or
configuration error or a report that cannot be written, 3 parse or model
error (parse errors only under --strict; otherwise the file is skipped
with a diagnostic), 4 internal error. A source file that is not UTF-8, or
that nests too deeply for the parser, counts as a parse error; a JSON
input (config, platform model, saved report) that is not UTF-8 is a
configuration error. An internal error prints one line, `error: internal
error: <Type>: <message>`, and its traceback only under --debug, which
goes before the command: `exflow --debug analyze ...`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
from pathlib import Path
from typing import Iterator, Optional

from .config import Config, ConfigError, load_config
from .driver import analyze_project
from .lint import RULE_FLAGS, lint
from .model import (
    ModelError, PlatformModel, PlatformModelError, load_platform_model,
    merge_platform_models, validate_platform_closure,
)
from .report import (
    ProjectReport, emit_csv_tables, emit_report, report_from_json,
)
from .stats import wilcoxon_rank_sum
from .syntax import ParseError
from .syntax.errors import not_utf8

PLATFORM_PATH_VAR = "EXFLOW_PLATFORM_PATH"

STAT_METRICS = ("total", "propagated", "propagated_recoverable")


class _UsageError(Exception):
    pass


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    # The analysis makes no reference cycles: under gc.DEBUG_SAVEALL a
    # collection after analyzing the benchmark corpus found no garbage. So
    # the cyclic collector would only walk every syntax tree and model
    # object, again and again, to free nothing; reference counting frees
    # all there is to free. It is paused for the command and restored
    # after, so a caller in the same process sees no change.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _dispatch(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, PlatformModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        if args.debug:
            # imported only here: at the top it would add about 0.2 MB to
            # the resident memory of every run
            import traceback
            traceback.print_exc()
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 4
    finally:
        if collecting:
            gc.enable()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exflow",
        description="Static exception-flow analysis for Java sources")
    parser.add_argument("--debug", action="store_true",
                        help="print the traceback of an internal error")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--project", required=True,
                       help="directory of .java sources")
        p.add_argument("--platform", action="append", default=[],
                       metavar="FILE", help="platform model JSON (repeatable)")
        p.add_argument("--config", help="configuration JSON file")
        p.add_argument("--strict", action="store_true",
                       help="fail on parse errors instead of skipping files")
        p.add_argument("--transitive-origins", action="store_true",
                       help="count every contributing method per exception, "
                            "not only direct invocations")

    analyze = sub.add_parser("analyze", help="write the project report")
    common(analyze)
    analyze.add_argument("--out", help="output path (default: stdout)")
    analyze.add_argument("--format", choices=("json", "csv"), default="json")

    lint_cmd = sub.add_parser("lint", help="print lint findings")
    common(lint_cmd)
    lint_cmd.add_argument("--fail-on", metavar="RULE[,RULE]",
                          help="exit 1 when any listed rule fires; rules: "
                               + ", ".join(sorted(RULE_FLAGS)))

    report_cmd = sub.add_parser("report",
                                help="convert JSON reports to CSV tables")
    report_cmd.add_argument("--inputs", nargs="+", required=True,
                            metavar="FILE", help="JSON report files")
    report_cmd.add_argument("--out", required=True,
                            help="destination directory for the CSV tables")

    stats_cmd = sub.add_parser("stats",
                               help="Wilcoxon rank-sum over two report groups")
    stats_cmd.add_argument("--group-a", nargs="+", required=True,
                           metavar="FILE")
    stats_cmd.add_argument("--group-b", nargs="+", required=True,
                           metavar="FILE")
    stats_cmd.add_argument("--metric", choices=STAT_METRICS, required=True)
    stats_cmd.add_argument("--config", help="configuration JSON file")
    stats_cmd.add_argument("--out", help="output path (default: stdout)")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "stats":
        return _cmd_stats(args)
    raise _UsageError(f"unknown command {args.command}")


def _load_config(args: argparse.Namespace) -> Config:
    config = load_config(args.config) if args.config else Config()
    if getattr(args, "transitive_origins", False):
        config = Config(
            log_method_names=config.log_method_names,
            abort_signatures=config.abort_signatures,
            generic_catch_types=config.generic_catch_types,
            exact_test_cutoff=config.exact_test_cutoff,
            transitive_origins=True,
            continuity_correction=config.continuity_correction)
    return config


def _load_platform(args: argparse.Namespace) -> PlatformModel:
    paths = [Path(p) for p in args.platform]
    if not paths:
        env = os.environ.get(PLATFORM_PATH_VAR, "")
        for entry in filter(None, env.split(os.pathsep)):
            directory = Path(entry)
            if not directory.is_dir():
                raise _UsageError(
                    f"{PLATFORM_PATH_VAR} entry {entry} is not a directory")
            paths.extend(sorted(directory.glob("*.json")))
    if not paths:
        raise _UsageError(
            f"no platform model: pass --platform or set {PLATFORM_PATH_VAR}")
    return merge_platform_models(
        [load_platform_model(p, require_closed=False) for p in paths])


def _run_analysis(args: argparse.Namespace):
    project = Path(args.project)
    if not project.is_dir():
        raise _UsageError(f"--project {project} is not a directory")
    config = _load_config(args)
    platform = _load_platform(args)
    result = analyze_project(project, platform, config, strict=args.strict)
    # closed over the model's types, so the platform may document an
    # exception that only the project declares
    validate_platform_closure(platform, frozenset(result.model.types),
                              source="merged platform model")
    for line in result.diagnostics:
        print(line, file=sys.stderr)
    return result, config


@contextlib.contextmanager
def _writing(what: str, path: Optional[str]) -> Iterator[None]:
    """A failed write of `what` to path (None or "-": stdout, flushed here,
    not at interpreter exit) is a usage error: exit 2 with one line."""
    to_stdout = path in (None, "-")
    try:
        yield
        if to_stdout:
            sys.stdout.flush()
    except OSError as exc:
        if to_stdout and isinstance(exc, BrokenPipeError):
            # the reader has gone: what stdout still buffers goes nowhere,
            # rather than failing again when the interpreter exits
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise _UsageError(f"cannot write {what} to {path or '-'}: {exc}")


def _cmd_analyze(args: argparse.Namespace) -> int:
    result, _config = _run_analysis(args)
    try:
        with _writing("report", args.out):
            emit_report(result.report, args.format, args.out)
    except ValueError as exc:
        raise _UsageError(str(exc))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    fail_rules = set()
    if args.fail_on:
        for token in args.fail_on.split(","):
            token = token.strip()
            if token not in RULE_FLAGS:
                raise _UsageError(
                    f"unknown lint rule {token!r}; known: "
                    + ", ".join(sorted(RULE_FLAGS)))
            fail_rules.add(RULE_FLAGS[token])
    result, config = _run_analysis(args)
    findings = lint(result.bundles, config, result.model)
    with _writing("lint findings", None):
        for finding in findings:
            print(finding.render())
    if any(f.rule in fail_rules for f in findings):
        return 1
    return 0


def _load_report(path: str) -> ProjectReport:
    """A saved JSON report; a file that cannot be read or decoded, or that
    is not a report, is a usage error."""
    try:
        return report_from_json(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise _UsageError(f"cannot load report {not_utf8(path, exc)}")
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise _UsageError(f"cannot load report {path}: {exc}")


def _cmd_report(args: argparse.Namespace) -> int:
    reports = [_load_report(path) for path in args.inputs]
    try:
        emit_csv_tables(reports, args.out)
    except OSError as exc:
        raise _UsageError(f"cannot write report to {args.out}: {exc}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else Config()

    def pooled(paths: list[str]) -> list[float]:
        values: list[float] = []
        for path in paths:
            report = _load_report(path)
            for row in report.try_blocks:
                value = getattr(row, args.metric)
                if (isinstance(value, bool)
                        or not isinstance(value, (int, float))):
                    raise _UsageError(
                        f"report {path}: {args.metric} of try block "
                        f"{row.try_id!r} is not a number: {value!r}")
                values.append(float(value))
        return values

    sample_a = pooled(args.group_a)
    sample_b = pooled(args.group_b)
    if not sample_a or not sample_b:
        raise _UsageError("both groups need at least one try-block row")
    result = wilcoxon_rank_sum(
        sample_a, sample_b, exact_cutoff=config.exact_test_cutoff,
        continuity=config.continuity_correction)
    doc = {
        "metric": args.metric,
        "n_a": len(sample_a),
        "n_b": len(sample_b),
        "statistic": result.statistic,
        "p_value": result.p_value,
        "method": result.method,
    }
    text = json.dumps(doc, indent=2) + "\n"
    with _writing("statistics", args.out or None):
        if args.out and args.out != "-":
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
