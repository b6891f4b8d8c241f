"""One exflow invocation, timed from inside a fresh interpreter.

    python3 perfbench/child.py --trace 0|1 -- analyze --project D ...

The parent starts this script with PYTHONPATH pointing at the checkout's
src/ and reads one JSON line from its stdout: the exit code, the wall time
of exflow.cli.main, the monotonic clock reading once exflow was imported
(start-up ends there), and the peak resident set size (VmHWM). With
--trace 1 the public functions of each layer are wrapped where their caller
looks them up, and the line also carries the spans and counters.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


class TraceError(Exception):
    """A wrapped name is missing or a required span never fired."""


# (module, attribute, span name); each module binds the name its caller uses
SPANS = (
    ("exflow.syntax.parser", "tokenize", "lex"),
    ("exflow.driver", "parse_compilation_unit", "parse"),
    ("exflow.driver", "build_semantic_model", "model"),
    ("exflow.driver", "compute_method_exception_sets", "flow.fixpoint"),
    ("exflow.driver", "analyze_try_block", "flow.partition"),
    ("exflow.driver", "classify_actions", "classify"),
    ("exflow.driver", "aggregate_project", "report.aggregate"),
    ("exflow.cli", "load_platform_model", "platform"),
    ("exflow.cli", "merge_platform_models", "platform"),
    ("exflow.cli", "validate_platform_closure", "platform"),
    ("exflow.cli", "emit_report", "report.emit"),
    ("exflow.cli", "analyze_project", "driver"),
)
# (class, method, counter name); counted, not timed, on the innermost span
COUNTERS = (
    ("exflow.model", "SemanticModel", "resolve_invocation", "site_visits"),
    ("exflow.model", "SemanticModel", "is_subtype", "subtype_checks"),
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index], plus
    counters keyed "<innermost span name>:<counter>" and the distinct call
    sites resolved inside each span name."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.sites: dict[str, set] = {}
        self.model = None

    def span(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[f"{name}:failed"] = counts.get(f"{name}:failed", 0) + 1
                raise
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if name == "lex":
                counts["lex:tokens"] = (counts.get("lex:tokens", 0)
                                        + len(result.tokens))
            elif name == "model":
                self.model = result
            return result

        return wrapper

    def counter(self, name: str, fn):
        spans, stack, counts, sites = (self.spans, self.stack, self.counts,
                                       self.sites)

        def wrapper(model, node, *args):
            owner = spans[stack[-1]][0] if stack else ""
            key = f"{owner}:{name}"
            counts[key] = counts.get(key, 0) + 1
            if name == "site_visits":
                sites.setdefault(owner, set()).add(id(node))
            return fn(model, node, *args)

        return wrapper

    def install(self) -> None:
        """Replace every traced name. Raises TraceError, before replacing
        anything, if one is gone, so a renamed layer fails the run instead
        of reading 0."""
        targets = []
        for module_name, attr, name in SPANS:
            targets.append((sys.modules[module_name], attr, self.span, name))
        for module_name, cls_name, attr, name in COUNTERS:
            cls = getattr(sys.modules[module_name], cls_name, None)
            targets.append((cls, attr, self.counter, name))
        for owner, attr, _wrap, _name in targets:
            if not callable(getattr(owner, attr, None)):
                raise TraceError(f"{getattr(owner, '__name__', owner)}."
                                 f"{attr} no longer exists")
        for owner, attr, wrap, name in targets:
            setattr(owner, attr, wrap(name, getattr(owner, attr)))

    def summary(self) -> dict:
        """Self time and calls per span name, the counters, and the size of
        the semantic model. Raises TraceError if a span never fired."""
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for name, start, end, parent in self.spans:
            self_s[name] = self_s.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                owner = self.spans[parent][0]
                self_s[owner] = self_s.get(owner, 0.0) - (end - start)
        required = {name for _m, _a, name in SPANS} | {"cli"}
        missing = sorted(required - set(calls))
        if missing:
            raise TraceError(f"spans never fired: {', '.join(missing)}")
        return {
            "self_s": self_s,
            "calls": calls,
            "counts": self.counts,
            "distinct_sites": {k: len(v) for k, v in self.sites.items()},
            "methods": len(self.model.method_table),
            "unresolved": self.model.unresolved_count,
            "spans": self.spans,
        }


def _peak_rss_mb() -> float:
    """High-water resident set of this process image. Not ru_maxrss: on
    Linux that keeps the parent's resident size across fork and exec."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    trace = argv[argv.index("--trace") + 1] == "1"
    exflow_args = argv[argv.index("--") + 1:]
    import exflow
    import exflow.cli
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    src = Path("src").resolve()
    if src not in Path(exflow.__file__).resolve().parents:
        raise SystemExit(f"exflow imported from {exflow.__file__}, "
                         f"not from {src}")
    tracer = Tracer() if trace else None
    entry = exflow.cli.main
    if tracer is not None:
        tracer.install()
        entry = tracer.span("cli", entry)
    start = time.perf_counter()
    code = entry(exflow_args)
    analyze_s = time.perf_counter() - start
    result = {"code": code, "analyze_s": analyze_s, "ready": ready,
              "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        result["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except TraceError as exc:
        sys.stderr.write(f"trace error: {exc}\n")
        sys.exit(4)
