"""exflow benchmark: seeded Java trees analyzed end to end, one fresh
interpreter per invocation.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the analyzer is imported from its src/.
Each operation starts perfbench/child.py, which imports exflow and calls
exflow.cli.main(["analyze", ...]) once; operations run one after another
(a closed loop with one client) until --seconds have passed. Every report
is checked against the workload's oracle and must be byte-identical to the
first report of the run.

--trace 0 reports the end-to-end metrics: analyze_s, the fastest of the
workload's first TIMED_OPERATIONS operations; peak_rss_mb, the median peak
resident set; and setup_s, the median time to generate and write the
inputs plus the median child start-up and import time.

--trace 1 alternates untraced and traced operations and reports the
per-layer metrics of the fastest traced one; see README.md for what each
should move. The spans of that operation are written under
.perfbench_work/.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it is the full record: environment, input size, samples
and failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform as host
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench_work")
SETUP_REPEATS = 3
# analyze_s is the minimum over this many operations, whatever the speed of
# the code: a minimum over all that fit in --seconds would fall further on a
# faster commit merely because it gets more draws. Each count fits in 35 s.
TIMED_OPERATIONS = {"corpus": 16, "call_chain": 8, "try_nest": 8}
# untraced/traced pairs in a --trace 1 run
TRACED_PAIRS = 3
# each run must end within 180 s; no operation may start after this
RUN_LIMIT_S = 150.0

END_TO_END_UNITS = {"analyze_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "lex.s": "s", "lex.tokens": "count", "lex.tokens_per_s": "1/s",
    "parse.s": "s", "parse.files": "count", "parse.failed": "count",
    "platform.s": "s",
    "model.s": "s", "model.methods": "count", "model.unresolved": "count",
    "flow.fixpoint.s": "s", "flow.fixpoint.site_visits": "count",
    "flow.fixpoint.visits_per_site": "visits/site",
    "flow.fixpoint.subtype_checks": "count",
    "flow.partition.s": "s", "flow.partition.tries": "count",
    "flow.partition.subtype_checks": "count",
    "classify.s": "s", "classify.clauses": "count",
    "report.aggregate.s": "s", "report.emit.s": "s", "report.bytes": "B",
    "driver.self.s": "s", "cli.self.s": "s", "cli.diagnostics": "count",
    "trace.analyze_s": "s", "trace.overhead_s": "s",
}


class HarnessError(Exception):
    """The child could not trace the layers it is told to trace."""


class Operation:
    """One child process running exflow analyze, and what it produced."""

    def __init__(self, project: Path, platform: Path, out: Path, trace: bool,
                 timeout: float):
        if out.exists():
            out.unlink()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path("src").resolve()),
                          env.get("PYTHONPATH")]))
        command = [sys.executable, str(HERE / "child.py"),
                   "--trace", "1" if trace else "0", "--",
                   "analyze", "--project", str(project),
                   "--platform", str(platform), "--out", str(out)]
        self.error = None
        self.result: dict = {}
        started = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=env)
        try:
            stdout, self.stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, self.stderr = proc.communicate()
            self.error = f"no exit within {timeout:.0f} s"
            return
        if proc.returncode == 4 and "trace error:" in self.stderr:
            raise HarnessError(self.stderr.strip())
        if proc.returncode != 0:
            self.error = (f"child exit {proc.returncode}: "
                          + self.stderr.strip()[-400:])
            return
        self.result = json.loads(stdout.strip().splitlines()[-1])
        self.startup_s = self.result["ready"] - started
        if self.result["code"] != 0:
            self.error = f"exflow exit {self.result['code']}"
        elif "Traceback" in self.stderr:
            self.error = "traceback on stderr"
        elif "skipped unparseable file" in self.stderr:
            self.error = "a generated file did not parse"
        elif not out.is_file():
            self.error = "no report written"
        else:
            report = out.read_bytes()
            self.digest = hashlib.sha256(report).digest()
            self.report_bytes = len(report)


def _environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        digest.update(path.as_posix().encode() + b"\0" + path.read_bytes())
    sha = None
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30).stdout.split()
        if Path(top).resolve() == Path.cwd().resolve():
            sha = head
    except (OSError, ValueError, subprocess.TimeoutExpired):
        pass
    return {"python": host.python_version(), "nproc": os.cpu_count(),
            "machine": host.machine(), "git_sha": sha,
            "src_sha256": digest.hexdigest(), "seed": seed}


def _layer_metrics(trace: dict, report_bytes: int, diagnostics: int) -> dict:
    self_s = trace["self_s"]
    counts = trace["counts"]
    calls = trace["calls"]
    visits = counts.get("flow.fixpoint:site_visits", 0)
    sites = trace["distinct_sites"].get("flow.fixpoint", 0)
    return {
        "lex.s": self_s["lex"],
        "lex.tokens": counts["lex:tokens"],
        "lex.tokens_per_s": counts["lex:tokens"] / self_s["lex"],
        "parse.s": self_s["parse"],
        "parse.files": calls["parse"],
        "parse.failed": counts.get("parse:failed", 0),
        "platform.s": self_s["platform"],
        "model.s": self_s["model"],
        "model.methods": trace["methods"],
        "model.unresolved": trace["unresolved"],
        "flow.fixpoint.s": self_s["flow.fixpoint"],
        "flow.fixpoint.site_visits": visits,
        "flow.fixpoint.visits_per_site": visits / sites if sites else 0.0,
        "flow.fixpoint.subtype_checks":
            counts.get("flow.fixpoint:subtype_checks", 0),
        "flow.partition.s": self_s["flow.partition"],
        "flow.partition.tries": calls["flow.partition"],
        "flow.partition.subtype_checks":
            counts.get("flow.partition:subtype_checks", 0),
        "classify.s": self_s["classify"],
        "classify.clauses": calls["classify"],
        "report.aggregate.s": self_s["report.aggregate"],
        "report.emit.s": self_s["report.emit"],
        "report.bytes": report_bytes,
        "driver.self.s": self_s["driver"],
        "cli.self.s": self_s["cli"],
        "cli.diagnostics": diagnostics,
    }


def _operate(project: Path, platform_file: Path, out: Path, expected: dict,
             seconds: float, trace: bool, minimum: int, began: float,
             failures: list[str]) -> list[Operation]:
    """The closed loop: one child at a time until the time is up and at
    least `minimum` operations have run. A report is parsed and compared
    with the oracle only when its bytes are new."""
    ops: list[Operation] = []
    verdicts: dict[bytes, bool] = {}
    deadline = time.perf_counter() + seconds
    while len(ops) < minimum or time.perf_counter() < deadline:
        elapsed = time.perf_counter() - began
        if elapsed > RUN_LIMIT_S:
            break
        traced = trace and len(ops) % 2 == 1
        op = Operation(project, platform_file, out, traced,
                       timeout=max(10.0, RUN_LIMIT_S + 20 - elapsed))
        ops.append(op)
        if op.error is None:
            if op.digest not in verdicts:
                verdicts[op.digest] = json.loads(out.read_bytes()) == expected
            if not verdicts[op.digest]:
                op.error = "report differs from the oracle"
            elif len(verdicts) > 1:
                op.error = "report bytes differ from an earlier run"
        if op.error is not None:
            failures.append(f"operation {len(ops)}: {op.error}")
            if not op.result:
                break  # the child itself failed; running it again is moot
    return ops


def _trace_metrics(traced: list[Operation], overhead_s: float,
                   failures: list[str]) -> dict:
    """Per-layer metrics of the fastest traced operation, traced[0], so its
    layer times add up to trace.analyze_s. Counts must agree between all
    traced operations."""
    layers = [_layer_metrics(op.result["trace"], op.report_bytes,
                             op.stderr.count("\n")) for op in traced]
    for name in layers[0]:
        values = {layer[name] for layer in layers}
        if PER_LAYER_UNITS[name] in ("count", "B") and len(values) > 1:
            failures.append(f"{name} differs between traced runs: "
                            f"{sorted(values)}")
    metrics = layers[0]
    metrics["trace.analyze_s"] = traced[0].result["analyze_s"]
    metrics["trace.overhead_s"] = overhead_s
    # Self times are span minus child spans on a strict stack, so they add
    # up to the root span by construction: this guards the span bookkeeping
    # and the cost of the outermost wrapper, not the coverage of the layers.
    for op in traced:
        attributed = sum(op.result["trace"]["self_s"].values())
        if abs(op.result["analyze_s"] - attributed) > 0.01:
            failures.append(f"layer self times sum to {attributed:.4f} s of "
                            f"{op.result['analyze_s']:.4f} s traced")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, operate and reduce one run; returns the full record."""
    # the project path is in every file and id of the report, so its length
    # must not vary with the pid, or report.bytes would
    work = WORK / f"{workload}-{seed}-{os.getpid():07d}"
    shutil.rmtree(work, ignore_errors=True)
    began = time.perf_counter()
    try:
        setup_s = []
        for rep in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs = WORKLOADS[workload](seed)
            project, platform_file = inputs.write(work / f"tree{rep}")
            setup_s.append(time.perf_counter() - start)
        failures: list[str] = []
        minimum = 2 * TRACED_PAIRS if trace else TIMED_OPERATIONS[workload]
        ops = _operate(project, platform_file, work / "report.json",
                       inputs.expected(str(project)), seconds, trace,
                       minimum, began, failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    good = [op for op in ops if op.error is None]
    plain = [op for op in good if "trace" not in op.result]
    traced = sorted((op for op in good if "trace" in op.result),
                    key=lambda op: op.result["analyze_s"])
    # an untraced operation and the traced one right after it
    pairs = [(ops[i], ops[i + 1]) for i in range(0, len(ops) - 1, 2)
             if ops[i].error is None and ops[i + 1].error is None]
    record = {
        "workload": workload, "trace": int(trace),
        "env": _environment(seed), "input": inputs.size(),
        "attempted": len(ops), "failed": len(ops) - len(good),
        "error_rate": (len(ops) - len(good)) / len(ops),
        "failures": failures,
        "samples": {
            "setup_generate_s": setup_s,
            "startup_s": [op.startup_s for op in good],
            "analyze_s": [op.result["analyze_s"] for op in plain],
            "peak_rss_mb": [op.result["peak_rss_mb"] for op in plain],
            "trace.analyze_s": [op.result["analyze_s"] for op in traced],
        },
        "metrics": {},
    }
    samples = record["samples"]
    if not plain or (trace and not traced):
        return record
    if not trace:
        # the fastest of a fixed number of operations: on a shared host
        # interference only ever adds time, and the minimum is steadier
        # than the median
        timed = [op.result["analyze_s"]
                 for op in ops[:TIMED_OPERATIONS[workload]]
                 if op.error is None]
        record["metrics"] = {
            "analyze_s": min(timed),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
            "setup_s": (statistics.median(setup_s)
                        + statistics.median(samples["startup_s"])),
        }
        return record
    overhead = statistics.median(
        traced_op.result["analyze_s"] - plain_op.result["analyze_s"]
        for plain_op, traced_op in pairs) if pairs else 0.0
    metrics = _trace_metrics(traced, overhead, failures)
    record["metrics"] = metrics
    record["shares"] = {
        name[:-2]: metrics[name] / metrics["trace.analyze_s"]
        for name, unit in PER_LAYER_UNITS.items()
        if unit == "s" and name.endswith(".s")}
    WORK.mkdir(exist_ok=True)
    (WORK / f"{workload}-seed{seed}.spans.json").write_text(
        json.dumps(traced[0].result["trace"]["spans"]))
    return record


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path("src") / "exflow" / "cli.py").is_file():
        print("error: run from the root of an exflow checkout "
              "(src/exflow/cli.py not found)", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps(record, sort_keys=True))
    for failure in record["failures"]:
        print(f"failure: {failure}", file=sys.stderr)
    result = {
        "correct": not record["failures"] and bool(record["metrics"]),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
