"""Tests of the benchmark itself: generators are deterministic per seed,
each oracle agrees with the analyzer on a small instance of its workload,
and the traced run fails loudly instead of reading 0.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "corpus": dict(files=3, file_lines=150),
    "call_chain": dict(n=12),
    "try_nest": dict(methods=2, depth=6),
}


def _analyze(inputs: workloads.Workload, root: Path) -> tuple[int, str, dict]:
    from exflow.cli import main
    project, platform = inputs.write(root)
    out = root / "report.json"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["analyze", "--project", str(project),
                     "--platform", str(platform), "--out", str(out)])
    expected = inputs.expected(str(project))
    return code, stderr.getvalue(), {"got": json.loads(out.read_text()),
                                     "want": expected}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    make = workloads.WORKLOADS[name]
    first, again, other = (make(seed, **SMALL[name]) for seed in (3, 3, 4))
    assert first.files == again.files
    assert first.platform == again.platform
    assert first.expected("p") == again.expected("p")
    assert first.size() == again.size()
    assert (other.files, other.platform) != (first.files, first.platform)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_agrees_with_analyzer(name, seed, tmp_path):
    inputs = workloads.WORKLOADS[name](seed, **SMALL[name])
    code, stderr, reports = _analyze(inputs, tmp_path)
    assert code == 0
    assert "Traceback" not in stderr
    assert "skipped unparseable file" not in stderr
    assert reports["got"] == reports["want"]
    assert reports["got"]["totals"]["try_blocks"] == inputs.try_blocks > 0


def test_try_nest_oracle_with_a_throws_clause_on_the_leaf(tmp_path):
    seed = next(s for s in range(100) if "throws Fault" in workloads.try_nest(
        s, **SMALL["try_nest"]).files["bench/Nest.java"])
    code, _stderr, reports = _analyze(
        workloads.try_nest(seed, **SMALL["try_nest"]), tmp_path)
    assert code == 0 and reports["got"] == reports["want"]


def test_corpus_covers_every_handler_and_strategy(tmp_path):
    inputs = workloads.corpus(5, files=6, file_lines=300)
    code, _stderr, reports = _analyze(inputs, tmp_path)
    assert code == 0 and reports["got"] == reports["want"]
    actions = {a for row in reports["want"]["try_blocks"]
               for h in row["handlers"] for a in h["actions"]}
    assert actions >= {"Log", "Default", "ThrowCurrent", "ThrowWrap",
                       "Empty", "Todo", "Abort", "Return", "Method",
                       "NestedTry", "ThrowNew"}
    strategies = {e["strategy"] for row in reports["want"]["try_blocks"]
                  for e in row["exceptions"]}
    assert strategies == {"specific", "subsumption", "propagated"}


def test_token_count_ignores_comments():
    assert workloads.count_tokens('a >>>= b; // c d e\n/* f */ "g h"') == 5


def test_tracer_fails_when_a_traced_name_is_gone(monkeypatch):
    import exflow.cli  # noqa: F401  (loads every traced module)
    import exflow.driver
    monkeypatch.delattr(exflow.driver, "analyze_try_block")
    with pytest.raises(child.TraceError, match="analyze_try_block"):
        child.Tracer().install()


def test_tracer_fails_when_a_span_never_fires():
    tracer = child.Tracer()
    tracer.span("cli", lambda: None)()
    with pytest.raises(child.TraceError, match="spans never fired: .*lex"):
        tracer.summary()


def test_traced_child_reports_every_layer(tmp_path):
    inputs = workloads.corpus(2, files=3, file_lines=150)
    project, platform = inputs.write(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--trace", "1", "--",
         "analyze", "--project", str(project), "--platform", str(platform),
         "--out", str(tmp_path / "out.json")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    trace = result["trace"]
    assert set(trace["calls"]) == {name for _m, _a, name in child.SPANS} | {
        "cli"}
    assert trace["calls"]["parse"] == len(inputs.files)
    assert trace["calls"]["flow.partition"] == inputs.try_blocks
    assert trace["counts"]["flow.fixpoint:site_visits"] > 0
    assert abs(sum(trace["self_s"].values()) - result["analyze_s"]) < 0.01


def test_run_refuses_a_tree_without_the_analyzer(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_reported_metric():
    import run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert set(run.TIMED_OPERATIONS) == set(workloads.WORKLOADS)
