"""Report bytes pinned: every output of `analyze` and `lint` on three
trees, and the diagnostics that `analyze` writes to stderr, compared byte
for byte with the files under tests/data/golden.

The trees are fig1, the project of a seeded cyclic `_corpus.py` corpus
(seed 3: recursive calls, nested tries, external methods), and
tests/data/expressions, which puts a call in every operator form, gives
calls every receiver shape and every reason to stay unresolved, and wraps
caught exceptions in throws through operators, casts and lambdas. Each command
runs through cli.main from the directory that holds the tree, so the paths
in the reports are relative and the same on every machine. A change that
alters a report on purpose updates these files in the same commit.
"""

import json
import shutil
from pathlib import Path

import pytest

from _corpus import generate_corpus, platform_document_multi, render_app
from exflow.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
TREES = ["fig1", "cyclic", "expressions"]
CSV_TABLES = ("actions.csv", "diversity.csv", "sources.csv",
              "strategies.csv", "tryblocks.csv")


def _make_tree(tree: str, root: Path, fig1_dir: Path,
               jre_mini_path: Path) -> Path:
    """The project directory `root/tree` and the platform file to run on."""
    project = root / tree
    if tree != "cyclic":
        shutil.copytree(fig1_dir.parent / tree, project)
        return Path(shutil.copy(jre_mini_path, root / "platform.json"))
    # App.java declares no exception classes, so the corpus exception types
    # go into the platform file, which must declare every exception that
    # its methods document and the project does not
    corpus = generate_corpus(3, cyclic=True, max_methods=30)
    (project / "gen").mkdir(parents=True)
    (project / "gen" / "App.java").write_text(render_app(corpus))
    platform = root / "platform.json"
    platform.write_text(json.dumps(platform_document_multi([("gen", corpus)])))
    return platform


def outputs(tree: str, root: Path, fig1_dir: Path, jre_mini_path: Path,
            capsys) -> dict[str, bytes]:
    """Every pinned output of one tree, by golden file name."""
    platform = _make_tree(tree, root, fig1_dir, jre_mini_path).name
    common = ["--project", tree, "--platform", platform]
    capsys.readouterr()
    assert main(["analyze", *common, "--out", "analyze.json"]) == 0
    found = {"stderr.txt": capsys.readouterr().err.encode()}
    assert main(["analyze", *common, "--transitive-origins",
                 "--out", "transitive.json"]) == 0
    assert main(["analyze", *common, "--format", "csv", "--out", "csv"]) == 0
    capsys.readouterr()
    assert main(["lint", *common]) == 0
    found["lint.txt"] = capsys.readouterr().out.encode()
    for name in ("analyze.json", "transitive.json"):
        found[name] = (root / name).read_bytes()
    assert sorted(p.name for p in (root / "csv").iterdir()) == list(CSV_TABLES)
    for name in CSV_TABLES:
        found[f"csv/{name}"] = (root / "csv" / name).read_bytes()
    return found


@pytest.mark.parametrize("tree", TREES)
def test_outputs_match_golden_bytes(tree, tmp_path, monkeypatch, capsys,
                                    fig1_dir, jre_mini_path):
    monkeypatch.chdir(tmp_path)
    found = outputs(tree, tmp_path, fig1_dir, jre_mini_path, capsys)
    expected = {str(path.relative_to(GOLDEN / tree)): path.read_bytes()
                for path in sorted((GOLDEN / tree).rglob("*"))
                if path.is_file()}
    assert sorted(found) == sorted(expected)
    for name, data in expected.items():
        assert found[name] == data, f"{tree}/{name} differs from its golden"


@pytest.mark.parametrize("out", [[], ["--out", "-"]])
@pytest.mark.parametrize("tree", TREES)
def test_analyze_stdout_matches_golden_bytes(tree, out, tmp_path,
                                             monkeypatch, capsys, fig1_dir,
                                             jre_mini_path):
    monkeypatch.chdir(tmp_path)
    platform = _make_tree(tree, tmp_path, fig1_dir, jre_mini_path).name
    assert main(["analyze", "--project", tree, "--platform", platform,
                 *out]) == 0
    assert capsys.readouterr().out.encode() == \
        (GOLDEN / tree / "analyze.json").read_bytes()
