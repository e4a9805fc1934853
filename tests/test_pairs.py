"""tools/pairs.py: the exports both sides run from, and the fit of peak RSS
against the op count of a side's runs."""

import importlib.util
import os
import subprocess
from pathlib import Path

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location(
        "pairs", os.path.join(ROOT, "tools", "pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(ops, rss):
    return {"attempted": ops, "metrics": {"peak_rss_mb": {"value": rss}}}


def test_rss_fit_is_the_least_squares_line(pairs):
    # 7 MB per 1000 ops on 60 MB, with residuals that cancel in the fit
    runs = [_run(1000, 67.5), _run(2000, 73.0), _run(3000, 81.5), _run(4000, 88.0)]
    fit = pairs._rss_fit(runs)
    assert fit["mb_per_1000_ops"] == pytest.approx(7.0)
    assert fit["mb_at_0_ops"] == pytest.approx(60.0)


def test_rss_fit_needs_two_op_counts(pairs):
    assert pairs._rss_fit([_run(1000, 67.0)]) is None
    assert pairs._rss_fit([_run(1000, 67.0), _run(1000, 68.0)]) is None


def test_export_holds_the_working_tree_at_an_equal_length_path(pairs, tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    (repo / ".gitignore").write_text("*.log\n")
    (repo / "pkg").mkdir()
    (repo / "pkg" / "code.py").write_text("committed\n")
    (repo / "gone.py").write_text("deleted after the commit\n")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    (repo / "pkg" / "code.py").write_text("edited\n")
    (repo / "pkg" / "new.py").write_text("untracked\n")
    (repo / "pkg" / "run.log").write_text("ignored\n")
    (repo / "gone.py").unlink()

    commit, roots = pairs._export(str(repo), str(tmp_path / "export"))
    parent, change = roots["parent"], roots["change"]
    assert len(parent) == len(change) and parent != change
    assert os.path.dirname(parent) == os.path.dirname(change)
    assert len(commit) == 40

    def files(root):
        return {p.relative_to(root).as_posix(): p.read_text()
                for p in Path(root).rglob("*") if p.is_file()}

    assert files(parent) == {".gitignore": "*.log\n", "pkg/code.py": "committed\n",
                             "gone.py": "deleted after the commit\n"}
    assert files(change) == {".gitignore": "*.log\n", "pkg/code.py": "edited\n",
                             "pkg/new.py": "untracked\n"}
