"""tools/bench_json.py stamps the checkout it measures, or refuses it."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_json", Path(__file__).resolve().parents[1] / "tools" / "bench_json.py")


def test_source_stamps_head_and_refuses_a_tree_it_cannot_stamp(tmp_path):
    """A clean checkout stamps HEAD, untracked files aside; uncommitted
    changes to tracked files need a label ending in -uncommitted; a plain
    directory is refused. Nothing is benchmarked."""
    tool = importlib.util.module_from_spec(SPEC)
    SPEC.loader.exec_module(tool)
    root, plain = (tmp_path / "checkout").resolve(), (tmp_path / "plain").resolve()
    plain.mkdir()
    git = ["git", "-C", str(root), "-c", "user.name=b", "-c", "user.email=b@example.com",
           "-c", "commit.gpgsign=false"]
    subprocess.run(["git", "init", "-q", str(root)], check=True)
    (root / "tracked.txt").write_text("a\n")
    subprocess.run([*git, "add", "tracked.txt"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "first"], check=True)
    head = subprocess.run([*git, "rev-parse", "HEAD"], check=True, capture_output=True,
                          text=True).stdout.strip()
    (root / "untracked.txt").write_text("u\n")
    assert tool.source(root, "clean") == {"base_commit": head, "uncommitted_changes": False}

    (root / "tracked.txt").write_text("b\n")
    with pytest.raises(SystemExit, match="uncommitted changes"):
        tool.source(root, "dirty")
    assert tool.source(root, "dirty-uncommitted") == {"base_commit": head,
                                                      "uncommitted_changes": True}
    with pytest.raises(SystemExit, match="not the top of a git checkout"):
        tool.source(plain, "plain")
