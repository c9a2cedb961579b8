"""The parent-identity check: its comparison, and a full run against HEAD."""

import subprocess
import sys

import pytest

from identity import ROOT, differing


def _is_git_checkout() -> bool:
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet", "HEAD"],
                          capture_output=True)
    return done.returncode == 0


def test_differing_names_each_changed_or_missing_file(tmp_path):
    base, other = tmp_path / "base", tmp_path / "other"
    for run in (base, other):
        (run / "ds").mkdir(parents=True)
        # a JSON file that names its own run directory, and a binary one that happens to
        (run / "ds" / "manifest.jsonl").write_text(f'{{"clean_path": "{run}/ds/a.wav"}}\n')
        (run / "cap.bin").write_bytes(b"\x00\x01" + bytes(str(run), "utf-8"))
        (run / "trace.wav").write_bytes(b"RIFF\x00\x00")
    (other / "trace.wav").write_bytes(b"RIFF\x00\x01")
    (base / "only_base.csv").write_text("a\n")
    count, lines = differing(base, other, tmp_path / "inputs")
    assert count == 4
    # the binary file keeps its bytes: only JSON files and stream logs have the name replaced
    assert lines == ["cap.bin: differs", "only_base.csv: only in the revision",
                     "trace.wav: differs"]


@pytest.mark.skipif(not _is_git_checkout(), reason="needs a git checkout with a HEAD commit")
def test_working_tree_matches_head():
    # the working tree is HEAD plus any uncommitted change, so a clean tree
    # also shows that two fresh runs of the command list agree
    done = subprocess.run([sys.executable, str(ROOT / "tests" / "identity.py"), "HEAD"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.endswith(" files compared against HEAD, 0 differ or failed\n")
    worktrees = subprocess.run(["git", "-C", str(ROOT), "worktree", "list"],
                               capture_output=True, text=True, check=True).stdout
    assert "mmvib-identity-" not in worktrees
