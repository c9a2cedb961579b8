"""The parent-identity check: its comparison, main against HEAD on one entry of the list, and
a revision that does not resolve.

The whole list's outputs are pinned by tests/test_cli.py's TestOutputBytes.
"""

import subprocess
import tempfile

import pytest

import identity
from identity import ROOT, differing


def _is_git_checkout() -> bool:
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet", "HEAD"],
                          capture_output=True)
    return done.returncode == 0


needs_git = pytest.mark.skipif(not _is_git_checkout(),
                               reason="needs a git checkout with a HEAD commit")


def _worktrees() -> str:
    return subprocess.run(["git", "-C", str(ROOT), "worktree", "list"],
                          capture_output=True, text=True, check=True).stdout


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


@needs_git
def test_working_tree_matches_head(tmp_path, monkeypatch, capsys):
    # the plain synth entry writes a manifest.jsonl that names its run directory, so the
    # two runs agree only if the comparison replaces each run's name
    monkeypatch.setattr(identity, "COMMANDS", ["synth --manifest {i}/clips.txt --out-dir {o}/ds"])
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert identity.main(["HEAD"]) == 0
    # pairs.jsonl, the command's log, manifest.jsonl and three clean and three degraded clips
    assert capsys.readouterr().out == "9 files compared against HEAD, 0 differ or failed\n"
    assert list(tmp_path.iterdir()) == []
    assert "mmvib-identity-" not in _worktrees()


@needs_git
def test_unknown_revision_exits_2_before_any_input(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert identity.main(["no-such-rev"]) == 2
    assert capsys.readouterr() == ("", "unknown revision: no-such-rev\n")
    assert list(tmp_path.iterdir()) == []
    assert "mmvib-identity-" not in _worktrees()
