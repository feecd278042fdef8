"""Byte identity of the CLI artifact trees on a small pinned corpus.

The digests in `golden_digests.json` pin every file that `synth`,
`ingest --out` and `analyze` write for the corpus below, and those of
a second `analyze` with short, densely hopped windows (`DENSE_ARGS`,
thousands of windows where the default gives a few). Both `analyze`
cases run again with `--jobs 2`, whose trees must match too, apart
from the `jobs` value in `manifest.json`. A refactor that changes a
single output byte fails here. To re-record after an
intended output change, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py --record
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

from etk.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")
SYNTH_ARGS = ["--count", "3", "--rounds", "2", "--round-s", "20", "--seed", "7"]
DENSE_ARGS = ["--window-s", "5", "--hop-s", "0.05"]
TREES = (("synth", "corpus"), ("ingest", "ingested"), ("analyze", "analysis"),
         ("analyze_dense", "analysis-dense"))


def _tree_digests(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def golden_trees(jobs: int = 1) -> dict[str, dict[str, str]]:
    """Run the commands with relative paths in the current directory."""
    jobs_args = ["--jobs", str(jobs)] if jobs != 1 else []
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        assert main(["synth", "--out", "corpus", *SYNTH_ARGS]) == 0
        assert main(["ingest", "corpus", "--out", "ingested"]) == 0
        assert main(["analyze", "corpus", "--out", "analysis", *jobs_args]) == 0
        assert main(["analyze", "corpus", "--out", "analysis-dense", *DENSE_ARGS,
                     *jobs_args]) == 0
    return {name: _tree_digests(Path(path)) for name, path in TREES}


def _assert_trees_match(got, want):
    for name, _ in TREES:
        changed = sorted(k for k in set(got[name]) | set(want[name])
                         if got[name].get(k) != want[name].get(k))
        assert not changed, f"{name}: files differ from the recorded digests: {changed}"


def test_artifact_trees_match_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _assert_trees_match(golden_trees(), json.loads(DIGESTS.read_text()))


def test_jobs2_artifact_trees_match_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got, want = golden_trees(jobs=2), json.loads(DIGESTS.read_text())
    for name in ("analyze", "analyze_dense"):  # their manifests record the --jobs value
        del got[name]["manifest.json"], want[name]["manifest.json"]
    _assert_trees_match(got, want)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            trees = golden_trees()
        finally:
            os.chdir(cwd)
    DIGESTS.write_text(json.dumps(trees, indent=2, sort_keys=True) + "\n")
    print(f"recorded {sum(len(t) for t in trees.values())} digests in {DIGESTS}")
