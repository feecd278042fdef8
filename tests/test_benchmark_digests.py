"""The benchmark's seed-42 output digests, held by the test suite.

`perfbench/run.py` checks every tree its commands write against
`perfbench/expected_seed42.json`. This test runs the same commands in
process, on the shapes and arguments of its `WORKLOADS`, so that a
change moving one output byte fails here and not only in a benchmark
run. Like `test_golden.py`, the `kde.csv` digests hold only on hosts
whose numpy dispatches to AVX-512.
"""
from __future__ import annotations

import importlib.util
import json
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from etk.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_run():
    """`perfbench/run.py` as a module; it imports its sibling modules by name."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(PERFBENCH))
    return run


run = _load_run()


@pytest.mark.parametrize("workload", list(run.WORKLOADS.values()), ids=lambda w: w.name)
def test_workload_trees_match_the_recorded_seed42_digests(tmp_path, monkeypatch, workload):
    # Relative paths in the working directory, as the benchmark runs them:
    # the manifests record them.
    monkeypatch.chdir(tmp_path)
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        assert main(workload.synth_args(run.DEFAULT_SEED, "corpus")) == 0
        assert main(["ingest", "corpus", "--out", "ingest"]) == 0
        for jobs in (1, 2):
            assert main(workload.analyze_args(f"jobs{jobs}", jobs)) == 0
    recorded = json.loads(run.EXPECTED_JSON.read_text())[workload.name]
    problems = [problem for key in ("corpus", "ingest", "jobs1") for problem in
                run.checks.compare_digests(key, run.checks.tree_digests(Path(key)),
                                           recorded[key])]
    problems += run.checks.compare_jobs_trees(Path("jobs1"), Path("jobs2"))
    assert problems == []
