"""Tests for the benchmark's own code: `python3 -m pytest perfbench`."""
from __future__ import annotations

import shutil
import statistics
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from summary import spread, summarize  # noqa: E402


def _span(id, parent, start, end, name="x"):
    return spans.Span(id, parent, name, start, end, 0, False)


def test_union_length_merges_overlaps_and_ignores_empty():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4.0


def test_self_time_is_duration_minus_union_of_children():
    parent = _span(1, None, 0.0, 10.0)
    kids = [_span(2, 1, 1.0, 3.0), _span(3, 1, 2.0, 5.0),   # overlap: covers 1..5
            _span(4, 1, 7.0, 8.0), _span(5, 1, 9.5, 12.0)]  # last one clipped to 10
    grandchild = _span(6, 2, 1.5, 2.5)
    own = spans.self_times([parent, *kids, grandchild])
    assert own[1] == 10.0 - (4.0 + 1.0 + 0.5)
    assert own[2] == 2.0 - 1.0
    assert own[6] == 1.0


def test_self_time_by_name_sums_over_calls():
    spans_ = [_span(1, None, 0, 4, "a"), _span(2, 1, 1, 2, "b"), _span(3, 1, 2, 3, "b")]
    assert spans.self_time_by_name(spans_) == {"a": 2, "b": 2}


def test_span_stack_is_kept_per_thread():
    tracer = spans.Tracer()
    barrier = threading.Barrier(2, timeout=10)
    inner = tracer.wrap("t.inner", lambda: barrier.wait())
    outer = tracer.wrap("t.outer", lambda: inner())
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    by_id = {s.id: s for s in tracer.spans}
    inners = [s for s in tracer.spans if s.name == "t.inner"]
    assert len(inners) == 2
    for s in inners:
        parent = by_id[s.parent]
        assert parent.name == "t.outer" and parent.thread == s.thread
    assert len({s.thread for s in inners}) == 2
    assert tracer.counts["t.inner.calls"] == 2


def test_pool_tasks_inherit_the_submitting_span():
    tracer = spans.Tracer()
    leaf = tracer.wrap("t.leaf", lambda x: x + 1)

    def root():
        with tracer.pool_class()(max_workers=2) as pool:
            return list(pool.map(leaf, range(4)))

    assert tracer.wrap("t.root", root)() == [1, 2, 3, 4]
    root_span = next(s for s in tracer.spans if s.name == "t.root")
    leaves = [s for s in tracer.spans if s.name == "t.leaf"]
    assert len(leaves) == 4 and all(s.parent == root_span.id for s in leaves)


def test_errors_are_counted_per_layer_and_reraised():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("zones.boom", boom)
    try:
        wrapped()
    except ValueError:
        pass
    assert tracer.counts["zones.errors"] == 1
    assert tracer.spans[0].error


def test_patched_replaces_every_reference_and_restores():
    cli = run.import_etk_cli()
    import etk
    import etk.ingest

    original = etk.ingest.parse_gaze_log
    tracer = spans.Tracer()
    with spans.patched(tracer):
        assert etk.ingest.parse_gaze_log is not original
        assert etk.parse_gaze_log is etk.ingest.parse_gaze_log
        assert cli.read_session_dir is etk.ingest.read_session_dir
        assert etk.ingest.fmt_num is cli.fmt_num  # per-value helper, not wrapped
        assert cli.fmt_num.__module__ == "etk.ingest" and not hasattr(cli.fmt_num, "__wrapped__")
    assert etk.ingest.parse_gaze_log is original and etk.parse_gaze_log is original


def test_summary_median_quartiles_and_tail():
    s = summarize([float(v) for v in range(9, 0, -1)])
    assert (s["n"], s["median"]) == (9, 5.0)
    assert [s["q1"], s["q3"]] == [statistics.quantiles(range(1, 10), n=4)[i] for i in (0, 2)]
    assert not any(k.startswith("p") for k in s)
    assert spread(s) == (s["q3"] - s["q1"]) / 5.0

    big = summarize([float(v) for v in range(1, 201)])
    # p95 is the highest percentile with ten samples above it: ranks 191..200.
    assert big["p95"] == 190.0 and "p99" not in big

    one = summarize([2.5])
    assert (one["median"], one["q1"], one["q3"], one["n"]) == (2.5, 2.5, 2.5, 1)


def test_compare_jobs_trees_ignores_only_the_jobs_field(tmp_path):
    for name, jobs in (("a", 1), ("b", 2)):
        d = tmp_path / name
        d.mkdir()
        (d / "windows.csv").write_text("x\n")
        (d / "manifest.json").write_text(f'{{"config": {{"jobs": {jobs}}}, "inputs": {{}}}}')
    assert checks.compare_jobs_trees(tmp_path / "a", tmp_path / "b") == []
    (tmp_path / "b" / "windows.csv").write_text("y\n")
    assert checks.compare_jobs_trees(tmp_path / "a", tmp_path / "b")


TINY = run.Workload("tiny", count=2, rounds=2, round_s=40)


def test_tiny_workload_runs_end_to_end_and_passes_its_checks(tmp_path):
    ledger = run.Ledger()
    deadline = run.time.monotonic() + run.RUN_LIMIT_S
    observed: dict = {}
    samples = run.end_to_end(TINY, 42, 0, tmp_path, deadline, ledger, observed, None)
    assert ledger.problems == [] and ledger.failed == 0
    assert ledger.attempted == 4 * run.MIN_CYCLES
    assert set(run.metric_specs()["end_to_end"]) <= set(samples)
    assert {"ingest_s", "analyze_s", "analyze_jobs2_s", "reference_s"} <= set(samples)
    assert len(samples["setup_s"]) == run.MIN_CYCLES
    assert all(v > 0 for values in samples.values() for v in values)

    per_layer, recorded = run.traced(TINY, 42, 0, tmp_path, deadline, ledger, observed, None)
    assert ledger.problems == [] and ledger.failed == 0
    assert set(run.metric_specs()["per_layer"]) <= set(per_layer)
    assert min(per_layer["trace.coverage"]) >= 0.95
    assert per_layer["zones.windows"][0] > 0 and recorded["analyze"]

    # A tampered artifact is caught by the oracle checks.
    shutil.copytree(tmp_path / "jobs1", tmp_path / "bad")
    averages = tmp_path / "bad" / "averages.csv"
    lines = averages.read_text().splitlines()
    lines[1] = lines[1].replace(",0.", ",0.1", 1)
    averages.write_text("\n".join(lines) + "\n")
    facts = checks.corpus_facts(tmp_path / "corpus")
    assert checks.check_analyze(tmp_path / "jobs1", facts) == []
    assert checks.check_analyze(tmp_path / "bad", facts)


def test_recorded_digests_are_required_for_seed_42(tmp_path, monkeypatch):
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "a.csv").write_text("x\n")
    digests = checks.tree_digests(tmp_path / "out")

    def problems(expected, observed=None):
        return run.tree_check(tmp_path, {} if observed is None else observed, expected,
                              "jobs1", "out")()

    assert problems(None) == []                       # another seed, or --record
    assert problems({"jobs1": digests}) == []
    assert problems({"jobs1": {"a.csv": "0" * 64}})
    assert problems({})                               # no entry for this tree
    assert problems({"jobs1": {}}, observed={"jobs1": digests}) == []  # later trees

    monkeypatch.setattr(run, "EXPECTED_JSON", tmp_path / "absent.json")
    assert run.expected_digests(TINY, 42, record=False) == {}
    assert run.expected_digests(TINY, 42, record=True) is None
    assert run.expected_digests(TINY, 7, record=False) is None
