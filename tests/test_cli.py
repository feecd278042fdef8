"""End-to-end CLI behavior: exit codes, artifacts, and determinism."""
import json
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

import etk
from etk.cli import main
from etk.ingest import write_session_dir

ANALYZE_ARTIFACTS = {
    "averages.csv",
    "features.csv",
    "heatmap_amateur.csv",
    "heatmap_amateur.pgm",
    "heatmap_professional.csv",
    "heatmap_professional.pgm",
    "kde.csv",
    "manifest.json",
    "missing.json",
    "pca_model.csv",
    "pca_projections.csv",
    "windows.csv",
    "zones.csv",
}
SESSION_FILES = {"gaze.csv", "input.csv", "hrm.txt", "demo.events", "meta.json"}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    """Three short synthetic sessions (1 professional + 2 amateur)."""
    root = tmp_path_factory.mktemp("corpus")
    code = main(["synth", "--out", str(root), "--count", "3",
                 "--rounds", "2", "--round-s", "30"])
    assert code == 0
    return root


def tree_bytes(root: Path, skip=()) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())
            if p.is_file() and p.name not in skip}


class TestSynthCommand:
    def test_creates_session_dirs_and_manifest(self, corpus):
        names = sorted(p.name for p in corpus.iterdir() if p.is_dir())
        assert names == ["am02", "am03", "pro01"]
        for name in names:
            assert {p.name for p in (corpus / name).iterdir()} == SESSION_FILES
        manifest = json.loads((corpus / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["config"]["count"] == 3
        assert "out" not in manifest["config"]

    def test_count_zero_writes_nothing(self, tmp_path):
        out = tmp_path / "empty"
        assert main(["synth", "--out", str(out), "--count", "0"]) == 0
        assert not out.exists()

    def test_count_zero_still_checks_the_scenario(self, tmp_path, capsys):
        out = tmp_path / "c0"
        assert main(["synth", "--out", str(out), "--count", "0", "--round-s", "1e-9"]) == 1
        err = capsys.readouterr().err
        assert "--rounds" in err and "--round-s" in err
        assert not out.exists()

    def test_negative_count_rejected(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "x"), "--count", "-2"])
        assert code == 1
        assert "count" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_round_s_exits_1_before_writing(self, tmp_path, capsys, value):
        out = tmp_path / "x"
        assert main(["synth", "--out", str(out), "--count", "1", "--round-s", value]) == 1
        assert "round_s" in capsys.readouterr().err
        assert not out.exists()

    # Each is refused by `Scenario` before anything is allocated: a round
    # shorter than one gaze sample, or far more samples than a session holds.
    @pytest.mark.parametrize("flags", [["--round-s", "1e-9"], ["--round-s", "0.01"],
                                       ["--round-s", "1e7"], ["--rounds", "10000000000"],
                                       ["--rounds", str(10 ** 400)]],
                             ids=["tiny-round", "short-round", "huge-round", "many-rounds",
                                  "overflowing-rounds"])
    def test_unusable_scenario_exits_1_before_writing(self, tmp_path, capsys, flags):
        out = tmp_path / "x"
        assert main(["synth", "--out", str(out), "--count", "1", *flags]) == 1
        assert flags[0] in capsys.readouterr().err
        assert not out.exists()

    def test_bad_profile_exits_2(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"professional": {"zone_dwell": [1.0]}}))
        code = main(["synth", "--out", str(tmp_path / "y"),
                     "--count", "1", "--profile", str(profile)])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid profile" in err
        assert "bpm_base" in err

    def test_nan_profile_field_exits_2(self, tmp_path, capsys):
        from etk.synth import default_profiles
        raw = default_profiles()[0].to_dict()
        raw["gaze_noise_px"] = float("nan")
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"professional": raw}))
        code = main(["synth", "--out", str(tmp_path / "y"),
                     "--count", "1", "--profile", str(profile)])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid profile" in err
        assert "gaze_noise_px" in err

    def test_reused_out_drops_stale_sessions_only(self, tmp_path):
        args = ["--rounds", "2", "--round-s", "30"]
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert main(["synth", "--out", str(reused), "--count", "3", *args]) == 0
        (reused / "notes.txt").write_text("keep\n")
        for name in ("data", "pro01x", "am09"):   # no session: not a match, or no meta.json
            (reused / name).mkdir()
            (reused / name / "keep.txt").write_text("keep\n")
        assert main(["synth", "--out", str(reused), "--count", "2", *args]) == 0
        assert main(["synth", "--out", str(fresh), "--count", "2", *args]) == 0
        kept = {"notes.txt", "data", "pro01x", "am09"}
        assert {p.name for p in reused.iterdir()} == {p.name for p in fresh.iterdir()} | kept
        assert tree_bytes(reused, skip=kept) == tree_bytes(fresh)
        for name in ("pro01", "am02"):
            assert tree_bytes(reused / name) == tree_bytes(fresh / name)
        for name in ("data", "pro01x", "am09"):
            assert (reused / name / "keep.txt").read_text() == "keep\n"

    def test_same_seed_reruns_are_byte_identical(self, corpus, tmp_path):
        again = tmp_path / "again"
        assert main(["synth", "--out", str(again), "--count", "3",
                     "--rounds", "2", "--round-s", "30"]) == 0
        for name in ("pro01", "am02", "am03"):
            assert tree_bytes(again / name) == tree_bytes(corpus / name)


class TestIngestCommand:
    def test_summary_on_stdout(self, corpus, capsys):
        assert main(["ingest", str(corpus / "pro01")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        assert payload[0]["player_id"] == "pro01"
        assert payload[0]["cohort"] == "professional"
        assert payload[0]["rounds"] == 2
        assert payload[0]["gaze_samples"] == 60 * 60

    def test_parent_directory_expands_to_children(self, corpus, capsys):
        assert main(["ingest", str(corpus)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [s["player_id"] for s in payload] == ["am02", "am03", "pro01"]

    def test_out_writes_summary_and_manifest(self, corpus, tmp_path, capsys):
        out = tmp_path / "report"
        assert main(["ingest", str(corpus / "pro01"), "--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads((out / "summary.json").read_text())[0]["player_id"] == "pro01"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "ingest"
        assert set(manifest["inputs"][str(corpus / "pro01")]) == SESSION_FILES

    def test_corrupt_gaze_exits_2_with_location(self, corpus, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(corpus / "pro01", broken)
        gaze = broken / "gaze.csv"
        lines = gaze.read_text().splitlines()
        lines.insert(50, "not,a,gaze,row")
        gaze.write_text("\n".join(lines) + "\n")
        assert main(["ingest", str(broken)]) == 2
        err = capsys.readouterr().err
        assert "gaze" in err
        assert "51" in err  # 1-based line number of the bad row

    def test_missing_files_exit_3(self, corpus, tmp_path, capsys):
        partial = tmp_path / "partial"
        shutil.copytree(corpus / "pro01", partial)
        (partial / "input.csv").unlink()
        assert main(["ingest", str(partial)]) == 3
        assert "input" in capsys.readouterr().err

    def test_empty_parent_exits_3(self, tmp_path, capsys):
        empty = tmp_path / "void"
        empty.mkdir()
        assert main(["ingest", str(empty)]) == 3
        capsys.readouterr()


class TestAnalyzeCommand:
    def test_writes_all_artifacts(self, corpus, tmp_path):
        out = tmp_path / "run"
        assert main(["analyze", str(corpus), "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == ANALYZE_ARTIFACTS

    def test_artifact_headers(self, corpus, tmp_path):
        out = tmp_path / "run"
        assert main(["analyze", str(corpus), "--out", str(out)]) == 0
        assert (out / "windows.csv").read_text().splitlines()[0] == (
            "player_id,cohort,round,window_index,window_start,"
            + ",".join(f"p{i}" for i in range(1, 10)))
        assert (out / "features.csv").read_text().splitlines()[0] == (
            "player_id,cohort,round,feature,value")
        assert (out / "zones.csv").read_text().splitlines()[0] == "k,label,x,y"
        assert (out / "kde.csv").read_text().splitlines()[0] == (
            "cohort,feature,x,density")

    def test_two_runs_byte_identical(self, corpus, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert main(["analyze", str(corpus), "--out", str(first)]) == 0
        assert main(["analyze", str(corpus), "--out", str(second)]) == 0
        assert tree_bytes(first) == tree_bytes(second)

    def test_jobs_do_not_change_results(self, corpus, tmp_path):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert main(["analyze", str(corpus), "--out", str(serial)]) == 0
        assert main(["analyze", str(corpus), "--out", str(parallel),
                     "--jobs", "4"]) == 0
        # The manifest records the jobs flag; the data must not differ.
        assert tree_bytes(serial, skip=("manifest.json",)) == \
            tree_bytes(parallel, skip=("manifest.json",))

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, corpus, tmp_path, capsys, jobs):
        out = tmp_path / "run"
        assert main(["analyze", str(corpus), "--out", str(out), "--jobs", jobs]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs,pools", [("1", []), ("64", [(3, "fork")])])
    def test_pool_never_outnumbers_sessions(self, corpus, tmp_path, monkeypatch, jobs, pools):
        started = []

        class Recording(ProcessPoolExecutor):
            def __init__(self, max_workers, mp_context):
                started.append((max_workers, mp_context.get_start_method()))
                super().__init__(max_workers=max_workers, mp_context=mp_context)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Recording)
        assert main(["analyze", str(corpus), "--out", str(tmp_path / "run"),
                     "--jobs", jobs]) == 0
        assert started == pools

    def test_warnings_keep_input_order_under_jobs(self, corpus, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(etk.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
        env.pop("ETK_LOG", None)
        errs = []
        for jobs in ("1", "3"):
            proc = subprocess.run(
                [sys.executable, "-m", "etk.cli", "analyze", str(corpus),
                 "--out", str(tmp_path / jobs), "--window-s", "500", "--jobs", jobs],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            errs.append(proc.stderr)
        assert errs[0] == errs[1]
        assert [line.split(":")[1].strip() for line in errs[0].splitlines()
                if "no rolling windows" in line] == ["am02", "am03", "pro01"]

    def test_single_session_skips_pca(self, corpus, tmp_path):
        out = tmp_path / "solo"
        assert main(["analyze", str(corpus / "pro01"), "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert "pca_model.csv" not in names
        assert "pca_projections.csv" not in names
        assert "windows.csv" in names
        assert "heatmap_amateur.csv" not in names

    def test_cleanup_list_names_every_artifact(self):
        from etk.cli import ANALYZE_FILES
        assert ANALYZE_FILES[0] == "manifest.json"
        assert sorted(ANALYZE_FILES) == sorted(ANALYZE_ARTIFACTS)

    def test_reused_out_keeps_no_stale_artifact(self, corpus, tmp_path):
        out = tmp_path / "run"
        assert main(["analyze", str(corpus), "--out", str(out)]) == 0
        (out / "notes.txt").write_text("kept\n")
        assert main(["analyze", str(corpus / "pro01"), "--out", str(out)]) == 0
        fresh = tmp_path / "fresh"
        assert main(["analyze", str(corpus / "pro01"), "--out", str(fresh)]) == 0
        assert tree_bytes(out, skip=("notes.txt",)) == tree_bytes(fresh)
        assert (out / "notes.txt").read_text() == "kept\n"

    @pytest.mark.parametrize("damage,code", [("one zone", 4), ("corrupt gaze", 2)])
    def test_failed_run_in_reused_out_leaves_no_manifest(self, corpus, tmp_path, capsys,
                                                         damage, code):
        root = tmp_path / "corpus"
        for name in ("pro01", "am02", "am03"):
            shutil.copytree(corpus / name, root / name)
        out = tmp_path / "run"
        assert main(["analyze", str(root), "--out", str(out)]) == 0
        args = []
        if damage == "one zone":
            # Every window of a one-zone model is (1.0,): PCA is degenerate.
            zones = tmp_path / "one.csv"
            zones.write_text("k,label,x,y\n1,Only,960,540\n")
            args = ["--zones", str(zones)]
        else:
            TestInputErrors._corrupt_gaze(root)
        assert main(["analyze", str(root), "--out", str(out), *args]) == code
        capsys.readouterr()
        names = {p.name for p in out.iterdir()}
        assert "manifest.json" not in names
        assert not names & {"pca_model.csv", "pca_projections.csv"}

    def test_manifest_config_and_digests(self, corpus, tmp_path):
        out = tmp_path / "run"
        assert main(["analyze", str(corpus), "--out", str(out),
                     "--window-s", "10", "--hop-s", "2"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "analyze"
        assert manifest["config"]["window_s"] == 10.0
        assert manifest["config"]["hop_s"] == 2.0
        assert "out" not in manifest["config"]
        assert set(manifest["inputs"]) == {str(corpus / n)
                                           for n in ("pro01", "am02", "am03")}
        for digests in manifest["inputs"].values():
            assert set(digests) == SESSION_FILES
            assert all(len(d) == 64 for d in digests.values())

    def test_custom_zone_model(self, corpus, tmp_path):
        zones = tmp_path / "z.csv"
        zones.write_text("k,label,x,y\n1,Left,480,540\n2,Right,1440,540\n")
        out = tmp_path / "run"
        assert main(["analyze", str(corpus), "--out", str(out),
                     "--zones", str(zones)]) == 0
        header = (out / "windows.csv").read_text().splitlines()[0]
        assert header.endswith("p1,p2")

    def test_malformed_zone_model_exits_2(self, corpus, tmp_path, capsys):
        zones = tmp_path / "bad.csv"
        zones.write_text("wrong,header\n")
        assert main(["analyze", str(corpus), "--out", str(tmp_path / "x"),
                     "--zones", str(zones)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("row,message", [
        ("2,b,nan,0", "non-finite x 'nan'"),
        ("2,b,0,inf", "non-finite y 'inf'"),
        ("2,b,1e309,0", "non-finite x '1e309'"),
        ("2,b,x,0", "malformed x 'x'"),
        ("two,b,1,0", "malformed zone index 'two'"),
        ("2,a,1,0", "duplicate zone label 'a'"),
        ("2,b,960,540", "duplicate zone center (960, 540)"),
        ("2,b\x00,1,0", "zone label 'b\\x00' holds a control character"),
        ("2,\tb,1,0", "zone label '\\tb' holds a control character"),
    ])
    def test_bad_zone_row_exits_2_naming_line(self, corpus, tmp_path, capsys, row, message):
        zones = tmp_path / "bad.csv"
        zones.write_text(f"k,label,x,y\n1,a,960,540\n{row}\n3,c,100,100\n")
        out = tmp_path / "x"
        assert main(["analyze", str(corpus), "--out", str(out), "--zones", str(zones)]) == 2
        assert capsys.readouterr().err == f"error: zones: line 3 (byte 24): {zones}: {message}\n"
        assert not out.exists()

    def test_bad_window_exits_1(self, corpus, tmp_path, capsys):
        assert main(["analyze", str(corpus), "--out", str(tmp_path / "x"),
                     "--window-s", "-1"]) == 1
        capsys.readouterr()

    def test_explicit_bandwidth(self, corpus, tmp_path):
        out = tmp_path / "run"
        assert main(["analyze", str(corpus), "--out", str(out),
                     "--bandwidth", "0.05"]) == 0
        assert (out / "kde.csv").stat().st_size > 0

    @pytest.mark.parametrize("value", ["nan", "inf", "abc"])
    def test_non_finite_bandwidth_exits_1_before_writing(self, corpus, tmp_path, capsys, value):
        out = tmp_path / "x"
        assert main(["analyze", str(corpus), "--out", str(out), "--bandwidth", value]) == 1
        assert "--bandwidth" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e308", "1e-320"])
    def test_bandwidth_without_a_finite_curve_skips_kde(self, corpus, tmp_path, caplog, value):
        out = tmp_path / "run"
        assert main(["analyze", str(corpus), "--out", str(out), "--bandwidth", value]) == 0
        assert (out / "kde.csv").read_text() == "cohort,feature,x,density\n"
        assert "kde professional/" in caplog.text and "non-finite" in caplog.text

    def test_round_with_one_input_sample_skips_only_mouse_features(self, tiny_session,
                                                                   tmp_path, caplog):
        # Round 1 is alive over [0, 25); keep one input sample inside it.
        t = tiny_session.input.t
        session = replace(tiny_session, input=tiny_session.input[(t >= 25.0) | (t == 10.0)])
        write_session_dir(session, tmp_path / "p1")
        out = tmp_path / "run"
        assert main(["analyze", str(tmp_path / "p1"), "--out", str(out)]) == 0
        # One row per line, segment by segment: round 1's, round 2's, then the pulse.
        features = [line.split(",")[3] for line in
                    (out / "features.csv").read_text().splitlines()[1:]]
        kept = ["ad_hold_fraction", "w_m1_fraction",
                "clicks_per_minute", "click_mean_duration_s"]
        assert features == [*kept, *kept, "mouse_path_mean_px", "mouse_vel_mean_px_s",
                            "bpm_mean"]
        skipped = [r.getMessage() for r in caplog.records
                   if "skipping input features" in r.getMessage()]
        assert len(skipped) == 1 and skipped[0].startswith("p1 round 1: ")

    def test_input_period_is_measured_once_per_alive_segment(self, corpus, monkeypatch):
        import etk.input_features
        from etk.cli import _derive_session
        from etk.ingest import read_session_dir
        from etk.preprocess import extract_alive_segments
        from etk.zones import default_zone_model

        measure = etk.input_features.nominal_period
        calls = []

        def counting(samples):
            calls.append(len(samples))
            return measure(samples)

        for module in ("etk.cli", "etk.input_features"):
            monkeypatch.setattr(f"{module}.nominal_period", counting)
        derived = _derive_session(corpus / "pro01", default_zone_model(), 15.0, 1.0)
        session = read_session_dir(corpus / "pro01")
        alive = extract_alive_segments(session.timeline, "pro01")
        assert len(alive) > 1
        assert len(calls) == len(alive)
        assert len([r for r in derived.feature_rows if r.round_index]) == 6 * len(alive)

    def test_log_env_variable_accepted(self, corpus, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ETK_LOG", "DEBUG")
        out = tmp_path / "run"
        assert main(["analyze", str(corpus / "pro01"), "--out", str(out)]) == 0
        capsys.readouterr()


class TestWindowLimits:
    """Window settings that place no windows, or far too many."""

    def test_zero_windows_in_several_sessions_skips_pca(self, corpus, tmp_path, caplog):
        out = tmp_path / "run"
        assert main(["analyze", str(corpus), "--out", str(out), "--window-s", "500"]) == 0
        assert {p.name for p in out.iterdir()} == \
            ANALYZE_ARTIFACTS - {"pca_model.csv", "pca_projections.csv"}
        assert (out / "windows.csv").read_text().count("\n") == 1
        assert "PCA skipped" in caplog.text

    def test_window_count_above_cap_is_refused_at_once(self, corpus, tmp_path, capsys):
        out = tmp_path / "run"
        t0 = time.perf_counter()
        code = main(["analyze", str(corpus / "pro01"), "--out", str(out),
                     "--hop-s", "1e-300"])
        elapsed = time.perf_counter() - t0
        assert code == 1
        err = capsys.readouterr().err
        assert "--hop-s" in err and "--window-s" in err
        assert elapsed < 1.0
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_pooled_window_total_above_cap_is_refused(self, corpus, tmp_path, capsys,
                                                     monkeypatch, jobs):
        monkeypatch.setattr("etk.cli.MAX_WINDOWS", 100)
        out = tmp_path / "run"
        assert main(["analyze", str(corpus), "--out", str(out), "--hop-s", "0.5",
                     "--jobs", jobs]) == 1
        assert "--hop-s" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_session_above_cap_is_refused_alike_under_jobs(self, corpus, tmp_path, capsys,
                                                           monkeypatch):
        # hop 0.5 places 62 windows in each session, so the first session
        # alone passes a cap of 30, in the worker that derives it.
        monkeypatch.setattr("etk.cli.MAX_WINDOWS", 30)
        errs = []
        for jobs in ("1", "2"):
            assert main(["analyze", str(corpus), "--out", str(tmp_path / jobs),
                         "--hop-s", "0.5", "--jobs", jobs]) == 1
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert "am02 pools more than 30 windows" in errs[0]

    @pytest.mark.parametrize("flag", ["--window-s", "--hop-s"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_window_flags_exit_1(self, corpus, tmp_path, capsys, flag, value):
        assert main(["analyze", str(corpus / "pro01"), "--out", str(tmp_path / "x"),
                     flag, value]) == 1
        assert "finite" in capsys.readouterr().err


class TestInputErrors:
    """Malformed inputs land on the documented exit codes and name the file."""

    def test_bad_meta_json_exits_2_naming_file(self, corpus, tmp_path, capsys):
        broken = tmp_path / "badjson"
        shutil.copytree(corpus / "pro01", broken)
        (broken / "meta.json").write_text('{"player_id": "pro01",\n  "cohort": \n')
        assert main(["ingest", str(broken)]) == 2
        err = capsys.readouterr().err
        assert "meta" in err
        assert str(broken / "meta.json") in err
        assert "line 3" in err

    @pytest.mark.parametrize("field,value", [
        ("screen", 5), ("screen", [1920]), ("screen", ["w", "h"]), ("screen", [1920.5, 1080]),
        ("gaze_rate_hz", "fast"), ("gaze_rate_hz", [60]), ("gaze_rate_hz", True),
        ("n", "one"), ("n", 1.5),
    ])
    def test_mistyped_meta_field_exits_2(self, corpus, tmp_path, capsys, field, value):
        broken = tmp_path / "badtype"
        shutil.copytree(corpus / "pro01", broken)
        meta = json.loads((broken / "meta.json").read_text())
        meta[field] = value
        (broken / "meta.json").write_text(json.dumps(meta))
        assert main(["ingest", str(broken)]) == 2
        err = capsys.readouterr().err
        assert field in err
        assert str(broken / "meta.json") in err

    def test_meta_json_not_an_object_exits_2(self, corpus, tmp_path, capsys):
        broken = tmp_path / "notobj"
        shutil.copytree(corpus / "pro01", broken)
        (broken / "meta.json").write_text("[1, 2]\n")
        assert main(["ingest", str(broken)]) == 2
        assert str(broken / "meta.json") in capsys.readouterr().err

    def test_oversized_screen_exits_3_before_any_artifact(self, corpus, tmp_path, capsys):
        """A screen side above 16384 px is refused, not allocated as a heatmap grid."""
        root = tmp_path / "huge"
        for name in ("pro01", "am02"):
            shutil.copytree(corpus / name, root / name)
        meta = json.loads((root / "am02" / "meta.json").read_text())
        meta["screen"] = [1000000000, 1000000000]
        (root / "am02" / "meta.json").write_text(json.dumps(meta))
        out = tmp_path / "run"
        assert main(["analyze", str(root), "--out", str(out)]) == 3
        assert "gaze.screen" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_player_id_with_comma_exits_3(self, corpus, tmp_path, capsys):
        """A comma in a player id would shift the cells of every CSV row naming it."""
        root = tmp_path / "comma"
        for name in ("pro01", "am02", "am03"):
            shutil.copytree(corpus / name, root / name)
        meta = json.loads((root / "pro01" / "meta.json").read_text())
        meta["player_id"] = "pro,01"
        (root / "pro01" / "meta.json").write_text(json.dumps(meta))
        demo = root / "pro01" / "demo.events"
        demo.write_text(demo.read_text().replace(" pro01", " pro,01"))
        out = tmp_path / "run"
        assert main(["analyze", str(root), "--out", str(out)]) == 3
        assert "meta.player_id" in capsys.readouterr().err
        assert not (out / "windows.csv").exists()

    def test_duplicate_player_id_exits_3_naming_both(self, corpus, tmp_path, capsys):
        root = tmp_path / "dup"
        for name in ("pro01", "am02", "am03"):
            shutil.copytree(corpus / name, root / name)
        shutil.copytree(corpus / "am02", root / "am02_copy")
        out = tmp_path / "run"
        assert main(["analyze", str(root), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "am02" in err
        assert str(root / "am02") in err
        assert str(root / "am02_copy") in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("name,kind", [("gaze.csv", "gaze"), ("input.csv", "input"),
                                           ("hrm.txt", "hrm"), ("demo.events", "demo")])
    def test_session_parse_error_names_file_alike_under_jobs(self, corpus, tmp_path, capsys,
                                                             name, kind):
        root = tmp_path / "corpus"
        for player in ("pro01", "am02", "am03"):
            shutil.copytree(corpus / player, root / player)
        path = root / "am02" / name
        lines = path.read_text().splitlines()
        lines.insert(3, "bad row")
        path.write_text("\n".join(lines) + "\n")
        errs = []
        for jobs in ("1", "2"):
            assert main(["analyze", str(root), "--out", str(tmp_path / jobs),
                         "--jobs", jobs]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].startswith(f"error: {kind}: line 4 (byte ")
        assert f"): {path}: " in errs[0]
        assert errs[0].count("\n") == 1

    def test_parse_error_is_printed_once(self, corpus, tmp_path):
        broken = tmp_path / "pro01"
        shutil.copytree(corpus / "pro01", broken)
        self._corrupt_gaze(tmp_path)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(etk.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
        env.pop("ETK_LOG", None)
        proc = subprocess.run([sys.executable, "-m", "etk.cli", "ingest", str(broken)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: gaze: line 51 ")
        assert proc.stderr.count("\n") == 1

    @staticmethod
    def _corrupt_gaze(root):
        gaze = root / "pro01" / "gaze.csv"
        lines = gaze.read_text().splitlines()
        lines.insert(50, "not,a,gaze,row")
        gaze.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("damage,args,code", [
        pytest.param("corrupt gaze", [], 2, id="parse"),
        pytest.param("missing input", [], 3, id="assembly"),
        pytest.param("duplicate player_id", [], 3, id="duplicate"),
        pytest.param(None, ["--hop-s", "1e-300"], 1, id="too-many-windows"),
    ])
    def test_jobs_keep_exit_code_and_message(self, corpus, tmp_path, capsys, damage, args,
                                             code):
        root = tmp_path / "corpus"
        for name in ("pro01", "am02", "am03"):
            shutil.copytree(corpus / name, root / name)
        if damage == "corrupt gaze":
            self._corrupt_gaze(root)
        elif damage == "missing input":
            (root / "am03" / "input.csv").unlink()
        elif damage == "duplicate player_id":
            shutil.copytree(corpus / "am02", root / "am02_copy")
        outcomes = []
        for jobs in ("1", "2"):
            out = tmp_path / f"run{jobs}"
            got = main(["analyze", str(root), "--out", str(out), "--jobs", jobs, *args])
            outcomes.append((got, capsys.readouterr().err))
            assert not (out / "manifest.json").exists()
        assert outcomes[0] == outcomes[1]
        exit_code, err = outcomes[0]
        assert exit_code == code
        assert err.startswith("error: ") and err.count("\n") == 1


def test_atomic_write_removes_tmp_when_writer_fails(tmp_path):
    from etk.textio import _write_text
    target = tmp_path / "artifact.csv"
    target.write_bytes(b"old\n")

    def blocks():
        yield "partial\n"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        _write_text(target, blocks())
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_bytes() == b"old\n"
