"""Acceptance checklist: eleven end-to-end guarantees, one test each.

Every test records a `criterion NN ...: PASS/FAIL` line; conftest's
terminal-summary hook prints the collected checklist after the run so
the full-suite output ends with one line per criterion.  Tolerances are
pinned inline next to each assertion.
"""
import contextlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from etk.cli import main
from etk.ingest import read_session_dir, write_session_dir
from etk.model import BeatSeries, Cohort, PlayerMeta
from etk.preprocess import (
    beats_to_bpm,
    extract_alive_segments,
    interpolate_gaps,
    missing_stats,
    slice_by_intervals,
)
from etk.zones import (
    assign_zone,
    assign_zones,
    average_distribution,
    default_zone_model,
    window_distributions,
    WindowSeries,
    ZoneSequence,
)
from etk.numerics import (
    dominant_coordinate,
    fit_kde,
    fit_pca,
    kde_evaluate,
    project,
    silverman_bandwidth,
)
from etk.input_features import fraction_held
from etk.synth import Scenario, default_profiles, generate_session
from conftest import make_gaze
from test_numerics import greedy_jacobi

TABLE_CENTERS = (
    (960.0, 540.0), (345.0, 815.0), (310.0, 180.0), (1205.0, 530.0),
    (1610.0, 180.0), (715.0, 530.0), (1575.0, 815.0), (960.0, 260.0),
    (960.0, 900.0),
)


class _Note:
    def __init__(self):
        self.text = ""


#: (number, label, status, note) rows collected by `criterion`, printed
#: as a checklist by conftest's pytest_terminal_summary hook.
RESULTS: list[tuple[int, str, str, str]] = []


@contextlib.contextmanager
def criterion(number, label):
    note = _Note()
    try:
        yield note
    except BaseException:
        RESULTS.append((number, label, "FAIL", ""))
        raise
    RESULTS.append((number, label, "PASS", note.text))


def checklist_lines() -> list[str]:
    lines = []
    for number, label, status, text in sorted(RESULTS):
        suffix = f" ({text})" if text else ""
        lines.append(f"criterion {number:2d} {label}: {status}{suffix}")
    return lines


def session_window_distributions(session, model):
    """The analysis pipeline's per-session rolling-window distributions."""
    alive = extract_alive_segments(session.timeline, session.meta.player_id)
    segments = slice_by_intervals(session.gaze, alive)
    windows = []
    for interval, segment in zip(alive, segments):
        repaired, _ = interpolate_gaps(segment)
        seq = assign_zones(repaired, model,
                           span=(interval.start_t, interval.end_t))
        windows.append(window_distributions(seq))
    return WindowSeries.concat(windows, model.k)


def test_criterion_01_zone_table_fidelity():
    with criterion(1, "zone table fidelity") as note:
        model = default_zone_model()
        assert model.centers == TABLE_CENTERS  # exact, no tolerance
        for i, center in enumerate(model.centers, start=1):
            assert assign_zone(center, model) == i
        # Warmed best-of-20 runtime for the full nine-way self-check.
        best = math.inf
        for _ in range(20):
            t0 = time.perf_counter()
            for i, center in enumerate(model.centers, start=1):
                assert assign_zone(center, model) == i
            best = min(best, time.perf_counter() - t0)
        assert best < 1e-3  # < 1 ms
        note.text = f"9 centers exact, {best * 1e6:.0f} us"


def test_criterion_02_interpolation_rule():
    with criterion(2, "gap interpolation rule") as note:
        line_x = lambda t: 100.0 + 50.0 * t
        line_y = lambda t: 200.0 + 30.0 * t
        missing_at = set(range(10, 12)) | set(range(22, 27)) | set(range(37, 45))
        points = []
        for i in range(55):
            t = i / 60.0
            if i in missing_at:
                points.append((t, None, None))
            else:
                points.append((t, line_x(t), line_y(t)))
        repaired, filled = interpolate_gaps(make_gaze(points))

        worst = 0.0
        for i in sorted(set(range(10, 12)) | set(range(22, 27))):
            t, x, y = repaired.t[i], repaired.x[i], repaired.y[i]
            assert repaired.valid[i]  # 2- and 5-sample gaps are filled
            worst = max(worst, abs(x - line_x(t)), abs(y - line_y(t)))
        assert worst < 1e-9
        for i in range(37, 45):
            assert not repaired.valid[i]  # 8-sample gap stays open
        assert filled == 7
        note.text = f"max fill error {worst:.2e}, 8-gap untouched"


def test_criterion_03_distribution_invariants():
    with criterion(3, "window distribution invariants") as note:
        rng = np.random.default_rng(2024)
        total_windows = 0
        worst_sum = 0.0
        worst_avg = 0.0
        while total_windows < 10_000:
            n = int(rng.integers(150, 400))
            times = np.sort(rng.uniform(0.0, 120.0, size=n))
            zones = rng.integers(1, 10, size=n)
            seq = ZoneSequence(times=times, zones=zones, k=9, span=(0.0, 120.0))
            windows = window_distributions(seq)
            total_windows += len(windows)
            mat = windows.probs
            assert (mat >= 0.0).all()
            sums = np.abs(mat.sum(axis=1) - 1.0)
            worst_sum = max(worst_sum, float(sums.max()))
            assert float(sums.max()) <= 1e-9
            avg = average_distribution(windows.probs)
            delta = np.abs(np.asarray(avg) - mat.mean(axis=0))
            worst_avg = max(worst_avg, float(delta.max()))
            assert float(delta.max()) <= 1e-12
        note.text = (f"{total_windows} windows, worst sum dev {worst_sum:.1e}, "
                     f"worst mean dev {worst_avg:.1e}")


def test_criterion_04_pca_correctness():
    with criterion(4, "pca correctness vs oracle") as note:
        rng = np.random.default_rng(99)
        worst_eig = 0.0
        for trial in range(5):
            data = rng.normal(size=(200, 9)) @ rng.normal(size=(9, 9))
            model = fit_pca(data)
            c = model.components
            assert float(np.abs(c @ c.T - np.eye(9)).max()) < 1e-9  # orthonormal
            centered = data - data.mean(axis=0)
            cov = centered.T @ centered / len(data)
            assert abs(float(model.explained_variance.sum()) - float(np.trace(cov))) < 1e-9
            for row in data[:50]:
                coords = project(model, row, dims=9)
                rebuilt = model.mean + coords @ c
                assert float(np.abs(rebuilt - row).max()) < 1e-9  # reconstruction
            oracle_vals, _ = greedy_jacobi(cov, tol=1e-14)  # oracle at 1e-14
            delta = np.abs(np.sort(model.explained_variance)
                           - np.sort(oracle_vals))
            worst_eig = max(worst_eig, float(delta.max()))
            assert float(delta.max()) < 1e-9
        note.text = f"5 datasets, worst eigenvalue gap vs oracle {worst_eig:.1e}"


def test_criterion_05_cohort_pca_separation(synth_cohorts):
    with criterion(5, "cohort pca separation") as note:
        t0 = time.perf_counter()
        model9 = default_zone_model()
        all_windows = []
        per_session = []
        for session in synth_cohorts.sessions:
            windows = session_window_distributions(session, model9)
            all_windows.append(windows.probs)
            per_session.append((session.meta.cohort, windows))
        pca = fit_pca(np.concatenate(all_windows))

        first = dominant_coordinate(pca.components[0])
        second = dominant_coordinate(pca.components[1])
        assert first is not None and first[0] == 1   # PC1 dominated by zone 1
        assert second is not None and second[0] == 2  # PC2 dominated by zone 2

        pro_pc1, am_pc1 = [], []
        for cohort, windows in per_session:
            avg = average_distribution(windows.probs)
            pc1 = float(project(model=pca, vector=avg)[0])
            (pro_pc1 if cohort is Cohort.PROFESSIONAL else am_pc1).append(pc1)
        lo, hi = sorted([pro_pc1, am_pc1], key=min)
        margin = min(hi) - max(lo)
        assert margin > 0.0  # linearly separable along PC1
        elapsed = time.perf_counter() - t0 + synth_cohorts.generation_s
        assert elapsed < 30.0
        note.text = (f"margin {margin:.3f}, PC1 zone {first[0]}, "
                     f"PC2 zone {second[0]}, {elapsed:.1f}s of 30s budget")


def test_criterion_06_input_feature_contrast(synth_cohorts):
    with criterion(6, "cohort input-feature contrast") as note:
        pro_profile, am_profile = default_profiles()
        stats = {Cohort.PROFESSIONAL: {"ad": [], "wm": []},
                 Cohort.AMATEUR: {"ad": [], "wm": []}}
        for session in synth_cohorts.sessions:
            alive = extract_alive_segments(session.timeline,
                                           session.meta.player_id)
            bucket = stats[session.meta.cohort]
            bucket["ad"].append(
                fraction_held(session.input, ("A", "D"), alive, mode="any"))
            bucket["wm"].append(
                fraction_held(session.input, ("W", "MOUSE1"), alive, mode="all"))
        pro = {k: sum(v) / len(v) for k, v in stats[Cohort.PROFESSIONAL].items()}
        am = {k: sum(v) / len(v) for k, v in stats[Cohort.AMATEUR].items()}

        assert pro["ad"] > am["ad"]  # strict cohort ordering
        assert am["wm"] > pro["wm"]
        ad_gap_cfg = pro_profile.ad_hold_rate - am_profile.ad_hold_rate
        wm_gap_cfg = pro_profile.w_m1_rate - am_profile.w_m1_rate
        ad_rel = abs((pro["ad"] - am["ad"] - ad_gap_cfg) / ad_gap_cfg)
        wm_rel = abs((pro["wm"] - am["wm"] - wm_gap_cfg) / wm_gap_cfg)
        assert ad_rel <= 0.20  # within 20% of the configured gap
        assert wm_rel <= 0.20
        note.text = (f"A/D gap {pro['ad'] - am['ad']:+.4f} vs {ad_gap_cfg:+.2f} "
                     f"({ad_rel:.0%}), W+M1 gap {pro['wm'] - am['wm']:+.4f} "
                     f"vs {wm_gap_cfg:+.2f} ({wm_rel:.0%})")


def test_criterion_07_kde_normalization():
    with criterion(7, "kde normalization") as note:
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(50):
            lo = float(rng.uniform(-10.0, 10.0))
            width = float(rng.uniform(0.5, 3.0))
            n = int(rng.integers(20, 61))
            data = rng.uniform(lo, lo + width, size=n)
            model = fit_kde(data)
            h = model.bandwidth
            mean = float(data.mean())
            xs = np.linspace(mean - 8.0 * h, mean + 8.0 * h, 2001)
            dens = np.array([kde_evaluate(model, x) for x in xs])
            err = abs(float(np.trapezoid(dens, xs)) - 1.0)
            worst = max(worst, err)
            assert err <= 1e-3  # integral within 1e-3 of 1 over mean +/- 8h
        spot = kde_evaluate(fit_kde([0.0], bandwidth=1.0), 0.0)
        assert abs(spot - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-6  # 0.39894...
        note.text = f"50 sets, worst |integral-1| {worst:.1e}, spot {spot:.5f}"


def test_criterion_08_serialization_round_trip(tmp_path):
    with criterion(8, "byte-identical round-trip") as note:
        pro, am = default_profiles()
        files = 0
        for seed in range(10):
            profile = pro if seed % 2 == 0 else am
            cohort = Cohort.PROFESSIONAL if seed % 2 == 0 else Cohort.AMATEUR
            meta = PlayerMeta(player_id=f"s{seed:02d}", cohort=cohort, n=seed + 1)
            session = generate_session(profile, Scenario(rounds=2, round_s=30.0),
                                       seed=seed, meta=meta)
            first = write_session_dir(session, tmp_path / f"a{seed}")
            reread = read_session_dir(first)
            second = write_session_dir(reread, tmp_path / f"b{seed}")
            for name in ("gaze.csv", "input.csv", "hrm.txt", "demo.events",
                         "meta.json"):
                assert (Path(first) / name).read_bytes() == \
                    (Path(second) / name).read_bytes()
                files += 1
        note.text = f"10 seeds, {files} files byte-identical"


def test_criterion_09_missingness_accounting(synth_cohorts):
    with criterion(9, "missingness accounting") as note:
        session = synth_cohorts.sessions[0]  # full 12-round session
        fraction = missing_stats(session.gaze).missing_fraction
        assert fraction == pytest.approx(0.04, abs=0.01)
        note.text = f"configured 0.04, measured {fraction:.4f}"


def test_criterion_10_bpm_exactness():
    with criterion(10, "bpm derivation exactness") as note:
        beats = BeatSeries(beat_times=[0.5 * (i + 1) for i in range(40)])
        rates = beats_to_bpm(beats)
        assert len(rates) == 37
        for r in rates.tolist():
            assert r == 120.0  # exact equality, no tolerance
        note.text = f"{len(rates)} rates all exactly 120.0"


def test_criterion_11_end_to_end_determinism(tmp_path):
    with criterion(11, "end-to-end determinism") as note:
        corpus = tmp_path / "corpus"
        assert main(["synth", "--out", str(corpus), "--count", "3",
                     "--rounds", "2", "--round-s", "30"]) == 0
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["analyze", str(corpus), "--out", str(out_a)]) == 0
        assert main(["analyze", str(corpus), "--out", str(out_b)]) == 0
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        note.text = f"{len(names_a)} artifacts byte-identical across reruns"
