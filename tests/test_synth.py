"""Synthetic session generator: determinism, structure, and target rates."""
import json
import math

import numpy as np
import pytest

from etk.errors import InvalidProfile
from etk.model import Cohort, EventKind, KEY_ALPHABET, PlayerMeta, validate_session
from etk.preprocess import missing_stats
from etk.rng import Rng
from etk.synth import (
    CohortProfile,
    Scenario,
    _runs_to_mask,
    _two_state_runs,
    default_profiles,
    generate_session,
    load_profiles,
)
from etk.zones import assign_zones, default_zone_model
from conftest import gaze_rows, input_rows


def small_session(seed=123, rounds=2, round_s=30.0, profile=None):
    pro, _ = default_profiles()
    meta = PlayerMeta(player_id="p1", cohort=Cohort.PROFESSIONAL, n=1)
    return generate_session(profile or pro, Scenario(rounds=rounds, round_s=round_s),
                            seed=seed, meta=meta)


class TestDeterminism:
    def test_same_seed_same_session(self):
        a = small_session(seed=7)
        b = small_session(seed=7)
        assert gaze_rows(a.gaze) == gaze_rows(b.gaze)
        assert input_rows(a.input) == input_rows(b.input)
        assert a.hrm.beat_times.tolist() == b.hrm.beat_times.tolist()
        assert a.timeline.events == b.timeline.events

    def test_different_seed_different_session(self):
        a = small_session(seed=7)
        b = small_session(seed=8)
        assert gaze_rows(a.gaze) != gaze_rows(b.gaze)


class TestStructure:
    def test_rounds_are_back_to_back(self, synth_cohorts):
        timeline = synth_cohorts.sessions[0].timeline
        assert len(timeline.rounds) == 12
        for r, nxt in zip(timeline.rounds, timeline.rounds[1:]):
            assert r.end_t - r.start_t == pytest.approx(40.0)
            assert nxt.start_t == r.end_t

    def test_player_spawns_every_round(self, synth_cohorts):
        session = synth_cohorts.sessions[0]
        player = session.meta.player_id
        spawns = [e.t for e in session.timeline.events
                  if e.kind is EventKind.SPAWN and e.subject == player]
        assert spawns == [r.start_t for r in session.timeline.rounds]

    def test_sessions_validate_cleanly(self, synth_cohorts):
        for session in synth_cohorts.sessions[:3]:
            assert validate_session(session) == []

    def test_gaze_cadence_and_rounding(self):
        session = small_session()
        assert len(session.gaze) == 60 * 60  # 60 s at 60 Hz
        ts = session.gaze.t.tolist()
        assert all(b > a for a, b in zip(ts, ts[1:]))
        for _, x, y, valid in gaze_rows(session.gaze):
            if valid:
                assert 0.0 <= x <= 1920.0 and 0.0 <= y <= 1080.0
                assert abs(x * 100 - round(x * 100)) < 1e-9
                assert abs(y * 100 - round(y * 100)) < 1e-9

    def test_input_cadence_and_alphabet(self):
        session = small_session()
        assert len(session.input) == 100 * 60
        used = frozenset().union(*(keys for *_, keys in input_rows(session.input)))
        assert used <= frozenset(KEY_ALPHABET)
        assert "W" in used and "MOUSE1" in used

    def test_beat_intervals_track_profile_bpm(self):
        pro, _ = default_profiles()
        session = small_session(profile=pro)
        beats = session.hrm.beat_times
        assert beats[-1] <= 60.0
        base = 60.0 / pro.bpm_base
        ibis = np.diff(beats)
        assert ibis.min() > base * 0.95
        assert ibis.max() < base * 1.05


class TestTargets:
    def test_missing_rate_recovered(self, synth_cohorts):
        for session in synth_cohorts.sessions[:2]:
            frac = missing_stats(session.gaze).missing_fraction
            assert frac == pytest.approx(0.04, abs=0.01)

    def test_zone_dwell_recovered(self, synth_cohorts):
        pro, am = default_profiles()
        model = default_zone_model()

        def shares(session):
            seq = assign_zones(session.gaze, model)
            return np.bincount(seq.zones, minlength=seq.k + 1)[1:] / len(seq)

        pro_share = shares(synth_cohorts.sessions[0])
        am_share = shares(synth_cohorts.sessions[5])
        assert pro_share[0] == pytest.approx(pro.zone_dwell[0], abs=0.05)
        assert am_share[0] == pytest.approx(am.zone_dwell[0], abs=0.05)
        assert pro_share[0] > am_share[0]

    def test_two_state_runs_hit_the_on_fraction(self):
        n = 200_000
        for target, mean_run in ((0.3, 80.0), (0.04, 60.0), (0.12, 60.0)):
            runs = _two_state_runs(Rng(5), n, target, mean_run)
            mask = _runs_to_mask(runs, n)
            assert mask.mean() == pytest.approx(target, abs=0.04)

    def test_two_state_runs_extremes(self):
        assert _two_state_runs(Rng(1), 100, 0.0, 10.0) == []
        runs = _two_state_runs(Rng(1), 100, 1.0, 10.0)
        assert _runs_to_mask(runs, 100).all()


class TestProfiles:
    def test_defaults_are_valid_and_distinct(self):
        pro, am = default_profiles()
        assert math.fsum(pro.zone_dwell) == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(am.zone_dwell) == pytest.approx(1.0, abs=1e-12)
        assert pro.ad_hold_rate > am.ad_hold_rate
        assert pro.w_m1_rate < am.w_m1_rate
        assert pro.zone_dwell[0] > am.zone_dwell[0]

    def test_dwell_must_sum_to_one(self):
        with pytest.raises(InvalidProfile):
            CohortProfile(zone_dwell=(0.5, 0.4), dwell_persistence=0.9,
                          gaze_noise_px=10.0, missing_rate=0.04,
                          ad_hold_rate=0.3, w_m1_rate=0.1, bpm_base=80.0)

    def test_persistence_below_one(self):
        with pytest.raises(InvalidProfile):
            CohortProfile(zone_dwell=(1.0,), dwell_persistence=1.0,
                          gaze_noise_px=10.0, missing_rate=0.04,
                          ad_hold_rate=0.3, w_m1_rate=0.1, bpm_base=80.0)

    def test_bpm_range(self):
        with pytest.raises(InvalidProfile):
            CohortProfile(zone_dwell=(1.0,), dwell_persistence=0.9,
                          gaze_noise_px=10.0, missing_rate=0.04,
                          ad_hold_rate=0.3, w_m1_rate=0.1, bpm_base=20.0)

    @pytest.mark.parametrize("field", ["dwell_persistence", "gaze_noise_px", "missing_rate",
                                       "ad_hold_rate", "w_m1_rate", "bpm_base", "zone_dwell"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, field, value):
        raw = default_profiles()[0].to_dict()
        raw[field] = [value] if field == "zone_dwell" else value
        with pytest.raises(InvalidProfile, match=field):
            CohortProfile.from_dict(raw)

    def test_from_dict_reports_missing_fields(self):
        with pytest.raises(InvalidProfile, match="bpm_base"):
            CohortProfile.from_dict({"zone_dwell": [1.0]})

    def test_json_round_trip(self, tmp_path):
        pro, am = default_profiles()
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps({"professional": pro.to_dict(),
                                    "amateur": am.to_dict()}))
        loaded = load_profiles(path)
        assert loaded[Cohort.PROFESSIONAL] == pro
        assert loaded[Cohort.AMATEUR] == am

    def test_unknown_cohort_rejected(self, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps({"cyborg": default_profiles()[0].to_dict()}))
        with pytest.raises(InvalidProfile, match="cyborg"):
            load_profiles(path)

    def test_unreadable_file_rejected(self, tmp_path):
        with pytest.raises(InvalidProfile):
            load_profiles(tmp_path / "nope.json")


class TestScenario:
    def test_total_duration(self):
        assert Scenario(rounds=3, round_s=20.0).total_s == 60.0

    def test_invalid_rounds(self):
        with pytest.raises(ValueError):
            Scenario(rounds=0)

    def test_invalid_round_length(self):
        with pytest.raises(ValueError):
            Scenario(round_s=0.0)
