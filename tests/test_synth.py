"""Synthetic session generator: determinism, structure, and target rates."""
import json
import math
import re

import numpy as np
import pytest

from etk.errors import InvalidProfile, ParseError
from etk.ingest import _read_file
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
            mask = _runs_to_mask(*_two_state_runs(Rng(5), n, target, mean_run), n)
            assert mask.mean() == pytest.approx(target, abs=0.04)

    def test_two_state_runs_extremes(self):
        starts, ends = _two_state_runs(Rng(1), 100, 0.0, 10.0)
        assert len(starts) == len(ends) == 0
        assert _runs_to_mask(*_two_state_runs(Rng(1), 100, 1.0, 10.0), 100).all()


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

    def test_json_round_trip(self):
        pro, am = default_profiles()
        data = json.dumps({"professional": pro.to_dict(), "amateur": am.to_dict()}).encode()
        loaded = load_profiles(data)
        assert loaded[Cohort.PROFESSIONAL] == pro
        assert loaded[Cohort.AMATEUR] == am

    def test_unknown_cohort_rejected(self):
        data = json.dumps({"cyborg": default_profiles()[0].to_dict()}).encode()
        with pytest.raises(InvalidProfile, match="cyborg"):
            load_profiles(data)

    @pytest.mark.parametrize("raw, match", [
        ({}, "non-empty object"),
        ({"amateur": []}, "must be an object"),
        ({"amateur": default_profiles()[1].to_dict() | {"bpm_base": 10 ** 400}}, "too large"),
    ], ids=["empty", "non-object-entry", "overflowing-field"])
    def test_object_that_is_no_profile_rejected(self, raw, match):
        with pytest.raises(InvalidProfile, match=match):
            load_profiles(json.dumps(raw).encode())

    def test_bytes_that_hold_no_object_are_a_parse_error(self, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_bytes(b"[1]")
        with pytest.raises(ParseError, match=re.escape(f"{path}: expected a JSON object")) as exc:
            _read_file(load_profiles, path)
        assert exc.value.kind == "profile"

    def test_zone_dwell_must_match_the_zone_model(self):
        """Checked when the profile is built, so a refused `--profile` touches no file."""
        raw = default_profiles()[0].to_dict() | {"zone_dwell": [0.5, 0.5]}
        with pytest.raises(InvalidProfile, match="zone_dwell has 2 entries, zone model has 9"):
            CohortProfile.from_dict(raw)


class TestScenario:
    def test_total_duration(self):
        assert Scenario(rounds=3, round_s=20.0).total_s == 60.0

    def test_invalid_rounds(self):
        with pytest.raises(ValueError):
            Scenario(rounds=0)

    def test_invalid_round_length(self):
        with pytest.raises(ValueError):
            Scenario(round_s=0.0)


class TestMeta:
    @pytest.mark.parametrize("field,value", [("gaze_rate_hz", 120.0), ("gaze_rate_hz", 59.94),
                                             ("screen", (1280, 720)), ("screen", (2560, 1440))])
    def test_meta_it_cannot_honour_is_refused(self, field, value):
        """The generator samples gaze at the default rate on the default screen only."""
        pro, _ = default_profiles()
        meta = PlayerMeta(player_id="p1", cohort=Cohort.PROFESSIONAL, n=1, **{field: value})
        with pytest.raises(ValueError, match=rf"^meta\.{field} ") as caught:
            generate_session(pro, Scenario(rounds=1, round_s=10.0), seed=1, meta=meta)
        assert type(caught.value) is ValueError

    def test_default_values_given_explicitly_are_honoured(self):
        pro, _ = default_profiles()
        meta = PlayerMeta(player_id="p1", cohort=Cohort.PROFESSIONAL, n=1,
                          screen=[1920, 1080], gaze_rate_hz=60)
        session = generate_session(pro, Scenario(rounds=2, round_s=30.0), seed=123, meta=meta)
        assert gaze_rows(session.gaze) == gaze_rows(small_session(seed=123).gaze)
