"""Domain model construction and validate_session behavior."""
import pickle
import typing
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etk.model import (
    BeatSeries,
    EventKind,
    GameEvent,
    GazeSeries,
    InputSeries,
    Interval,
    MatchTimeline,
    PlayerMeta,
    Round,
    Session,
    _Columns,
    validate_session,
)
from etk.preprocess import slice_by_intervals
from etk.zones import WindowSeries, ZoneSequence
from conftest import make_gaze, make_timeline


def test_valid_session_has_no_violations(tiny_session):
    assert validate_session(tiny_session) == []


def test_validate_is_pure_and_idempotent(tiny_session):
    first = validate_session(tiny_session)
    second = validate_session(tiny_session)
    assert first == second


def test_decreasing_gaze_timestamp_is_flagged(tiny_session):
    bad_gaze = make_gaze([(0.0, 1.0, 1.0), (0.5, 2.0, 2.0), (0.4, 3.0, 3.0)])
    session = Session(meta=tiny_session.meta, gaze=bad_gaze, input=InputSeries(),
                      timeline=tiny_session.timeline, hrm=None)
    violations = validate_session(session)
    assert any("gaze.samples[2]" in v.location for v in violations)


def test_event_outside_rounds_is_flagged(tiny_session):
    timeline = make_timeline(
        [(0.0, 40.0)],
        [GameEvent(0.0, EventKind.SPAWN, "p1"),
         GameEvent(50.0, EventKind.WEAPON_FIRE, "p1")],
    )
    session = Session(meta=tiny_session.meta, gaze=make_gaze([]), input=InputSeries(),
                      timeline=timeline, hrm=None)
    violations = validate_session(session)
    assert any("outside every round" in v.message for v in violations)


@pytest.mark.parametrize("player_id", ["pro,01", ",", "p\x00", "p\x1f1", "\t", '"pro01', 'p"1"'])
def test_player_id_with_comma_quote_or_control_is_flagged(tiny_session, player_id):
    meta = PlayerMeta(player_id, tiny_session.meta.cohort, tiny_session.meta.n)
    violations = validate_session(Session(meta, tiny_session.gaze, tiny_session.input,
                                          tiny_session.timeline, tiny_session.hrm))
    assert "meta.player_id" in [v.location for v in violations]


@pytest.mark.parametrize("player_id", ["pro01", "p-1", "p.1", "pro\u00e9", "p\x7f"])
def test_player_id_without_comma_quote_or_control_is_not_flagged(tiny_session, player_id):
    meta = PlayerMeta(player_id, tiny_session.meta.cohort, tiny_session.meta.n)
    violations = validate_session(Session(meta, tiny_session.gaze, tiny_session.input,
                                          tiny_session.timeline, tiny_session.hrm))
    assert "meta.player_id" not in [v.location for v in violations]


@pytest.mark.parametrize("screen,flagged", [
    ((16384, 16384), False), ((15360, 8640), False), ((16385, 1080), True),
    ((1920, 16385), True), ((10**9, 10**9), True), ((0, 1080), True), ((1920, -1), True),
    ((10**400, 1080), True), ((1920, -10**400), True),   # beyond every float
])
def test_screen_sides_outside_1_to_16384_are_flagged(tiny_session, screen, flagged):
    meta = replace(tiny_session.meta, screen=screen)
    session = Session(meta, make_gaze([(0.0, 1.0, 2.0)]), InputSeries(), tiny_session.timeline,
                      None)
    assert ("gaze.screen" in [v.location for v in validate_session(session)]) == flagged


@pytest.mark.parametrize("rate,flagged", [
    (60.0, False), (59.94, False), (1e-300, False), (0.0, True), (-5.0, True), (-1e-300, True),
])
def test_non_positive_gaze_rate_is_flagged(tiny_session, rate, flagged):
    session = replace(tiny_session, meta=replace(tiny_session.meta, gaze_rate_hz=rate))
    violations = [(v.location, v.message) for v in validate_session(session)]
    assert (("gaze.nominal_rate_hz", f"rate must be positive, got {rate}") in violations) \
        == flagged


def test_out_of_bounds_valid_gaze_is_flagged(tiny_session):
    gaze = make_gaze([(0.0, 5000.0, 540.0)])
    session = Session(meta=tiny_session.meta, gaze=gaze, input=InputSeries(),
                      timeline=tiny_session.timeline, hrm=None)
    assert any("outside" in v.message for v in validate_session(session))


def test_invalid_sample_skips_bounds_check(tiny_session):
    gaze = make_gaze([(0.0, None, None)])
    session = Session(meta=tiny_session.meta, gaze=gaze, input=InputSeries(),
                      timeline=tiny_session.timeline, hrm=None)
    assert validate_session(session) == []


def test_unknown_key_token_is_flagged(tiny_session):
    # Bit 17 lies past the 17-key alphabet: no key name maps to it.
    inputs = InputSeries([0.0], [0.0], [0.0], [1 << 17])
    session = Session(meta=tiny_session.meta, gaze=make_gaze([]), input=inputs,
                      timeline=tiny_session.timeline, hrm=None)
    assert [(v.location, v.message) for v in validate_session(session)] == [
        ("input[0]", "unknown key bits 0x20000")]


def test_kill_of_unspawned_victim_is_flagged(tiny_session):
    timeline = make_timeline(
        [(0.0, 40.0)],
        [GameEvent(0.0, EventKind.SPAWN, "p1"),
         GameEvent(5.0, EventKind.KILL, "p1", "ghost")],
    )
    session = Session(meta=tiny_session.meta, gaze=make_gaze([]), input=InputSeries(),
                      timeline=timeline, hrm=None)
    assert any("ghost" in v.message for v in validate_session(session))


def test_stream_running_past_match_end_is_flagged(tiny_session):
    gaze = make_gaze([(0.0, 1.0, 1.0), (90.0, 2.0, 2.0)])
    session = Session(meta=tiny_session.meta, gaze=gaze, input=InputSeries(),
                      timeline=tiny_session.timeline, hrm=None)
    assert any("time origin" in v.message for v in validate_session(session))


def test_overlapping_rounds_are_flagged(tiny_session):
    timeline = make_timeline(
        [(0.0, 40.0), (30.0, 70.0)],
        [GameEvent(0.0, EventKind.SPAWN, "p1")],
    )
    session = Session(meta=tiny_session.meta, gaze=make_gaze([]), input=InputSeries(),
                      timeline=timeline, hrm=None)
    assert any("overlaps" in v.message for v in validate_session(session))


def test_too_fast_heartbeat_is_flagged(tiny_session):
    session = Session(meta=tiny_session.meta, gaze=make_gaze([]), input=InputSeries(),
                      timeline=tiny_session.timeline,
                      hrm=BeatSeries(beat_times=[1.0, 1.1]))
    assert any("240" in v.message for v in validate_session(session))


def test_interval_is_half_open():
    series = make_gaze([(1.0, 0.0, 0.0), (2.0, 0.0, 0.0)])
    assert slice_by_intervals(series, [Interval(1.0, 2.0)])[0].t.tolist() == [1.0]


def test_round_contains_is_closed():
    r = Round(index=1, start_t=0.0, end_t=40.0)
    assert r.contains(0.0) and r.contains(40.0) and not r.contains(40.1)


@pytest.mark.parametrize("series", [
    make_gaze([(0.0, 1.0, 2.0), (0.5, None, None)]),
    InputSeries([0.0, 0.01], [1.0, 2.0], [3.0, 4.0], [0, 5]),
    WindowSeries(np.arange(2), np.array([0.0, 1.0]), np.eye(2)),
    BeatSeries([1.0, 1.5, 2.0]),
    ZoneSequence(np.array([0.0, 0.5]), np.array([1, 3]), k=3, span=(0.0, 1.0)),
], ids=lambda series: type(series).__name__)
def test_columns_stay_read_only_after_pickling(series):
    copy = pickle.loads(pickle.dumps(series))
    assert type(copy) is type(series)
    for f in fields(series):
        want, got = getattr(series, f.name), getattr(copy, f.name)
        if f.name in series._COLUMNS:
            assert not want.flags.writeable and not got.flags.writeable
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        else:
            assert got == want


@pytest.mark.parametrize("cls", [GazeSeries, InputSeries, BeatSeries, WindowSeries],
                         ids=lambda cls: cls.__name__)
def test_series_hold_only_their_columns(cls):
    assert {f.name for f in fields(cls)} == set(cls._COLUMNS)


def test_every_session_stream_is_columnar():
    hints = typing.get_type_hints(Session)
    for name in ("gaze", "input", "hrm"):
        types = typing.get_args(hints[name]) or (hints[name],)
        assert all(issubclass(t, _Columns) for t in types if t is not type(None)), name


# Times on a coarse grid, so that events often sit exactly on a round's
# start or end, with the non-finite values a hand-built timeline can hold.
_grid_times = st.one_of(st.integers(-2, 24).map(lambda i: i / 2),
                        st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf")]))


def _scan_outside(timeline, times):
    """The oracle: a linear `round_containing` scan per time."""
    return [timeline.round_containing(t) is None for t in times]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_grid_times, _grid_times), max_size=8),
       st.lists(_grid_times, max_size=30))
def test_outside_rounds_matches_the_linear_scan(bounds, times):
    """Unsorted, overlapping, zero-length and reversed rounds; events at
    a start or an end, in gaps, before the first and after the last."""
    timeline = MatchTimeline(rounds=[Round(i + 1, a, b) for i, (a, b) in enumerate(bounds)],
                             events=[])
    assert timeline.outside_rounds(times).tolist() == _scan_outside(timeline, times)


def test_outside_rounds_named_cases():
    rounds = [Round(1, 10.0, 20.0), Round(2, 0.0, 5.0),     # unsorted, gap (5, 10)
              Round(3, 2.0, 30.0),                          # overlaps both
              Round(4, 40.0, 40.0), Round(5, 50.0, 45.0),   # zero-length, reversed
              Round(6, 55.0, float("nan")), Round(7, 60.0, 70.0)]
    timeline = MatchTimeline(rounds=rounds, events=[])
    times = [-1.0, 0.0, 5.0, 7.5, 10.0, 20.0, 30.0, 35.0, 40.0, 47.0, 50.0, 45.0,
             57.0, 65.0, 71.0]
    expected = _scan_outside(timeline, times)
    assert expected == [True, False, False, False, False, False, False, True, False,
                        True, True, True, True, False, True]
    assert timeline.outside_rounds(times).tolist() == expected
    assert MatchTimeline(rounds=[], events=[]).outside_rounds([0.0]).tolist() == [True]
    assert timeline.outside_rounds([]).tolist() == []
