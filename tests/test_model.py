"""Domain model construction and validate_session behavior."""
import pickle
import typing
from dataclasses import fields

import numpy as np
import pytest

from etk.model import (
    BeatSeries,
    EventKind,
    GameEvent,
    GazeSeries,
    InputSeries,
    Interval,
    Round,
    Session,
    _Columns,
    validate_session,
)
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
    iv = Interval(1.0, 2.0)
    assert iv.contains(1.0) and not iv.contains(2.0)
    assert iv.duration == 1.0


def test_round_contains_is_closed():
    r = Round(index=1, start_t=0.0, end_t=40.0)
    assert r.contains(0.0) and r.contains(40.0) and not r.contains(40.1)


@pytest.mark.parametrize("series", [
    make_gaze([(0.0, 1.0, 2.0), (0.5, None, None)], screen=(640, 480)),
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


def test_every_session_stream_is_columnar():
    hints = typing.get_type_hints(Session)
    for name in ("gaze", "input", "hrm"):
        types = typing.get_args(hints[name]) or (hints[name],)
        assert all(issubclass(t, _Columns) for t in types if t is not type(None)), name
