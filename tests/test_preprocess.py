"""Alive segments, gap interpolation, missingness, and BPM derivation."""
import math
import warnings
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etk.errors import InsufficientData, UnknownPlayer
from etk.model import (
    MIN_BEAT_INTERVAL_S,
    BeatSeries,
    EventKind,
    GameEvent,
    Interval,
    Violation,
    _validate_hrm,
)
from etk.preprocess import (
    beats_to_bpm,
    extract_alive_segments,
    interpolate_gaps,
    missing_stats,
    slice_by_intervals,
)
from conftest import gaze_rows, make_gaze, make_input, make_timeline


def timeline_one_round(events):
    return make_timeline([(0.0, 40.0)], events)


class TestAliveSegments:
    def test_death_closes_segment(self):
        tl = timeline_one_round([GameEvent(0.0, EventKind.SPAWN, "p1"),
                                 GameEvent(25.0, EventKind.DEATH, "p1")])
        assert extract_alive_segments(tl, "p1") == [Interval(0.0, 25.0)]

    def test_survived_round_closes_at_round_end(self):
        tl = timeline_one_round([GameEvent(0.0, EventKind.SPAWN, "p1")])
        assert extract_alive_segments(tl, "p1") == [Interval(0.0, 40.0)]

    def test_kill_event_also_closes_victim_segment(self):
        tl = timeline_one_round([GameEvent(0.0, EventKind.SPAWN, "p1"),
                                 GameEvent(0.0, EventKind.SPAWN, "e"),
                                 GameEvent(30.0, EventKind.KILL, "e", "p1")])
        assert extract_alive_segments(tl, "p1") == [Interval(0.0, 30.0)]

    def test_two_rounds_two_segments(self):
        tl = make_timeline(
            [(0.0, 40.0), (40.0, 80.0)],
            [GameEvent(0.0, EventKind.SPAWN, "p1"),
             GameEvent(25.0, EventKind.DEATH, "p1"),
             GameEvent(40.0, EventKind.SPAWN, "p1")],
        )
        assert extract_alive_segments(tl, "p1") == [Interval(0.0, 25.0),
                                                    Interval(40.0, 80.0)]

    def test_boundary_spawn_belongs_to_the_round_it_opens(self):
        # Back-to-back rounds share t=40; the spawn there must not be
        # swallowed by round 1.
        tl = make_timeline(
            [(0.0, 40.0), (40.0, 80.0)],
            [GameEvent(0.0, EventKind.SPAWN, "p1"),
             GameEvent(40.0, EventKind.SPAWN, "p1")],
        )
        segments = extract_alive_segments(tl, "p1")
        assert segments == [Interval(0.0, 40.0), Interval(40.0, 80.0)]

    def test_unknown_player_raises(self):
        tl = timeline_one_round([GameEvent(0.0, EventKind.SPAWN, "p1")])
        with pytest.raises(UnknownPlayer):
            extract_alive_segments(tl, "nobody")


class TestSliceByIntervals:
    def test_half_open_membership(self):
        series = make_gaze([(float(i), 1.0, 1.0) for i in range(10)])
        segments = slice_by_intervals(series, [Interval(2.0, 5.0)])
        assert segments[0].t.tolist() == [2.0, 3.0, 4.0]

    def test_one_segment_per_interval(self):
        series = make_gaze([(float(i), 1.0, 1.0) for i in range(10)])
        segments = slice_by_intervals(series, [Interval(0.0, 3.0), Interval(7.0, 9.0)])
        assert len(segments) == 2
        assert len(segments[0]) == 3
        assert len(segments[1]) == 2

    def test_empty_interval_yields_empty_segment(self):
        series = make_gaze([(0.0, 1.0, 1.0)])
        segments = slice_by_intervals(series, [Interval(5.0, 6.0)])
        assert len(segments[0]) == 0

    def test_partition_loses_and_duplicates_nothing(self):
        series = make_gaze([(i * 0.5, 1.0, 1.0) for i in range(20)])
        cuts = [Interval(0.0, 2.5), Interval(2.5, 6.0), Interval(6.0, 10.0)]
        segments = slice_by_intervals(series, cuts)
        rejoined = [t for seg in segments for t in seg.t.tolist()]
        assert rejoined == series.t.tolist()

    def test_input_samples_supported(self):
        samples = make_input([(float(i), 0.0, 0.0, ()) for i in range(5)])
        segments = slice_by_intervals(samples, [Interval(1.0, 3.0)])
        assert segments[0].t.tolist() == [1.0, 2.0]


class TestInterpolateGaps:
    def test_short_gap_filled_on_the_analytic_line(self):
        points = [(0.0, 0.0, 0.0), (0.01, None, None), (0.02, None, None),
                  (0.05, 10.0, 20.0)]
        repaired, filled = interpolate_gaps(make_gaze(points))
        assert repaired.valid.all()
        assert repaired.x[1] == pytest.approx(10.0 * 0.01 / 0.05, abs=1e-12)
        assert repaired.y[2] == pytest.approx(20.0 * 0.02 / 0.05, abs=1e-12)
        assert filled == 2
        assert missing_stats(make_gaze(points)).missing_samples == 2

    def test_long_gap_stays_invalid(self):
        points = [(0.0, 0.0, 0.0)]
        points += [(0.05 + i * 0.05, None, None) for i in range(4)]  # 0.15 s span
        points += [(0.30, 10.0, 10.0)]
        repaired, filled = interpolate_gaps(make_gaze(points))
        assert int((~repaired.valid).sum()) == 4
        assert filled == 0
        assert missing_stats(make_gaze(points)).gap_histogram == {4: 1}

    def test_boundary_gaps_never_extrapolated(self):
        points = [(0.0, None, None), (0.01, 1.0, 1.0), (0.02, None, None)]
        repaired, filled = interpolate_gaps(make_gaze(points))
        assert not repaired.valid[0]
        assert not repaired.valid[2]
        assert filled == 0

    def test_six_consecutive_misses_fill_at_60hz_but_seven_do_not(self):
        def gap_series(k):
            points = [(0.0, 0.0, 0.0)]
            points += [((i + 1) / 60.0, None, None) for i in range(k)]
            points += [((k + 1) / 60.0, 60.0, 60.0)]
            return make_gaze(points)

        repaired6, filled6 = interpolate_gaps(gap_series(6))
        assert repaired6.valid.all()
        assert filled6 == 6

        repaired7, filled7 = interpolate_gaps(gap_series(7))
        assert int((~repaired7.valid).sum()) == 7
        assert filled7 == 0

    def test_valid_samples_never_change(self):
        points = [(0.0, 3.0, 4.0), (0.01, None, None), (0.02, 5.0, 6.0)]
        source = make_gaze(points)
        repaired, _ = interpolate_gaps(source)
        assert gaze_rows(repaired)[0] == gaze_rows(source)[0]
        assert gaze_rows(repaired)[2] == gaze_rows(source)[2]

    def test_interpolated_values_inside_bracketing_box(self):
        points = [(0.0, 10.0, 100.0), (0.02, None, None), (0.04, 20.0, 50.0)]
        repaired, _ = interpolate_gaps(make_gaze(points))
        assert 10.0 <= repaired.x[1] <= 20.0
        assert 50.0 <= repaired.y[1] <= 100.0

    def test_missing_accounting_balances(self):
        points = [(0.0, 1.0, 1.0), (0.01, None, None), (0.02, 1.0, 1.0),
                  (0.5, None, None), (0.75, None, None), (1.0, None, None),
                  (1.5, 2.0, 2.0)]
        source = make_gaze(points)
        before = missing_stats(source)
        repaired, filled = interpolate_gaps(source)
        after = missing_stats(repaired)
        assert before.missing_fraction == (
            after.missing_fraction + filled / before.total_samples)


class TestMissingStats:
    def test_four_percent(self):
        points = [(i * 0.01, None, None) if i < 4 else (i * 0.01, 1.0, 1.0)
                  for i in range(100)]
        report = missing_stats(make_gaze(points))
        assert report.missing_fraction == 0.04
        assert report.gap_histogram == {4: 1}

    def test_all_valid_and_all_invalid(self):
        assert missing_stats(make_gaze([(0.0, 1.0, 1.0)])).missing_fraction == 0.0
        assert missing_stats(make_gaze([(0.0, None, None)])).missing_fraction == 1.0

    def test_empty_series(self):
        assert missing_stats(make_gaze([])).missing_fraction == 0.0


class TestBeatsToBpm:
    def test_constant_half_second_interval_gives_120(self):
        beats = BeatSeries(beat_times=[0.5 * (i + 1) for i in range(20)])
        rates = beats_to_bpm(beats)
        assert len(rates) == 17
        assert all(r == 120.0 for r in rates.tolist())

    def test_one_second_interval_gives_60(self):
        beats = BeatSeries(beat_times=[float(i + 1) for i in range(6)])
        assert all(r == 60.0 for r in beats_to_bpm(beats).tolist())

    def test_too_few_beats_raises(self):
        with pytest.raises(InsufficientData):
            beats_to_bpm(BeatSeries(beat_times=[1.0, 1.5, 2.0]))

    def test_one_rate_per_beat_from_the_window_end_on(self):
        beats = BeatSeries(beat_times=[1.0, 1.5, 2.0, 2.5, 3.0])
        for window_beats in (2, 4, 5):
            assert len(beats_to_bpm(beats, window_beats)) == len(beats) - window_beats + 1

    def test_subnormal_interval_gives_inf_without_a_warning(self):
        beats = BeatSeries(beat_times=[0.0, 5e-324])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert beats_to_bpm(beats, window_beats=2).tolist() == [math.inf]


def per_beat_violations(times):
    """The per-beat loop that `model._validate_hrm` replaced (the oracle)."""
    out = []
    prev_t = -math.inf
    for i, t in enumerate(times):
        loc = f"hrm.beat_times[{i}]"
        if t <= prev_t:
            out.append(Violation(loc, f"beat time {t} not increasing (previous {prev_t})"))
        elif i > 0 and t - prev_t <= MIN_BEAT_INTERVAL_S:
            out.append(Violation(loc, f"inter-beat interval {t - prev_t:.4f}s implies pulse above 240 bpm"))
        prev_t = t
    return out


def per_beat_rates(times, window_beats):
    """The per-beat loop that `beats_to_bpm` replaced (the oracle).

    Where a window spans no time the loop raised ZeroDivisionError; the
    column division gives the IEEE result, an infinity of the span's sign.
    """
    out = []
    for i in range(window_beats - 1, len(times)):
        dt = times[i] - times[i - window_beats + 1]
        out.append(60.0 * (window_beats - 1) / dt if dt else math.copysign(math.inf, dt))
    return out


@settings(max_examples=300, deadline=None)
@given(start=st.floats(0.0, 100.0),
       steps=st.lists(st.one_of(st.sampled_from([0.0, -0.5, 0.1, 0.25, 0.5, 1.0]),
                                st.floats(-1.0, 2.0)), max_size=30),
       window_beats=st.integers(2, 6))
def test_hrm_columns_match_per_beat_loops(start, steps, window_beats):
    # Repeats (step 0), decreases and gaps at or under 0.25 s all occur.
    times = list(accumulate(steps, initial=start))
    beats = BeatSeries(times)
    found = []
    _validate_hrm(beats, found)
    assert found == per_beat_violations(times)
    if len(times) < window_beats:
        with pytest.raises(InsufficientData):
            beats_to_bpm(beats, window_beats)
        return
    with np.errstate(divide="ignore"):
        rates = beats_to_bpm(beats, window_beats)
    assert rates.dtype == np.float64
    assert rates.tolist() == per_beat_rates(times, window_beats)
