"""Key-hold intervals, held fractions, click stats, and mouse kinematics."""
import math

import pytest

from etk.errors import EmptySupport, InsufficientData
from etk.input_features import (
    FeatureRow,
    click_stats,
    click_zone_distribution,
    fraction_held,
    key_hold_intervals,
    mouse_kinematics,
    nominal_period,
    write_feature_table,
)
from etk.model import Interval
from etk.zones import default_zone_model
from conftest import make_input


def mk(t, keys=(), pos=(0.0, 0.0)):
    return (t, pos[0], pos[1], frozenset(keys))


def cadence(n, period=0.1, key_on=lambda i: frozenset()):
    return make_input([mk(i * period, key_on(i)) for i in range(n)])


class TestKeyHoldIntervals:
    def test_run_to_end_of_data_closes_one_period_late(self):
        samples = make_input([mk(i * 0.01, ("W",)) for i in range(10)])
        start, end = key_hold_intervals(samples, "W")
        assert len(start) == len(end) == 1
        assert start[0] == 0.0
        assert end[0] == pytest.approx(0.10, abs=1e-12)

    def test_run_closes_at_first_sample_after(self):
        samples = cadence(10, key_on=lambda i: frozenset(("A",)) if i < 4 else frozenset())
        start, end = key_hold_intervals(samples, "A")
        assert start[0] == 0.0
        assert end[0] == pytest.approx(0.4, abs=1e-12)

    def test_never_pressed_gives_empty_list(self):
        start, end = key_hold_intervals(cadence(10), "W")
        assert start.tolist() == end.tolist() == []

    def test_two_separated_runs(self):
        on = lambda i: frozenset(("D",)) if i in (0, 1, 5, 6, 7) else frozenset()
        start, end = key_hold_intervals(cadence(10, key_on=on), "D")
        assert len(start) == len(end) == 2
        assert start[0] == 0.0
        assert start[1] == 0.5

    def test_key_and_complement_partition_the_timeline(self):
        pattern = [bool(i % 3) for i in range(30)]
        samples = make_input([mk(i * 0.1, ("W",) if held else ())
                              for i, held in enumerate(pattern)])
        flipped = make_input([mk(i * 0.1, () if held else ("W",))
                              for i, held in enumerate(pattern)])
        both = [pair for series in (samples, flipped)
                for pair in zip(*(c.tolist() for c in key_hold_intervals(series, "W")))]
        tiles = sorted(both)
        assert tiles[0][0] == 0.0
        for a, b in zip(tiles, tiles[1:]):
            assert b[0] == pytest.approx(a[1], abs=1e-12)
        assert tiles[-1][1] == pytest.approx(29 * 0.1 + 0.1, abs=1e-12)


class TestFractionHeld:
    def alive60(self):
        return [Interval(0.0, 60.0)]

    def test_a_or_d_example(self):
        # A held 12 s and D held 6 s, disjointly, inside 60 s alive -> 0.3.
        def on(i):
            if 0 <= i < 120:
                return frozenset(("A",))
            if 200 <= i < 260:
                return frozenset(("D",))
            return frozenset()

        samples = cadence(600, key_on=on)
        frac = fraction_held(samples, ("A", "D"), self.alive60(), mode="any")
        assert frac == pytest.approx(0.3, abs=1e-9)

    def test_w_and_mouse1_overlap_example(self):
        # W held [0,10), MOUSE1 held [5,15): simultaneous span is 5 s of 60.
        def on(i):
            keys = set()
            if i < 100:
                keys.add("W")
            if 50 <= i < 150:
                keys.add("MOUSE1")
            return frozenset(keys)

        samples = cadence(600, key_on=on)
        frac = fraction_held(samples, ("W", "MOUSE1"), self.alive60(), mode="all")
        assert frac == pytest.approx(5.0 / 60.0, abs=1e-9)

    def test_never_pressed_is_zero(self):
        assert fraction_held(cadence(600), ("A",), self.alive60()) == 0.0

    def test_all_mode_never_exceeds_any_mode(self):
        import random
        rng = random.Random(13)
        keys = ("W", "MOUSE1")
        samples = make_input([mk(i * 0.1, frozenset(k for k in keys if rng.random() < 0.4))
                              for i in range(400)])
        alive = [Interval(0.0, 40.0)]
        any_frac = fraction_held(samples, keys, alive, mode="any")
        all_frac = fraction_held(samples, keys, alive, mode="all")
        assert 0.0 <= all_frac <= any_frac <= 1.0

    def test_additive_over_disjoint_alive_intervals(self):
        def on(i):
            return frozenset(("A",)) if i % 5 == 0 else frozenset()

        samples = cadence(600, key_on=on)
        first = [Interval(0.0, 25.0)]
        second = [Interval(25.0, 60.0)]
        combined = fraction_held(samples, ("A",), self.alive60())
        split_duration = (fraction_held(samples, ("A",), first) * 25.0
                          + fraction_held(samples, ("A",), second) * 35.0)
        assert split_duration == pytest.approx(combined * 60.0, abs=1e-9)

    def test_sample_period_clipped_to_alive_edge(self):
        # One held sample at t=4.9 with a 0.2 s period, alive ends at 5:
        # only 0.1 s of it counts.
        samples = cadence(100, key_on=lambda i: frozenset(("A",)) if i == 49 else frozenset())
        frac = fraction_held(samples, ("A",), [Interval(0.0, 5.0)], period_s=0.2)
        assert frac == pytest.approx(0.1 / 5.0, abs=1e-9)

    def test_zero_alive_duration_rejected(self):
        with pytest.raises(EmptySupport):
            fraction_held(cadence(10), ("A",), [])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            fraction_held(cadence(10), ("A",), self.alive60(), mode="median")


class TestClickStats:
    def test_two_clicks_example(self):
        def on(i):
            if i == 10:                      # one sample: 0.1 s hold
                return frozenset(("MOUSE1",))
            if 20 <= i < 23:                 # three samples: 0.3 s hold
                return frozenset(("MOUSE1",))
            return frozenset()

        stats = click_stats(cadence(600, key_on=on), alive=[Interval(0.0, 60.0)])
        assert stats.click_count == 2
        assert stats.mean_duration_s == pytest.approx(0.2, abs=1e-9)
        assert stats.clicks_per_minute == pytest.approx(2.0, abs=1e-12)

    def test_no_clicks_conventions(self):
        stats = click_stats(cadence(100), alive=[Interval(0.0, 10.0)])
        assert stats.click_count == 0
        assert stats.mean_duration_s == 0.0
        assert stats.clicks_per_minute == 0.0

    def test_click_clipped_at_alive_boundary(self):
        on = lambda i: frozenset(("MOUSE1",)) if 45 <= i < 54 else frozenset()
        stats = click_stats(cadence(100, key_on=on), alive=[Interval(0.0, 5.0)])
        assert stats.click_count == 1
        assert stats.mean_duration_s == pytest.approx(0.5, abs=1e-9)

    def test_click_fully_outside_alive_dropped(self):
        on = lambda i: frozenset(("MOUSE1",)) if i >= 80 else frozenset()
        stats = click_stats(cadence(100, key_on=on), alive=[Interval(0.0, 5.0)])
        assert stats.click_count == 0

    def test_zero_alive_rejected(self):
        with pytest.raises(EmptySupport):
            click_stats(cadence(10), alive=[])


class TestMouseKinematics:
    def test_three_four_five(self):
        samples = make_input([mk(0.0, pos=(0.0, 0.0)), mk(0.01, pos=(3.0, 4.0))])
        kin = mouse_kinematics(samples, [Interval(0.0, 0.02)])
        assert kin.path_mean_px == pytest.approx(5.0, abs=1e-12)
        assert kin.vel_mean_px_s == pytest.approx(500.0, abs=1e-9)
        assert kin.path_std_px == 0.0
        assert kin.vel_std_px_s == 0.0

    def test_stationary_mouse_is_all_zero(self):
        samples = make_input([mk(i * 0.01, pos=(7.0, 7.0)) for i in range(100)])
        kin = mouse_kinematics(samples, [Interval(0.0, 1.0)])
        assert kin.path_mean_px == 0.0
        assert kin.vel_mean_px_s == 0.0

    def test_single_sample_rejected(self):
        with pytest.raises(InsufficientData):
            mouse_kinematics(make_input([mk(0.0)]), [Interval(0.0, 1.0)])

    def test_window_tiling_and_stats(self):
        samples = make_input([mk(0.0, pos=(0.0, 0.0)), mk(0.5, pos=(10.0, 0.0)),
                              mk(1.0, pos=(10.0, 0.0)), mk(1.5, pos=(10.0, 5.0))])
        kin = mouse_kinematics(samples, [Interval(0.0, 2.0)], window_s=1.0)
        # Window [0,1): steps 10 + 0; window [1,2): step 5.
        assert kin.path_mean_px == pytest.approx(7.5, abs=1e-12)
        assert kin.path_std_px == pytest.approx(math.sqrt(12.5), abs=1e-12)
        # Speeds 20, 0, 10 px/s.
        assert kin.vel_mean_px_s == pytest.approx(10.0, abs=1e-12)
        assert kin.vel_std_px_s == pytest.approx(10.0, abs=1e-12)

    def test_steps_never_cross_alive_intervals(self):
        # A big jump between two alive intervals must not count as a step.
        samples = make_input([mk(0.0, pos=(0.0, 0.0)), mk(0.1, pos=(1.0, 0.0)),
                              mk(5.0, pos=(500.0, 0.0)), mk(5.1, pos=(501.0, 0.0))])
        kin = mouse_kinematics(samples, [Interval(0.0, 0.2), Interval(4.9, 5.2)])
        assert kin.path_mean_px == pytest.approx(1.0, abs=1e-12)
        assert kin.vel_mean_px_s == pytest.approx(10.0, abs=1e-9)


class TestClickZoneDistribution:
    def test_all_clicks_at_center(self):
        on = lambda i: frozenset(("MOUSE1",)) if i in (3, 7) else frozenset()
        samples = make_input([mk(i * 0.1, on(i), pos=(960.0, 540.0)) for i in range(10)])
        dist = click_zone_distribution(samples, "MOUSE1", default_zone_model())
        assert dist[0] == 1.0
        assert sum(dist) == 1.0

    def test_split_between_two_zones(self):
        positions = {3: (960.0, 540.0), 7: (345.0, 815.0)}
        samples = make_input([mk(i * 0.1,
                                 frozenset(("MOUSE1",)) if i in positions else frozenset(),
                                 pos=positions.get(i, (0.0, 0.0)))
                              for i in range(10)])
        dist = click_zone_distribution(samples, "MOUSE1", default_zone_model())
        assert dist[0] == 0.5
        assert dist[1] == 0.5

    def test_onset_position_decides(self):
        # Click starts on zone 1's center, then drags to zone 2: the
        # onset wins.
        samples = make_input([mk(0.0, (), pos=(0.0, 0.0)),
                              mk(0.1, ("MOUSE1",), pos=(960.0, 540.0)),
                              mk(0.2, ("MOUSE1",), pos=(345.0, 815.0)),
                              mk(0.3, (), pos=(345.0, 815.0))])
        dist = click_zone_distribution(samples, "MOUSE1", default_zone_model())
        assert dist[0] == 1.0

    def test_no_clicks_zero_vector(self):
        dist = click_zone_distribution(cadence(10), "MOUSE1", default_zone_model())
        assert set(dist) == {0.0}
        assert len(dist) == 9


class TestNominalPeriod:
    def test_median_spacing(self):
        samples = make_input([mk(t) for t in (0.0, 0.01, 0.02, 0.05)])
        assert nominal_period(samples) == pytest.approx(0.01, abs=1e-12)

    def test_default_when_undecidable(self):
        assert nominal_period(make_input([mk(0.0)])) == 0.01


class TestFeatureTable:
    def test_csv_shape(self, tmp_path):
        rows = [
            FeatureRow("p1", "professional", 0, "ad_hold_fraction", 0.25),
            FeatureRow("p1", "professional", 1, "w_m1_fraction", 0.5),
        ]
        path = tmp_path / "features.csv"
        write_feature_table(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "player_id,cohort,round,feature,value"
        assert lines[1] == "p1,professional,0,ad_hold_fraction,0.25"
        assert lines[2] == "p1,professional,1,w_m1_fraction,0.5"
