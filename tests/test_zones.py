"""Zone model, assignment, rolling windows, and heatmaps."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etk.errors import DimensionMismatch, EmptyInput, TooManyWindows
from etk.zones import (
    MAX_WINDOWS,
    Heatmap,
    WindowSeries,
    ZoneModel,
    ZoneSequence,
    assign_zone,
    assign_zones,
    average_distribution,
    count_points,
    default_zone_model,
    heatmap_grid,
    read_zone_model_csv,
    window_distributions,
    write_zone_model_csv,
    write_heatmap_csv,
    write_heatmap_pgm,
)
from conftest import make_gaze

TABLE_CENTERS = (
    (960.0, 540.0), (345.0, 815.0), (310.0, 180.0), (1205.0, 530.0),
    (1610.0, 180.0), (715.0, 530.0), (1575.0, 815.0), (960.0, 260.0),
    (960.0, 900.0),
)
TABLE_LABELS = (
    "Aiming Cross-hair", "Radar Area", "Armor & Health Bar",
    "Right Area of Sight", "Weapon & Ammo Panel", "Left Area of Sight",
    "Kill & Death Log", "Bottom Area of Sight", "Timer & Players Panel",
)


class TestDefaultModel:
    def test_centers_and_labels(self):
        model = default_zone_model()
        assert model.centers == TABLE_CENTERS
        assert model.labels == TABLE_LABELS
        assert model.k == 9

    def test_duplicate_centers_rejected(self):
        with pytest.raises(ValueError):
            ZoneModel(centers=((0.0, 0.0), (0.0, 0.0)), labels=("a", "b"))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            ZoneModel(centers=((0.0, 0.0), (1.0, 1.0)), labels=("a", "a"))


class TestAssignZone:
    def test_each_center_assigns_to_itself(self):
        model = default_zone_model()
        for i, center in enumerate(model.centers, start=1):
            assert assign_zone(center, model) == i

    def test_nearest_wins(self):
        model = default_zone_model()
        assert assign_zone((950.0, 545.0), model) == 1
        assert assign_zone((350.0, 800.0), model) == 2
        assert assign_zone((1600.0, 190.0), model) == 5

    def test_tie_breaks_to_lowest_index(self):
        # Midpoint of centers 1 (960,540) and 6 (715,530) is equidistant
        # from both; the lower index must win.
        assert assign_zone((837.5, 535.0), default_zone_model()) == 1

    def test_vectorized_matches_scalar(self):
        model = default_zone_model()
        rng = np.random.default_rng(7)
        xs = rng.uniform(0, 1920, size=300)
        ys = rng.uniform(0, 1080, size=300)
        points = [(i * 0.01, x, y) for i, (x, y) in enumerate(zip(xs, ys))]
        seq = assign_zones(make_gaze(points), model)
        scalar = [assign_zone((x, y), model) for x, y in zip(xs, ys)]
        assert seq.zones.tolist() == scalar

    def test_invalid_samples_are_dropped(self):
        seq = assign_zones(
            make_gaze([(0.0, 960.0, 540.0), (0.1, None, None), (0.2, 345.0, 815.0)]),
            default_zone_model(),
        )
        assert seq.times.tolist() == [0.0, 0.2]
        assert seq.zones.tolist() == [1, 2]


class TestWindowDistributions:
    def make_seq(self, duration_s, rate_hz=60.0, zone=1):
        n = int(round(duration_s * rate_hz))
        times = np.arange(n) / rate_hz
        return ZoneSequence(times=times, zones=np.full(n, zone), k=9,
                            span=(0.0, duration_s))

    def test_twenty_second_span_yields_six_windows(self):
        windows = window_distributions(self.make_seq(20.0), window_s=15.0, hop_s=1.0)
        assert len(windows) == 6
        assert windows.index.tolist() == list(range(6))
        assert windows.start.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_span_shorter_than_window_yields_nothing(self):
        windows = window_distributions(self.make_seq(14.0))
        assert len(windows) == 0
        assert windows.probs.shape == (0, 9)

    def test_exact_window_length_span_yields_one(self):
        assert len(window_distributions(self.make_seq(15.0))) == 1

    def test_single_zone_window_is_one_hot(self):
        windows = window_distributions(self.make_seq(15.0, zone=3))
        assert tuple(windows.probs[0].tolist()) == (0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_half_and_half_window(self):
        times = np.arange(10, dtype=float)
        zones = np.array([1, 2] * 5)
        seq = ZoneSequence(times=times, zones=zones, k=9, span=(0.0, 10.0))
        windows = window_distributions(seq, window_s=10.0, hop_s=1.0)
        assert tuple(windows.probs[0, :2].tolist()) == (0.5, 0.5)

    def test_probabilities_sum_to_one_and_are_nonnegative(self):
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0.0, 30.0, size=400))
        zones = rng.integers(1, 10, size=400)
        seq = ZoneSequence(times=times, zones=zones, k=9, span=(0.0, 30.0))
        for probs in window_distributions(seq).probs.tolist():
            assert min(probs) >= 0.0
            assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_window_membership_is_half_open(self):
        # Samples: one at t=0 in zone 1, one at t=15 in zone 2.  Window
        # [0, 15) must contain only the first.
        seq = ZoneSequence(times=np.array([0.0, 15.0]), zones=np.array([1, 2]),
                           k=9, span=(0.0, 16.0))
        windows = window_distributions(seq)
        assert windows.probs[0, 0] == 1.0
        assert windows.probs[0, 1] == 0.0

    def test_empty_windows_are_skipped_but_indices_advance(self):
        # 40 s span with samples only in the first second: windows whose
        # range holds no samples must not appear, yet indexing stays
        # anchored to the span.
        times = np.arange(60) / 60.0
        seq = ZoneSequence(times=times, zones=np.ones(60, dtype=int), k=9,
                           span=(0.0, 40.0))
        windows = window_distributions(seq)
        assert windows.index.tolist() == [0]
        assert windows.start[0] == 0.0

    def test_counts_match_bruteforce(self):
        rng = np.random.default_rng(11)
        times = np.sort(rng.uniform(0.0, 25.0, size=500))
        zones = rng.integers(1, 10, size=500)
        seq = ZoneSequence(times=times, zones=zones, k=9, span=(0.0, 25.0))
        windows = window_distributions(seq, window_s=15.0, hop_s=1.0)
        assert len(windows)
        for start, probs in zip(windows.start, windows.probs):
            inside = (times >= start) & (times < start + 15.0)
            expected = np.bincount(zones[inside], minlength=10)[1:]
            expected = expected / expected.sum()
            assert np.allclose(probs, expected, atol=1e-15)

    def test_window_starting_exactly_on_the_edge_is_kept(self):
        # span_end + tol == start + window_s for the window at t=2:
        # the edge test is strict, so that window is the last one kept.
        span_end = 3.0 - 1e-9
        assert span_end + 1e-9 == 2.0 + 1.0
        seq = ZoneSequence(times=np.arange(0.0, 3.0, 0.25), zones=np.ones(12, dtype=int),
                           k=9, span=(0.0, span_end))
        windows = window_distributions(seq, window_s=1.0, hop_s=0.5)
        assert windows.start.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_columns_are_read_only(self):
        windows = window_distributions(self.make_seq(20.0))
        assert windows.index.dtype == np.int64
        assert windows.start.dtype == np.float64
        for column in (windows.index, windows.start, windows.probs):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_concat_keeps_rows_in_order(self):
        a = window_distributions(self.make_seq(16.0, zone=1))
        b = window_distributions(self.make_seq(17.0, zone=2))
        both = WindowSeries.concat([a, b], 9)
        assert both.index.tolist() == [0, 1, 0, 1, 2]
        assert both.probs[:, 0].tolist() == [1.0, 1.0, 0.0, 0.0, 0.0]
        assert WindowSeries.concat([], 9).probs.shape == (0, 9)

    @pytest.mark.parametrize("window_s,hop_s", [(15.0, 0.0), (-1.0, 1.0), (math.nan, 1.0),
                                                (15.0, math.inf), (math.inf, 1.0)])
    def test_bad_window_settings_rejected(self, window_s, hop_s):
        with pytest.raises(ValueError, match="finite"):
            window_distributions(self.make_seq(20.0), window_s=window_s, hop_s=hop_s)

    def test_hop_near_the_largest_float_places_one_window(self):
        """Later starts overflow to infinity, past the span, without a warning."""
        windows = window_distributions(self.make_seq(20.0), window_s=15.0, hop_s=1e308)
        assert windows.index.tolist() == [0] and windows.start.tolist() == [0.0]

    def test_window_count_above_cap_is_refused_before_allocating(self):
        seq = self.make_seq(20.0)
        with pytest.raises(TooManyWindows, match=str(MAX_WINDOWS)):
            window_distributions(seq, window_s=15.0, hop_s=1e-300)
        # The cap counts window starts, empty windows included.
        empty = ZoneSequence(times=np.array([]), zones=np.array([], dtype=int), k=9,
                             span=(0.0, 20.0))
        hop = 5.0 / (MAX_WINDOWS + 10)
        with pytest.raises(TooManyWindows):
            window_distributions(empty, window_s=15.0, hop_s=hop)

    def test_hop_below_float_spacing_on_the_edge_is_refused(self):
        # The first window ends exactly on the edge, so the closed-form
        # estimate is one window; but a 1e-300 s hop never moves a start,
        # so every later window passes the edge test too.
        seq = ZoneSequence(times=np.arange(0.0, 14.0, 0.5), zones=np.ones(28, dtype=int),
                           k=9, span=(0.0, 15.0 - 1e-9))
        with pytest.raises(TooManyWindows):
            window_distributions(seq, window_s=15.0, hop_s=1e-300)


class TestAverageDistribution:
    def test_plain_mean(self):
        avg = average_distribution(np.array([(1.0, 0.0), (0.0, 1.0)]))
        assert avg == (0.5, 0.5)

    def test_single_window_identity(self):
        avg = average_distribution(np.array([(0.25, 0.75)]))
        assert avg == (0.25, 0.75)

    def test_idempotent_on_identical_windows(self):
        avg = average_distribution(np.array([(0.2, 0.8)] * 3))
        assert avg == pytest.approx((0.2, 0.8), abs=1e-15)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            average_distribution([])
        with pytest.raises(EmptyInput):
            average_distribution(np.empty((0, 9)))

    def test_ragged_raises(self):
        with pytest.raises(DimensionMismatch):
            average_distribution([(1.0,), (0.5, 0.5)])

    def test_single_vector_raises(self):
        with pytest.raises(DimensionMismatch):
            average_distribution(np.array([0.5, 0.5]))

    def test_equals_sample_shares_when_windows_tile_data_once(self):
        # Two back-to-back 15 s windows with equal sample counts cover
        # every sample exactly once; the window average must equal the
        # global share vector.
        rng = np.random.default_rng(23)
        times = np.arange(1800) / 60.0
        zones = rng.integers(1, 10, size=1800)
        seq = ZoneSequence(times=times, zones=zones, k=9, span=(0.0, 30.0))
        windows = window_distributions(seq, window_s=15.0, hop_s=15.0)
        assert len(windows) == 2
        avg = average_distribution(windows.probs)
        shares = np.bincount(zones, minlength=10)[1:] / len(zones)
        assert avg == pytest.approx(tuple(shares), abs=1e-12)


class TestHeatmap:
    def test_counts_and_total(self):
        hm = heatmap_grid([(5.0, 5.0), (5.0, 5.0), (25.0, 5.0)],
                          screen=(40, 20), cell_px=20)
        assert hm.grid[0][0] == 2
        assert hm.grid[0][1] == 1
        assert hm.total == 3

    def test_edge_samples_clamp_into_last_cell(self):
        hm = heatmap_grid([(40.0, 20.0)], screen=(40, 20), cell_px=20)
        assert hm.grid[0][1] == 1

    def test_points_off_the_screen_clamp_inward(self):
        hm = heatmap_grid([(5, 5), (-30, 7), (1e30, 5), (15, -1e300), (-5, 1e30)],
                          screen=(40, 20), cell_px=10)
        assert hm.grid.tolist() == [[2, 1, 0, 1], [1, 0, 0, 0]]

    @pytest.mark.parametrize("point", [(math.nan, math.nan), (math.inf, 5.0), (5.0, -math.inf)])
    def test_non_finite_point_is_refused(self, point):
        with pytest.raises(ValueError, match="non-finite"):
            heatmap_grid([(5, 5), point], screen=(40, 20), cell_px=10)

    def test_empty_points_all_zero(self):
        hm = heatmap_grid([], screen=(40, 20), cell_px=20)
        assert hm.total == 0
        assert hm.grid.sum() == 0

    def test_normalized_sums_to_one(self):
        rng = np.random.default_rng(2)
        points = list(zip(rng.uniform(0, 1920, 100), rng.uniform(0, 1080, 100)))
        hm = heatmap_grid(points, screen=(1920, 1080), cell_px=120)
        assert math.fsum((hm.grid / hm.total).ravel()) == pytest.approx(1.0, abs=1e-12)

    def test_pgm_output_shape(self, tmp_path):
        hm = heatmap_grid([(5.0, 5.0), (25.0, 5.0), (25.0, 5.0)],
                          screen=(40, 20), cell_px=20)
        write_heatmap_pgm(hm, tmp_path / "h.pgm")
        lines = (tmp_path / "h.pgm").read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "2 1"
        assert lines[2] == "255"
        assert lines[3].split() == ["128", "255"]  # 1/2 and 2/2 of peak


def cellwise_heatmap_csv(hm: Heatmap) -> str:
    """The cell-by-cell CSV writer that write_heatmap_csv replaced (the oracle)."""
    lines = [",".join(str(int(v)) for v in row) for row in hm.grid]
    return "\n".join(lines) + "\n"


def cellwise_heatmap_pgm(hm: Heatmap) -> str:
    """The cell-by-cell PGM writer that write_heatmap_pgm replaced (the oracle)."""
    rows, cols = hm.grid.shape
    peak = int(hm.grid.max()) if hm.total else 0
    if peak > 0:
        scaled = np.rint(hm.grid * (255.0 / peak)).astype(int)
    else:
        scaled = np.zeros_like(hm.grid, dtype=int)
    lines = [f"P2", f"{cols} {rows}", "255"]
    for row in scaled:
        line = ""
        for v in row:
            tok = str(int(v))
            if line and len(line) + 1 + len(tok) > 70:
                lines.append(line)
                line = tok
            else:
                line = tok if not line else f"{line} {tok}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def joined_heatmap_pgm(hm: Heatmap) -> str:
    """The whole-grid PGM writer that write_heatmap_pgm replaced: one string per
    row, wrapped at its last space within 70 characters (the oracle)."""
    rows, cols = hm.grid.shape
    peak = int(hm.grid.max()) if hm.total else 0
    if peak > 0:
        scaled = np.rint(hm.grid * (255.0 / peak)).astype(int)
    else:
        scaled = np.zeros_like(hm.grid, dtype=int)
    lines = [f"P2", f"{cols} {rows}", "255"]
    for row in scaled.tolist():
        text = " ".join(map(str, row))
        start = 0
        while len(text) - start > 70:
            cut = text.rindex(" ", start, start + 71)
            lines.append(text[start:cut])
            start = cut + 1
        lines.append(text[start:])
    return "\n".join(lines) + "\n"


_PGM_GRIDS = {
    "one column": np.array([[3], [0], [7], [1]]),
    "peak scales to 255": np.array([[1, 2, 3, 1000, 0]] * 3),
    "all zero": np.zeros((3, 40), np.int64),
    # With a peak of 255 the values stay as they are: 17 of "255" and one "10"
    # fill the first line to exactly 70 characters.
    "a line of exactly 70 characters": np.array([[255] * 17 + [10, 1, 2]] * 2),
    "rows in several blocks": np.random.default_rng(3).integers(0, 300, (700, 30)),
}


@pytest.mark.parametrize("name", _PGM_GRIDS)
def test_heatmap_pgm_matches_the_whole_grid_writer(tmp_path, name):
    grid = _PGM_GRIDS[name]
    hm = Heatmap(grid=grid, cell_px=10, total=int(grid.sum()))
    write_heatmap_pgm(hm, tmp_path / "h.pgm")
    data = (tmp_path / "h.pgm").read_bytes()
    assert data == joined_heatmap_pgm(hm).encode() == cellwise_heatmap_pgm(hm).encode()
    if name == "a line of exactly 70 characters":
        assert [len(line) for line in data.split(b"\n")[3:]] == [70, 3, 70, 3, 0]


@pytest.mark.parametrize("write", [write_heatmap_csv, write_heatmap_pgm])
def test_heatmap_writers_peak_does_not_grow_with_the_grid(tmp_path, write):
    # A 16384-px screen in 10 px cells; the whole-grid writers peaked at 177 MB
    # (CSV) and 61 MB (PGM) traced on it.
    grid = np.random.default_rng(0).integers(0, 1000, (1639, 1639))
    hm = Heatmap(grid=grid, cell_px=10, total=int(grid.sum()))
    tracemalloc.start()
    write(hm, tmp_path / "h")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20, peak


_POINT_KINDS = ["inside", "right edge", "bottom edge", "corner", "lost"]


@settings(max_examples=150, deadline=None)
@given(screen=st.tuples(st.integers(1, 60), st.integers(1, 60)), cell_px=st.integers(1, 80),
       segments=st.lists(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1),
                                            st.sampled_from(_POINT_KINDS)), max_size=12),
                         max_size=5))
def test_counting_segment_by_segment_gives_the_pooled_grid(screen, cell_px, segments):
    """What `analyze` counts, one segment at a time into one grid, is the
    `heatmap_grid` of all the valid points and the per-point count."""
    width, height = screen
    heat = heatmap_grid((), screen, cell_px)
    pooled = []
    for segment in segments:
        x = np.array([width if kind in ("right edge", "corner") else u * width
                      for u, _, kind in segment], float)
        y = np.array([height if kind in ("bottom edge", "corner") else v * height
                      for _, v, kind in segment], float)
        valid = np.array([kind != "lost" for *_, kind in segment], bool)
        x[~valid] = np.nan
        y[~valid] = np.nan
        count_points(heat.grid, x[valid], y[valid], cell_px)
        pooled.extend(zip(x[valid].tolist(), y[valid].tolist()))
    assert np.array_equal(heat.grid, heatmap_grid(pooled, screen, cell_px).grid)
    rows, cols = heat.grid.shape
    per_point = np.zeros((rows, cols), np.int64)
    for px, py in pooled:
        per_point[min(int(py // cell_px), rows - 1), min(int(px // cell_px), cols - 1)] += 1
    assert np.array_equal(heat.grid, per_point)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 12), cols=st.integers(1, 200), peak=st.integers(0, 10**6),
       seed=st.integers(0, 2**32 - 1))
def test_heatmap_writers_match_cellwise_oracle(tmp_path_factory, rows, cols, peak, seed):
    # Counts spread over 0..peak give PGM values of one to three digits, so
    # rows wrap at every possible position around the 70-character limit.
    rng = np.random.default_rng(seed)
    grid = rng.integers(0, peak + 1, size=(rows, cols)) * rng.integers(0, 2, size=(rows, cols))
    hm = Heatmap(grid=grid, cell_px=10, total=int(grid.sum()))
    path = tmp_path_factory.mktemp("heatmap") / "h"
    for write, oracle in ((write_heatmap_csv, cellwise_heatmap_csv),
                          (write_heatmap_pgm, cellwise_heatmap_pgm)):
        write(hm, path)
        assert path.read_bytes() == oracle(hm).encode()


def test_heatmap_writers_match_cellwise_oracle_on_screen_grid(tmp_path):
    rng = np.random.default_rng(5)
    points = np.column_stack((rng.normal(960, 300, 20000), rng.normal(540, 200, 20000)))
    hm = heatmap_grid(points, screen=(1920, 1080))
    assert hm.grid.shape == (108, 192)
    for write, oracle in ((write_heatmap_csv, cellwise_heatmap_csv),
                          (write_heatmap_pgm, cellwise_heatmap_pgm)):
        write(hm, tmp_path / "h")
        assert (tmp_path / "h").read_bytes() == oracle(hm).encode()


class TestScaleCovariance:
    @given(st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_zone_assignment_covariant_under_integer_scaling(self, factor):
        # Scaling points and centers by the same factor preserves the
        # argmin, exactly, for integer-valued inputs.
        base = default_zone_model()
        scaled = ZoneModel(
            centers=tuple((x * factor, y * factor) for x, y in base.centers),
            labels=base.labels,
        )
        rng = np.random.default_rng(factor)
        for x, y in zip(rng.integers(0, 1921, 50), rng.integers(0, 1081, 50)):
            assert assign_zone((float(x), float(y)), base) == \
                assign_zone((float(x * factor), float(y * factor)), scaled)


class TestZoneModelCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "zones.csv"
        write_zone_model_csv(default_zone_model(), path)
        assert read_zone_model_csv(path) == default_zone_model()

    def test_header_and_order(self, tmp_path):
        path = tmp_path / "zones.csv"
        write_zone_model_csv(default_zone_model(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,label,x,y"
        assert lines[1] == "1,Aiming Cross-hair,960,540"
        assert len(lines) == 10
