"""The formatting kernels against per-cell formatting.

`_fmt_cells` builds decimal cells from digit tables and formats every
other distinct value of an array once, spreading the text back; each of
its cells must read as `fmt_num` of the entry (`_fmt_column` of each
column of a matrix), whatever the values repeat, their signs or their
kind, and an integer cell as `str` of the entry. `_join_rows` of a
(c, n, width) stack must give the bytes of its c columns listed one by
one (`listed_rows`).

Each CSV writer is checked byte for byte against the writer it replaced,
one Python string per cell, kept here as its oracle: `join_gaze_csv`,
`join_input_csv` and `join_hrm_txt` for the `ingest` writers, and the
`*_oracle` functions for `windows.csv`, `averages.csv`, `pca_model.csv`,
`pca_projections.csv`, `kde.csv`, `features.csv` and `zones.csv`. The
`ingest` writers, which format `_CHUNK_ROWS` rows at a time, are also
checked against the whole-file writers they replaced (`whole_*`), and
their traced memory must not grow with the row count. A source scan
keeps `_write_text` the only function in etk that writes a file, and
another keeps `_fmt_column` inside `textio`.
"""
import ast
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import etk
import etk.errors
from etk.cli import (KDE_FEATURES, _SessionDerived, _write_averages_csv, _write_kde_csv,
                     _write_pca_csvs, _write_windows_csv)
from etk.ingest import (GAZE_HEADER, INPUT_HEADER, write_gaze_csv, write_hrm_txt,
                        write_input_csv)
from etk.input_features import FeatureRow, write_feature_table
from etk.model import BeatSeries, Cohort, GazeSeries, InputSeries, PlayerMeta, key_names
from etk.numerics import fit_kde, fit_pca, kde_curve, project
from etk.synth import Scenario, default_profiles, generate_session
from etk.textio import (_CHUNK_ROWS, _byte_cells, _fmt_cells, _fmt_column, _join_rows,
                        _write_text, fmt_num)
from etk.zones import (WindowSeries, ZoneModel, ZoneSequence, average_distribution,
                       default_zone_model, window_distributions, write_zone_model_csv)

SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 1 / 3, 2 / 3, 1e15, -1e15,
           np.nextafter(1e15, 0), np.nextafter(-1e15, 0), np.nextafter(1e15, np.inf),
           float("nan"), -float("nan"), float("inf"), -float("inf"),
           5e-324, -5e-324, 2.2250738585072e-308, 2.0 ** 53, 123456789012345.0]


def by_column(matrix):
    return [_fmt_column(matrix[:, j]) for j in range(matrix.shape[1])]


def cell_texts(cells):
    """The text of each row of a NUL-padded byte-cell matrix."""
    return [bytes(row[row != 0]).decode() for row in cells]


def cell_columns(stack):
    """The texts of each (n, width) cell matrix of a (k, n, width) stack."""
    assert stack.dtype == np.uint8 and stack.ndim == 3
    return [cell_texts(cells) for cells in stack]


cells = st.one_of(st.sampled_from(SPECIAL), st.floats(),
                  st.integers(-2**60, 2**60).map(float),
                  st.integers(0, 40).map(lambda c: c / 37))


@settings(max_examples=300, deadline=None)
@given(st.lists(cells, min_size=1, max_size=16), st.integers(0, 200),
       st.sampled_from([1, 2, 9]), st.integers(0, 2**32 - 1))
def test_matrix_cells_match_column_formatting(pool, n, k, seed):
    """Cells drawn from a small pool, so values repeat within and across columns."""
    picks = np.random.default_rng(seed).integers(0, len(pool), (n, k))
    matrix = np.array(pool, dtype=float)[picks]
    assert cell_columns(_fmt_cells(matrix)) == by_column(matrix)


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 8), st.sampled_from([1, 2, 9])),
              elements=cells))
def test_matrix_cells_match_column_formatting_on_any_matrix(matrix):
    assert cell_columns(_fmt_cells(matrix)) == by_column(matrix)


def test_special_values_and_shapes():
    special = np.array(SPECIAL)
    for matrix in (special.reshape(-1, 1), np.tile(special, (9, 1)).T,
                   np.resize(special, (7, 9)), np.empty((0, 9)), np.empty((0, 1))):
        cells = _fmt_cells(matrix)
        assert cells.shape[:2] == matrix.shape[::-1]
        assert cell_columns(cells) == by_column(matrix)
    assert cell_columns(_fmt_cells(np.array([[0.0, -0.0], [-0.0, 0.0]]))) == [["0", "0"], ["0", "0"]]
    assert cell_columns(_fmt_cells(np.empty((0, 3)))) == [[], [], []]


def test_flat_inverse_of_numpy_1(monkeypatch):
    """numpy 1.x returns `np.unique`'s inverse flat, numpy 2.x in the input's shape."""
    unique = np.unique

    def flat_unique(a, **kwargs):
        values, inverse = unique(a, **kwargs)
        return values, inverse.ravel()

    monkeypatch.setattr(np, "unique", flat_unique)
    matrix = np.resize(np.array(SPECIAL), (7, 9))
    assert cell_columns(_fmt_cells(matrix)) == by_column(matrix)


def test_strided_block_of_a_larger_matrix():
    matrix = np.arange(60, dtype=float).reshape(12, 5) / 7
    block = matrix[3:11:2, 1:]
    assert cell_columns(_fmt_cells(block)) == by_column(block)


def test_integer_cells_are_exact_digits():
    ints = [0, 7, -7, 10, 99, -100, 10**12, 10**15 + 1, 2**53 + 1, 2**63 - 1, -2**63]
    for dtype in (np.int64, np.int32, np.uint64):
        values = [v for v in ints if np.iinfo(dtype).min <= v <= np.iinfo(dtype).max]
        assert cell_texts(_fmt_cells(np.array(values, dtype))) == list(map(str, values))
    assert cell_texts(_fmt_cells(np.array([2**64 - 1], np.uint64))) == [str(2**64 - 1)]
    assert cell_columns(_fmt_cells(np.arange(6).reshape(3, 2))) == [["0", "2", "4"], ["1", "3", "5"]]


@given(st.lists(st.integers(-2**63, 2**63 - 1), max_size=30))
def test_integer_cells_match_str(values):
    assert cell_texts(_fmt_cells(np.array(values, np.int64))) == list(map(str, values))


def column_by_column_windows_csv(derived, k):
    """`windows.csv` with every column formatted on its own by `_fmt_column`."""
    lines = ["player_id,cohort,round,window_index,window_start,"
             + ",".join(f"p{i}" for i in range(1, k + 1))]
    for d in derived:
        w = d.windows
        columns = [_fmt_column(w.start), *(_fmt_column(w.probs[:, j]) for j in range(k))]
        for i, texts in enumerate(zip(*columns)):
            lines.append(f"{d.meta.player_id},{d.meta.cohort.value},{d.window_round[i]},"
                         f"{w.index[i]}," + ",".join(texts))
    return "\n".join(lines) + "\n"


def derived_session(player_id, cohort, seconds, seed, k=9):
    """A session whose windows come from a random 60 Hz zone track.

    Its feature rows cover three rounds of two KDE features and one
    other feature, with values that repeat, have three decimals or more.
    """
    rng = np.random.default_rng(seed)
    times = np.arange(0.0, seconds, 1 / 60)
    seq = ZoneSequence(times, rng.integers(1, k + 1, len(times)), k, span=(0.0, seconds))
    windows = window_distributions(seq, window_s=5.0, hop_s=0.02)
    values = iter(rng.choice([0.25, 1 / 3, 0.0, 0.125, 12.5, 1e-7], 9) + rng.integers(0, 2, 9))
    feature_rows = [FeatureRow(player_id, cohort.value, r, f, next(values)) for r in (1, 2, 3)
                    for f in (*KDE_FEATURES, "clicks_per_minute")]
    return _SessionDerived(
        meta=PlayerMeta(player_id, cohort, 1), missing={},
        windows=windows, window_round=np.arange(len(windows), dtype=np.int64) // 1000,
        averaged=average_distribution(windows.probs) if len(windows) else None,
        feature_rows=feature_rows, heat_cells=np.empty(0, np.int64),
        heat_counts=np.empty(0, np.int64), warnings=[], digests={})


def test_windows_csv_matches_column_by_column_writer(tmp_path):
    derived = [derived_session("am01", Cohort.AMATEUR, 100.0, 1),   # > 4096 windows
               derived_session("am02", Cohort.AMATEUR, 4.0, 2),     # no window
               derived_session("pro01", Cohort.PROFESSIONAL, 30.0, 3)]
    assert sum(len(d.windows) for d in derived) > 5000
    path = tmp_path / "windows.csv"
    _write_windows_csv(path, derived, 9)
    assert path.read_text() == column_by_column_windows_csv(derived, 9)


def test_windows_csv_keeps_the_digits_of_huge_round_indices(tmp_path):
    """A round index is an integer cell: 2**53 + 1 and -2**63 are not rounded as floats."""
    d = derived_session("\u00e1m01", Cohort.AMATEUR, 12.0, 1)
    rounds = np.resize(np.array([2**53 + 1, 10**15, -2**63, 2**63 - 1], np.int64), len(d.windows))
    derived = [replace(d, window_round=rounds)]
    _write_windows_csv(tmp_path / "windows.csv", derived, 9)
    assert (tmp_path / "windows.csv").read_text() == column_by_column_windows_csv(derived, 9)
    _write_pca_csvs(tmp_path, derived, 9)
    assert (tmp_path / "pca_projections.csv").read_text() == pca_csvs_oracle(derived, 9)[1]


def test_windows_csv_without_windows(tmp_path):
    empty = WindowSeries.concat([], 2)
    derived = [_SessionDerived(
        meta=PlayerMeta("pro01", Cohort.PROFESSIONAL, 1), missing={},
        windows=empty, window_round=np.empty(0, np.int64), averaged=None,
        feature_rows=[], heat_cells=np.empty(0, np.int64),
        heat_counts=np.empty(0, np.int64), warnings=[], digests={})]
    path = tmp_path / "windows.csv"
    _write_windows_csv(path, derived, 2)
    assert path.read_text() == column_by_column_windows_csv(derived, 2)


# ---------------------------------------------------------------------------
# `_fmt_cells` and the capture writers

def _around(x):
    """Values within a few ulps of x, and x plus a few thousandths."""
    return st.one_of(st.integers(-4, 4).map(lambda k: x + k * float(np.spacing(x))),
                     st.integers(-2000, 2000).map(lambda k: x + k / 1000))


numbers = st.one_of(
    st.sampled_from(SPECIAL),
    st.integers(-10**9, 10**9).map(lambda k: k / 100),
    st.integers(-10**9, 10**9).map(lambda k: k / 1000),
    st.integers(-10**15, 10**15).map(lambda k: k / 1000),
    st.integers(0, 10**7).map(lambda i: i / 60),
    st.integers(0, 10**7).map(lambda i: i / 100),
    *(_around(sign * x) for sign in (1, -1) for x in (1e12, 1e13, 1e14, 1e15)),
    st.floats())


@settings(max_examples=400, deadline=None)
@given(st.lists(numbers, max_size=40))
def test_cells_match_fmt_num(values):
    column = np.array(values, dtype=float)
    assert cell_texts(_fmt_cells(column)) == [fmt_num(v) for v in values]


def test_cells_of_special_and_short_columns():
    for values in (SPECIAL, [], [0.5], [-0.0], [float("nan")], [-1.25], [1e12 - 0.001],
                   [np.nextafter(1e12, 0)], [999999999999.999, -0.001, 0.0],
                   # Past 2**43 one ulp exceeds 0.001, and rint(v * 1000) can
                   # give a q with q / 1000 == v whose digits are not repr's.
                   [9000000000000.03, -100000000000000.02, 1e15]):
        column = np.array(values, dtype=float)
        cells = _fmt_cells(column)
        assert cells.dtype == np.uint8 and cells.shape[0] == len(values)
        assert cell_texts(cells) == [fmt_num(v) for v in values]
    assert cell_texts(_fmt_cells(np.array([-0.0, 0.0, -0.5, 0.5]))) == ["0", "0", "-0.5", "0.5"]
    assert cell_texts(_fmt_cells(np.array([0.1, 0.12, 0.123, 10.0]))) == ["0.1", "0.12", "0.123", "10"]


def test_join_rows():
    cells = [_fmt_cells(np.array([1.0, -0.25])), _fmt_cells(np.array([0.0, 2e-7]))]
    assert _join_rows(cells) == b"1,0\n-0.25,2e-07\n"
    assert _join_rows([np.zeros((2, 3), np.uint8)]) == b"\n\n"
    assert _join_rows([_fmt_cells(np.empty(0))] * 2) == b""


def test_join_rows_of_text_cells_and_blocks():
    block = _fmt_cells(np.array([[1.0, 0.5], [-2.0, 1 / 3]]))
    assert _join_rows(["k", _byte_cells(["\u00e1m", ""]), *block]) == \
        "k,\u00e1m,1,0.5\nk,,-2,0.3333333333333333\n".encode()
    assert _join_rows(["k", _byte_cells([]), *_fmt_cells(np.empty((0, 2)))]) == b""
    assert _byte_cells(["R\u00e1dar", ""]).tolist() == [list(b"R\xc3\xa1dar"), [0] * 6]


def listed_rows(parts, rows: int) -> bytes:
    """The CSV rows of `_join_rows` parts, each column listed on its own (the oracle)."""
    columns = []
    for part in parts:
        if isinstance(part, str):
            columns.append([part] * rows)
        elif part.ndim == 2:
            columns.append(cell_texts(part))
        else:
            columns.extend(cell_columns(part))
    return "".join(",".join(row) + "\n" for row in zip(*columns)).encode()


texts = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\0"), max_size=4)
int_cells = st.integers(-2**63, 2**63 - 1)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 5),
       st.lists(st.tuples(st.sampled_from(["str", "text column", "column", "stack"]),
                          st.integers(1, 3), st.booleans()), min_size=1, max_size=5))
def test_join_rows_of_a_stack_lists_its_columns(data, rows, kinds):
    """A (c, n, width) stack joins as its c columns given one by one; parts
    mix stacks, (n, width) columns and str cells, of ints and floats."""
    if all(kind == "str" for kind, *_ in kinds):
        kinds = [*kinds, ("stack", 1, True)]
    parts = []
    for kind, c, integral in kinds:
        if kind == "str":
            parts.append(data.draw(texts))
        elif kind == "text column":
            parts.append(_byte_cells(data.draw(st.lists(texts, min_size=rows, max_size=rows))))
        else:
            shape = (rows,) if kind == "column" else (rows, c)
            size = rows * (c if kind == "stack" else 1)
            drawn = data.draw(st.lists(int_cells if integral else cells,
                                       min_size=size, max_size=size))
            values = np.array(drawn, np.int64 if integral else np.float64).reshape(shape)
            parts.append(_fmt_cells(values))
    listed = [column for part in parts
              for column in (part if not isinstance(part, str) and part.ndim == 3 else [part])]
    assert _join_rows(parts) == _join_rows(listed) == listed_rows(parts, rows)


def test_join_rows_of_one_by_one_blocks():
    stack = _fmt_cells(np.array([[-7]]))
    assert stack.shape[:2] == (1, 1)
    assert _join_rows([stack]) == b"-7\n"
    assert _join_rows(["", stack, _fmt_cells(np.array([[np.nan, -np.inf]]))]) == b",-7,nan,-inf\n"


def test_write_text_takes_str_and_bytes(tmp_path):
    path = tmp_path / "f.txt"
    _write_text(path, b"raw\n")
    assert path.read_bytes() == b"raw\n"
    _write_text(path, ["h\u00e9\n", b"1,2\n"])
    assert path.read_bytes() == "h\u00e9\n1,2\n".encode()


def join_gaze_csv(series):
    xs, ys = _fmt_column(series.x), _fmt_column(series.y)
    for i in np.flatnonzero(~series.valid).tolist():
        xs[i] = ys[i] = ""
    rows = map(",".join, zip(_fmt_column(series.t), xs, ys))
    return "\n".join([GAZE_HEADER, *rows]) + "\n"


def join_input_csv(samples):
    masks = samples.keys.tolist()
    names = {mask: "+".join(key_names(mask)) for mask in set(masks)}
    rows = map(",".join, zip(_fmt_column(samples.t), _fmt_column(samples.mouse_x),
                             _fmt_column(samples.mouse_y), map(names.__getitem__, masks)))
    return "\n".join([INPUT_HEADER, *rows]) + "\n"


def join_hrm_txt(beats):
    return "".join(text + "\n" for text in _fmt_column(beats.beat_times))


def assert_writers_match(tmp_path, gaze, samples, beats):
    for write, oracle, value in ((write_gaze_csv, join_gaze_csv, gaze),
                                 (write_input_csv, join_input_csv, samples),
                                 (write_hrm_txt, join_hrm_txt, beats)):
        path = tmp_path / write.__name__
        write(value, path)
        assert path.read_bytes() == oracle(value).encode()


def test_writers_match_join_writers_on_a_synthetic_session(tmp_path):
    session = generate_session(default_profiles()[1], Scenario(rounds=2, round_s=15.0), seed=3,
                               meta=PlayerMeta("am01", Cohort.AMATEUR, 1))
    assert not session.gaze.valid.all() and (session.input.keys == 0).any()
    assert_writers_match(tmp_path, session.gaze, session.input, session.hrm)


def test_writers_match_join_writers_on_edge_sessions(tmp_path):
    t = np.array([0.0, 1 / 60, 0.05, 2.5, 1e13])
    gaze = GazeSeries(t, np.array([np.nan, 1.5, -0.0, 1920.0, 0.125]),
                      np.array([np.nan, 2 / 3, 0.0, np.nan, -7.0]),
                      np.array([False, True, True, False, True]))
    samples = InputSeries(t, np.array([0.0, 1.25, -3.5, 1e-9, 2.0]), np.array([1.0] * 5),
                          np.array([0, 3, 0, 1 << 16, 0], dtype=np.uint32))
    assert_writers_match(tmp_path, gaze, samples, BeatSeries(t))
    only_idle = InputSeries(t[:3], t[:3], t[:3], np.zeros(3, np.uint32))   # only empty keys cells
    all_lost = GazeSeries(t[:2], np.full(2, np.nan), np.full(2, np.nan), np.zeros(2, bool))
    assert_writers_match(tmp_path, all_lost, only_idle, BeatSeries(t[:1]))
    assert_writers_match(tmp_path, GazeSeries(), InputSeries(), BeatSeries())    # zero rows


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(numbers, numbers, numbers, st.booleans(),
                          st.integers(0, (1 << 17) - 1)), max_size=30))
def test_writers_match_join_writers_on_any_columns(tmp_path_factory, rows):
    t, x, y, valid, keys = (np.array(c) for c in zip(*rows)) if rows else [np.empty(0)] * 5
    gaze = GazeSeries(t, x, y, valid.astype(bool))
    samples = InputSeries(t, x, y, keys.astype(np.uint32))
    assert_writers_match(tmp_path_factory.mktemp("w"), gaze, samples, BeatSeries(y))


def whole_gaze_csv(series):
    """`write_gaze_csv` as it was before blocks: the whole file in one pass."""
    xy = _fmt_cells(np.column_stack((series.x, series.y)))
    xy[:, ~series.valid] = 0
    return (GAZE_HEADER + "\n").encode() + _join_rows([_fmt_cells(series.t), *xy])


def whole_input_csv(samples):
    masks, inverse = np.unique(samples.keys, return_inverse=True)
    names = _byte_cells(["+".join(key_names(mask)) for mask in masks.tolist()])
    columns = [_fmt_cells(samples.t), _fmt_cells(samples.mouse_x), _fmt_cells(samples.mouse_y),
               names.take(inverse, axis=0)]
    return (INPUT_HEADER + "\n").encode() + _join_rows(columns)


def whole_hrm_txt(beats):
    return _join_rows([_fmt_cells(beats.beat_times)])


def block_columns(n, seed=0):
    """(gaze, input, beats) of n rows on a 60 Hz time grid.

    Coordinates have two decimals, except in the third block of rows,
    where no value has three decimals or fewer (as no time has where i/60
    is not a multiple of 0.05); the second block of gaze is all lost.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 60
    x, y = rng.integers(0, 192_000, n) / 100, rng.integers(0, 108_000, n) / 100
    third = np.arange(n)[2 * _CHUNK_ROWS:3 * _CHUNK_ROWS]
    x[third], y[third] = np.pi * (third + 1), np.e * (third + 1)
    valid = rng.random(n) > 0.1
    valid[_CHUNK_ROWS:2 * _CHUNK_ROWS] = False
    keys = rng.choice(np.array([0, 1, 3, 1 << 16], np.uint32), n)
    return GazeSeries(t, x, y, valid), InputSeries(t, x, y, keys), BeatSeries(t)


@pytest.mark.parametrize("n", [0, 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 3 * _CHUNK_ROWS + 7])
def test_block_writers_match_whole_file_writers(tmp_path, n):
    gaze, samples, beats = block_columns(n)
    for write, whole, value in ((write_gaze_csv, whole_gaze_csv, gaze),
                                (write_input_csv, whole_input_csv, samples),
                                (write_hrm_txt, whole_hrm_txt, beats)):
        path = tmp_path / write.__name__
        write(value, path)
        assert path.read_bytes() == whole(value)
    if n > 3 * _CHUNK_ROWS:
        lines = (tmp_path / "write_gaze_csv").read_text().splitlines()[1:]
        assert all(line.endswith(",,") for line in lines[_CHUNK_ROWS:2 * _CHUNK_ROWS])
        q = np.rint(gaze.x[2 * _CHUNK_ROWS:3 * _CHUNK_ROWS] * 1000)
        assert not (q / 1000 == gaze.x[2 * _CHUNK_ROWS:3 * _CHUNK_ROWS]).any()


def traced_peak(write, value, path):
    """Bytes `write(value, path)` allocates at its peak, under tracemalloc."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        write(value, path)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_writer_memory_does_not_grow_with_rows(tmp_path):
    for write, pick in ((write_gaze_csv, 0), (write_input_csv, 1), (write_hrm_txt, 2)):
        small, large = (traced_peak(write, block_columns(n)[pick], tmp_path / "f")
                        for n in (40_000, 400_000))
        assert large < 2 * small, (write.__name__, small, large)


# ---------------------------------------------------------------------------
# The table writers against the writers they replaced

def averages_csv_oracle(derived, k):
    lines = ["player_id,cohort," + ",".join(f"p{i}" for i in range(1, k + 1))]
    for d in derived:
        if d.averaged is None:
            continue
        lines.append(f"{d.meta.player_id},{d.meta.cohort.value},"
                     + ",".join(fmt_num(p) for p in d.averaged))
    return "\n".join(lines) + "\n"


def pca_csvs_oracle(derived, k):
    """(pca_model.csv, pca_projections.csv), each window projected on its own."""
    model = fit_pca(np.concatenate([d.windows.probs for d in derived]))
    cols = ",".join(f"v{i}" for i in range(1, k + 1))
    lines = [f"row,{cols}", "mean," + ",".join(fmt_num(v) for v in model.mean)]
    for i, comp in enumerate(model.components, start=1):
        lines.append(f"component_{i}," + ",".join(fmt_num(v) for v in comp))
    lines.append("explained_variance," + ",".join(fmt_num(v) for v in model.explained_variance))
    lines.append("explained_ratio," + ",".join(fmt_num(v) for v in model.explained_ratio))
    rows = ["kind,player_id,cohort,round,window_index,pc1,pc2"]
    for d in derived:
        for i, probs in enumerate(d.windows.probs):
            x, y = project(model, probs, dims=2)
            rows.append(f"window,{d.meta.player_id},{d.meta.cohort.value},{d.window_round[i]},"
                        f"{d.windows.index[i]},{fmt_num(x)},{fmt_num(y)}")
    for d in derived:
        if d.averaged is not None:
            x, y = project(model, np.array(d.averaged), dims=2)
            rows.append(f"average,{d.meta.player_id},{d.meta.cohort.value},,,"
                        f"{fmt_num(x)},{fmt_num(y)}")
    return "\n".join(lines) + "\n", "\n".join(rows) + "\n"


def kde_csv_oracle(derived, bandwidth):
    lines = ["cohort,feature,x,density"]
    for cohort in Cohort:
        for feature in KDE_FEATURES:
            values = [r.value for d in derived if d.meta.cohort is cohort
                      for r in d.feature_rows if r.feature == feature]
            if len(values) < 2:
                continue
            try:
                xs, dens = kde_curve(fit_kde(values, bandwidth))
            except etk.errors.EtkError:
                continue
            for x, dv in zip(xs, dens):
                lines.append(f"{cohort.value},{feature},{fmt_num(x)},{fmt_num(dv)}")
    return "\n".join(lines) + "\n"


def features_csv_oracle(rows):
    lines = ["player_id,cohort,round,feature,value"]
    for r in rows:
        lines.append(f"{r.player_id},{r.cohort},{r.round_index},{r.feature},{fmt_num(r.value)}")
    return "\n".join(lines) + "\n"


def zones_csv_oracle(model):
    lines = ["k,label,x,y"]
    for i, ((x, y), label) in enumerate(zip(model.centers, model.labels), start=1):
        lines.append(f"{i},{label},{fmt_num(x)},{fmt_num(y)}")
    return "\n".join(lines) + "\n"


def assert_table_writers_match(out, derived, k):
    """Every pooled table of `derived` equals its oracle; PCA only where it fits."""
    _write_averages_csv(out / "averages.csv", derived, k)
    assert (out / "averages.csv").read_bytes() == averages_csv_oracle(derived, k).encode()
    for bandwidth in (None, 0.05, 1e-320):
        _write_kde_csv(out / "kde.csv", derived, bandwidth)
        assert (out / "kde.csv").read_bytes() == kde_csv_oracle(derived, bandwidth).encode()
    rows = [r for d in derived for r in d.feature_rows]
    write_feature_table(rows, out / "features.csv")
    assert (out / "features.csv").read_bytes() == features_csv_oracle(rows).encode()
    if sum(len(d.windows) for d in derived) >= 2:
        _write_pca_csvs(out, derived, k)
        model_csv, projections_csv = pca_csvs_oracle(derived, k)
        assert (out / "pca_model.csv").read_bytes() == model_csv.encode()
        assert (out / "pca_projections.csv").read_bytes() == projections_csv.encode()


def test_table_writers_match_oracles_on_non_ascii_ids(tmp_path):
    derived = [derived_session("\u00e1m03", Cohort.AMATEUR, 100.0, 1),   # > 4096 windows
               derived_session("am02", Cohort.AMATEUR, 4.0, 2),           # no window
               derived_session("pr\u00f601", Cohort.PROFESSIONAL, 30.0, 3),
               derived_session("pro\u4e8c", Cohort.PROFESSIONAL, 12.0, 4)]
    assert derived[1].averaged is None and len(derived[0].windows) > _CHUNK_ROWS
    assert_table_writers_match(tmp_path, derived, 9)
    lines = (tmp_path / "pca_projections.csv").read_text().splitlines()
    assert lines[-1].startswith("average,pro\u4e8c,professional,,,")
    assert not any(line.startswith("average,am02,") for line in lines)


def test_table_writers_match_oracles_on_header_only_output(tmp_path):
    """No window and no feature row: averages, kde and features hold only their header.

    PCA needs two windows and a zone model one center, so `pca_model.csv`,
    `pca_projections.csv` and `zones.csv` always hold a row.
    """
    derived = [derived_session("\u00e1m03", Cohort.AMATEUR, 4.0, 1),
               derived_session("pro01", Cohort.PROFESSIONAL, 4.0, 2)]
    for d in derived:
        d.feature_rows.clear()
    assert_table_writers_match(tmp_path, derived, 9)
    for name, header in (("averages.csv", "player_id,cohort,p1,p2,p3,p4,p5,p6,p7,p8,p9\n"),
                         ("kde.csv", "cohort,feature,x,density\n"),
                         ("features.csv", "player_id,cohort,round,feature,value\n")):
        assert (tmp_path / name).read_text() == header
    assert_table_writers_match(tmp_path, [], 2)


ids = st.sampled_from(["pro01", "\u00e1m03", "pr\u00f6", "p\u4e8c", "p\x7f"])
labels = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=","
                               ).filter(lambda c: c >= " "), max_size=8)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(ids, st.sampled_from(["amateur", "professional"]),
                          st.integers(-2**63, 2**63 - 1), st.sampled_from(KDE_FEATURES), numbers),
                max_size=20))
def test_features_csv_matches_oracle_on_any_rows(tmp_path_factory, rows):
    rows = [FeatureRow(*row) for row in rows]
    path = tmp_path_factory.mktemp("f") / "features.csv"
    write_feature_table(rows, path)
    assert path.read_bytes() == features_csv_oracle(rows).encode()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(labels, numbers, numbers), min_size=1, max_size=12,
                unique_by=(lambda z: z[0], lambda z: (z[1], z[2]))))
def test_zones_csv_matches_oracle_on_any_labels(tmp_path_factory, zones):
    model = ZoneModel(centers=tuple((x, y) for _, x, y in zones),
                      labels=tuple(label for label, _, _ in zones))
    path = tmp_path_factory.mktemp("z") / "zones.csv"
    write_zone_model_csv(model, path)
    assert path.read_bytes() == zones_csv_oracle(model).encode()


def test_zones_csv_matches_oracle_on_the_default_and_non_ascii_models(tmp_path):
    for model in (default_zone_model(),
                  ZoneModel(centers=((960.0, 540.0), (-0.5, 1e-7), (2 / 3, 1e15)),
                            labels=("R\u00e1dar", "", "\u00e1m \u4e8c & \u00e9"))):
        write_zone_model_csv(model, tmp_path / "zones.csv")
        assert (tmp_path / "zones.csv").read_bytes() == zones_csv_oracle(model).encode()


def _creates_file(call: ast.Call) -> bool:
    """Whether a call opens a file for writing, writes a path or renames over one."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_bytes", "write_text"):
        return True
    if name == "replace":
        return isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os"
    if name == "open":
        modes = [*call.args, *(k.value for k in call.keywords if k.arg == "mode")]
        return any(isinstance(m, ast.Constant) and isinstance(m.value, str)
                   and set(m.value) & set("wax+") for m in modes)
    return False


def test_only_textio_writes_files():
    """Every file etk writes goes through `textio._write_text`, atomically."""
    offenders = []
    for path in sorted(Path(etk.__file__).parent.glob("*.py")):
        if path.name == "textio.py":
            continue
        tree = ast.parse(path.read_text())
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and _creates_file(node)]
    assert offenders == []


def test_only_textio_formats_cells():
    """No module but `textio` formats a float column into per-cell strings."""
    offenders = []
    for path in sorted(Path(etk.__file__).parent.glob("*.py")):
        if path.name != "textio.py":
            tree = ast.parse(path.read_text())
            offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                          if isinstance(node, (ast.Name, ast.alias))
                          and getattr(node, "id", getattr(node, "name", None)) == "_fmt_column"]
    assert offenders == []
