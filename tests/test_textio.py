"""The distinct-value formatting kernel against column-by-column formatting.

`_fmt_distinct` formats each distinct value of a matrix once and spreads
the texts back. It must give exactly the strings `_fmt_column` gives for
each column, whatever the values repeat, their signs or their kind.
`column_by_column_windows_csv` is the `windows.csv` writer from before
the kernel, kept as the oracle of `cli._write_windows_csv`. A source scan
keeps `_write_text` the only function in etk that writes a file.
"""
import ast
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import etk
from etk.cli import _SessionDerived, _write_windows_csv
from etk.model import Cohort, PlayerMeta
from etk.textio import _fmt_column, _fmt_distinct
from etk.zones import WindowSeries, ZoneSequence, window_distributions

SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 1 / 3, 2 / 3, 1e15, -1e15,
           np.nextafter(1e15, 0), np.nextafter(-1e15, 0), np.nextafter(1e15, np.inf),
           float("nan"), -float("nan"), float("inf"), -float("inf"),
           5e-324, -5e-324, 2.2250738585072e-308, 2.0 ** 53, 123456789012345.0]


def by_column(matrix):
    return [_fmt_column(matrix[:, j]) for j in range(matrix.shape[1])]


cells = st.one_of(st.sampled_from(SPECIAL), st.floats(),
                  st.integers(-2**60, 2**60).map(float),
                  st.integers(0, 40).map(lambda c: c / 37))


@settings(max_examples=300, deadline=None)
@given(st.lists(cells, min_size=1, max_size=16), st.integers(0, 200),
       st.sampled_from([1, 2, 9]), st.integers(0, 2**32 - 1))
def test_distinct_matches_column_formatting(pool, n, k, seed):
    """Cells drawn from a small pool, so values repeat within and across columns."""
    picks = np.random.default_rng(seed).integers(0, len(pool), (n, k))
    matrix = np.array(pool, dtype=float)[picks]
    assert _fmt_distinct(matrix) == by_column(matrix)


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 8), st.sampled_from([1, 2, 9])),
              elements=cells))
def test_distinct_matches_column_formatting_on_any_matrix(matrix):
    assert _fmt_distinct(matrix) == by_column(matrix)


def test_special_values_and_shapes():
    special = np.array(SPECIAL)
    for matrix in (special.reshape(-1, 1), np.tile(special, (9, 1)).T,
                   np.resize(special, (7, 9)), np.empty((0, 9)), np.empty((0, 1))):
        assert _fmt_distinct(matrix) == by_column(matrix)
    assert _fmt_distinct(np.array([[0.0, -0.0], [-0.0, 0.0]])) == [["0", "0"], ["0", "0"]]
    assert _fmt_distinct(np.empty((0, 3))) == [[], [], []]


def test_flat_inverse_of_numpy_1(monkeypatch):
    """numpy 1.x returns `np.unique`'s inverse flat, numpy 2.x in the input's shape."""
    unique = np.unique

    def flat_unique(a, **kwargs):
        values, inverse = unique(a, **kwargs)
        return values, inverse.ravel()

    monkeypatch.setattr(np, "unique", flat_unique)
    matrix = np.resize(np.array(SPECIAL), (7, 9))
    assert _fmt_distinct(matrix) == by_column(matrix)


def test_strided_block_of_a_larger_matrix():
    matrix = np.arange(60, dtype=float).reshape(12, 5) / 7
    block = matrix[3:11:2, 1:]
    assert _fmt_distinct(block) == by_column(block)


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
    """A session whose windows come from a random 60 Hz zone track."""
    rng = np.random.default_rng(seed)
    times = np.arange(0.0, seconds, 1 / 60)
    seq = ZoneSequence(times, rng.integers(1, k + 1, len(times)), k, span=(0.0, seconds))
    windows = window_distributions(seq, window_s=5.0, hop_s=0.02)
    return _SessionDerived(
        meta=PlayerMeta(player_id, cohort, 1), screen=(1920, 1080), missing={},
        windows=windows, window_round=np.arange(len(windows), dtype=np.int64) // 1000,
        averaged=None, feature_rows=[], heat_points=np.empty((0, 2)), warnings=[])


def test_windows_csv_matches_column_by_column_writer(tmp_path):
    derived = [derived_session("am01", Cohort.AMATEUR, 100.0, 1),   # > 4096 windows
               derived_session("am02", Cohort.AMATEUR, 4.0, 2),     # no window
               derived_session("pro01", Cohort.PROFESSIONAL, 30.0, 3)]
    assert sum(len(d.windows) for d in derived) > 5000
    path = tmp_path / "windows.csv"
    _write_windows_csv(path, derived, 9)
    assert path.read_text() == column_by_column_windows_csv(derived, 9)


def test_windows_csv_without_windows(tmp_path):
    empty = WindowSeries.concat([], 2)
    derived = [_SessionDerived(
        meta=PlayerMeta("pro01", Cohort.PROFESSIONAL, 1), screen=(1920, 1080), missing={},
        windows=empty, window_round=np.empty(0, np.int64), averaged=None,
        feature_rows=[], heat_points=np.empty((0, 2)), warnings=[])]
    path = tmp_path / "windows.csv"
    _write_windows_csv(path, derived, 2)
    assert path.read_text() == column_by_column_windows_csv(derived, 2)


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
