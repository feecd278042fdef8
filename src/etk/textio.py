"""Canonical text output shared by every writer.

Numbers are written in their shortest round-tripping form: integral
values below 1e15 without a decimal point, everything else as `repr`.
The column kernels give the same strings as `fmt_num` on each entry.

The capture writers format whole columns into NUL-padded byte matrices
(`_fmt_cells`) and join them into rows with one mask (`_join_rows`), so
no Python string is built per cell. A value with at most three decimals
and a magnitude below 1e12, as synth's coordinates, input times and
beat times are, is assembled from digit tables; its text is the one
`repr` gives, because no shorter decimal lies within one ulp of it (see
`_fmt_cells`). Every other value is formatted by `_fmt_column`.
"""
from __future__ import annotations

import os
from pathlib import Path

import numpy as np


def fmt_num(v: float) -> str:
    """Shortest decimal string that parses back to exactly `v`."""
    v = float(v)
    if v.is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _fmt_column(column: np.ndarray) -> list[str]:
    """`fmt_num` of every entry of a float column."""
    out = list(map(repr, column.tolist()))
    integral = np.flatnonzero((column == np.trunc(column)) & (np.abs(column) < 1e15))
    for i, text in zip(integral.tolist(), map(str, column[integral].astype(np.int64).tolist())):
        out[i] = text
    return out


# The decimal cells are built two bytes at a time. `_PAIRS[shown * 100 + d]`
# is the pair of digits of d ("00".."99") with only its last `shown` (0, 1
# or 2) digits kept, the others NUL; `_THOUSANDTHS[f]` is ".ddd" for f
# thousandths with trailing zeros dropped (".5" for 500, nothing for 0),
# NUL-padded to 4 bytes; `_MINUS` is the pair NUL, "-".
_PAIRS = np.array([f"{d:02d}"[2 - shown:].rjust(2, "\0") for shown in range(3) for d in range(100)],
                  "S2").view(np.uint16)
_THOUSANDTHS = np.array([f".{f:03d}".rstrip("0").rstrip(".") for f in range(1000)],
                        "S4").view(np.uint16).reshape(1000, 2)
_MINUS = np.frombuffer(b"\0-", np.uint16)[0]


def _byte_cells(texts: list[str]) -> np.ndarray:
    """ASCII strings as a uint8 matrix, one NUL-padded row each."""
    cells = np.array(texts, dtype="S")
    return cells.view(np.uint8).reshape(len(cells), cells.itemsize)


def _fmt_cells(column: np.ndarray) -> np.ndarray:
    """`fmt_num` of each entry of a float column, as NUL-padded uint8 rows.

    An entry v is decimal when q = rint(v * 1000) is below 1e15 in
    magnitude and q / 1000 == v. Its text is built from q: "-" only when
    q < 0 (so -0.0 is "0"), the digits of |q| // 1000, and the
    thousandths without trailing zeros. That is `fmt_num(v)`:
    q / 1000 and `float` of the text are both the correctly rounded
    value of the same rational, so the text reads back as v; and below
    1e12 one ulp is under 0.001, while any decimal with fewer fraction
    digits lies at least 0.001 from this one, so no shorter text reads
    back as v too. `repr` prints those digits without an exponent for
    0.001 <= |v| < 1e16, and an integral v gets no fraction, as from
    `str(int(v))`. Every other entry (NaN, inf, integral values of
    1e12 and more, values with more decimals such as a 60 Hz time grid)
    is formatted by `_fmt_column`.
    """
    v = np.asarray(column, dtype=np.float64)
    with np.errstate(over="ignore"):
        q = np.rint(v * 1000.0)
    decimal = (np.abs(q) < 1e15) & (q / 1000.0 == v)
    signed = q[decimal]
    thousandths = np.abs(signed).astype(np.int64)
    whole = thousandths // 1000
    pairs = (len(str(whole.max(initial=0))) + 1) // 2
    cells = np.empty((len(signed), pairs + 3), np.uint16)
    cells[:, 0] = (signed < 0) * _MINUS
    cells[:, -2:] = _THOUSANDTHS.take(thousandths - whole * 1000, axis=0)
    # A digit shows when the value reaches its place; 0 shows its units digit.
    reach = np.maximum(whole, 1)
    rest = whole
    for j in range(pairs, 0, -1):
        place = 100 ** (pairs - j)  # the place value of this pair's last digit
        high = rest // 100
        shown = 100 * (reach >= place) + 100 * (reach >= 10 * place)
        cells[:, j] = _PAIRS.take(rest - high * 100 + shown)
        rest = high
    cells = cells.view(np.uint8)
    if decimal.all():
        return cells
    other = _byte_cells(_fmt_column(v[~decimal]))
    out = np.zeros((len(v), max(cells.shape[1], other.shape[1])), np.uint8)
    out[decimal, :cells.shape[1]] = cells
    out[~decimal, :other.shape[1]] = other
    return out


def _join_rows(columns: list[np.ndarray]) -> bytes:
    """CSV rows of byte-cell columns: "," between cells, "\n" after each row, NULs dropped."""
    comma = np.full((len(columns[0]), 1), ord(","), np.uint8)
    rows = np.concatenate([part for cells in columns for part in (cells, comma)], axis=1)
    rows[:, -1] = ord("\n")
    return rows[rows != 0].tobytes()


def _fmt_distinct(matrix: np.ndarray) -> list[list[str]]:
    """`_fmt_column` of each column of a 2-D float matrix, as a list of columns.

    Each distinct value is formatted once and its text spread to every
    cell that holds it. Values that compare equal format alike (0.0 and
    -0.0 are both "0", every NaN is "nan"), so merging them is exact.
    It pays where values repeat, as window probabilities do.
    """
    values, inverse = np.unique(matrix, return_inverse=True)
    texts = np.array(_fmt_column(values), dtype=object)
    # numpy 2.x returns `inverse` in the input's shape, numpy 1.x flat.
    return texts.take(inverse.reshape(matrix.shape)).T.tolist()


def _write_text(path, text) -> None:
    """Write `text`, a str, bytes or an iterable of such blocks; etk's only file writer.

    A str block is written as UTF-8, a bytes block as it is. The blocks
    go to `<path>.tmp`, which is renamed over `path` at the end; on
    failure the temp file goes and the target keeps its old bytes.
    """
    blocks = [text] if isinstance(text, (str, bytes)) else text
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            for block in blocks:
                f.write(block.encode("utf-8") if isinstance(block, str) else block)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
