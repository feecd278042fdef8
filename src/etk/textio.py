"""Canonical text output shared by every writer.

Numbers are written in their shortest round-tripping form: integral
values below 1e15 without a decimal point, everything else as `repr`.

Every CSV row is built here, a block of rows at a time, with no Python
string per cell: `_fmt_cells` formats a whole array of numbers into
NUL-padded byte cells, `_byte_cells` takes text cells as their UTF-8
bytes, and `_join_rows` adds the commas and newlines and drops every
NUL with one mask. A number with at most three decimals and a magnitude
below 1e12 is assembled from digit tables; every other one is formatted
by `_fmt_column` once per distinct value, which pays where values
repeat, as window probabilities do. Writers of long tables format
`_CHUNK_ROWS` rows at a time (`_row_blocks`), and the heatmap writers
whole rows of about `_CHUNK_ROWS` cells, so their memory does not grow
with the table.
"""
from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

_CHUNK_ROWS = 4096    # rows (heatmaps: cells) formatted at a time by every long writer


def fmt_num(v: float) -> str:
    """Shortest decimal string that parses back to exactly `v`."""
    v = float(v)
    if v.is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _json_text(value) -> str:
    """`value` as every JSON file etk writes holds it: indented, keys sorted."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


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
    """Each text's UTF-8 bytes (no NUL among them) as a uint8 matrix, one NUL-padded row each."""
    cells = np.array([text.encode() for text in texts], dtype="S")
    return cells.view(np.uint8).reshape(len(cells), cells.itemsize)


def _fmt_cells(values: np.ndarray) -> np.ndarray:
    """`fmt_num` of each entry of a float array (`str` of an integer one) as NUL-padded bytes.

    An (n,) array gives an (n, width) matrix of cells, and an (n, c) one
    a (c, n, width) stack of them, one per column.

    A float entry v is decimal when q = rint(v * 1000) is below 1e15 in
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
    is formatted by `_fmt_column` once per distinct value: values that
    compare equal format alike (every NaN is "nan").
    """
    flat = np.ravel(values)
    if flat.dtype.kind in "iu":  # as uint64, |-2**63| is exact too
        decimal, negative, fraction = np.full(len(flat), True), flat < 0, 0
        whole = np.abs(flat).astype(np.uint64)
    else:
        flat = flat.astype(np.float64, copy=False)
        with np.errstate(over="ignore"):
            q = np.rint(flat * 1000.0)
        decimal = (np.abs(q) < 1e15) & (q / 1000.0 == flat)
        negative = q[decimal] < 0
        whole, fraction = np.divmod(np.abs(q[decimal]).astype(np.int64), 1000)
    pairs = (len(str(whole.max(initial=0))) + 1) // 2
    cells = np.empty((len(whole), pairs + 3), np.uint16)
    cells[:, 0] = negative * _MINUS
    cells[:, -2:] = _THOUSANDTHS.take(fraction, axis=0)
    # A digit shows when the value reaches its place; 0 shows its units digit.
    reach = np.maximum(whole, 1)
    rest = whole
    for j in range(pairs, 0, -1):
        place = 100 ** (pairs - j)  # the place value of this pair's last digit
        high = rest // 100
        shown = 100 * (reach >= place) + 100 * (reach >= 10 * place)
        cells[:, j] = _PAIRS.take((rest - high * 100).astype(np.int64) + shown)
        rest = high
    cells = cells.view(np.uint8)
    if not decimal.all():
        # `inverse` is flat under numpy 1 and 2 alike, as `flat` is 1-D.
        distinct, inverse = np.unique(flat[~decimal], return_inverse=True)
        other = _byte_cells(_fmt_column(distinct))
        out = np.zeros((len(flat), max(cells.shape[1], other.shape[1])), np.uint8)
        out[decimal, :cells.shape[1]] = cells
        out[~decimal, :other.shape[1]] = other.take(inverse, axis=0)
        cells = out
    return np.moveaxis(cells.reshape(*np.shape(values), cells.shape[1]), 0, -2)


def _join_rows(columns: list) -> bytes:
    """CSV rows of byte-cell columns: "," between cells, "\n" after each row, NULs dropped.

    A part of `columns` is one column's (n, width) cell matrix, a
    (c, n, width) stack of c of them as from `_fmt_cells`, or a str: that
    text cell in every row. Not every part is a str. Each part is copied
    into the rows with one array operation, whatever its column count.
    """
    rows = next(np.shape(cells)[-2] for cells in columns if not isinstance(cells, str))
    stacks = [_byte_cells([cells])[None] if isinstance(cells, str)
              else cells[None] if cells.ndim == 2 else cells for cells in columns]
    widths = [len(stack) * (stack.shape[2] + 1) for stack in stacks]
    out = np.empty((rows, sum(widths)), np.uint8)
    lo = 0
    for stack, width in zip(stacks, widths):
        part = out[:, lo:lo + width].reshape(rows, len(stack), stack.shape[2] + 1)  # a view
        part[:, :, :-1] = stack.transpose(1, 0, 2)
        part[:, :, -1] = ord(",")
        lo += width
    out[:, -1] = ord("\n")
    return out[out != 0].tobytes()


def _row_blocks(n: int, cols: int = 1):
    """Slices of consecutive rows covering `range(n)`, in order, each of
    `_CHUNK_ROWS` cells of `cols` columns (at least one row)."""
    step = max(1, _CHUNK_ROWS // cols)
    return (slice(lo, lo + step) for lo in range(0, n, step))


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
