"""Canonical text output shared by every writer.

Numbers are written in their shortest round-tripping form: integral
values below 1e15 without a decimal point, everything else as `repr`.
The column kernels give the same strings as `fmt_num` on each entry.
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
    """Write `text`, a str or an iterable of str blocks, as UTF-8; etk's only file writer.

    The blocks go to `<path>.tmp`, which is renamed over `path` at the
    end; on failure the temp file goes and the target keeps its old bytes.
    """
    blocks = [text] if isinstance(text, str) else text
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            for block in blocks:
                f.write(block.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
