"""The bulk gaze/input parsers against the line-at-a-time reference parsers.

Valid files are mutated (comments, CRLF, blank lines, bad UTF-8, bad or
non-finite tokens, wrong column counts, non-increasing times, unknown
keys, stray CR, NUL and separator controls, lines of spaces, lost gaze
samples whose other cell is bad), then parsed both ways with chunks of
several sizes. Either both yield the same columns bit for bit, or both
raise the same `ParseError`. The tokens include those on which
`np.loadtxt` and `float` disagree: `1_0`, non-ASCII digits and a
U+001C..U+001F control around a number.

The bulk path takes exactly the writers' form; every file
`write_gaze_csv` or `write_input_csv` emits is parsed in bulk, with no
fallback, to the reference parser's columns.
"""
import io
import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from etk import ingest
from etk.errors import ParseError
from etk.ingest import GAZE_HEADER, INPUT_HEADER
from etk.model import KEY_ALPHABET, GazeSeries, InputSeries, _frozen_column

GAZE_DTYPES = (np.float64, np.float64, np.float64, np.bool_)
INPUT_DTYPES = (np.float64, np.float64, np.float64, np.uint32)

COORD_TOKENS = ["960", "0", "1919.99", "12.5", "1e2", " 7", "+3", "1_0", "-0", "１", "١", ".5",
                "1.", "7\x0b"]
KEY_CELLS = ["", "W", "A+D", "W+MOUSE1", "MOUSE1+W", "W+W", "5", "SPACE+CTRL+SHIFT"]
BAD_TOKENS = ["abc", "nan", "inf", "-inf", "", "1e999", "0x10", "1,5", "--1", " 1",
              "-nan", "1\x002", "\x00", "\x1c7", "7\x1f", "   "]
BAD_KEYS = ["W+XX", "W++A", "w", "+", "MOUSE3"]


@st.composite
def capture_file(draw, kind: str):
    """A capture file, mutated."""
    n = draw(st.integers(0, 12))
    step = draw(st.sampled_from([1 / 60, 0.01, 0.25, 1.0]))
    if kind == "gaze":
        lines = [b"t,x,y"]
        for i in range(n):
            x, y = draw(st.sampled_from(COORD_TOKENS)), draw(st.sampled_from(COORD_TOKENS))
            missing = draw(st.sampled_from([None, None, None, "both", "x", "y"]))
            if missing == "both":
                x = y = ""
            elif missing == "x":
                x = ""
            elif missing == "y":
                y = ""
            lines.append(f"{i * step!r},{x},{y}".encode())
    else:
        lines = [b"t,mouse_x,mouse_y,keys"]
        for i in range(n):
            x, y = draw(st.sampled_from(COORD_TOKENS)), draw(st.sampled_from(COORD_TOKENS))
            lines.append(f"{i * step!r},{x},{y},{draw(st.sampled_from(KEY_CELLS))}".encode())

    ops = ["comment", "blank", "crlf", "bad_utf8", "token", "columns", "repeat_row",
           "swap_rows", "header", "spaces", "byte"]
    ops.append("key" if kind == "input" else "half_lost")
    for op in draw(st.lists(st.sampled_from(ops), max_size=4)):
        at = draw(st.integers(0, len(lines)))
        row = draw(st.integers(1, max(1, len(lines) - 1))) if len(lines) > 1 else None
        if op == "comment":
            lines.insert(at, draw(st.sampled_from([b"# note", b"  # indented", b"#"])))
        elif op == "blank":
            lines.insert(at, draw(st.sampled_from([b"", b"\r", b"\r\r"])))
        elif op == "crlf":
            if at < len(lines):
                lines[at] += b"\r"
        elif op == "bad_utf8":
            lines.insert(at, draw(st.sampled_from([b"\xff", b"# caf\xc3", b"1,\xe2\x82,2"])))
        elif op == "spaces":
            lines.insert(at, draw(st.sampled_from([b" ", b"   ", b"\t"])))
        elif row is None:
            continue
        elif op == "token":
            cells = lines[row].split(b",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(BAD_TOKENS)).encode()
            lines[row] = b",".join(cells)
        elif op == "columns":
            lines[row] = draw(st.sampled_from([lines[row] + b",5", lines[row] + b",x",
                                               lines[row].rpartition(b",")[0]]))
        elif op == "byte":
            # a CR, NUL or separator control anywhere in a row
            cut = draw(st.integers(0, len(lines[row])))
            byte = draw(st.sampled_from([b"\r", b"\x00", b"\x1c", b"\x1f"]))
            lines[row] = lines[row][:cut] + byte + lines[row][cut:]
        elif op == "repeat_row":
            lines.insert(row, lines[row])
        elif op == "swap_rows":
            other = draw(st.integers(1, len(lines) - 1))
            lines[row], lines[other] = lines[other], lines[row]
        elif op == "header":
            lines[0] = draw(st.sampled_from([b"t,x", b"T,x,y", b" t,x,y", b""]))
        elif op == "half_lost":
            # a lost sample: the line parser never judges the other cell
            t = lines[row].partition(b",")[0]
            other = draw(st.sampled_from(BAD_TOKENS + COORD_TOKENS)).encode()
            lines[row] = b",".join([t, b"", other] if draw(st.booleans()) else [t, other, b""])
        elif op == "key":
            cells = lines[row].split(b",")
            cells[-1] = draw(st.sampled_from(BAD_KEYS)).encode()
            lines[row] = b",".join(cells)
    return b"\n".join(lines) + draw(st.sampled_from([b"\n", b""]))


def outcome(parse, data: bytes, dtypes):
    try:
        columns = parse(data)
    except ParseError as e:
        return ("error", e.kind, e.line, e.byte_offset, e.message)
    return ("ok",) + tuple(np.asarray(c, dtype=d).tobytes() for c, d in zip(columns, dtypes))


def gaze_columns(data: bytes):
    series = ingest.parse_gaze_log(data)
    return series.t, series.x, series.y, series.valid


def input_columns(data: bytes):
    series = ingest.parse_input_log(data)
    return series.t, series.mouse_x, series.mouse_y, series.keys


def gaze_bulk(data: bytes):
    return ingest._bulk_columns(ingest._Capture(io.BytesIO(data)), GAZE_HEADER, ingest._gaze_chunk)


def gaze_lines(data: bytes):
    return ingest._columns_lines(data, "gaze", GAZE_HEADER, ingest._gaze_row)


def input_bulk(data: bytes):
    return ingest._bulk_columns(ingest._Capture(io.BytesIO(data)), INPUT_HEADER,
                                ingest._input_chunk)


def input_lines(data: bytes):
    return ingest._columns_lines(data, "input", INPUT_HEADER, ingest._input_row)


# The bulk path alone (it raises `_Fallback` where a parse falls back) and the line parser.
PARSERS = {"gaze": (gaze_bulk, gaze_lines, GAZE_DTYPES),
           "input": (input_bulk, input_lines, INPUT_DTYPES)}
CHUNK_SIZES = st.sampled_from([1, 9, 64, ingest._CHUNK_BYTES])

# Rows on which `np.loadtxt` and `float` disagree, or a lost gaze sample
# meets a nan, inf or malformed cell: too rare in `capture_file` draws
# to leave to chance.
GAZE_EXAMPLES = [
    b"0,nan,5\n", b"0,nan,\n", b"0,,nan\n", b"0,-nan,\n0.5,,1\n", b"0,1e999,5\n",
    b"0,1e999,\n", b"0,,abc\n", b"0,1_0,\xd9\xa1\n0.5,,\n", b"0,\x1c7,5\n", b"0,1\r2,5\n",
    b"0,1\x002,5\n", b"   \n", b"0,5,5,\n", b"\n\n", b"0,1,2\n \t\n0.5,,\n",
]
INPUT_EXAMPLES = [
    b"0,1,2,W,x\n", b"0,1,2\n", b"0,1\r2,3,W\n", b"0,1,2,W\x00\n", b"0,-nan,2,W\n",
    b"0,1e999,2,\n", b"0,1_0,\xd9\xa1,A+D\n", b"0,1,2,W\n0.5,\x1c7,2,\n", b"   \n", b"\n\n",
    b"0,1,2,W\n\t  \r\n0.5,1,2,\n",
]


def with_examples(header: bytes, cases):
    """Also run each of `cases` under `header`, at the smallest and the default chunk size."""
    def apply(test):
        for rows in cases:
            for chunk_bytes in (1, ingest._CHUNK_BYTES):
                test = example(header + b"\n" + rows, chunk_bytes)(test)
        return test
    return apply


@settings(max_examples=200, deadline=None)
@given(capture_file("gaze"), CHUNK_SIZES)
@with_examples(b"t,x,y", GAZE_EXAMPLES)
def test_gaze_bulk_parser_matches_line_parser(data, chunk_bytes):
    with patch.object(ingest, "_CHUNK_BYTES", chunk_bytes):
        got = outcome(gaze_columns, data, GAZE_DTYPES)
    assert got == outcome(gaze_lines, data, GAZE_DTYPES)


@settings(max_examples=200, deadline=None)
@given(capture_file("input"), CHUNK_SIZES)
@with_examples(b"t,mouse_x,mouse_y,keys", INPUT_EXAMPLES)
def test_input_bulk_parser_matches_line_parser(data, chunk_bytes):
    with patch.object(ingest, "_CHUNK_BYTES", chunk_bytes):
        got = outcome(input_columns, data, INPUT_DTYPES)
    assert got == outcome(input_lines, data, INPUT_DTYPES)


# ---------------------------------------------------------------------------
# Files in the writers' form: always parsed in bulk

def same_columns(got, expected, dtypes) -> bool:
    """Bit-for-bit equality; the bulk path gives `()` for a file of only the header."""
    return (tuple(np.asarray(c, dtype=d).tobytes() for c, d in zip(got or expected, dtypes))
            == tuple(np.asarray(c, dtype=d).tobytes() for c, d in zip(expected, dtypes)))


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def written_file(draw, kind: str) -> bytes:
    """The bytes `write_gaze_csv` or `write_input_csv` emits for a valid series."""
    t = sorted(draw(st.lists(FINITE, max_size=40, unique=True)))
    n = len(t)
    x = np.array(draw(st.lists(FINITE, min_size=n, max_size=n)), np.float64)
    y = np.array(draw(st.lists(FINITE, min_size=n, max_size=n)), np.float64)
    if kind == "gaze":
        valid = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        x[~valid] = y[~valid] = np.nan
        series, write = GazeSeries(t, x, y, valid), ingest.write_gaze_csv
    else:
        keys = draw(st.lists(st.integers(0, (1 << len(KEY_ALPHABET)) - 1), min_size=n, max_size=n))
        series, write = InputSeries(t, x, y, np.array(keys, np.uint32)), ingest.write_input_csv
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / f"{kind}.csv"
        write(series, path)
        return path.read_bytes()


@pytest.mark.parametrize("kind", ["gaze", "input"])
@settings(max_examples=150, deadline=None)
@given(data=st.data(), chunk_bytes=CHUNK_SIZES)
def test_written_files_are_parsed_in_bulk(kind, data, chunk_bytes):
    written = data.draw(written_file(kind))
    bulk, lines, dtypes = PARSERS[kind]
    with patch.object(ingest, "_CHUNK_BYTES", chunk_bytes):
        assert same_columns(bulk(written), lines(written), dtypes)  # never falls back


# ---------------------------------------------------------------------------
# Edge files at the bulk path's allocation bound (one entry per line)

HEADERS = {"gaze": b"t,x,y", "input": b"t,mouse_x,mouse_y,keys"}


def data_rows(kind: str, n: int) -> list[bytes]:
    """n valid rows at 60 Hz; every seventh gaze sample is lost."""
    rows = []
    for i in range(n):
        xy = "," if kind == "gaze" and i % 7 == 3 else f"{i % 1920}.25,{i % 1080}"
        keys = "," + ("", "W", "A+D")[i % 3] if kind == "input" else ""
        rows.append(f"{i / 60!r},{xy}{keys}".encode())
    return rows


def edge_file(kind: str, case: str) -> bytes:
    header = HEADERS[kind]
    if case == "header_only":
        return header + b"\n"
    if case == "no_final_newline":
        return b"\n".join([header, *data_rows(kind, 5000)])
    if case == "trailing_blank_and_comments":
        return b"\n".join([header, *data_rows(kind, 5000)]) + b"\n\n# end\n  # note\n\n"
    if case == "crlf":
        return b"\r\n".join([header, *data_rows(kind, 5000)]) + b"\r\n"
    # the last chunk, and more than one chunk's worth, is all comments
    comments = (b"# " + b"c" * 98 + b"\n") * (2 * ingest._CHUNK_BYTES // 100)
    return b"\n".join([header, *data_rows(kind, 5000)]) + b"\n" + comments


@pytest.mark.parametrize("case", ["no_final_newline", "header_only"])
@pytest.mark.parametrize("kind", ["gaze", "input"])
def test_bulk_parser_fills_read_only_columns_like_line_parser(kind, case):
    bulk, lines, dtypes = PARSERS[kind]
    data = edge_file(kind, case)
    columns = bulk(data)  # never falls back on these files
    expected = lines(data)
    assert len(expected[0]) == (0 if case == "header_only" else 5000)
    assert same_columns(columns, expected, dtypes)
    for column in columns:
        assert not column.flags.writeable
        assert _frozen_column(column, column.dtype) is column


@pytest.mark.parametrize("case", ["trailing_blank_and_comments", "crlf", "comment_tail"])
@pytest.mark.parametrize("kind", ["gaze", "input"])
def test_valid_files_outside_the_writers_form_take_the_line_parser(kind, case):
    bulk, lines, dtypes = PARSERS[kind]
    data = edge_file(kind, case)
    with pytest.raises(ingest._Fallback):
        bulk(data)
    expected = lines(data)
    assert len(expected[0]) == 5000
    parse = {"gaze": gaze_columns, "input": input_columns}[kind]  # parse_*_log
    assert same_columns(parse(data), expected, dtypes)
