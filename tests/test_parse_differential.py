"""The bulk gaze/input parsers against the line-at-a-time reference parsers.

Valid files are mutated (comments, CRLF, blank lines, bad UTF-8, bad or
non-finite tokens, wrong column counts, non-increasing times, unknown
keys, stray CR, NUL and separator controls, lines of spaces, lost gaze
samples whose other cell is bad), then parsed both ways with chunks of
several sizes. Either both yield the same columns bit for bit, or both
raise the same `ParseError`. The tokens include those on which
`np.loadtxt` and `float` disagree: `1_0`, non-ASCII digits and a
U+001C..U+001F control around a number.
"""
from unittest.mock import patch

import numpy as np
from hypothesis import example, given, settings, strategies as st

from etk import ingest
from etk.errors import ParseError

GAZE_DTYPES = (np.float64, np.float64, np.float64, np.bool_)
INPUT_DTYPES = (np.float64, np.float64, np.float64, np.uint32)

COORD_TOKENS = ["960", "0", "1919.99", "12.5", "1e2", " 7", "+3", "1_0", "-0", "１", "١", ".5",
                "1.", "7\x0b"]
KEY_CELLS = ["", "W", "A+D", "W+MOUSE1", "MOUSE1+W", "W+W", "5", "SPACE+CTRL+SHIFT"]
BAD_TOKENS = ["abc", "nan", "inf", "-inf", "", "1e999", "0x10", "1,5", "--1", " 1",
              "-nan", "1\x002", "\x00", "\x1c7", "7\x1f", "   "]
BAD_KEYS = ["W+XX", "W++A", "w", "+", "MOUSE3"]
# Mutations that leave a file valid: the bulk path must take them itself.
BENIGN = ("comment", "blank", "crlf")


@st.composite
def capture_file(draw, kind: str):
    """(data, benign): a mutated capture file and whether it is still valid."""
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
    benign = True
    for op in draw(st.lists(st.sampled_from(ops), max_size=4)):
        at = draw(st.integers(0, len(lines)))
        row = draw(st.integers(1, max(1, len(lines) - 1))) if len(lines) > 1 else None
        benign = benign and op in BENIGN
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
    data = b"\n".join(lines) + draw(st.sampled_from([b"\n", b""]))
    return data, benign


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


CHUNK_SIZES = st.sampled_from([1, 9, 64, ingest._CHUNK_BYTES])

# Rows on which `np.loadtxt` and `float` disagree, or a lost gaze sample
# meets a nan, inf or malformed cell: too rare in `capture_file` draws
# to leave to chance. (data rows, benign)
GAZE_EXAMPLES = [
    (b"0,nan,5\n", False), (b"0,nan,\n", False), (b"0,,nan\n", False),
    (b"0,-nan,\n0.5,,1\n", False), (b"0,1e999,5\n", False), (b"0,1e999,\n", False),
    (b"0,,abc\n", False), (b"0,1_0,\xd9\xa1\n0.5,,\n", True), (b"0,\x1c7,5\n", False),
    (b"0,1\r2,5\n", False), (b"0,1\x002,5\n", False), (b"   \n", False), (b"0,5,5,\n", False),
    (b"\n\n", True), (b"0,1,2\n \t\n0.5,,\n", False),
]
INPUT_EXAMPLES = [
    (b"0,1,2,W,x\n", False), (b"0,1,2\n", False), (b"0,1\r2,3,W\n", False),
    (b"0,1,2,W\x00\n", False), (b"0,-nan,2,W\n", False), (b"0,1e999,2,\n", False),
    (b"0,1_0,\xd9\xa1,A+D\n", True), (b"0,1,2,W\n0.5,\x1c7,2,\n", False), (b"   \n", False),
    (b"\n\n", True), (b"0,1,2,W\n\t  \r\n0.5,1,2,\n", False),
]


def with_examples(header: bytes, cases):
    """Also run each of `cases` under `header`, at the smallest and the default chunk size."""
    def apply(test):
        for rows, benign in cases:
            for chunk_bytes in (1, ingest._CHUNK_BYTES):
                test = example((header + b"\n" + rows, benign), chunk_bytes)(test)
        return test
    return apply


@settings(max_examples=200, deadline=None)
@given(capture_file("gaze"), CHUNK_SIZES)
@with_examples(b"t,x,y", GAZE_EXAMPLES)
def test_gaze_bulk_parser_matches_line_parser(case, chunk_bytes):
    data, benign = case
    with patch.object(ingest, "_CHUNK_BYTES", chunk_bytes):
        got = outcome(gaze_columns, data, GAZE_DTYPES)
        if benign:
            # never falls back on a valid file
            ingest._gaze_columns_bulk(data)
    assert got == outcome(ingest._gaze_columns_lines, data, GAZE_DTYPES)


@settings(max_examples=200, deadline=None)
@given(capture_file("input"), CHUNK_SIZES)
@with_examples(b"t,mouse_x,mouse_y,keys", INPUT_EXAMPLES)
def test_input_bulk_parser_matches_line_parser(case, chunk_bytes):
    data, benign = case
    with patch.object(ingest, "_CHUNK_BYTES", chunk_bytes):
        got = outcome(input_columns, data, INPUT_DTYPES)
        if benign:
            ingest._input_columns_bulk(data)
    assert got == outcome(ingest._input_columns_lines, data, INPUT_DTYPES)
