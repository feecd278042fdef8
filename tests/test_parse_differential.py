"""The bulk gaze/input parsers against the line-at-a-time reference parsers.

Valid files are mutated (comments, CRLF, blank lines, bad UTF-8, bad or
non-finite tokens, wrong column counts, non-increasing times, unknown
keys), then parsed both ways with chunks of several sizes. Either both
yield the same columns bit for bit, or both raise the same `ParseError`.
"""
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings, strategies as st

from etk import ingest
from etk.errors import ParseError

GAZE_DTYPES = (np.float64, np.float64, np.float64, np.bool_)
INPUT_DTYPES = (np.float64, np.float64, np.float64, np.uint32)

COORD_TOKENS = ["960", "0", "1919.99", "12.5", "1e2", " 7", "+3", "1_0", "-0", "１"]
KEY_CELLS = ["", "W", "A+D", "W+MOUSE1", "MOUSE1+W", "W+W", "5", "SPACE+CTRL+SHIFT"]
BAD_TOKENS = ["abc", "nan", "inf", "-inf", "", "1e999", "0x10", "1,5", "--1", " 1"]
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
           "swap_rows", "header"]
    if kind == "input":
        ops.append("key")
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
        elif row is None:
            continue
        elif op == "token":
            cells = lines[row].split(b",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(BAD_TOKENS)).encode()
            lines[row] = b",".join(cells)
        elif op == "columns":
            lines[row] = draw(st.sampled_from([lines[row] + b",5", lines[row].rpartition(b",")[0]]))
        elif op == "repeat_row":
            lines.insert(row, lines[row])
        elif op == "swap_rows":
            other = draw(st.integers(1, len(lines) - 1))
            lines[row], lines[other] = lines[other], lines[row]
        elif op == "header":
            lines[0] = draw(st.sampled_from([b"t,x", b"T,x,y", b" t,x,y", b""]))
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


@settings(max_examples=200, deadline=None)
@given(capture_file("gaze"), CHUNK_SIZES)
def test_gaze_bulk_parser_matches_line_parser(case, chunk_bytes):
    data, benign = case
    with patch.object(ingest, "_CHUNK_BYTES", chunk_bytes):
        got = outcome(gaze_columns, data, GAZE_DTYPES)
        if benign:
            # never falls back on a valid file
            ingest._bulk_columns(data, ingest.GAZE_HEADER, 3, ingest._gaze_cells)
    assert got == outcome(ingest._gaze_columns_lines, data, GAZE_DTYPES)


@settings(max_examples=200, deadline=None)
@given(capture_file("input"), CHUNK_SIZES)
def test_input_bulk_parser_matches_line_parser(case, chunk_bytes):
    data, benign = case
    with patch.object(ingest, "_CHUNK_BYTES", chunk_bytes):
        got = outcome(input_columns, data, INPUT_DTYPES)
        if benign:
            ingest._bulk_columns(data, ingest.INPUT_HEADER, 4, ingest._input_cells)
    assert got == outcome(ingest._input_columns_lines, data, INPUT_DTYPES)
