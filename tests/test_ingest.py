"""Parser and writer behavior for the four capture formats."""
import hashlib
import json
import os
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etk import ingest
from etk.errors import AssemblyError, ParseError
from etk.ingest import (
    assemble_session,
    parse_demo_events,
    parse_gaze_log,
    parse_hrm_log,
    parse_input_log,
    read_session_dir,
    write_demo_events,
    write_gaze_csv,
    write_hrm_txt,
    write_input_csv,
    write_session_dir,
)
from etk.model import Cohort, EventKind, GazeSeries, InputSeries, PlayerMeta
from etk.textio import _fmt_column, fmt_num
from etk.zones import read_zone_model_csv
from conftest import gaze_rows, input_rows


def test_parse_gaze_happy_path():
    text = b"t,x,y\n0.000,960,540\n0.016,970,545\n"
    series = parse_gaze_log(text)
    assert len(series) == 2
    assert series.x[0] == 960.0
    assert series.t[1] == 0.016


def test_parse_gaze_empty_pair_is_invalid_sample():
    series = parse_gaze_log(b"t,x,y\n0.000,960,540\n0.033,,\n")
    assert not series.valid[1]
    assert series.t[1] == 0.033


def test_parse_gaze_malformed_number_names_line():
    with pytest.raises(ParseError) as exc:
        parse_gaze_log(b"t,x,y\nabc,1,2\n")
    assert exc.value.line == 2
    assert exc.value.kind == "gaze"


def test_parse_gaze_decreasing_timestamp_rejected():
    with pytest.raises(ParseError) as exc:
        parse_gaze_log(b"t,x,y\n0.5,1,1\n0.4,1,1\n")
    assert "increasing" in exc.value.message


def test_parse_gaze_duplicate_timestamp_rejected():
    with pytest.raises(ParseError):
        parse_gaze_log(b"t,x,y\n0.5,1,1\n0.5,2,2\n")


def test_parse_gaze_wrong_header_rejected():
    with pytest.raises(ParseError):
        parse_gaze_log(b"time,x,y\n0,1,2\n")


def test_parse_gaze_comments_and_blanks_skipped():
    series = parse_gaze_log(b"# capture v1\nt,x,y\n\n0.0,1,2\n# trailing\n")
    assert len(series) == 1


def test_whitespace_only_lines_are_blank_in_every_format():
    """A line of spaces or tabs is skipped like an empty line, before a header too."""
    assert parse_hrm_log(b"1.0\n  \n2.0\n\t\n").beat_times.tolist() == [1.0, 2.0]
    demo = b"round_start 0 1\nspawn 0 p1\nround_end 40 1\n"
    assert parse_demo_events(b"\t\n" + demo.replace(b"\n", b"\n \t \n", 1)) == \
        parse_demo_events(demo)
    gaze = b"t,x,y\n0,1,2\n0.5,,\n"
    assert gaze_rows(parse_gaze_log(b"  \n" + gaze.replace(b"2\n", b"2\n\t \r\n"))) == \
        gaze_rows(parse_gaze_log(gaze))
    samples = b"t,mouse_x,mouse_y,keys\n0,1,2,W\n0.5,1,2,\n"
    assert input_rows(parse_input_log(samples.replace(b"W\n", b"W\n   \n"))) == \
        input_rows(parse_input_log(samples))
    zones = b"k,label,x,y\n1,a,960,540\n2,b,100,100\n"
    assert read_zone_model_csv(b" \n" + zones.replace(b"540\n", b"540\n\t\n")) == \
        read_zone_model_csv(zones)


def test_parse_gaze_byte_offset_points_at_row():
    data = b"t,x,y\n0.0,1,2\nbroken\n"
    with pytest.raises(ParseError) as exc:
        parse_gaze_log(data)
    assert data[exc.value.byte_offset:].startswith(b"broken")


def test_parse_input_happy_path():
    samples = input_rows(parse_input_log(
        b"t,mouse_x,mouse_y,keys\n0.010,500,300,W+MOUSE1\n0.020,500,300,\n"))
    assert samples[0][3] == frozenset({"W", "MOUSE1"})
    assert samples[1][3] == frozenset()


def test_parse_input_unknown_key_rejected():
    with pytest.raises(ParseError) as exc:
        parse_input_log(b"t,mouse_x,mouse_y,keys\n0.030,500,300,W+XYZZY\n")
    assert "XYZZY" in exc.value.message


GAZE = b"t,x,y\n"
INPUT = b"t,mouse_x,mouse_y,keys\n"
DEMO = b"round_start 0 1\nspawn 0 p1\nround_end 40 1\n"
# (parser, data, kind, line, byte_offset, message): every field of the error.
PARSE_ERRORS = [
    (parse_gaze_log, b"", "gaze", 1, 0, "empty file: missing header"),
    (parse_gaze_log, b"# only a comment\n\n", "gaze", 1, 0, "empty file: missing header"),
    (parse_gaze_log, b"time,x,y\n0,1,2\n", "gaze", 1, 0,
     "expected header 't,x,y', got 'time,x,y'"),
    (parse_gaze_log, GAZE + b"0,1\n", "gaze", 2, 6, "expected 3 columns, got 2"),
    (parse_gaze_log, GAZE + b"0,1,2,3\n", "gaze", 2, 6, "expected 3 columns, got 4"),
    (parse_gaze_log, GAZE + b"0,1,2\nabc,1,2\n", "gaze", 3, 12, "malformed timestamp 'abc'"),
    (parse_gaze_log, GAZE + b"nan,1,2\n", "gaze", 2, 6, "non-finite timestamp 'nan'"),
    (parse_gaze_log, GAZE + b"1e999,,\n", "gaze", 2, 6, "non-finite timestamp '1e999'"),
    (parse_gaze_log, GAZE + b"0.5,1,1\n0.5,2,2\n", "gaze", 3, 14,
     "timestamp 0.5 is not strictly increasing (previous 0.5)"),
    (parse_gaze_log, b"# c\nt,x,y\r\n1,1,2\r\n0,1,2\r\n", "gaze", 4, 18,
     "timestamp 0.0 is not strictly increasing (previous 1.0)"),
    (parse_gaze_log, GAZE + b"0,zz,1\n", "gaze", 2, 6, "malformed x coordinate 'zz'"),
    (parse_gaze_log, GAZE + b"0,1,inf\n", "gaze", 2, 6, "non-finite y coordinate 'inf'"),
    (parse_gaze_log, GAZE + b"\xff\n", "gaze", 2, 6, "invalid UTF-8: 'utf-8' codec can't "
     "decode byte 0xff in position 0: invalid start byte"),
    (parse_input_log, b"", "input", 1, 0, "empty file: missing header"),
    (parse_input_log, GAZE, "input", 1, 0,
     "expected header 't,mouse_x,mouse_y,keys', got 't,x,y'"),
    (parse_input_log, INPUT + b"0,1,2\n", "input", 2, 23, "expected 4 columns, got 3"),
    (parse_input_log, INPUT + b"x1,1,2,W\n", "input", 2, 23, "malformed timestamp 'x1'"),
    (parse_input_log, INPUT + b"-inf,1,2,\n", "input", 2, 23, "non-finite timestamp '-inf'"),
    (parse_input_log, INPUT + b"1,0,0,\n0.5,0,0,\n", "input", 3, 30,
     "timestamp 0.5 is not strictly increasing (previous 1.0)"),
    (parse_input_log, INPUT + b"0,1e999,0,\n", "input", 2, 23, "non-finite mouse_x '1e999'"),
    (parse_input_log, INPUT + b"0,1,a,\n", "input", 2, 23, "malformed mouse_y 'a'"),
    (parse_input_log, INPUT + b"0,1,2,W+XYZZY\n", "input", 2, 23, "unknown key token 'XYZZY'"),
    (parse_input_log, INPUT + b"0,1,2,W++A\n", "input", 2, 23, "unknown key token ''"),
    (parse_input_log, INPUT + b"0,1,2,w\n", "input", 2, 23, "unknown key token 'w'"),
    (parse_input_log, INPUT + b"0,x,2,XYZZY\n", "input", 2, 23, "malformed mouse_x 'x'"),
    # The demo and hrm rules are the validator's, raised at the line of
    # the round (its round_start), event or beat they name; a syntax
    # error anywhere comes first.
    (parse_hrm_log, b"1.0\n0.9\n", "hrm", 2, 4, "beat time 0.9 not increasing (previous 1.0)"),
    (parse_hrm_log, b"1.0\n1.1\n", "hrm", 2, 4,
     "inter-beat interval 0.1000s implies pulse above 240 bpm"),
    (parse_hrm_log, b"1.0\n0.9\nx\n", "hrm", 3, 8, "malformed beat time 'x'"),
    (parse_demo_events, b"round_start 0 9223372036854775808\n", "demo", 1, 0,
     "round index '9223372036854775808' does not fit in 64 bits"),
    (parse_demo_events, DEMO + b"round_start 50 2\nround_end 60 -9223372036854775809\n",
     "demo", 5, 59, "round index '-9223372036854775809' does not fit in 64 bits"),
    (parse_demo_events, b"round_start 5 1\nspawn 5 p1\nround_end 5 1\n", "demo", 1, 0,
     "round 1 ends at 5.0 before it starts at 5.0"),
    (parse_demo_events, DEMO + b"round_start 30 2\nround_end 70 2\n", "demo", 4, 42,
     "round 2 overlaps the previous round"),
    (parse_demo_events, DEMO + b"round_start 40 1\nround_end 50 1\n", "demo", 4, 42,
     "duplicate round index 1"),
    (parse_demo_events, DEMO + b"death 50 p1\n", "demo", 4, 42,
     "death at t=50.0 lies outside every round"),
    (parse_demo_events, b"round_start 0 1\nspawn 0 p1\nkill 5 ghost p1\nround_end 40 1\n",
     "demo", 3, 27, "player 'ghost' never spawns"),
    (parse_demo_events, DEMO + b"death 50 p1\nround_start 9 1\n", "demo", 5, 54,
     "round 1 never ends"),
]


@pytest.mark.parametrize("parse,data,kind,line,offset,message", PARSE_ERRORS)
def test_parse_error_location_and_message(parse, data, kind, line, offset, message):
    with pytest.raises(ParseError) as exc:
        parse(data)
    e = exc.value
    assert (e.kind, e.line, e.byte_offset, e.message) == (kind, line, offset, message)


def test_parse_hrm_happy_path():
    beats = parse_hrm_log(b"1.0\n1.5\n2.0\n")
    assert beats.beat_times.tolist() == [1.0, 1.5, 2.0]


def test_parse_hrm_non_increasing_rejected():
    with pytest.raises(ParseError):
        parse_hrm_log(b"1.0\n0.9\n")


def test_parse_hrm_impossible_pulse_rejected():
    with pytest.raises(ParseError) as exc:
        parse_hrm_log(b"1.0\n1.1\n")
    assert "240" in exc.value.message


def test_parse_demo_happy_path():
    text = (b"round_start 0 1\nspawn 0 p1\ndeath 25 p1\nround_end 40 1\n")
    timeline = parse_demo_events(text)
    assert len(timeline.rounds) == 1
    assert [e.kind for e in timeline.events] == [EventKind.SPAWN, EventKind.DEATH]


def test_parse_demo_twelve_rounds():
    lines = []
    for i in range(12):
        lines.append(f"round_start {i * 40} {i + 1}")
        lines.append(f"spawn {i * 40} p1")
        lines.append(f"round_end {(i + 1) * 40} {i + 1}")
    timeline = parse_demo_events("\n".join(lines).encode())
    assert len(timeline.rounds) == 12


def test_parse_demo_round_index_spans_int64():
    lo, hi = -(1 << 63), (1 << 63) - 1
    text = (f"round_start 0 {lo}\nspawn 0 p1\nround_end 40 {lo}\n"
            f"round_start 40 {hi}\nround_end 80 {hi}\n")
    assert [r.index for r in parse_demo_events(text.encode()).rounds] == [lo, hi]


def test_parse_demo_event_outside_round_rejected():
    text = b"round_start 0 1\nspawn 0 p1\nround_end 40 1\ndeath 50 p1\n"
    with pytest.raises(ParseError) as exc:
        parse_demo_events(text)
    assert "outside" in exc.value.message


def test_parse_demo_unknown_kind_rejected():
    with pytest.raises(ParseError):
        parse_demo_events(b"round_start 0 1\nteleport 5 p1\nround_end 40 1\n")


def test_parse_demo_unspawned_player_rejected():
    text = b"round_start 0 1\nspawn 0 p1\nkill 5 p1 ghost\nround_end 40 1\n"
    with pytest.raises(ParseError) as exc:
        parse_demo_events(text)
    assert "ghost" in exc.value.message


def test_parse_demo_overlapping_rounds_rejected():
    text = b"round_start 0 1\nspawn 1 p1\nround_end 40 1\nround_start 30 2\nround_end 70 2\n"
    with pytest.raises(ParseError):
        parse_demo_events(text)


def test_parse_demo_unclosed_round_rejected():
    with pytest.raises(ParseError) as exc:
        parse_demo_events(b"round_start 0 1\nspawn 0 p1\n")
    assert "never ends" in str(exc.value)


def test_assemble_session_rejects_clock_offset(tiny_session):
    bad_gaze = parse_gaze_log(b"t,x,y\n0.0,1,1\n500.0,2,2\n")
    with pytest.raises(AssemblyError) as exc:
        assemble_session(tiny_session.meta, bad_gaze, InputSeries(), tiny_session.timeline,
                         None)
    assert exc.value.violations


def test_assemble_session_hrm_optional(tiny_session):
    session = assemble_session(tiny_session.meta, tiny_session.gaze,
                               tiny_session.input, tiny_session.timeline, None)
    assert session.hrm is None


def test_write_parse_round_trip_structural(tiny_session, tmp_path):
    path = tmp_path / "gaze.csv"
    write_gaze_csv(tiny_session.gaze, path)
    reparsed = parse_gaze_log(path.read_bytes())
    assert gaze_rows(reparsed) == gaze_rows(tiny_session.gaze)

    path = tmp_path / "input.csv"
    write_input_csv(tiny_session.input, path)
    assert input_rows(parse_input_log(path.read_bytes())) == input_rows(tiny_session.input)

    path = tmp_path / "hrm.txt"
    write_hrm_txt(tiny_session.hrm, path)
    assert (parse_hrm_log(path.read_bytes()).beat_times.tolist()
            == tiny_session.hrm.beat_times.tolist())

    path = tmp_path / "demo.events"
    write_demo_events(tiny_session.timeline, path)
    reparsed = parse_demo_events(path.read_bytes())
    assert reparsed.rounds == tiny_session.timeline.rounds
    assert reparsed.events == sorted(
        tiny_session.timeline.events,
        key=lambda e: (e.t, {"spawn": 2, "weapon_fire": 3, "kill": 4, "death": 5}[e.kind.value],
                       e.subject, e.object or ""))


def test_session_dir_round_trip(tmp_path, tiny_session):
    d = write_session_dir(tiny_session, tmp_path / "s1")
    session = read_session_dir(d)
    assert session.meta == tiny_session.meta
    assert gaze_rows(session.gaze) == gaze_rows(tiny_session.gaze)
    assert input_rows(session.input) == input_rows(tiny_session.input)
    assert session.hrm.beat_times.tolist() == tiny_session.hrm.beat_times.tolist()


@pytest.mark.parametrize("rate", [120.0, 59.94])
def test_session_dir_round_trip_keeps_meta_json(tmp_path, tiny_session, rate):
    """A screen and tracker rate other than the defaults are read and written back alike."""
    d = write_session_dir(tiny_session, tmp_path / "s1")
    written = json.dumps({"cohort": "professional", "gaze_rate_hz": rate, "n": 1,
                          "player_id": "p1", "screen": [1280, 720]}, indent=2, sort_keys=True)
    (d / "meta.json").write_text(written + "\n")
    session = read_session_dir(d)
    assert session.meta == replace(tiny_session.meta, screen=(1280, 720), gaze_rate_hz=rate)
    again = write_session_dir(session, tmp_path / "s2")
    assert (again / "meta.json").read_bytes() == (d / "meta.json").read_bytes()


def test_read_session_dir_missing_files(tmp_path):
    (tmp_path / "incomplete").mkdir()
    with pytest.raises(AssemblyError) as exc:
        read_session_dir(tmp_path / "incomplete")
    assert "missing" in str(exc.value)


def test_fmt_num_integers_have_no_decimal_point():
    assert fmt_num(40.0) == "40"
    assert fmt_num(-3.0) == "-3"
    assert fmt_num(0.5) == "0.5"


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False))
def test_fmt_num_round_trips_exactly(value):
    assert float(fmt_num(value)) == value


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 1e6, allow_nan=False),
                          st.floats(0, 1920, allow_nan=False),
                          st.floats(0, 1080, allow_nan=False)),
                min_size=0, max_size=30))
def test_gaze_write_parse_write_is_byte_identical(tmp_path_factory, rows):
    rows = sorted({r[0]: r for r in rows}.values())
    from conftest import make_gaze
    series = make_gaze(rows)
    d = tmp_path_factory.mktemp("gaze")
    first, second = d / "first.csv", d / "second.csv"
    write_gaze_csv(series, first)
    write_gaze_csv(parse_gaze_log(first.read_bytes()), second)
    assert first.read_bytes() == second.read_bytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.integers(-2**60, 2**60).map(float),
                          st.sampled_from([0.0, -0.0, 1e15, -1e15, 1e15 - 1, 0.5])),
                max_size=20))
def test_column_formatting_matches_fmt_num(values):
    assert _fmt_column(np.array(values, dtype=float)) == [fmt_num(v) for v in values]


def parse_peak_ratio(parse, source) -> float:
    """Peak bytes `parse(source)` allocates, under tracemalloc, over its column bytes."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        series = parse(source)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peak / sum(getattr(series, name).nbytes for name in series._COLUMNS)


@pytest.fixture(scope="module")
def long_captures(tmp_path_factory):
    """A 400,000-row gaze.csv and input.csv in the writers' form."""
    d = tmp_path_factory.mktemp("long")
    n = 400_000
    rng = np.random.default_rng(7)
    t = np.arange(n) / 60
    x, y = rng.integers(0, 192_000, n) / 100, rng.integers(0, 108_000, n) / 100
    keys = rng.choice(np.array([0, 1, 3, 1 << 16], np.uint32), n)
    write_gaze_csv(GazeSeries(t, x, y, rng.random(n) > 0.05), d / "gaze.csv")
    write_input_csv(InputSeries(t, x, y, keys), d / "input.csv")
    return d


LONG_PARSERS = [(parse_gaze_log, "gaze.csv"), (parse_input_log, "input.csv")]


def test_parse_memory_stays_near_column_bytes(long_captures):
    """The bulk parsers fill each column in place: no chunk matrices pile up, no second copy."""
    for parse, name in LONG_PARSERS:
        ratio = parse_peak_ratio(parse, (long_captures / name).read_bytes())
        assert ratio < 1.25, (parse.__name__, ratio)


def test_parse_from_a_path_never_holds_the_file(long_captures):
    """Given a path, a parser reads the file a chunk at a time: the peak, the reads
    counted, stays near the column bytes, not at the file's bytes plus its columns."""
    for parse, name in LONG_PARSERS:
        ratio = parse_peak_ratio(parse, long_captures / name)
        assert ratio < 1.25, (parse.__name__, ratio)


def test_a_path_that_cannot_seek_is_read_whole():
    """A pipe named by a path cannot be rewound between the count and the parse, so it
    is read into memory first, as every path was before captures were streamed."""
    r, w = os.pipe()
    os.write(w, b"t,x,y\n0,1,2\n0.5,,\n")
    os.close(w)
    try:
        series = parse_gaze_log(f"/dev/fd/{r}")
    finally:
        os.close(r)
    assert gaze_rows(series) == [(0.0, 1.0, 2.0, True), (0.5, None, None, False)]


def session_files(tmp_path, session) -> Path:
    """`session` written to a directory, with several `_CHUNK_BYTES` to each capture."""
    d = write_session_dir(session, tmp_path / "s1")
    for name in ("gaze.csv", "input.csv"):
        assert (d / name).stat().st_size > 8 * ingest._CHUNK_BYTES
    return d


def same_columns(series, columns) -> bool:
    """Whether `series` holds the line parser's `columns`, bit for bit."""
    return all(getattr(series, name).tobytes() == np.asarray(column, dtype).tobytes()
               for (name, dtype), column in zip(series._COLUMNS.items(), columns))


def read_captures(d: Path):
    return ingest.read_session_captures(d, *ingest.read_session_head(d))


@pytest.mark.parametrize("name", ["gaze.csv", "input.csv"])
def test_a_last_chunk_that_falls_back_is_digested_whole(tmp_path, monkeypatch, tiny_session,
                                                        name):
    """A CRLF only on the last line sends the parse to the line parser after every other
    chunk was read in bulk; the digest is still that of the whole file, read once more."""
    monkeypatch.setattr(ingest, "_CHUNK_BYTES", 1024)
    d = session_files(tmp_path, tiny_session)
    data = (d / name).read_bytes()
    data = data[:-1] + b"\r\n"
    (d / name).write_bytes(data)
    assert data.index(b"\r") > len(data) - 100
    session, digests = read_captures(d)
    assert digests[name] == hashlib.sha256(data).hexdigest()
    lines = {"gaze.csv": ingest._gaze_columns_lines, "input.csv": ingest._input_columns_lines}
    assert same_columns({"gaze.csv": session.gaze, "input.csv": session.input}[name],
                        lines[name](data))


@pytest.mark.parametrize("added", [1, 400])
def test_rows_added_after_the_count_are_parsed_with_their_digest(tmp_path, monkeypatch,
                                                                  tiny_session, added):
    """A gaze.csv that grows between the count pass and the parse pass parses to the
    columns of the bytes read, in bulk while they fit the columns counted, else by line."""
    monkeypatch.setattr(ingest, "_CHUNK_BYTES", 1024)
    d = session_files(tmp_path, tiny_session)
    rows = "".join(f"{80 + i / 1000!r},1,2\n" for i in range(added)).encode()
    count_lines = ingest._count_lines

    def growing(capture):
        lines = count_lines(capture)
        if Path(capture).name == "gaze.csv":
            with open(capture, "ab") as f:
                f.write(rows)
        return lines

    monkeypatch.setattr(ingest, "_count_lines", growing)
    session, digests = read_captures(d)
    data = (d / "gaze.csv").read_bytes()
    assert data.endswith(rows)
    assert digests["gaze.csv"] == hashlib.sha256(data).hexdigest()
    assert same_columns(session.gaze, ingest._gaze_columns_lines(data))
    assert len(session.gaze) == len(tiny_session.gaze) + added
