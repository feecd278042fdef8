"""Parsers and writers for the four session capture formats.

Formats (all UTF-8, `#`-prefixed comment lines ignored):

* ``gaze.csv``    — header ``t,x,y``; one row per gaze sample; an empty
  ``x,y`` pair marks a sample the tracker lost.
* ``input.csv``   — header ``t,mouse_x,mouse_y,keys``; ``keys`` is a
  ``+``-joined subset of the declared key alphabet, empty when idle.
* ``hrm.txt``     — one heart-beat timestamp per line.
* ``demo.events`` — space-separated game events:
  ``round_start <t> <index>``, ``round_end <t> <index>``,
  ``spawn <t> <player>``, ``death <t> <player>``,
  ``kill <t> <killer> <victim>``, ``weapon_fire <t> <player>``.

`gaze.csv` and `input.csv` hold nearly all the bytes of a session, so
their parsers read the whole file and convert it a chunk of a few
thousand rows at a time into columns (`GazeSeries`, `InputSeries`).
Cells are converted with Python's `float`, so the accepted tokens are
exactly those of the line-at-a-time parser that backs each of them.
When the bulk path meets anything it does not accept, that line parser
reruns over the file to report the failure as `ParseError` with the
1-based line number and byte offset. `hrm.txt` and `demo.events` are
small and parsed a line at a time. Writers emit a canonical form
(shortest round-tripping numbers, keys in alphabet order, events
sorted by time) so that write -> parse -> write is byte-identical.
"""
from __future__ import annotations

import io
import json
import math
import sys
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import AssemblyError, ParseError
from .model import (
    BeatSeries,
    Cohort,
    DEFAULT_GAZE_RATE_HZ,
    DEFAULT_SCREEN,
    EventKind,
    GameEvent,
    GazeSeries,
    InputSeries,
    MatchTimeline,
    MIN_BEAT_INTERVAL_S,
    PlayerMeta,
    Round,
    Session,
    key_mask,
    key_names,
    validate_session,
)
from .textio import _fmt_column, _write_text, fmt_num

GAZE_FILE = "gaze.csv"
INPUT_FILE = "input.csv"
HRM_FILE = "hrm.txt"
DEMO_FILE = "demo.events"
META_FILE = "meta.json"

GAZE_HEADER = "t,x,y"
INPUT_HEADER = "t,mouse_x,mouse_y,keys"

# The bulk parsers convert a chunk of about this many bytes (a few
# thousand rows) at a time, so the per-cell strings of a whole file
# never exist at once.
_CHUNK_BYTES = 1 << 16
_EMPTY_AS_NAN = {"": "nan"}

# Canonical ordering of demo lines sharing a timestamp.
_EVENT_RANK = {
    "round_end": 0,
    "round_start": 1,
    "spawn": 2,
    "weapon_fire": 3,
    "kill": 4,
    "death": 5,
}


def _read_bytes(source) -> bytes:
    """The whole content of a path or a bytes object."""
    if isinstance(source, (bytes, bytearray)):
        return bytes(source)
    return Path(source).read_bytes()


def _iter_lines(source, kind: str):
    """Yield (lineno, byte_offset, stripped_text) skipping blanks and comments."""
    offset = 0
    for lineno, raw in enumerate(io.BytesIO(_read_bytes(source)), start=1):
        line_offset = offset
        offset += len(raw)
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(kind, lineno, line_offset, f"invalid UTF-8: {e}") from None
        text = text.rstrip("\r\n")
        if not text or text.lstrip().startswith("#"):
            continue
        yield lineno, line_offset, text


def _csv_rows(source, kind: str, header: str):
    """Yield (lineno, byte_offset, cells) for each row under the `header` line.

    The first line `_iter_lines` keeps must equal `header`, and every
    later one must have as many cells as it.
    """
    lines = _iter_lines(source, kind)
    first = next(lines, None)
    if first is None:
        raise ParseError(kind, 1, 0, "empty file: missing header")
    lineno, offset, text = first
    if text != header:
        raise ParseError(kind, lineno, offset, f"expected header {header!r}, got {text!r}")
    ncols = header.count(",") + 1
    for lineno, offset, text in lines:
        cells = text.split(",")
        if len(cells) != ncols:
            raise ParseError(kind, lineno, offset, f"expected {ncols} columns, got {len(cells)}")
        yield lineno, offset, cells


def _parse_float(tok: str, kind: str, lineno: int, offset: int, what: str) -> float:
    try:
        v = float(tok)
    except ValueError:
        raise ParseError(kind, lineno, offset, f"malformed {what} {tok!r}") from None
    if not math.isfinite(v):
        raise ParseError(kind, lineno, offset, f"non-finite {what} {tok!r}")
    return v


def _parse_int(tok: str, kind: str, lineno: int, offset: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(kind, lineno, offset, f"malformed {what} {tok!r}") from None


class _Fallback(Exception):
    """The bulk path met input it leaves to the line parser to judge."""


def _bulk_rows(data: bytes, header: str, ncols: int):
    """Yield (cells, rows) for each chunk of data rows, cells flattened row-major.

    Skips comment and blank lines and strips CR like `_iter_lines`.
    Raises `_Fallback` on bad UTF-8, a wrong or missing header, or a
    row without exactly `ncols` cells.
    """
    saw_header = False
    pos = 0
    while pos < len(data):
        end = data.find(b"\n", pos + _CHUNK_BYTES)
        end = len(data) if end < 0 else end + 1
        try:
            text = data[pos:end].decode("utf-8")
        except UnicodeDecodeError:
            raise _Fallback from None
        pos = end
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()
        if "\r" in text:
            lines = [line.rstrip("\r") for line in lines]
        if "#" in text:
            lines = [line for line in lines if line and not line.lstrip().startswith("#")]
        elif "" in lines:
            lines = [line for line in lines if line]
        if not saw_header and lines:
            if lines[0] != header:
                raise _Fallback
            saw_header = True
            del lines[0]
        if not lines:
            continue
        if set(map(str.count, lines, repeat(","))) != {ncols - 1}:
            raise _Fallback
        yield ",".join(lines).split(","), len(lines)
    if not saw_header:
        raise _Fallback


def _floats(cells, n: int) -> np.ndarray:
    try:
        return np.fromiter(map(float, cells), np.float64, n)
    except ValueError:
        raise _Fallback from None


def _bulk_columns(data: bytes, header: str, ncols: int, convert) -> tuple:
    """Columns of a CSV whose first cell is a finite, strictly increasing time.

    `convert(cells, n)` turns the other cells of a chunk of `n` rows
    into its arrays. An empty file gives `()`.
    """
    parts = []
    prev = -math.inf
    for cells, n in _bulk_rows(data, header, ncols):
        t = _floats(cells[0::ncols], n)
        if not (np.isfinite(t).all() and t[0] > prev and (t[1:] > t[:-1]).all()):
            raise _Fallback
        prev = t[-1]
        parts.append((t, *convert(cells, n)))
    return tuple(map(np.concatenate, zip(*parts)))


def _gaze_cells(cells: list[str], n: int):
    x_cells, y_cells = cells[1::3], cells[2::3]
    valid = np.fromiter(map(bool, x_cells), bool, n) & np.fromiter(map(bool, y_cells), bool, n)
    # Like the line parser, a row with either cell empty is a lost
    # sample whose other cell is never judged: convert empties to
    # NaN and overwrite the other cell with NaN too.
    x = _floats(map(_EMPTY_AS_NAN.get, x_cells, x_cells), n)
    y = _floats(map(_EMPTY_AS_NAN.get, y_cells, y_cells), n)
    x[~valid] = math.nan
    y[~valid] = math.nan
    if not (np.isfinite(x[valid]).all() and np.isfinite(y[valid]).all()):
        raise _Fallback
    return x, y, valid


def _columns_lines(data: bytes, kind: str, header: str, row) -> tuple:
    """Line-at-a-time reference parser of what `_bulk_columns` reads; locates every `ParseError`.

    `row(parts, lineno, offset)` gives the three values that follow the
    time in each row, so the result is four columns.
    """
    rows = []
    prev_t = -math.inf
    for lineno, offset, parts in _csv_rows(data, kind, header):
        t = _parse_float(parts[0], kind, lineno, offset, "timestamp")
        if t <= prev_t:
            raise ParseError(kind, lineno, offset,
                             f"timestamp {t} is not strictly increasing (previous {prev_t})")
        prev_t = t
        rows.append((t, *row(parts, lineno, offset)))
    return tuple(zip(*rows)) or ((),) * 4


def _gaze_row(parts: list[str], lineno: int, offset: int):
    if parts[1] == "" or parts[2] == "":
        return math.nan, math.nan, False
    return (_parse_float(parts[1], "gaze", lineno, offset, "x coordinate"),
            _parse_float(parts[2], "gaze", lineno, offset, "y coordinate"), True)


_gaze_columns_lines = partial(_columns_lines, kind="gaze", header=GAZE_HEADER, row=_gaze_row)


def parse_gaze_log(source, screen: tuple[int, int] = DEFAULT_SCREEN,
                   rate_hz: float = DEFAULT_GAZE_RATE_HZ) -> GazeSeries:
    """Parse a gaze CSV into a `GazeSeries`.

    Rows with an empty coordinate pair become valid=False samples that
    keep their timestamp, so missingness stays measurable from the file.
    """
    data = _read_bytes(source)
    try:
        columns = _bulk_columns(data, GAZE_HEADER, 3, _gaze_cells)
    except _Fallback:
        columns = _gaze_columns_lines(data)
    return GazeSeries(*columns, nominal_rate_hz=rate_hz, screen=screen)


def _input_cells(cells: list[str], n: int):
    mx = _floats(cells[1::4], n)
    my = _floats(cells[2::4], n)
    if not (np.isfinite(mx).all() and np.isfinite(my).all()):
        raise _Fallback
    key_cells = cells[3::4]
    try:
        masks = {cell: key_mask(cell.split("+") if cell else ()) for cell in set(key_cells)}
    except ValueError:
        raise _Fallback from None
    return mx, my, np.fromiter(map(masks.__getitem__, key_cells), np.uint32, n)


def _input_row(parts: list[str], lineno: int, offset: int):
    mx = _parse_float(parts[1], "input", lineno, offset, "mouse_x")
    my = _parse_float(parts[2], "input", lineno, offset, "mouse_y")
    try:
        return mx, my, key_mask(parts[3].split("+") if parts[3] else ())
    except ValueError as e:
        raise ParseError("input", lineno, offset, str(e)) from None


_input_columns_lines = partial(_columns_lines, kind="input", header=INPUT_HEADER, row=_input_row)


def parse_input_log(source) -> InputSeries:
    """Parse an input CSV into sampled key/mouse state columns."""
    data = _read_bytes(source)
    try:
        columns = _bulk_columns(data, INPUT_HEADER, 4, _input_cells)
    except _Fallback:
        columns = _input_columns_lines(data)
    return InputSeries(*columns)


def parse_hrm_log(source) -> BeatSeries:
    """Parse heart-beat timestamps, one per line."""
    kind = "hrm"
    beats: list[float] = []
    prev_t = -math.inf
    for lineno, offset, text in _iter_lines(source, kind):
        t = _parse_float(text.strip(), kind, lineno, offset, "beat time")
        if t <= prev_t:
            raise ParseError(kind, lineno, offset,
                             f"beat time {t} is not increasing (previous {prev_t})")
        if beats and t - prev_t <= MIN_BEAT_INTERVAL_S:
            raise ParseError(kind, lineno, offset,
                             f"inter-beat interval {t - prev_t:.4f}s implies pulse above 240 bpm")
        prev_t = t
        beats.append(t)
    return BeatSeries(beat_times=beats)


def parse_demo_events(source) -> MatchTimeline:
    """Parse a demo event export into an ordered, validated timeline."""
    kind = "demo"
    rounds: list[Round] = []
    open_round: tuple[int, float, int, int] | None = None  # (index, start_t, lineno, offset)
    events: list[tuple[int, int, GameEvent]] = []
    seen_idx: set[int] = set()

    for lineno, offset, text in _iter_lines(source, kind):
        parts = text.split()
        if len(parts) < 2:
            raise ParseError(kind, lineno, offset, f"malformed event line {text!r}")
        tag = parts[0]
        t = _parse_float(parts[1], kind, lineno, offset, "timestamp")

        if tag == "round_start":
            if len(parts) != 3:
                raise ParseError(kind, lineno, offset, "round_start takes <t> <index>")
            idx = _parse_int(parts[2], kind, lineno, offset, "round index")
            if open_round is not None:
                raise ParseError(kind, lineno, offset,
                                 f"round {idx} starts while round {open_round[0]} is still open")
            if idx in seen_idx:
                raise ParseError(kind, lineno, offset, f"duplicate round index {idx}")
            if rounds and t < rounds[-1].end_t:
                raise ParseError(kind, lineno, offset,
                                 f"round {idx} starts at {t}, overlapping the previous round")
            open_round = (idx, t, lineno, offset)
            seen_idx.add(idx)
        elif tag == "round_end":
            if len(parts) != 3:
                raise ParseError(kind, lineno, offset, "round_end takes <t> <index>")
            idx = _parse_int(parts[2], kind, lineno, offset, "round index")
            if open_round is None or open_round[0] != idx:
                raise ParseError(kind, lineno, offset, f"round_end {idx} without matching round_start")
            if t <= open_round[1]:
                raise ParseError(kind, lineno, offset,
                                 f"round {idx} ends at {t}, before its start {open_round[1]}")
            rounds.append(Round(index=idx, start_t=open_round[1], end_t=t))
            open_round = None
        elif tag in ("spawn", "death", "weapon_fire"):
            if len(parts) != 3:
                raise ParseError(kind, lineno, offset, f"{tag} takes <t> <player>")
            events.append((lineno, offset, GameEvent(t, EventKind(tag), parts[2])))
        elif tag == "kill":
            if len(parts) != 4:
                raise ParseError(kind, lineno, offset, "kill takes <t> <killer> <victim>")
            events.append((lineno, offset, GameEvent(t, EventKind.KILL, parts[2], parts[3])))
        else:
            raise ParseError(kind, lineno, offset, f"unknown event kind {tag!r}")

    if open_round is not None:
        raise ParseError(kind, open_round[2], open_round[3],
                         f"round {open_round[0]} never ends")

    timeline_probe = MatchTimeline(rounds=rounds, events=[])
    spawned = {e.subject for _, _, e in events if e.kind is EventKind.SPAWN}
    for lineno, offset, e in events:
        if timeline_probe.round_containing(e.t) is None:
            raise ParseError(kind, lineno, offset,
                             f"{e.kind.value} at t={fmt_num(e.t)} lies outside every round")
        if e.subject not in spawned:
            raise ParseError(kind, lineno, offset, f"player {e.subject!r} never spawns")
        if e.object is not None and e.object not in spawned:
            raise ParseError(kind, lineno, offset, f"player {e.object!r} never spawns")

    ordered = sorted(
        (e for _, _, e in events),
        key=lambda e: (e.t, _EVENT_RANK[e.kind.value], e.subject, e.object or ""),
    )
    return MatchTimeline(rounds=sorted(rounds, key=lambda r: r.start_t), events=ordered)


def assemble_session(meta: PlayerMeta, gaze: GazeSeries, input_samples: InputSeries,
                     timeline: MatchTimeline, hrm: BeatSeries | None = None) -> Session:
    """Bind parsed streams into a `Session`, refusing invalid combinations."""
    session = Session(meta=meta, gaze=gaze, input=input_samples, timeline=timeline, hrm=hrm)
    violations = validate_session(session)
    if violations:
        raise AssemblyError(violations)
    return session


# ---------------------------------------------------------------------------
# Writers (canonical form)

def write_gaze_csv(series: GazeSeries, path) -> None:
    xs, ys = _fmt_column(series.x), _fmt_column(series.y)
    for i in np.flatnonzero(~series.valid).tolist():
        xs[i] = ys[i] = ""
    rows = map(",".join, zip(_fmt_column(series.t), xs, ys))
    _write_text(path, "\n".join([GAZE_HEADER, *rows]) + "\n")


def write_input_csv(samples: InputSeries, path) -> None:
    masks = samples.keys.tolist()
    names = {mask: "+".join(key_names(mask)) for mask in set(masks)}
    rows = map(",".join, zip(_fmt_column(samples.t), _fmt_column(samples.mouse_x),
                             _fmt_column(samples.mouse_y), map(names.__getitem__, masks)))
    _write_text(path, "\n".join([INPUT_HEADER, *rows]) + "\n")


def write_hrm_txt(beats: BeatSeries, path) -> None:
    _write_text(path, "".join(text + "\n" for text in _fmt_column(beats.beat_times)))


def _demo_lines(timeline: MatchTimeline) -> list[str]:
    items: list[tuple[float, int, str]] = []
    for r in timeline.rounds:
        items.append((r.start_t, _EVENT_RANK["round_start"],
                      f"round_start {fmt_num(r.start_t)} {r.index}"))
        items.append((r.end_t, _EVENT_RANK["round_end"],
                      f"round_end {fmt_num(r.end_t)} {r.index}"))
    for e in timeline.events:
        if e.kind is EventKind.KILL:
            text = f"kill {fmt_num(e.t)} {e.subject} {e.object}"
        else:
            text = f"{e.kind.value} {fmt_num(e.t)} {e.subject}"
        items.append((e.t, _EVENT_RANK[e.kind.value], text))
    items.sort(key=lambda it: (it[0], it[1], it[2]))
    return [text for _, _, text in items]


def write_demo_events(timeline: MatchTimeline, path) -> None:
    _write_text(path, "\n".join(_demo_lines(timeline)) + "\n")


# ---------------------------------------------------------------------------
# Session directories

def write_meta_json(session: Session, path) -> None:
    meta = {
        "player_id": session.meta.player_id,
        "cohort": session.meta.cohort.value,
        "n": session.meta.n,
        "screen": list(session.gaze.screen),
        "gaze_rate_hz": session.gaze.nominal_rate_hz,
    }
    _write_text(path, json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def read_meta_json(path) -> tuple[PlayerMeta, tuple[int, int], float]:
    """Player identity, screen and gaze rate; a malformed file is a `ParseError`."""
    kind = "meta"
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(kind, data.count(b"\n", 0, e.start) + 1, e.start,
                         f"{path}: invalid UTF-8: {e}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(kind, e.lineno, len(text[:e.pos].encode("utf-8")),
                         f"{path}: invalid JSON: {e.msg}") from None
    except RecursionError:
        raise ParseError(kind, 1, 0, f"{path}: invalid JSON: nested too deeply") from None
    if not isinstance(raw, dict):
        raise ParseError(kind, 1, 0, f"{path}: expected a JSON object")

    def mistyped(name: str, want: str) -> ParseError:
        return ParseError(kind, 1, 0, f"{path}: {name!r} must be {want}, got {raw[name]!r}")

    screen = raw.get("screen", DEFAULT_SCREEN)
    if not (isinstance(screen, (list, tuple)) and len(screen) == 2
            and all(_is_int(v) for v in screen)):
        raise mistyped("screen", "a [width, height] pair of integers")
    rate = raw.get("gaze_rate_hz", DEFAULT_GAZE_RATE_HZ)
    if not ((_is_int(rate) or isinstance(rate, float)) and abs(rate) <= sys.float_info.max):
        raise mistyped("gaze_rate_hz", "a finite number")
    if "n" in raw and not _is_int(raw["n"]):
        raise mistyped("n", "an integer")
    try:
        meta = PlayerMeta(player_id=str(raw["player_id"]),
                          cohort=Cohort(raw["cohort"]),
                          n=raw["n"])
    except (KeyError, ValueError) as e:
        raise AssemblyError([], f"bad {path}: {e}") from None
    return meta, (screen[0], screen[1]), float(rate)


def write_session_dir(session: Session, directory) -> Path:
    """Write all capture files for one session into `directory`."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    write_meta_json(session, d / META_FILE)
    write_gaze_csv(session.gaze, d / GAZE_FILE)
    write_input_csv(session.input, d / INPUT_FILE)
    if session.hrm is not None:
        write_hrm_txt(session.hrm, d / HRM_FILE)
    write_demo_events(session.timeline, d / DEMO_FILE)
    return d


def _parse_file(parser, path):
    """`parser(path)`, whose `ParseError` names the file as `read_meta_json`'s do."""
    try:
        return parser(path)
    except ParseError as e:
        raise ParseError(e.kind, e.line, e.byte_offset, f"{path}: {e.message}") from None


def read_session_dir(directory) -> Session:
    """Parse a session directory (hrm.txt optional) into a validated Session."""
    d = Path(directory)
    missing = [name for name in (META_FILE, GAZE_FILE, INPUT_FILE, DEMO_FILE)
               if not (d / name).is_file()]
    if missing:
        raise AssemblyError([], f"session directory {d} is missing {', '.join(missing)}")
    meta, screen, rate = read_meta_json(d / META_FILE)
    gaze = _parse_file(partial(parse_gaze_log, screen=screen, rate_hz=rate), d / GAZE_FILE)
    input_samples = _parse_file(parse_input_log, d / INPUT_FILE)
    hrm = _parse_file(parse_hrm_log, d / HRM_FILE) if (d / HRM_FILE).is_file() else None
    timeline = _parse_file(parse_demo_events, d / DEMO_FILE)
    return assemble_session(meta, gaze, input_samples, timeline, hrm)
