"""Parsers and writers for the four session capture formats.

Formats (all UTF-8; whitespace-only and `#`-prefixed comment lines ignored):

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
their parsers read the whole file and convert it into columns
(`GazeSeries`, `InputSeries`) one chunk of about 64 KiB at a time, with
one `np.loadtxt` call per chunk; each distinct `keys` cell of a chunk is
mapped to its mask once. loadtxt reads an ASCII number exactly as
`float` does, `nan`, `inf` and `1e999` included (the bulk path then
refuses them as non-finite). A chunk holding a token that `float` takes
and loadtxt does not, such as `1_0` or a non-ASCII digit, is converted
again with `float` per cell. An empty gaze cell reads as NaN in a chunk
without `n` or `N`. On every file the bulk path accepts, it gives the
columns of the line-at-a-time parser behind it bit for bit.

That line parser reruns over the whole file when a chunk has bad
UTF-8, a U+001C..U+001F control, a wrong header or cell count, a bad,
non-finite or non-increasing value, an unknown key, or an empty gaze
cell beside an `n` or `N`. It accepts what it can and reports any
failure as `ParseError` with the 1-based line number and byte offset.
`hrm.txt` and `demo.events` are small and parsed a line at a time.
Their parsers check syntax (arity, numbers, known tags) and round
pairing, then run `model._validate_hrm` or `_validate_timeline` on what
they built and raise its violation that comes first in the file at the
line of the beat, event or round (its `round_start`) it names.

Writers emit a canonical form (shortest round-tripping numbers, keys in
alphabet order, events sorted by time) so that write -> parse -> write
is byte-identical.
"""
from __future__ import annotations

import io
import json
import math
import re
import sys
from functools import partial
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
    PlayerMeta,
    Round,
    Session,
    _validate_hrm,
    _validate_timeline,
    key_mask,
    key_names,
    validate_session,
)
from .textio import _byte_cells, _fmt_cells, _join_rows, _write_text, fmt_num

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
_EMPTY_CELL = re.compile(r",(?=[,\n])")  # the comma before each empty non-first cell

# What follows the tag of each demo line, as a wrong arity error states
# it, in the canonical order of demo lines sharing a timestamp.
_EVENT_ARGS = {
    "round_end": "<t> <index>", "round_start": "<t> <index>", "spawn": "<t> <player>",
    "weapon_fire": "<t> <player>", "kill": "<t> <killer> <victim>", "death": "<t> <player>",
}
_EVENT_RANK = {tag: rank for rank, tag in enumerate(_EVENT_ARGS)}


def _read_bytes(source) -> bytes:
    """The whole content of a path or a bytes object."""
    if isinstance(source, (bytes, bytearray)):
        return bytes(source)
    return Path(source).read_bytes()


def _iter_lines(source, kind: str):
    """Yield (lineno, byte_offset, stripped_text), skipping whitespace-only and comment lines."""
    offset = 0
    for lineno, raw in enumerate(io.BytesIO(_read_bytes(source)), start=1):
        line_offset = offset
        offset += len(raw)
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(kind, lineno, line_offset, f"invalid UTF-8: {e}") from None
        text = text.rstrip("\r\n")
        if text.lstrip()[:1] in ("", "#"):
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


def _bulk_chunks(data: bytes, header: str):
    """Yield the data rows of each chunk as text, each row ending in a newline.

    Drops comment lines and strips CR like `_iter_lines`; later blank
    lines may remain (`_loadtxt` falls back on one of whitespace). Raises
    `_Fallback` on bad UTF-8, a wrong or missing header, or a U+001C..U+001F
    control, which `np.loadtxt` strips around a number and `float` refuses.
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
        if any(map(text.__contains__, "\x1c\x1d\x1e\x1f")):
            raise _Fallback
        if not text.endswith("\n"):
            text += "\n"
        if "\r" in text or "#" in text or text[0] == "\n":
            lines = (line.rstrip("\r") for line in text.split("\n"))
            text = "".join(f"{line}\n" for line in lines
                           if line and not line.lstrip().startswith("#"))
        if not saw_header and text:
            first, _, text = text.partition("\n")
            if first != header:
                raise _Fallback
            saw_header = True
            text = text.lstrip("\n")
        if text:
            yield text
    if not saw_header:
        raise _Fallback


def _loadtxt(text: str, ncols: int, converters: dict) -> np.ndarray:
    """The (rows, ncols) cells of `text`, each float cell as `float` reads it."""
    lines = text.split("\n")
    try:
        try:
            cells = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                               converters=converters or None)
        except ValueError:
            # loadtxt refuses `1_0` and non-ASCII digits, which `float` takes.
            cells = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                               converters=dict.fromkeys(range(ncols), float) | converters)
    except ValueError:
        raise _Fallback from None
    # loadtxt skips blank lines, as `_iter_lines` does, and no other line.
    if cells.shape != (len(lines) - lines.count(""), ncols):
        raise _Fallback
    return cells


def _bulk_columns(data: bytes, header: str, convert) -> tuple:
    """Columns of a CSV whose first cell is a finite, strictly increasing time.

    `convert(text)` turns the rows of a chunk into its columns, time
    first. An empty file gives `()`.
    """
    parts = []
    prev = -math.inf
    for text in _bulk_chunks(data, header):
        columns = convert(text)
        t = columns[0]
        if not (np.isfinite(t).all() and t[0] > prev and (t[1:] > t[:-1]).all()):
            raise _Fallback
        prev = t[-1]
        parts.append(columns)
    return tuple(map(np.concatenate, zip(*parts)))


def _gaze_chunk(text: str):
    # Like the line parser, a row with an empty x or y is a lost sample
    # whose other cell is never judged. Empty cells read as NaN, which
    # nothing else gives in a chunk without `n` or `N` (so without a
    # nan or inf token); in any other chunk they fail loadtxt.
    lost_as_nan = "n" not in text and "N" not in text
    if lost_as_nan:
        text = _EMPTY_CELL.sub(",nan", text)
    t, x, y = _loadtxt(text, 3, {}).T
    lost = (np.isnan(x) | np.isnan(y)) & lost_as_nan
    x[lost] = y[lost] = math.nan
    if not (lost | np.isfinite(x) & np.isfinite(y)).all():
        raise _Fallback
    return t, x, y, ~lost


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
_gaze_columns_bulk = partial(_bulk_columns, header=GAZE_HEADER, convert=_gaze_chunk)


def parse_gaze_log(source, screen: tuple[int, int] = DEFAULT_SCREEN,
                   rate_hz: float = DEFAULT_GAZE_RATE_HZ) -> GazeSeries:
    """Parse a gaze CSV into a `GazeSeries`.

    Rows with an empty coordinate pair become valid=False samples that
    keep their timestamp, so missingness stays measurable from the file.
    """
    data = _read_bytes(source)
    try:
        columns = _gaze_columns_bulk(data)
    except _Fallback:
        columns = _gaze_columns_lines(data)
    return GazeSeries(*columns, nominal_rate_hz=rate_hz, screen=screen)


class _KeyMasks(dict):
    """The mask of each distinct `keys` cell, computed once."""

    def __missing__(self, cell: str) -> int:
        mask = self[cell] = key_mask(cell.split("+") if cell else ())
        return mask


def _input_chunk(text: str):
    t, mx, my, keys = _loadtxt(text, 4, {3: _KeyMasks().__getitem__}).T
    if not (np.isfinite(mx).all() and np.isfinite(my).all()):
        raise _Fallback
    return t, mx, my, keys.astype(np.uint32)


def _input_row(parts: list[str], lineno: int, offset: int):
    mx = _parse_float(parts[1], "input", lineno, offset, "mouse_x")
    my = _parse_float(parts[2], "input", lineno, offset, "mouse_y")
    try:
        return mx, my, key_mask(parts[3].split("+") if parts[3] else ())
    except ValueError as e:
        raise ParseError("input", lineno, offset, str(e)) from None


_input_columns_lines = partial(_columns_lines, kind="input", header=INPUT_HEADER, row=_input_row)
_input_columns_bulk = partial(_bulk_columns, header=INPUT_HEADER, convert=_input_chunk)


def parse_input_log(source) -> InputSeries:
    """Parse an input CSV into sampled key/mouse state columns."""
    data = _read_bytes(source)
    try:
        columns = _input_columns_bulk(data)
    except _Fallback:
        columns = _input_columns_lines(data)
    return InputSeries(*columns)


def _raise_first_violation(kind: str, validate, value, lines: dict) -> None:
    """Raise the violation `validate(value, out)` finds that comes first in the file.

    `lines[column][i]` starts with the (lineno, offset) of the line that
    gave entry i of `column`, which a violation names as `column[i]`;
    other violations, such as "timeline has no rounds", are left to
    `assemble_session`.
    """
    out: list = []
    validate(value, out)
    located = []
    for v in out:
        column, _, index = v.location.partition("[")
        if index and column in lines:
            located.append((lines[column][int(index[:-1])][:2], v.message))
    if located:
        (lineno, offset), message = min(located, key=lambda item: item[0])
        raise ParseError(kind, lineno, offset, message)


def parse_hrm_log(source) -> BeatSeries:
    """Parse heart-beat timestamps, one per line."""
    lines = list(_iter_lines(source, "hrm"))
    beats = BeatSeries([_parse_float(text.strip(), "hrm", lineno, offset, "beat time")
                        for lineno, offset, text in lines])
    _raise_first_violation("hrm", _validate_hrm, beats, {"hrm.beat_times": lines})
    return beats


def parse_demo_events(source) -> MatchTimeline:
    """Parse a demo event export into an ordered, validated timeline."""
    kind = "demo"
    rounds: list[Round] = []
    open_round: tuple[int, int, int, float] | None = None  # (lineno, offset, index, start_t)
    events: list[GameEvent] = []
    lines: dict[str, list[tuple]] = {"timeline.rounds": [], "timeline.events": []}

    for lineno, offset, text in _iter_lines(source, kind):
        parts = text.split()
        if len(parts) < 2:
            raise ParseError(kind, lineno, offset, f"malformed event line {text!r}")
        tag = parts[0]
        t = _parse_float(parts[1], kind, lineno, offset, "timestamp")
        if tag not in _EVENT_ARGS:
            raise ParseError(kind, lineno, offset, f"unknown event kind {tag!r}")
        if len(parts) != 2 + _EVENT_ARGS[tag].count(" "):
            raise ParseError(kind, lineno, offset, f"{tag} takes {_EVENT_ARGS[tag]}")

        if tag == "round_start":
            idx = _parse_int(parts[2], kind, lineno, offset, "round index")
            if open_round is not None:
                raise ParseError(kind, lineno, offset,
                                 f"round {idx} starts while round {open_round[2]} is still open")
            open_round = (lineno, offset, idx, t)
        elif tag == "round_end":
            idx = _parse_int(parts[2], kind, lineno, offset, "round index")
            if open_round is None or open_round[2] != idx:
                raise ParseError(kind, lineno, offset, f"round_end {idx} without matching round_start")
            rounds.append(Round(index=idx, start_t=open_round[3], end_t=t))
            lines["timeline.rounds"].append(open_round)
            open_round = None
        else:
            events.append(GameEvent(t, EventKind(tag), *parts[2:]))
            lines["timeline.events"].append((lineno, offset))

    if open_round is not None:
        raise ParseError(kind, open_round[0], open_round[1], f"round {open_round[2]} never ends")

    _raise_first_violation(kind, _validate_timeline, MatchTimeline(rounds, events), lines)
    ordered = sorted(
        events, key=lambda e: (e.t, _EVENT_RANK[e.kind.value], e.subject, e.object or ""))
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
    xy = _fmt_cells(np.column_stack((series.x, series.y)))
    xy[:, ~series.valid] = 0  # empty cells
    _write_text(path, [GAZE_HEADER + "\n", _join_rows([_fmt_cells(series.t), *xy])])


def write_input_csv(samples: InputSeries, path) -> None:
    masks, inverse = np.unique(samples.keys, return_inverse=True)
    names = _byte_cells(["+".join(key_names(mask)) for mask in masks.tolist()])
    columns = [_fmt_cells(samples.t), _fmt_cells(samples.mouse_x), _fmt_cells(samples.mouse_y),
               names.take(inverse, axis=0)]
    _write_text(path, [INPUT_HEADER + "\n", _join_rows(columns)])


def write_hrm_txt(beats: BeatSeries, path) -> None:
    _write_text(path, _join_rows([_fmt_cells(beats.beat_times)]))


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
