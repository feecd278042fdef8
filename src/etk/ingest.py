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

`gaze.csv` and `input.csv` hold nearly all the bytes of a session.
Every capture is read through a `_Capture`, a stream that hashes each
byte read through it, and no parse holds a whole file. A file in the
canonical form the writers emit is parsed in bulk: it starts with its
header line and holds no blank line, CR, `#` or U+001C..U+001F control.
A first pass counts its lines, unhashed, in reads of about 64 KiB; the
stream is then rewound, and each read of that size, completed to the
end of its line, is hashed, checked and converted with one
`np.loadtxt` call. Each distinct `keys` cell of a chunk is mapped to
its mask once; a lost gaze sample `t,,` reads as NaN. Each chunk is
copied into columns allocated once, one entry per line counted, and
their filled prefixes are marked read-only, so `GazeSeries` and
`InputSeries` keep them without a copy. Given a path, a parse of a
400,000-row file in the writers' form peaks at about 1.05 times the
bytes of its columns, its reads counted (tracemalloc). loadtxt reads an
ASCII number exactly as `float` does, `nan`, `inf` and `1e999` included
(the bulk path then refuses them as non-finite).

Every other file, and one that grew past its counted lines between the
two passes, goes to the line-at-a-time reference parser: the stream is
rewound, its hash started over, and the file read again a line at a
time, so a digest is always that of the bytes the columns came from.
The line parser judges a file that is not canonical (CRLF, comments,
blank lines), or one with bad UTF-8, a wrong header or cell count, a
token loadtxt refuses (such as `1_0`, a non-ASCII digit or one empty
gaze cell), a non-finite or non-increasing value, an unknown key, or a
gaze chunk holding `n` or `N`. It accepts what it can and reports any
failure as `ParseError` with the 1-based line number and byte offset.
On every file the bulk path accepts, it gives the reference parser's
columns bit for bit.

`hrm.txt` and `demo.events` are small and parsed a line at a time
from the same kind of stream. Their parsers check syntax (arity,
numbers, known tags) and round pairing, then run `model._validate_hrm` or `_validate_timeline` on what
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
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
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
    _read_only,
    _validate_hrm,
    _validate_timeline,
    key_mask,
    key_names,
    validate_session,
)
from .textio import _byte_cells, _fmt_cells, _join_rows, _row_blocks, _write_text, fmt_num

# CPython's own SHA-256: hashlib's would map OpenSSL's libcrypto, about 3.6 MB of RSS.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

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
# Bytes the writers never emit; a file holding one is left to the line parser.
_NOT_WRITTEN = (b"\n\n", b"\r", b"#", b"\x1c", b"\x1d", b"\x1e", b"\x1f")

# What follows the tag of each demo line, as a wrong arity error states
# it, in the canonical order of demo lines sharing a timestamp.
_EVENT_ARGS = {
    "round_end": "<t> <index>", "round_start": "<t> <index>", "spawn": "<t> <player>",
    "weapon_fire": "<t> <player>", "kill": "<t> <killer> <victim>", "death": "<t> <player>",
}
_EVENT_RANK = {tag: rank for rank, tag in enumerate(_EVENT_ARGS)}


class _Capture:
    """A capture open for reading, which hashes every byte read through it.

    `rewind` goes back to the start and starts the hash over, so `hash`
    is always that of the bytes the last pass read; `raw` reads without
    hashing. A capture read from a file stands for its path, so what
    takes a path (such as perfbench's count of the bytes parsed) sizes it.
    """

    def __init__(self, raw, path=None):
        self.raw, self.path = raw, path
        self.rewind()

    def rewind(self) -> None:
        self.raw.seek(0)
        self.hash = _sha256()

    def read(self, size: int) -> bytes:
        return self._hashed(self.raw.read(size))

    def readline(self) -> bytes:
        return self._hashed(self.raw.readline())

    def __iter__(self):
        for line in self.raw:
            yield self._hashed(line)

    def _hashed(self, data: bytes) -> bytes:
        self.hash.update(data)
        return data

    def __fspath__(self) -> str:
        return os.fspath(self.path)


@contextmanager
def _opened(source):
    """`source` as a `_Capture`: itself, or one over the bytes or the file at the path it is."""
    if isinstance(source, _Capture):
        yield source
    elif isinstance(source, (bytes, bytearray)):
        yield _Capture(io.BytesIO(source))
    else:
        with open(source, "rb") as f:  # a pipe cannot be rewound, so it is read whole
            yield _Capture(f if f.seekable() else io.BytesIO(f.read()), source)


def _iter_lines(source, kind: str):
    """Yield (lineno, byte_offset, stripped_text), skipping whitespace-only and comment lines."""
    offset = 0
    with _opened(source) as capture:
        for lineno, raw in enumerate(capture, start=1):
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
        v = int(tok)
    except ValueError:
        raise ParseError(kind, lineno, offset, f"malformed {what} {tok!r}") from None
    if not -(1 << 63) <= v < 1 << 63:  # indices are held as int64 downstream
        raise ParseError(kind, lineno, offset, f"{what} {tok!r} does not fit in 64 bits")
    return v


class _Fallback(Exception):
    """The bulk path met input it leaves to the line parser to judge."""


def _bulk_chunks(capture: _Capture, header: str):
    """Yield the data rows of each chunk of a file in the writers' form, as text.

    Each chunk is a read of `_CHUNK_BYTES` completed to the end of its
    last line, and ends in a newline. Raises `_Fallback` unless the file
    starts with the `header` line, and on bad UTF-8, a blank line (one
    that starts a chunk included), a CR, a `#` or a U+001C..U+001F
    control (which `np.loadtxt` strips around a number and `float` refuses).
    """
    if capture.read(len(header) + 1) != f"{header}\n".encode():
        raise _Fallback
    while chunk := capture.read(_CHUNK_BYTES):
        if not chunk.endswith(b"\n"):
            chunk += capture.readline()
        if chunk.startswith(b"\n") or any(map(chunk.__contains__, _NOT_WRITTEN)):
            raise _Fallback
        try:
            text = chunk.decode("utf-8")
        except UnicodeDecodeError:
            raise _Fallback from None
        yield text if text.endswith("\n") else text + "\n"


def _loadtxt(text: str, ncols: int, converters=None) -> np.ndarray:
    """The (rows, ncols) cells of `text`, one row per line; any other shape falls back."""
    try:
        cells = np.loadtxt(text.split("\n"), delimiter=",", comments=None, ndmin=2,
                           converters=converters)
    except ValueError:
        raise _Fallback from None
    if cells.shape != (text.count("\n"), ncols):
        raise _Fallback
    return cells


def _count_lines(capture: _Capture) -> int:
    """The lines of `capture`, counted in `_CHUNK_BYTES` reads that are not hashed;
    then rewinds it."""
    lines = 1
    while piece := capture.raw.read(_CHUNK_BYTES):
        lines += piece.count(b"\n")
    capture.rewind()
    return lines


def _bulk_columns(source, header: str, convert) -> tuple:
    """Columns of a CSV whose first cell is a finite, strictly increasing time.

    `convert(text)` turns the rows of a chunk into its columns, time
    first. Each column is allocated once, with one entry per line
    `_count_lines` counts and the dtype of the first chunk's, and each
    chunk is copied into place; a file that has grown since is left to
    the line parser. The filled prefixes come back read-only, so a
    series keeps them without a copy. A file of only the header gives `()`.
    """
    with _opened(source) as capture:
        lines = _count_lines(capture)
        out: tuple = ()
        n = 0
        prev = -math.inf
        for text in _bulk_chunks(capture, header):
            columns = convert(text)
            t = columns[0]
            if not (np.isfinite(t).all() and t[0] > prev and (t[1:] > t[:-1]).all()
                    and n + len(t) < lines):
                raise _Fallback
            prev = t[-1]
            out = out or tuple(np.empty(lines, c.dtype) for c in columns)
            for column, part in zip(out, columns):
                column[n:n + len(t)] = part
            n += len(t)
    return _read_only(*(column[:n] for column in out))


def _gaze_chunk(text: str):
    # The writers' lost sample `t,,` reads as NaN, which nothing else
    # gives in a chunk without `n` or `N` (so without a nan or inf token).
    if "n" in text or "N" in text:
        raise _Fallback
    t, x, y = _loadtxt(text.replace(",,\n", ",nan,nan\n"), 3).T
    lost = np.isnan(x)
    if not (lost | np.isfinite(x) & np.isfinite(y)).all():
        raise _Fallback
    return t, x, y, ~lost


def _columns_lines(source, kind: str, header: str, row) -> tuple:
    """Line-at-a-time reference parser of what `_bulk_columns` reads; locates every `ParseError`.

    `row(parts, lineno, offset)` gives the three values that follow the
    time in each row, so the result is four columns.
    """
    rows = []
    prev_t = -math.inf
    for lineno, offset, parts in _csv_rows(source, kind, header):
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


def _parse_columns(source, bulk, lines) -> tuple:
    """The columns `bulk` reads from `source`; on its `_Fallback`, those the line parser
    `lines` reads from the start again."""
    with _opened(source) as capture:
        try:
            return bulk(capture)
        except _Fallback:
            capture.rewind()
            return lines(capture)


_gaze_columns_lines = partial(_columns_lines, kind="gaze", header=GAZE_HEADER, row=_gaze_row)
_gaze_columns_bulk = partial(_bulk_columns, header=GAZE_HEADER, convert=_gaze_chunk)


def parse_gaze_log(source) -> GazeSeries:
    """Parse a gaze CSV into a `GazeSeries`.

    Rows with an empty coordinate pair become valid=False samples that
    keep their timestamp, so missingness stays measurable from the file.
    """
    return GazeSeries(*_parse_columns(source, _gaze_columns_bulk, _gaze_columns_lines))


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
    return InputSeries(*_parse_columns(source, _input_columns_bulk, _input_columns_lines))


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
# Writers (canonical form), a `_row_blocks` block of rows at a time, so
# their memory does not grow with the session

def write_gaze_csv(series: GazeSeries, path) -> None:
    def blocks():
        yield GAZE_HEADER + "\n"
        for rows in _row_blocks(len(series)):
            xy = _fmt_cells(np.column_stack((series.x[rows], series.y[rows])))
            xy[:, ~series.valid[rows]] = 0  # empty cells
            yield _join_rows([_fmt_cells(series.t[rows]), xy])
    _write_text(path, blocks())


def write_input_csv(samples: InputSeries, path) -> None:
    def blocks():
        yield INPUT_HEADER + "\n"
        for rows in _row_blocks(len(samples)):
            masks, inverse = np.unique(samples.keys[rows], return_inverse=True)
            names = _byte_cells(["+".join(key_names(mask)) for mask in masks.tolist()])
            yield _join_rows([_fmt_cells(samples.t[rows]), _fmt_cells(samples.mouse_x[rows]),
                              _fmt_cells(samples.mouse_y[rows]), names.take(inverse, axis=0)])
    _write_text(path, blocks())


def write_hrm_txt(beats: BeatSeries, path) -> None:
    _write_text(path, (_join_rows([_fmt_cells(beats.beat_times[rows])])
                       for rows in _row_blocks(len(beats))))


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

def write_meta_json(meta: PlayerMeta, path) -> None:
    # A str enum, the cohort is written as its value; the screen tuple as a list.
    _write_text(path, json.dumps(asdict(meta), indent=2, sort_keys=True) + "\n")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def read_meta_json(path) -> PlayerMeta:
    """The `PlayerMeta` of a `meta.json`; a malformed file is a `ParseError`."""
    return _meta_from_bytes(Path(path).read_bytes(), path)


def _meta_from_bytes(data: bytes, path) -> PlayerMeta:
    """`read_meta_json` of `data`, the bytes of the file at `path`."""
    kind = "meta"
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
    for name in ("player_id", "cohort"):
        if name in raw and not isinstance(raw[name], str):
            raise mistyped(name, "a string")
    try:
        return PlayerMeta(player_id=raw["player_id"], cohort=Cohort(raw["cohort"]), n=raw["n"],
                          screen=(screen[0], screen[1]), gaze_rate_hz=float(rate))
    except KeyError as e:
        raise AssemblyError([], f"bad {path}: missing key {e.args[0]!r}") from None
    except ValueError as e:
        raise AssemblyError([], f"bad {path}: {e}") from None


def write_session_dir(session: Session, directory) -> Path:
    """Write all capture files for one session into `directory`."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    write_meta_json(session.meta, d / META_FILE)
    write_gaze_csv(session.gaze, d / GAZE_FILE)
    write_input_csv(session.input, d / INPUT_FILE)
    if session.hrm is not None:
        write_hrm_txt(session.hrm, d / HRM_FILE)
    write_demo_events(session.timeline, d / DEMO_FILE)
    return d


def _parse_file(parser, source, path):
    """`parser(source)`, whose `ParseError` names `path` as `read_meta_json`'s do."""
    try:
        return parser(source)
    except ParseError as e:
        raise ParseError(e.kind, e.line, e.byte_offset, f"{path}: {e.message}") from None


def read_session_head(directory) -> tuple[PlayerMeta, str]:
    """`read_meta_json` of a session directory that holds every required file,
    and the digest of the meta.json bytes it read."""
    d = Path(directory)
    missing = [name for name in (META_FILE, GAZE_FILE, INPUT_FILE, DEMO_FILE)
               if not (d / name).is_file()]
    if missing:
        raise AssemblyError([], f"session directory {d} is missing {', '.join(missing)}")
    data = (d / META_FILE).read_bytes()
    return _meta_from_bytes(data, d / META_FILE), _sha256(data).hexdigest()


def read_session_captures(directory, meta: PlayerMeta,
                          meta_digest: str) -> tuple[Session, dict[str, str]]:
    """The validated Session of a directory (hrm.txt optional) given its `read_session_head`,
    and the digest of each file read, by name.

    Each capture is opened once and parsed from a `_Capture`, a chunk or
    a line at a time, so its digest is that of the bytes parsed and no
    whole file is held. An `AssemblyError` names the directory.
    """
    d = Path(directory)
    digests = {META_FILE: meta_digest}

    def parse(parser, name: str):
        with _opened(d / name) as capture:
            value = _parse_file(parser, capture, d / name)
        digests[name] = capture.hash.hexdigest()
        return value

    gaze = parse(parse_gaze_log, GAZE_FILE)
    input_samples = parse(parse_input_log, INPUT_FILE)
    hrm = parse(parse_hrm_log, HRM_FILE) if (d / HRM_FILE).is_file() else None
    timeline = parse(parse_demo_events, DEMO_FILE)
    try:
        return assemble_session(meta, gaze, input_samples, timeline, hrm), digests
    except AssemblyError as e:
        raise AssemblyError(e.violations, f"session {d} failed validation") from None


def read_session_dir(directory) -> Session:
    """Parse a session directory (hrm.txt optional) into a validated Session."""
    return read_session_captures(directory, *read_session_head(directory))[0]
