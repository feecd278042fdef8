"""Domain model for multi-sensor eSports session recordings.

Every stream (gaze, input, heart beats, game events) shares a single
session-relative clock measured in seconds, so downstream code never
juggles device-native units. Every stream is columnar: a `GazeSeries`,
`InputSeries` or `BeatSeries` holds one read-only numpy array per
field, with one entry per sample, rather than an object per sample.
All types are immutable values: construct them, share them across
workers, never mutate them.
Validation reports problems as `Violation` records instead of raising,
so a session can be inspected wholesale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import ClassVar

import numpy as np

DEFAULT_SCREEN = (1920, 1080)
MAX_SCREEN_PX = 16384  # the widest screen side accepted; a 16K display is 15360 x 8640
DEFAULT_GAZE_RATE_HZ = 60.0
DEFAULT_INPUT_PERIOD_S = 0.01

# A human pulse stays below 240 bpm, so consecutive beats are >0.25 s apart.
MIN_BEAT_INTERVAL_S = 0.25

# Sensor clocks may run slightly past the final round before capture stops.
TIME_SLACK_S = 1.0

KEY_ALPHABET = (
    "W", "A", "S", "D",
    "MOUSE1", "MOUSE2",
    "SPACE", "CTRL", "SHIFT",
    "R", "E", "Q",
    "1", "2", "3", "4", "5",
)
# Bit of each key in an input keys mask, and the mask of every key.
KEY_BIT = {k: 1 << i for i, k in enumerate(KEY_ALPHABET)}
_ALL_KEYS = (1 << len(KEY_ALPHABET)) - 1


class Cohort(str, Enum):
    PROFESSIONAL = "professional"
    AMATEUR = "amateur"


class EventKind(str, Enum):
    SPAWN = "spawn"
    DEATH = "death"
    KILL = "kill"
    WEAPON_FIRE = "weapon_fire"


@dataclass(frozen=True)
class PlayerMeta:
    """One session's `meta.json`: the recorded player (`n` is the 1-based
    dataset index), and the screen and tracker rate of its gaze capture."""

    player_id: str
    cohort: Cohort
    n: int
    screen: tuple[int, int] = DEFAULT_SCREEN
    gaze_rate_hz: float = DEFAULT_GAZE_RATE_HZ


def key_mask(keys) -> int:
    """Bitmask of the given key names: bit i stands for KEY_ALPHABET[i]."""
    mask = 0
    for k in keys:
        if k not in KEY_BIT:
            raise ValueError(f"unknown key token {k!r}")
        mask |= KEY_BIT[k]
    return mask


def key_names(mask: int) -> tuple[str, ...]:
    """Key names held in `mask`, in alphabet order."""
    if mask & ~_ALL_KEYS:
        raise ValueError(f"key mask {mask:#x} has bits outside the key alphabet")
    return tuple(k for i, k in enumerate(KEY_ALPHABET) if mask >> i & 1)


def true_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each maximal run of True in a 1-D bool mask."""
    edges = np.diff(mask.astype(np.int8), prepend=0, append=0)
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1


def _frozen_column(values, dtype, ndim: int = 1) -> np.ndarray:
    """`values` as a read-only array, copied only if a caller could still write it."""
    a = np.asarray(values, dtype=dtype)
    if a.ndim != ndim:
        raise ValueError(f"column must be {ndim}-D, got shape {a.shape}")
    if a.flags.writeable:
        if isinstance(values, np.ndarray) and np.may_share_memory(a, values):
            a = a.copy()
        a.setflags(write=False)
    return a


def _read_only(*columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """`columns`, each marked read-only, so that `_frozen_column` keeps it without a copy."""
    for column in columns:
        column.setflags(write=False)
    return columns


class _Columns:
    """Equal-length read-only columns, one entry per sample in time order.

    Subclasses are frozen dataclasses that name their columns and
    dtypes in `_COLUMNS`, the first column setting the length. A column
    named in `_MATRICES` is 2-D, one row per entry. Indexing with a
    slice, mask or index array returns the same kind of series holding
    the selected entries.
    """

    _COLUMNS: ClassVar[dict[str, type]]
    _MATRICES: ClassVar[frozenset[str]] = frozenset()

    def __post_init__(self):
        lengths = set()
        for name, dtype in self._COLUMNS.items():
            column = _frozen_column(getattr(self, name), dtype,
                                    2 if name in self._MATRICES else 1)
            object.__setattr__(self, name, column)
            lengths.add(len(column))
        if len(lengths) > 1:
            raise ValueError(f"columns of unequal length {sorted(lengths)}")

    def __len__(self) -> int:
        return len(getattr(self, next(iter(self._COLUMNS))))

    def __reduce__(self):
        # Rebuild through the constructor, so `__post_init__` freezes the
        # unpickled columns again: a series returned by a worker process
        # stays read-only.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def __getitem__(self, index):
        return replace(self, **{name: getattr(self, name)[index] for name in self._COLUMNS})


def _empty_column():
    return field(default_factory=lambda: np.empty(0))


@dataclass(frozen=True, eq=False)
class GazeSeries(_Columns):
    """Gaze samples as columns, on the screen of their session's `PlayerMeta`.

    `valid` is False where the tracker lost the eye; such samples keep
    their timestamp and carry NaN coordinates.
    """

    _COLUMNS: ClassVar[dict[str, type]] = {
        "t": np.float64, "x": np.float64, "y": np.float64, "valid": np.bool_}

    t: np.ndarray = _empty_column()
    x: np.ndarray = _empty_column()
    y: np.ndarray = _empty_column()
    valid: np.ndarray = _empty_column()


@dataclass(frozen=True, eq=False)
class InputSeries(_Columns):
    """Sampled keyboard/mouse state at a fixed cadence (not an event stream).

    `keys` holds the keys down at each sample as a bitmask over
    `KEY_ALPHABET` (see `key_mask` and `key_names`).
    """

    _COLUMNS: ClassVar[dict[str, type]] = {
        "t": np.float64, "mouse_x": np.float64, "mouse_y": np.float64, "keys": np.uint32}

    t: np.ndarray = _empty_column()
    mouse_x: np.ndarray = _empty_column()
    mouse_y: np.ndarray = _empty_column()
    keys: np.ndarray = _empty_column()


@dataclass(frozen=True, eq=False)
class BeatSeries(_Columns):
    """Heart beat timestamps for one player, as one float64 column."""

    _COLUMNS: ClassVar[dict[str, type]] = {"beat_times": np.float64}

    beat_times: np.ndarray = _empty_column()


@dataclass(frozen=True)
class Round:
    index: int
    start_t: float
    end_t: float

    def contains(self, t: float) -> bool:
        return self.start_t <= t <= self.end_t


@dataclass(frozen=True)
class GameEvent:
    """A demo-log event; `object` is set only for kills (the victim)."""

    t: float
    kind: EventKind
    subject: str
    object: str | None = None


@dataclass(frozen=True)
class MatchTimeline:
    """Ordered rounds and the in-round events extracted from the game demo."""

    rounds: list[Round]
    events: list[GameEvent]

    def round_containing(self, t: float) -> Round | None:
        for r in self.rounds:
            if r.contains(t):
                return r
        return None

    def outside_rounds(self, times) -> np.ndarray:
        """Whether `round_containing(t) is None`, for each of `times`, without a scan per time.

        A time lies in some round exactly when the latest end among the
        rounds starting at or before it is at or after it, so one search
        over the starts, sorted, and a running max of their ends decide it
        for unsorted, overlapping or reversed rounds alike.
        """
        t = np.asarray(times, dtype=np.float64)
        if not self.rounds:
            return np.ones(t.shape, dtype=bool)
        starts = np.array([r.start_t for r in self.rounds], dtype=np.float64)
        order = np.argsort(starts, kind="stable")
        # fmax skips a NaN end, which closes no round.
        reach = np.fmax.accumulate(np.array([r.end_t for r in self.rounds], np.float64)[order])
        i = np.searchsorted(starts[order], t, side="right") - 1
        return (i < 0) | ~(reach[i] >= t)  # i = -1 reads the last entry; masked by i < 0

    def spawned_players(self) -> set[str]:
        return {e.subject for e in self.events if e.kind is EventKind.SPAWN}


@dataclass(frozen=True)
class Interval:
    """Half-open time span [start_t, end_t)."""

    start_t: float
    end_t: float


@dataclass(frozen=True)
class Session:
    """All synchronized streams captured for one player in one match."""

    meta: PlayerMeta
    gaze: GazeSeries
    input: InputSeries
    timeline: MatchTimeline
    hrm: BeatSeries | None = None


@dataclass(frozen=True)
class Violation:
    """One invariant breach found by `validate_session`."""

    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.location}: {self.message}"


def _screen_fits(screen: tuple[int, int]) -> bool:
    """Whether each side of `screen` lies in 1..MAX_SCREEN_PX; it sizes the heatmap."""
    return all(0 < side <= MAX_SCREEN_PX for side in screen)


def _validate_meta(meta: PlayerMeta, out: list[Violation]) -> None:
    if not _screen_fits(meta.screen):
        out.append(Violation("gaze.screen",
                             f"screen dims {meta.screen} outside 1..{MAX_SCREEN_PX}"))
    if not meta.player_id:
        out.append(Violation("meta.player_id", "player id is empty"))
    elif any(c in ',"' or c < " " for c in meta.player_id):
        # The id is a cell of every CSV artifact row about the player.
        out.append(Violation("meta.player_id", f"player id {meta.player_id!r} "
                                               "holds a comma, a quote or a control character"))
    if meta.n < 1:
        out.append(Violation("meta.n", f"player index must be >= 1, got {meta.n}"))
    if meta.gaze_rate_hz <= 0:
        out.append(Violation("gaze.nominal_rate_hz",
                             f"rate must be positive, got {meta.gaze_rate_hz}"))


def _report_flagged(out: list[Violation], column: str, checks) -> None:
    """One violation per flagged sample and check, in sample order, then check order.

    `checks` pairs a bool mask over the samples with `message(i)`, the
    text for sample i. Violations are rare, so messages are built only
    for the flagged samples, exactly as a per-sample scan reports them.
    """
    for i in np.flatnonzero(np.logical_or.reduce([mask for mask, _ in checks])).tolist():
        out.extend(Violation(f"{column}[{i}]", message(i)) for mask, message in checks if mask[i])


def _not_increasing(t: np.ndarray, noun: str):
    """Check for samples whose time is not above the previous one's."""
    prev = np.concatenate(([-math.inf], t[:-1]))
    return t <= prev, lambda i: f"{noun} {float(t[i])} not increasing (previous {float(prev[i])})"


def _validate_gaze(gaze: GazeSeries, screen: tuple[int, int], out: list[Violation]) -> None:
    w, h = screen
    t, x, y, valid = gaze.t, gaze.x, gaze.y, gaze.valid
    nonfinite = valid & ~(np.isfinite(x) & np.isfinite(y))
    # A refused screen judges no point: a side such as 10**400 compares with no float.
    outside = valid & ~nonfinite & ~((0 <= x) & (x <= w) & (0 <= y) & (y <= h)) \
        if _screen_fits(screen) else np.zeros(len(t), bool)
    _report_flagged(out, "gaze.samples", [
        (t < 0, lambda i: f"negative timestamp {float(t[i])}"),
        _not_increasing(t, "timestamp"),
        (nonfinite, lambda i: "valid sample with non-finite coordinates"),
        (outside, lambda i: f"gaze point ({float(x[i])}, {float(y[i])}) outside {w}x{h} screen"),
    ])


def _validate_input(samples: InputSeries, out: list[Violation]) -> None:
    unknown = samples.keys & ~np.uint32(_ALL_KEYS)
    _report_flagged(out, "input", [
        _not_increasing(samples.t, "timestamp"),
        (unknown != 0, lambda i: f"unknown key bits {int(unknown[i]):#x}"),
    ])


def _validate_hrm(hrm: BeatSeries, out: list[Violation]) -> None:
    t = hrm.beat_times
    not_increasing, message = _not_increasing(t, "beat time")
    with np.errstate(invalid="ignore"):
        too_fast = ~not_increasing & (np.diff(t, prepend=-math.inf) <= MIN_BEAT_INTERVAL_S)
    _report_flagged(out, "hrm.beat_times", [(not_increasing, message), (too_fast, lambda i: (
        f"inter-beat interval {float(t[i]) - float(t[i - 1]):.4f}s implies pulse above 240 bpm"))])


def _validate_timeline(timeline: MatchTimeline, out: list[Violation]) -> None:
    if not timeline.rounds:
        out.append(Violation("timeline.rounds", "timeline has no rounds"))
    seen_idx: set[int] = set()
    prev_end = -math.inf
    prev_start = -math.inf
    for i, r in enumerate(timeline.rounds):
        loc = f"timeline.rounds[{i}]"
        if r.end_t <= r.start_t:
            out.append(Violation(loc, f"round {r.index} ends at {r.end_t} before it starts at {r.start_t}"))
        if r.start_t < prev_start:
            out.append(Violation(loc, f"round {r.index} out of order"))
        elif r.start_t < prev_end:
            out.append(Violation(loc, f"round {r.index} overlaps the previous round"))
        prev_start, prev_end = r.start_t, r.end_t
        if r.index in seen_idx:
            out.append(Violation(loc, f"duplicate round index {r.index}"))
        seen_idx.add(r.index)

    spawned = timeline.spawned_players()
    outside = timeline.outside_rounds([e.t for e in timeline.events]).tolist()
    for i, e in enumerate(timeline.events):
        loc = f"timeline.events[{i}]"
        if outside[i]:
            out.append(Violation(loc, f"{e.kind.value} at t={e.t} lies outside every round"))
        if e.kind is EventKind.KILL:
            if e.object is None:
                out.append(Violation(loc, "kill event without a victim"))
            elif e.object not in spawned:
                out.append(Violation(loc, f"victim '{e.object}' never spawns"))
        elif e.object is not None:
            out.append(Violation(loc, f"{e.kind.value} event must not carry a second player"))
        if e.subject not in spawned:
            out.append(Violation(loc, f"player '{e.subject}' never spawns"))


def validate_session(session: Session) -> list[Violation]:
    """Check every invariant of a session; an empty list means valid.

    Pure and idempotent: the input is never mutated and repeated calls
    return identical lists.
    """
    out: list[Violation] = []
    _validate_meta(session.meta, out)
    _validate_gaze(session.gaze, session.meta.screen, out)
    _validate_input(session.input, out)
    if session.hrm is not None:
        _validate_hrm(session.hrm, out)
    _validate_timeline(session.timeline, out)

    if session.meta.player_id not in session.timeline.spawned_players():
        out.append(Violation("session", f"player '{session.meta.player_id}' never spawns in the timeline"))

    if session.timeline.rounds:
        horizon = max(r.end_t for r in session.timeline.rounds) + TIME_SLACK_S
        for name, t in (("gaze", session.gaze.t), ("input", session.input.t),
                        ("hrm", session.hrm.beat_times if session.hrm else ())):
            if len(t) and t[-1] > horizon:
                out.append(Violation(
                    f"session.{name}",
                    f"last sample at t={float(t[-1])} runs past the match end ({horizon - TIME_SLACK_S}) "
                    f"by more than {TIME_SLACK_S}s; streams do not share a time origin"))
    return out
