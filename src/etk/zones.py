"""Screen zones: models, gaze-to-zone assignment, rolling-window statistics.

A zone model is an ordered set of K labeled screen points. Gaze samples
are matched to the nearest center (Euclidean distance, 1-based index),
turning the gaze track into a categorical sequence. Rolling windows
over that sequence yield per-window zone occupancy distributions, held
as one `WindowSeries` of columns (an (n, K) `probs` matrix), and their
arithmetic mean summarizes a whole segment or session.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DimensionMismatch, EmptyInput, ParseError, TooManyWindows
from .ingest import _csv_rows, _parse_float, _parse_int
from .model import GazeSeries, _Columns
from .textio import _byte_cells, _fmt_cells, _join_rows, _row_blocks, _write_text, fmt_num

DEFAULT_WINDOW_S = 15.0
DEFAULT_HOP_S = 1.0
DEFAULT_CELL_PX = 10
_ZONES_HEADER = "k,label,x,y"
_WINDOW_EDGE_TOL = 1e-9
# Most window starts one `window_distributions` call may place, and most
# windows one `analyze` run may pool (the densest benchmark run pools 12,478).
MAX_WINDOWS = 1_000_000

_DEFAULT_CENTERS = (
    (960.0, 540.0),
    (345.0, 815.0),
    (310.0, 180.0),
    (1205.0, 530.0),
    (1610.0, 180.0),
    (715.0, 530.0),
    (1575.0, 815.0),
    (960.0, 260.0),
    (960.0, 900.0),
)
_DEFAULT_LABELS = (
    "Aiming Cross-hair",
    "Radar Area",
    "Armor & Health Bar",
    "Right Area of Sight",
    "Weapon & Ammo Panel",
    "Left Area of Sight",
    "Kill & Death Log",
    "Bottom Area of Sight",
    "Timer & Players Panel",
)


@dataclass(frozen=True)
class ZoneModel:
    """Ordered labeled zone centers; zone k is centers[k-1] (1-based outside)."""
    centers: tuple[tuple[float, float], ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.centers) < 1:
            raise ValueError("zone model needs at least one center")
        if len(self.labels) != len(self.centers):
            raise ValueError(f"{len(self.labels)} labels for {len(self.centers)} centers")
        if len(set(self.centers)) != len(self.centers):
            raise ValueError("zone centers must be pairwise distinct")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("zone labels must be unique")

    @property
    def k(self) -> int:
        return len(self.centers)

    def centers_array(self) -> np.ndarray:
        return np.asarray(self.centers, dtype=float)


def default_zone_model() -> ZoneModel:
    """The nine-zone 1920x1080 model used throughout."""
    return ZoneModel(centers=_DEFAULT_CENTERS, labels=_DEFAULT_LABELS)


@dataclass(frozen=True, eq=False)
class ZoneSequence(_Columns):
    """Categorical gaze track: zone index (1..k) per retained sample.

    `span` is the enclosing segment's [start, end) in seconds; window
    placement anchors there rather than at the first sample, so sparse
    segments still window consistently. When absent, the sample extent
    is used.
    """

    _COLUMNS: ClassVar[dict[str, type]] = {"times": np.float64, "zones": np.int64}

    times: np.ndarray
    zones: np.ndarray
    k: int
    span: tuple[float, float] | None = None

    def __post_init__(self):
        super().__post_init__()
        if len(self) and (self.zones.min() < 1 or self.zones.max() > self.k):
            raise ValueError(f"zone indices must lie in 1..{self.k}")


@dataclass(frozen=True, eq=False)
class WindowSeries(_Columns):
    """Rolling-window zone occupancy distributions, one row per window.

    `index` counts hops from the span start, `start` is
    span_start + index*hop_s, and row i of `probs` (n, k) holds the
    zone fractions of window i. The columns are read-only.
    """

    _COLUMNS: ClassVar[dict[str, type]] = {
        "index": np.int64, "start": np.float64, "probs": np.float64}
    _MATRICES: ClassVar[frozenset[str]] = frozenset({"probs"})

    index: np.ndarray
    start: np.ndarray
    probs: np.ndarray

    @classmethod
    def concat(cls, parts, k: int) -> "WindowSeries":
        """The rows of `parts` in order; `k` shapes the result when there are none."""
        parts = list(parts)
        return cls(np.concatenate([np.empty(0, np.int64)] + [w.index for w in parts]),
                   np.concatenate([np.empty(0)] + [w.start for w in parts]),
                   np.concatenate([np.empty((0, k))] + [w.probs for w in parts]))


@dataclass(frozen=True, eq=False)
class Heatmap:
    """2-D gaze count grid; grid[row][col] covers a cell_px square."""
    grid: np.ndarray
    cell_px: int

    @property
    def total(self) -> int:  # the points counted into the grid
        return int(self.grid.sum())


def _nearest_zones(x: np.ndarray, y: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """1-based index of each point's Euclidean-nearest center; ties take the lowest index."""
    d2 = (x[:, None] - centers[None, :, 0]) ** 2 + (y[:, None] - centers[None, :, 1]) ** 2
    return np.argmin(d2, axis=1) + 1


def assign_zone(point: tuple[float, float], model: ZoneModel) -> int:
    """Zone index (1..k) of one point."""
    x, y = np.asarray(point, dtype=float).reshape(2, 1)
    return int(_nearest_zones(x, y, model.centers_array())[0])


def assign_zones(segment: GazeSeries, model: ZoneModel,
                 span: tuple[float, float] | None = None) -> ZoneSequence:
    """Categorize every valid sample of a gaze segment."""
    valid = segment.valid
    zones = _nearest_zones(segment.x[valid], segment.y[valid], model.centers_array())
    return ZoneSequence(times=segment.t[valid], zones=zones, k=model.k, span=span)


def _window_starts(span_start: float, span_end: float, window_s: float,
                   hop_s: float) -> np.ndarray:
    """span_start + tau*hop_s for tau = 0, 1, ... while the window ends inside the span.

    The count is estimated in closed form and refused above MAX_WINDOWS
    before anything is allocated. The per-window edge test then settles
    it: the first start with start + window_s > span_end + tol ends the
    run. Starts never decrease, so the starts that pass form a prefix.
    """
    limit = span_end + _WINDOW_EDGE_TOL
    estimate = (limit - window_s - span_start) / hop_s + 1.0
    if estimate > MAX_WINDOWS:
        raise TooManyWindows(f"{estimate:.3g} windows of {window_s:g} s every {hop_s:g} s "
                             f"exceed the limit of {MAX_WINDOWS}")
    n = max(0, int(estimate)) + 2
    while True:
        with np.errstate(over="ignore"):  # an infinite start lies past the span
            starts = span_start + np.arange(n) * hop_s
        over = starts + window_s > limit
        if over[-1]:
            return starts[:int(np.argmax(over))]
        # The estimate fell short: starts are coarser than hop_s (a hop below
        # the spacing of floats near span_start), so all n windows passed.
        if n > MAX_WINDOWS:
            raise TooManyWindows(f"more than {MAX_WINDOWS} windows of {window_s:g} s "
                                 f"every {hop_s:g} s")
        n *= 2


def window_distributions(seq: ZoneSequence, window_s: float = DEFAULT_WINDOW_S,
                         hop_s: float = DEFAULT_HOP_S) -> WindowSeries:
    """Rolling-window zone occupancy distributions over one segment.

    Windows are [start, start+window_s) anchored at the segment span
    start and advanced by hop_s; only windows lying fully inside the
    span are emitted, and windows holding no samples are skipped.
    `index` counts hops, so start = span_start + index*hop_s even when
    earlier windows were skipped. Each window's zone counts are the
    difference of a running per-zone count at its two ends; a span
    that would place more than MAX_WINDOWS windows raises
    `TooManyWindows`.
    """
    if not (0.0 < window_s < math.inf and 0.0 < hop_s < math.inf):
        raise ValueError("window_s and hop_s must be positive and finite")
    k = seq.k
    if len(seq) == 0 and seq.span is None:
        return WindowSeries.concat([], k)
    span_start, span_end = seq.span if seq.span is not None else (
        float(seq.times[0]), float(seq.times[-1]))
    starts = _window_starts(span_start, span_end, window_s, hop_s)
    lo, hi = np.searchsorted(seq.times, np.stack((starts, starts + window_s)), side="left")
    index = np.flatnonzero(hi > lo)
    if not len(index):
        return WindowSeries.concat([], k)
    lo, hi = lo[index], hi[index]
    cum = np.zeros((len(seq) + 1, k), dtype=np.int64)
    cum[np.arange(1, len(seq) + 1), seq.zones - 1] = 1
    np.cumsum(cum, axis=0, out=cum)
    probs = (cum[hi] - cum[lo]) / (hi - lo)[:, None]
    return WindowSeries(index, starts[index], probs)


def average_distribution(probs) -> tuple[float, ...]:
    """Eq.-style session summary: the column mean of an (n, k) window probs matrix."""
    try:
        mat = np.asarray(probs, dtype=float)
    except ValueError:
        raise DimensionMismatch("window distributions differ in length") from None
    if len(mat) == 0:
        raise EmptyInput("cannot average zero windows")
    if mat.ndim != 2:
        raise DimensionMismatch(f"window probs must form an (n, k) matrix, got {mat.shape}")
    return tuple(float(p) for p in mat.mean(axis=0))


def heatmap_grid(points, screen: tuple[int, int], cell_px: int = DEFAULT_CELL_PX) -> Heatmap:
    """Count points into a cell_px grid; points on or past an edge clamp inward."""
    if cell_px < 1:
        raise ValueError("cell_px must be >= 1")
    width, height = screen
    cols = max(1, math.ceil(width / cell_px))
    rows = max(1, math.ceil(height / cell_px))
    if not isinstance(points, np.ndarray):
        points = list(points)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    grid = np.zeros((rows, cols), dtype=np.int64)
    count_points(grid, pts[:, 0], pts[:, 1], cell_px)
    return Heatmap(grid=grid, cell_px=cell_px)


def count_points(grid: np.ndarray, x: np.ndarray, y: np.ndarray, cell_px: int) -> None:
    """Add each point (x[i], y[i]) into `grid`, a grid of cell_px cells, in place.

    A point falls in the cell its coordinates floor to; a point on or past
    any edge clamps inward. A non-finite coordinate is a `ValueError`.
    """
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("cannot count a point with a non-finite coordinate")
    rows, cols = grid.shape
    # Clipped as floats, so a far point clamps before the cast and cannot overflow it.
    cx = np.clip(x // cell_px, 0, cols - 1).astype(np.intp)
    cy = np.clip(y // cell_px, 0, rows - 1).astype(np.intp)
    np.add.at(grid, (cy, cx), 1)


# ---------------------------------------------------------------------------
# Exports

def write_zone_model_csv(model: ZoneModel, path) -> None:
    _write_text(path, [_ZONES_HEADER + "\n", _join_rows([
        _fmt_cells(np.arange(1, model.k + 1)), _byte_cells(list(model.labels)),
        _fmt_cells(model.centers_array())])])


def read_zone_model_csv(path) -> ZoneModel:
    """The zone model of a `write_zone_model_csv` file, given its path or its bytes.
    A bad row raises `ParseError` naming its line and byte offset."""
    centers: list[tuple[float, float]] = []
    labels: list[str] = []
    for lineno, offset, parts in _csv_rows(path, "zones", _ZONES_HEADER):
        idx = _parse_int(parts[0], "zones", lineno, offset, "zone index")
        x = _parse_float(parts[2], "zones", lineno, offset, "x")
        y = _parse_float(parts[3], "zones", lineno, offset, "y")
        if idx != len(centers) + 1:
            raise ParseError("zones", lineno, offset,
                             f"zone index {idx} out of order (expected {len(centers) + 1})")
        if any(c == '"' or c < " " for c in parts[1]):  # like a player id, a label is a CSV cell
            raise ParseError("zones", lineno, offset,
                             f"zone label {parts[1]!r} holds a quote or a control character")
        if parts[1] in labels:
            raise ParseError("zones", lineno, offset, f"duplicate zone label {parts[1]!r}")
        if (x, y) in centers:
            raise ParseError("zones", lineno, offset,
                             f"duplicate zone center ({fmt_num(x)}, {fmt_num(y)})")
        centers.append((x, y))
        labels.append(parts[1])
    if not centers:
        raise ParseError("zones", 1, 0, "zone model has no centers")
    return ZoneModel(centers=tuple(centers), labels=tuple(labels))


def write_heatmap_csv(hm: Heatmap, path) -> None:
    _write_text(path, (_join_rows([_fmt_cells(hm.grid[rows])])
                       for rows in _row_blocks(len(hm.grid), hm.grid.shape[1])))


_PGM_LINE = 70    # plain PGM lines should not exceed 70 characters


def write_heatmap_pgm(hm: Heatmap, path) -> None:
    """P2 (plain) PGM, counts max-normalized onto 0..255.

    Each grid row starts a new line and is wrapped greedily: a line takes
    as many of the row's values as fit in 70 characters. Like the CSV, it
    is formatted whole rows of about `_CHUNK_ROWS` cells at a time.
    """
    rows, cols = hm.grid.shape
    peak = int(hm.grid.max())
    scale = 255.0 / peak if peak > 0 else 0.0

    def blocks():
        yield f"P2\n{cols} {rows}\n255\n"
        for block in _row_blocks(rows, cols):
            yield _pgm_lines(np.rint(hm.grid[block] * scale).astype(np.int64))

    _write_text(path, blocks())


def _pgm_lines(values: np.ndarray) -> bytes:
    """The PGM lines of a block of grid rows, each row wrapped greedily."""
    text = np.frombuffer(_join_rows([_fmt_cells(values.ravel())]), np.uint8).copy()
    ends = np.flatnonzero(text == ord("\n"))  # the separator after each value
    # The line that starts at value i ends before value nxt[i]: the first one
    # that ends more than 70 characters after value i starts, or the next row's first.
    starts = np.concatenate(([0], ends[:-1] + 1))
    row_ends = (np.arange(len(ends)) // values.shape[1] + 1) * values.shape[1]
    nxt = np.minimum(np.searchsorted(ends, starts + _PGM_LINE, "right"), row_ends).tolist()
    space = np.ones(len(ends), bool)
    space[-1] = False
    i = nxt[0]
    while i < len(ends):
        space[i - 1] = False  # value i starts a line
        i = nxt[i]
    text[ends[space]] = ord(" ")
    return text.tobytes()
