"""Keyboard and mouse behavior features from sampled input state.

The input log is a fixed-cadence snapshot of the held key set, not an
event stream, so durations are reconstructed by crediting each sample
one nominal sampling period. On fixtures with exact cadences this
makes every fraction an exact rational.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySupport, InsufficientData
from .model import DEFAULT_INPUT_PERIOD_S, InputSeries, Interval, key_mask, true_runs
from .preprocess import slice_by_intervals
from .textio import _byte_cells, _fmt_cells, _join_rows, _write_text

MOUSE1 = "MOUSE1"
KINEMATICS_WINDOW_S = 1.0


@dataclass(frozen=True)
class ClickStats:
    click_count: int
    mean_duration_s: float
    clicks_per_minute: float


@dataclass(frozen=True)
class MouseKinematics:
    """Mean path length per window and mean speed per sample pair."""
    path_mean_px: float
    vel_mean_px_s: float


def nominal_period(samples: InputSeries) -> float:
    """Median inter-sample spacing, or the 10 ms default when undecidable."""
    if len(samples) < 2:
        return DEFAULT_INPUT_PERIOD_S
    return float(np.median(np.diff(samples.t)))


def key_hold_intervals(samples: InputSeries, key: str,
                       period_s: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Maximal held stretches of `key` as half-open [start, end) arrays.

    A run closes at the first sample after it; a run still held at the
    end of the data closes one nominal period past the last sample.
    """
    if period_s is None:
        period_s = nominal_period(samples)
    first, last = true_runs((samples.keys & key_mask([key])) != 0)
    t = np.append(samples.t, samples.t[-1:] + period_s)
    return t[first], t[last + 1]


def _overlap(lo: np.ndarray, hi: np.ndarray, intervals: list[Interval]) -> np.ndarray:
    """Length of each [lo[i], hi[i]) covered by the ordered disjoint intervals.

    `lo` and `hi` must be non-decreasing. Each span's pieces are summed
    interval by interval, in order.
    """
    total = np.zeros(len(lo))
    for iv in intervals:
        a = int(np.searchsorted(hi, iv.start_t, side="right"))
        b = int(np.searchsorted(lo, iv.end_t, side="left"))
        if b > a:
            total[a:b] += np.minimum(hi[a:b], iv.end_t) - np.maximum(lo[a:b], iv.start_t)
    return total


def _alive_duration(alive: list[Interval]) -> float:
    return math.fsum(iv.end_t - iv.start_t for iv in alive)


def fraction_held(samples: InputSeries, keys, alive: list[Interval],
                  mode: str = "any", period_s: float | None = None) -> float:
    """Fraction of alive time with the key condition satisfied.

    mode "any" matches samples holding at least one of `keys`;
    mode "all" requires every key in `keys` to be held. Each matching
    sample contributes one nominal period, clipped to the alive spans.
    """
    if mode not in ("any", "all"):
        raise ValueError(f"mode must be 'any' or 'all', got {mode!r}")
    total = _alive_duration(alive)
    if not alive or total <= 0.0:
        raise EmptySupport("alive intervals have zero total duration")
    if period_s is None:
        period_s = nominal_period(samples)
    mask = np.uint32(key_mask(keys))
    held_keys = samples.keys & mask
    match = held_keys != 0 if mode == "any" else held_keys == mask
    t = samples.t[match]
    # Accumulate in sample order, as a running sum does (np.sum would
    # add pairwise and round differently).
    credited = np.cumsum(_overlap(t, t + period_s, alive))
    held = float(credited[-1]) if len(credited) else 0.0
    return held / total


def click_stats(samples: InputSeries, alive: list[Interval],
                period_s: float | None = None) -> ClickStats:
    """Click count, mean held duration, and rate within alive time.

    A click is one hold interval of MOUSE1; its duration is clipped
    to the alive spans, and holds entirely outside them are dropped.
    """
    if not alive:
        raise EmptySupport("click_stats needs non-empty alive intervals")
    total = _alive_duration(alive)
    if total <= 0.0:
        raise EmptySupport("alive intervals have zero total duration")
    clipped = _overlap(*key_hold_intervals(samples, MOUSE1, period_s), alive)
    durations = clipped[clipped > 0.0].tolist()
    count = len(durations)
    mean = math.fsum(durations) / count if count else 0.0
    return ClickStats(click_count=count, mean_duration_s=mean,
                      clicks_per_minute=count / (total / 60.0))


def mouse_kinematics(samples: InputSeries, alive: list[Interval]) -> MouseKinematics:
    """Mean path per window and mean speed per step inside alive time.

    Each alive interval is tiled into KINEMATICS_WINDOW_S bins (the tail
    bin may be shorter); a step between consecutive samples of one
    interval is credited to the bin holding its first sample. A mean
    over no observations is 0.0.
    """
    segments = slice_by_intervals(samples, alive)
    if sum(len(seg) for seg in segments) < 2:
        raise InsufficientData("need at least 2 input samples inside alive time")

    paths: list[np.ndarray] = []
    speeds: list[np.ndarray] = []
    for iv, seg in zip(alive, segments):
        if len(seg) < 2:
            continue
        n_bins = max(1, math.ceil((iv.end_t - iv.start_t) / KINEMATICS_WINDOW_S))
        # math.hypot, not np.hypot: they differ in the last bit on some inputs.
        step = np.array(list(map(math.hypot, np.diff(seg.mouse_x).tolist(),
                                 np.diff(seg.mouse_y).tolist())))
        speeds.append(step / np.diff(seg.t))
        bins = np.minimum(((seg.t[:-1] - iv.start_t) / KINEMATICS_WINDOW_S).astype(np.int64),
                          n_bins - 1)
        # bincount adds each bin's steps in sample order.
        paths.append(np.bincount(bins, weights=step, minlength=n_bins))

    if not paths:
        return MouseKinematics(path_mean_px=0.0, vel_mean_px_s=0.0)
    return MouseKinematics(path_mean_px=float(np.concatenate(paths).mean()),
                           vel_mean_px_s=float(np.concatenate(speeds).mean()))


@dataclass(frozen=True)
class FeatureRow:
    player_id: str
    cohort: str
    round_index: int
    feature: str
    value: float


def write_feature_table(rows: list[FeatureRow], path) -> None:
    _write_text(path, ["player_id,cohort,round,feature,value\n", _join_rows([
        _byte_cells([r.player_id for r in rows]), _byte_cells([r.cohort for r in rows]),
        _fmt_cells(np.array([r.round_index for r in rows], np.int64)),
        _byte_cells([r.feature for r in rows]), _fmt_cells(np.array([r.value for r in rows], float))])])
