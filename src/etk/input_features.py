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
from .textio import _write_text, fmt_num
from .zones import ZoneModel, _nearest_zones

MOUSE1 = "MOUSE1"
KINEMATICS_WINDOW_S = 1.0


@dataclass(frozen=True)
class ClickStats:
    click_count: int
    mean_duration_s: float
    clicks_per_minute: float


@dataclass(frozen=True)
class MouseKinematics:
    """Path length per window and speed per sample pair, as mean/std."""
    path_mean_px: float
    path_std_px: float
    vel_mean_px_s: float
    vel_std_px_s: float


def nominal_period(samples: InputSeries) -> float:
    """Median inter-sample spacing, or the 10 ms default when undecidable."""
    if len(samples) < 2:
        return DEFAULT_INPUT_PERIOD_S
    return float(np.median(np.diff(samples.t)))


def _key_runs(samples: InputSeries, key: str) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each maximal run of samples holding `key`."""
    return true_runs((samples.keys & key_mask([key])) != 0)


def key_hold_intervals(samples: InputSeries, key: str,
                       period_s: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Maximal held stretches of `key` as half-open [start, end) arrays.

    A run closes at the first sample after it; a run still held at the
    end of the data closes one nominal period past the last sample.
    """
    if period_s is None:
        period_s = nominal_period(samples)
    first, last = _key_runs(samples, key)
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


def click_stats(samples: InputSeries, button: str = MOUSE1,
                alive: list[Interval] | None = None,
                period_s: float | None = None) -> ClickStats:
    """Click count, mean held duration, and rate within alive time.

    A click is one hold interval of `button`; its duration is clipped
    to the alive spans, and holds entirely outside them are dropped.
    """
    if alive is None or not alive:
        raise EmptySupport("click_stats needs non-empty alive intervals")
    total = _alive_duration(alive)
    if total <= 0.0:
        raise EmptySupport("alive intervals have zero total duration")
    clipped = _overlap(*key_hold_intervals(samples, button, period_s), alive)
    durations = clipped[clipped > 0.0].tolist()
    count = len(durations)
    mean = math.fsum(durations) / count if count else 0.0
    return ClickStats(click_count=count, mean_duration_s=mean,
                      clicks_per_minute=count / (total / 60.0))


def _mean_std(values: np.ndarray) -> tuple[float, float]:
    if not len(values):
        return 0.0, 0.0
    std = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    return float(values.mean()), std


def mouse_kinematics(samples: InputSeries, alive: list[Interval],
                     window_s: float = KINEMATICS_WINDOW_S) -> MouseKinematics:
    """Path-per-window and speed-per-step statistics inside alive time.

    Each alive interval is tiled into window_s bins (the tail bin may
    be shorter); a step between consecutive samples of one interval is
    credited to the bin holding its first sample. Stds use n-1 and are
    0.0 when fewer than two observations exist.
    """
    segments = slice_by_intervals(samples, alive)
    if sum(len(seg) for seg in segments) < 2:
        raise InsufficientData("need at least 2 input samples inside alive time")

    paths: list[np.ndarray] = []
    speeds: list[np.ndarray] = []
    for iv, seg in zip(alive, segments):
        if len(seg) < 2:
            continue
        n_bins = max(1, math.ceil((iv.end_t - iv.start_t) / window_s))
        # math.hypot, not np.hypot: they differ in the last bit on some inputs.
        step = np.array(list(map(math.hypot, np.diff(seg.mouse_x).tolist(),
                                 np.diff(seg.mouse_y).tolist())))
        speeds.append(step / np.diff(seg.t))
        bins = np.minimum(((seg.t[:-1] - iv.start_t) / window_s).astype(np.int64), n_bins - 1)
        # bincount adds each bin's steps in sample order.
        paths.append(np.bincount(bins, weights=step, minlength=n_bins))

    path_mean, path_std = _mean_std(np.concatenate(paths) if paths else np.empty(0))
    vel_mean, vel_std = _mean_std(np.concatenate(speeds) if speeds else np.empty(0))
    return MouseKinematics(path_mean_px=path_mean, path_std_px=path_std,
                           vel_mean_px_s=vel_mean, vel_std_px_s=vel_std)


def click_zone_distribution(samples: InputSeries, button: str,
                            model: ZoneModel) -> tuple[float, ...]:
    """Normalized zone counts of click onsets (all-zero when no clicks).

    The zone is assigned from the mouse position at the onset sample,
    not the release.
    """
    onsets = _key_runs(samples, button)[0]
    if not len(onsets):
        return (0.0,) * model.k
    zones = _nearest_zones(samples.mouse_x[onsets], samples.mouse_y[onsets],
                           model.centers_array())
    return tuple(c / len(onsets) for c in np.bincount(zones - 1, minlength=model.k).tolist())


@dataclass(frozen=True)
class FeatureRow:
    player_id: str
    cohort: str
    round_index: int
    feature: str
    value: float


def write_feature_table(rows: list[FeatureRow], path) -> None:
    lines = ["player_id,cohort,round,feature,value"]
    for r in rows:
        lines.append(f"{r.player_id},{r.cohort},{r.round_index},{r.feature},{fmt_num(r.value)}")
    _write_text(path, "\n".join(lines) + "\n")
