"""Signal preprocessing: alive-segment extraction, gap repair, heart rate.

The pipeline analyzes only the spans where the tracked player is alive
inside a round; everything else (buy time between rounds, post-death
spectating) is cut before any statistics are computed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InsufficientData, UnknownPlayer
from .model import (
    BeatSeries,
    EventKind,
    GazeSeries,
    InputSeries,
    Interval,
    MatchTimeline,
    true_runs,
)

MAX_GAP_S = 0.1
BPM_WINDOW_BEATS = 4


@dataclass(frozen=True)
class MissingReport:
    """Missingness accounting for one gaze series.

    `gap_histogram` maps run length in samples to the number of invalid
    runs of that length.
    """
    total_samples: int
    missing_samples: int
    gap_histogram: dict[int, int] = field(default_factory=dict)

    @property
    def missing_fraction(self) -> float:
        return self.missing_samples / self.total_samples if self.total_samples else 0.0

    def to_dict(self) -> dict:
        return {
            "total_samples": self.total_samples,
            "missing_samples": self.missing_samples,
            "missing_fraction": self.missing_fraction,
            "gap_histogram": {str(k): v for k, v in sorted(self.gap_histogram.items())},
        }


def extract_alive_segments(timeline: MatchTimeline, player_id: str) -> list[Interval]:
    """Half-open [spawn, death) intervals for `player_id`, one per spawn.

    A spawn without a death in the same round closes at the round end.
    """
    if player_id not in timeline.spawned_players():
        raise UnknownPlayer(f"player {player_id!r} never spawns in this timeline")
    segments: list[Interval] = []
    for rnd in timeline.rounds:
        spawn_t: float | None = None
        for e in timeline.events:
            if not (rnd.start_t <= e.t <= rnd.end_t):
                continue
            if e.kind is EventKind.SPAWN and e.subject == player_id:
                # A spawn on the shared boundary of back-to-back rounds
                # belongs to the round it opens, not the one it closes.
                if e.t < rnd.end_t:
                    spawn_t = e.t
            elif spawn_t is not None and (
                (e.kind is EventKind.DEATH and e.subject == player_id)
                or (e.kind is EventKind.KILL and e.object == player_id)
            ):
                if e.t > spawn_t:
                    segments.append(Interval(spawn_t, e.t))
                spawn_t = None
        if spawn_t is not None and rnd.end_t > spawn_t:
            segments.append(Interval(spawn_t, rnd.end_t))
    return segments


def slice_by_intervals(stream: GazeSeries | InputSeries,
                       intervals: list[Interval]) -> list:
    """Cut a stream into one segment per half-open interval.

    Accepts a `GazeSeries` or an `InputSeries` with increasing times
    (as every parsed or validated stream has) and returns a list of the
    same type. A segment holds exactly the samples with
    start_t <= t < end_t, in source order, as views of the stream.
    """
    bounds = np.searchsorted(stream.t, [t for iv in intervals for t in (iv.start_t, iv.end_t)],
                             side="left").tolist()
    return [stream[lo:max(lo, hi)] for lo, hi in zip(bounds[::2], bounds[1::2])]


def _gap_histogram(first: np.ndarray, last: np.ndarray) -> dict[int, int]:
    lengths, counts = np.unique(last - first + 1, return_counts=True)
    return dict(zip(lengths.tolist(), counts.tolist()))


def interpolate_gaps(segment: GazeSeries) -> tuple[GazeSeries, int]:
    """Linearly fill short tracker dropouts: (repaired series, samples filled).

    A run of invalid samples is repaired only when it is bracketed by
    valid samples on both sides and spans strictly less than
    `MAX_GAP_S` (measured first-invalid to last-invalid timestamp;
    at a 60 Hz cadence that admits up to 6 consecutive misses).
    Longer or boundary-touching runs stay invalid. Valid input samples
    are never changed.
    """
    t = segment.t
    n = len(t)
    first, last = true_runs(~segment.valid)
    fill = (first > 0) & (last < n - 1) & (t[last] - t[first] < MAX_GAP_S)
    first, last = first[fill], last[fill]
    lengths = last - first + 1
    repaired = segment
    if len(first):
        # Each filled sample (runs laid end to end: the k-th filled sample
        # is k minus its run's start in that list, past the run's first
        # index) and the valid samples bracketing its run.
        run_start = np.cumsum(lengths) - lengths
        idx = np.arange(lengths.sum()) + np.repeat(first - run_start, lengths)
        left = np.repeat(first - 1, lengths)
        right = np.repeat(last + 1, lengths)
        w = (t[idx] - t[left]) / (t[right] - t[left])
        x, y, valid = segment.x.copy(), segment.y.copy(), segment.valid.copy()
        x[idx] = segment.x[left] + w * (segment.x[right] - segment.x[left])
        y[idx] = segment.y[left] + w * (segment.y[right] - segment.y[left])
        valid[idx] = True
        repaired = replace(segment, x=x, y=y, valid=valid)
    return repaired, int(lengths.sum())


def missing_stats(series: GazeSeries) -> MissingReport:
    """Audit invalid samples and their run structure without repairing."""
    first, last = true_runs(~series.valid)
    return MissingReport(total_samples=len(series),
                         missing_samples=int((last - first + 1).sum()),
                         gap_histogram=_gap_histogram(first, last))


def beats_to_bpm(beats: BeatSeries, window_beats: int = BPM_WINDOW_BEATS) -> np.ndarray:
    """Instantaneous pulse from a trailing window of beats, as a float64 array.

    Entry j is the rate at beat i = j + window_beats - 1:
    ``60 * (window_beats - 1) / (t_i - t_{i-window_beats+1})``, the
    number of inter-beat intervals inside the window over its duration.
    A window spanning no time, or a subnormal one, gives IEEE infinity.
    """
    if window_beats < 2:
        raise ValueError(f"window_beats must be >= 2, got {window_beats}")
    t = beats.beat_times
    if len(t) < window_beats:
        raise InsufficientData(
            f"need at least {window_beats} beats, got {len(t)}")
    with np.errstate(divide="ignore", over="ignore"):
        return 60.0 * (window_beats - 1) / (t[window_beats - 1:] - t[:len(t) - window_beats + 1])


def mean_bpm(rates: np.ndarray) -> float:
    if not len(rates):
        raise InsufficientData("no bpm samples")
    return math.fsum(rates.tolist()) / len(rates)
