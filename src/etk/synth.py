"""Seeded synthetic session generator.

Sessions are sampled from cohort profiles: a zone-level Markov dwell
model for gaze (persist in the current zone, else redraw from the
stationary propensity vector), two-state run-length processes for the
held-key patterns, a random walk for the mouse, and jittered
inter-beat intervals for the heart-rate channel. Everything downstream
observes only zone occupancy and key-state fractions, so this level of
fidelity is exactly enough to exercise the full pipeline.

All randomness flows from one `Rng` seed through per-channel child
streams; the same seed always yields byte-identical capture files.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidProfile
from .ingest import assemble_session
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
    key_mask,
)
from .rng import Rng
from .zones import default_zone_model

DEFAULT_INPUT_RATE_HZ = 100.0
# Most samples of one stream a synthetic session may hold: 5.6 h of input
# at 100 Hz, 31 times the 640 s sessions of the longest benchmark corpus.
MAX_SESSION_SAMPLES = 2_000_000

# Shared (cohort-independent) input process settings. The forward-key
# base process and the standalone-click process are identical across
# cohorts so that only the profile-controlled channels differ.
W_BASE_RATE = 0.30
W_BASE_MEAN_HOLD_S = 0.8
CLICK_RATE = 0.05
CLICK_MEAN_HOLD_S = 0.15
AD_MEAN_HOLD_S = 0.4
WM1_MEAN_HOLD_S = 0.6

MISSING_RUN_MEAN_SAMPLES = 3.0
DEATH_PROB = 0.25
BPM_JITTER = 0.08

_PROFILE_FIELDS = ("zone_dwell", "dwell_persistence", "gaze_noise_px", "missing_rate",
                   "ad_hold_rate", "w_m1_rate", "bpm_base")


@dataclass(frozen=True)
class CohortProfile:
    """Generation targets for one cohort.

    `zone_dwell` is the stationary zone propensity vector (the chain
    redraws from it, so it is also the long-run occupancy);
    `dwell_persistence` is the per-sample probability of staying put.
    `ad_hold_rate` and `w_m1_rate` are target fractions of time with
    A-or-D held and with W and MOUSE1 held together.
    """
    zone_dwell: tuple[float, ...]
    dwell_persistence: float
    gaze_noise_px: float
    missing_rate: float
    ad_hold_rate: float
    w_m1_rate: float
    bpm_base: float

    def __post_init__(self):
        object.__setattr__(self, "zone_dwell", tuple(float(p) for p in self.zone_dwell))
        dwell = self.zone_dwell
        if not dwell:
            raise InvalidProfile("zone_dwell is empty")
        if not all(map(math.isfinite, dwell)):
            raise InvalidProfile(f"zone_dwell has non-finite entries: {dwell}")
        for name in _PROFILE_FIELDS[1:]:
            if not math.isfinite(getattr(self, name)):
                raise InvalidProfile(f"{name} {getattr(self, name)} is not finite")
        if any(p < 0.0 for p in dwell):
            raise InvalidProfile(f"zone_dwell has negative entries: {dwell}")
        if abs(sum(dwell) - 1.0) > 1e-9:
            raise InvalidProfile(f"zone_dwell sums to {sum(dwell)}, expected 1")
        if not (0.0 <= self.dwell_persistence < 1.0):
            raise InvalidProfile(f"dwell_persistence {self.dwell_persistence} outside [0, 1)")
        if self.gaze_noise_px < 0.0:
            raise InvalidProfile(f"gaze_noise_px {self.gaze_noise_px} is negative")
        for name in ("missing_rate", "ad_hold_rate", "w_m1_rate"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise InvalidProfile(f"{name} {v} outside [0, 1]")
        if not (30.0 <= self.bpm_base <= 220.0):
            raise InvalidProfile(f"bpm_base {self.bpm_base} outside [30, 220]")

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _PROFILE_FIELDS} | {
            "zone_dwell": list(self.zone_dwell)}

    @staticmethod
    def from_dict(raw: dict) -> "CohortProfile":
        missing = [f for f in _PROFILE_FIELDS if f not in raw]
        if missing:
            raise InvalidProfile(f"profile is missing fields: {', '.join(missing)}")
        try:
            return CohortProfile(tuple(float(p) for p in raw["zone_dwell"]),
                                 *(float(raw[name]) for name in _PROFILE_FIELDS[1:]))
        except (TypeError, ValueError) as e:
            raise InvalidProfile(f"malformed profile field: {e}") from None


@dataclass(frozen=True)
class Scenario:
    """Match structure to generate: `rounds` back-to-back rounds.

    Each round spans at least one sample of every stream, and a session
    holds at most MAX_SESSION_SAMPLES samples of each, so a scenario
    that cannot be generated is refused before anything is allocated.
    """
    rounds: int = 12
    round_s: float = 40.0

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if not 0.0 < self.round_s < math.inf:
            raise ValueError(f"round_s must be positive and finite, got {self.round_s}")
        min_rate, max_rate = sorted((DEFAULT_GAZE_RATE_HZ, DEFAULT_INPUT_RATE_HZ))
        if self.round_s * min_rate < 1.0:
            raise ValueError(f"round_s {self.round_s} is shorter than one {min_rate:g} Hz sample")
        # Each round holds a sample, so too many rounds is refused before
        # `total_s`, a float that overflows for huge `rounds`, is formed.
        if self.rounds > MAX_SESSION_SAMPLES or self.total_s * max_rate > MAX_SESSION_SAMPLES:
            raise ValueError(f"{self.rounds} rounds of {self.round_s} s hold more than "
                             f"{MAX_SESSION_SAMPLES} samples of a {max_rate:g} Hz stream")

    @property
    def total_s(self) -> float:
        return self.rounds * self.round_s


def default_profiles() -> tuple[CohortProfile, CohortProfile]:
    """(professional, amateur) profile pair used when none is supplied.

    Professionals concentrate on the central crosshair zone and rarely
    glance at the radar; amateurs spread their gaze, check the radar
    more, strafe less, and fire while running forward far more often.
    """
    professional = CohortProfile(
        zone_dwell=(0.62, 0.04, 0.04, 0.05, 0.04, 0.05, 0.04, 0.06, 0.06),
        dwell_persistence=0.97,
        gaze_noise_px=45.0,
        missing_rate=0.04,
        ad_hold_rate=0.32,
        w_m1_rate=0.04,
        bpm_base=78.0,
    )
    amateur = CohortProfile(
        zone_dwell=(0.44, 0.13, 0.05, 0.06, 0.05, 0.06, 0.05, 0.08, 0.08),
        dwell_persistence=0.97,
        gaze_noise_px=60.0,
        missing_rate=0.04,
        ad_hold_rate=0.18,
        w_m1_rate=0.12,
        bpm_base=92.0,
    )
    return professional, amateur


def _profile_bytes(source) -> bytes:
    """The bytes of a profile JSON given as a path or bytes; an unreadable file is an
    `InvalidProfile`."""
    if isinstance(source, (bytes, bytearray)):
        return bytes(source)
    try:
        return Path(source).read_bytes()
    except OSError as e:
        raise InvalidProfile(f"cannot read profile JSON: {e}") from None


def load_profiles(source) -> dict[Cohort, CohortProfile]:
    """Read cohort profiles from JSON, a path or its bytes:
    {"professional": {...}, "amateur": {...}}."""
    try:
        raw = json.loads(_profile_bytes(source).decode("utf-8"))
    except json.JSONDecodeError as e:
        raise InvalidProfile(f"cannot read profile JSON: {e}") from None
    if not isinstance(raw, dict) or not raw:
        raise InvalidProfile("profile JSON must be a non-empty object keyed by cohort")
    out: dict[Cohort, CohortProfile] = {}
    for key, value in raw.items():
        try:
            cohort = Cohort(key)
        except ValueError:
            raise InvalidProfile(f"unknown cohort {key!r}") from None
        if not isinstance(value, dict):
            raise InvalidProfile(f"profile for {key!r} must be an object")
        out[cohort] = CohortProfile.from_dict(value)
    return out


def _two_state_runs(rng: Rng, n: int, on_fraction: float,
                    mean_on_samples: float) -> tuple[np.ndarray, np.ndarray]:
    """ON runs [starts[i], ends[i]) of a two-state renewal process over n slots.

    Run lengths are geometric with the given ON mean; the OFF mean is
    set so the long-run ON fraction equals `on_fraction`. One draw picks
    the first state, then each run takes one draw, except on a side
    whose success probability is 1: its runs last one slot.
    """
    if on_fraction <= 0.0 or n == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    if on_fraction >= 1.0:
        return np.zeros(1, np.int64), np.full(1, n, np.int64)
    mean_off = mean_on_samples * (1.0 - on_fraction) / on_fraction
    on_first = rng.random_block(1)[0] < on_fraction
    # Runs alternate sides: `means[j]` is the mean of the runs at positions 2k + j.
    means = (mean_on_samples, mean_off) if on_first else (mean_off, mean_on_samples)
    p = [min(1.0, 1.0 / m) for m in means]
    drawing = [j for j in (0, 1) if p[j] < 1.0]
    pair_mean = sum(max(1.0, m) for m in means)
    parts, pos = [], 0
    while pos < n:
        # Three standard deviations past the expected count: a second block is rare.
        expected = (n - pos) / pair_mean
        pairs = int(expected + 3.0 * math.sqrt(expected)) + 1
        u = rng.random_block(pairs * len(drawing)).reshape(pairs, len(drawing))
        lengths = np.ones((pairs, 2))
        with np.errstate(all="ignore"):  # p near 0 gives an endless run, cut to n below
            for col, j in enumerate(drawing):
                lengths[:, j] += np.floor(np.log1p(-u[:, col]) / np.log1p(-p[j]))
        ends = pos + np.cumsum(np.fmin(lengths.ravel(), n).astype(np.int64))
        keep = min(int(np.searchsorted(ends, n)) + 1, len(ends))  # through the first end >= n
        # Give back all but the draws of the kept runs: (keep + 1 - j) // 2 sit at 2k + j.
        rng.rewind(u.size - sum((keep + 1 - j) // 2 for j in drawing))
        parts.append(ends[:keep])
        pos = int(ends[keep - 1])
    ends = np.concatenate(parts)
    starts = np.concatenate(([0], ends[:-1]))
    first_on = 0 if on_first else 1
    return starts[first_on::2], np.minimum(ends[first_on::2], n)


def _runs_to_mask(starts: np.ndarray, ends: np.ndarray, n: int) -> np.ndarray:
    """Mask of n slots, True inside each of the disjoint runs [starts[i], ends[i])."""
    depth = np.cumsum(np.bincount(starts, minlength=n + 1) - np.bincount(ends, minlength=n + 1))
    return depth[:n] > 0


def _generate_timeline(rng: Rng, scenario: Scenario, player_id: str) -> MatchTimeline:
    """Rounds plus spawn/kill/death events for the player and two bots."""
    rounds: list[Round] = []
    events: list[GameEvent] = []
    # Two draws per round: whether the player dies, then when.
    draws = rng.random_block(2 * scenario.rounds).reshape(-1, 2).tolist()
    for i, (dies, u) in enumerate(draws):
        start = i * scenario.round_s
        end = (i + 1) * scenario.round_s
        rounds.append(Round(index=i + 1, start_t=start, end_t=end))
        events.append(GameEvent(start, EventKind.SPAWN, player_id))
        events.append(GameEvent(start, EventKind.SPAWN, "bot_a"))
        events.append(GameEvent(start, EventKind.SPAWN, "bot_b"))
        if dies < DEATH_PROB:
            death_t = start + (0.6 + (0.95 - 0.6) * u) * scenario.round_s
            events.append(GameEvent(death_t, EventKind.KILL, "bot_a", player_id))
            events.append(GameEvent(death_t, EventKind.DEATH, player_id))
        else:
            kill_t = start + (0.3 + (0.8 - 0.3) * u) * scenario.round_s
            fire_t = max(start, kill_t - 0.1)
            events.append(GameEvent(fire_t, EventKind.WEAPON_FIRE, player_id))
            events.append(GameEvent(kill_t, EventKind.KILL, player_id, "bot_a"))
            events.append(GameEvent(kill_t, EventKind.DEATH, "bot_a"))
    return MatchTimeline(rounds=rounds, events=events)


def _generate_gaze(rng_zone: Rng, rng_noise: Rng, rng_missing: Rng,
                   profile: CohortProfile, total_s: float) -> GazeSeries:
    n = int(round(total_s * DEFAULT_GAZE_RATE_HZ))
    times = np.arange(n) / DEFAULT_GAZE_RATE_HZ

    # Markov zone chain: redraw when the persistence coin fails.
    redraw = rng_zone.random_block(n) >= profile.dwell_persistence
    redraw[0] = True
    cum = np.cumsum(profile.zone_dwell)
    draws = np.searchsorted(cum, rng_zone.random_block(n), side="right")
    draws = np.minimum(draws, len(cum) - 1)
    last_redraw = np.maximum.accumulate(np.where(redraw, np.arange(n), -1))
    chain = draws[last_redraw]

    centers = default_zone_model().centers_array()
    if len(profile.zone_dwell) != len(centers):
        raise InvalidProfile(
            f"zone_dwell has {len(profile.zone_dwell)} entries, zone model has {len(centers)}")
    w, h = DEFAULT_SCREEN
    x = centers[chain, 0] + profile.gaze_noise_px * rng_noise.normal_block(n)
    y = centers[chain, 1] + profile.gaze_noise_px * rng_noise.normal_block(n)
    x = np.round(np.clip(x, 0.0, w), 2)
    y = np.round(np.clip(y, 0.0, h), 2)

    invalid = _runs_to_mask(
        *_two_state_runs(rng_missing, n, profile.missing_rate, MISSING_RUN_MEAN_SAMPLES), n)
    x[invalid] = np.nan
    y[invalid] = np.nan
    return GazeSeries(*_read_only(times, x, y, ~invalid))


def _generate_input(rng_keys: Rng, rng_mouse: Rng, profile: CohortProfile,
                    total_s: float) -> InputSeries:
    rate_hz = DEFAULT_INPUT_RATE_HZ
    n = int(round(total_s * rate_hz))
    times = np.arange(n) / rate_hz

    starts, ends = _two_state_runs(rng_keys, n, profile.ad_hold_rate, AD_MEAN_HOLD_S * rate_hz)
    held_a = rng_keys.random_block(len(starts)) < 0.5  # each run holds A, else D
    a = _runs_to_mask(starts[held_a], ends[held_a], n)
    d = _runs_to_mask(starts[~held_a], ends[~held_a], n)

    overlay = _runs_to_mask(
        *_two_state_runs(rng_keys, n, profile.w_m1_rate, WM1_MEAN_HOLD_S * rate_hz), n)
    w_base = _runs_to_mask(
        *_two_state_runs(rng_keys, n, W_BASE_RATE, W_BASE_MEAN_HOLD_S * rate_hz), n)
    clicks = _runs_to_mask(
        *_two_state_runs(rng_keys, n, CLICK_RATE, CLICK_MEAN_HOLD_S * rate_hz), n)

    w = w_base | overlay
    # Standalone clicks never coincide with W, so W+MOUSE1 time is
    # exactly the overlay process and tracks w_m1_rate.
    m1 = overlay | (clicks & ~w)

    keys = (a * key_mask(["A"]) | d * key_mask(["D"]) | w * key_mask(["W"])
            | m1 * key_mask(["MOUSE1"])).astype(np.uint32)

    width, height = DEFAULT_SCREEN
    mx = np.clip(960.0 + np.cumsum(rng_mouse.normal_block(n) * 6.0), 0.0, width)
    my = np.clip(540.0 + np.cumsum(rng_mouse.normal_block(n) * 4.0), 0.0, height)
    mx = np.round(mx, 2)
    my = np.round(my, 2)

    return InputSeries(*_read_only(times, mx, my, keys))


def _generate_beats(rng: Rng, profile: CohortProfile, total_s: float) -> BeatSeries:
    ibi = 60.0 / profile.bpm_base
    end = total_s - 0.1
    # Each step is at least ibi * (1 - BPM_JITTER/2), so `count` steps pass `end`.
    count = int(max(end, 0.0) / (ibi * (1.0 - BPM_JITTER / 2))) + 2
    u = rng.random_block(1 + count)
    steps = ibi * (1.0 + BPM_JITTER * (u[1:] - 0.5))
    t = np.cumsum(np.concatenate(([ibi * (0.5 + 0.5 * u[0])], steps)))  # sums left to right
    beats = int(np.searchsorted(t, end))  # each beat draws the step after it
    rng.rewind(count - beats)
    return BeatSeries(beat_times=[round(x, 3) for x in t[:beats].tolist()])


def generate_session(profile: CohortProfile, scenario: Scenario, seed: int,
                     meta: PlayerMeta) -> Session:
    """One full synthetic session, deterministic in (profile, scenario, seed).

    Gaze is drawn at `DEFAULT_GAZE_RATE_HZ` on `DEFAULT_SCREEN`, so a
    `meta` with another rate or screen is refused with a `ValueError`.
    """
    for field, value, drawn in (("gaze_rate_hz", meta.gaze_rate_hz, DEFAULT_GAZE_RATE_HZ),
                                ("screen", tuple(meta.screen), DEFAULT_SCREEN)):
        if value != drawn:
            raise ValueError(f"meta.{field} must be {drawn}, which synthetic gaze is drawn with, "
                             f"got {value}")
    base = Rng(seed)
    r_timeline, r_zone, r_noise, r_missing, r_keys, r_mouse, r_hrm = (
        Rng(base.child_seed(k)) for k in range(7))

    timeline = _generate_timeline(r_timeline, scenario, meta.player_id)
    gaze = _generate_gaze(r_zone, r_noise, r_missing, profile, scenario.total_s)
    input_samples = _generate_input(r_keys, r_mouse, profile, scenario.total_s)
    hrm = _generate_beats(r_hrm, profile, scenario.total_s)
    return assemble_session(meta, gaze, input_samples, timeline, hrm)
