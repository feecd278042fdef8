"""The counter-based stream, and synth's block draws against the scalar oracle.

`ScalarRng` is a pure-Python splitmix64 stream drawn one number at a
time, and the `scalar_*` functions are the loops `synth` ran on it
before every draw became a block. Each block kernel must give the same
result and leave the stream at the same counter.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from etk.model import BeatSeries, EventKind, GameEvent, MatchTimeline, Round, key_mask
from etk.rng import Rng
from etk.synth import (
    AD_MEAN_HOLD_S,
    BPM_JITTER,
    CLICK_MEAN_HOLD_S,
    CLICK_RATE,
    CohortProfile,
    DEATH_PROB,
    DEFAULT_INPUT_RATE_HZ,
    Scenario,
    W_BASE_MEAN_HOLD_S,
    W_BASE_RATE,
    WM1_MEAN_HOLD_S,
    _generate_beats,
    _generate_input,
    _generate_timeline,
    _runs_to_mask,
    _two_state_runs,
    default_profiles,
)

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
CHILD_GAMMA = 0xD1B54A32D192ED03


def mix64(z: int) -> int:
    """The splitmix64 finalizer on Python integers."""
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


class ScalarRng:
    """The stream drawn one number at a time, as `synth` once drew it."""

    def __init__(self, seed: int):
        self.seed = seed & MASK
        self.n = 0

    def u64(self) -> int:
        self.n += 1
        return mix64((self.seed + self.n * GAMMA) & MASK)

    def random(self) -> float:
        return (self.u64() >> 11) / float(1 << 53)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def geometric(self, p: float) -> int | float:
        if p >= 1.0:
            return 1
        u = self.random()
        with np.errstate(over="ignore"):  # p near 0: an endless run, which the caller cuts to n
            quotient = np.log1p(-u) / np.log1p(-p)
        return 1 + int(quotient) if quotient < math.inf else math.inf


def scalar_two_state_runs(rng, n, on_fraction, mean_on_samples):
    if on_fraction <= 0.0 or n == 0:
        return []
    if on_fraction >= 1.0:
        return [(0, n)]
    mean_off = mean_on_samples * (1.0 - on_fraction) / on_fraction
    p_on = min(1.0, 1.0 / mean_on_samples)
    p_off = min(1.0, 1.0 / mean_off)
    runs = []
    pos = 0
    state_on = rng.random() < on_fraction
    while pos < n:
        length = rng.geometric(p_on if state_on else p_off)
        if state_on:
            runs.append((pos, min(pos + length, n)))
        pos += length
        state_on = not state_on
    return runs


def scalar_runs_to_mask(runs, n):
    mask = np.zeros(n, dtype=bool)
    for start, end in runs:
        mask[start:end] = True
    return mask


def scalar_input_keys(rng, profile, n):
    rate_hz = DEFAULT_INPUT_RATE_HZ
    a = np.zeros(n, dtype=bool)
    d = np.zeros(n, dtype=bool)
    for start, end in scalar_two_state_runs(rng, n, profile.ad_hold_rate,
                                            AD_MEAN_HOLD_S * rate_hz):
        if rng.random() < 0.5:
            a[start:end] = True
        else:
            d[start:end] = True
    overlay, w_base, clicks = (
        scalar_runs_to_mask(scalar_two_state_runs(rng, n, rate, hold_s * rate_hz), n)
        for rate, hold_s in ((profile.w_m1_rate, WM1_MEAN_HOLD_S),
                             (W_BASE_RATE, W_BASE_MEAN_HOLD_S),
                             (CLICK_RATE, CLICK_MEAN_HOLD_S)))
    w = w_base | overlay
    m1 = overlay | (clicks & ~w)
    return (a * key_mask(["A"]) | d * key_mask(["D"]) | w * key_mask(["W"])
            | m1 * key_mask(["MOUSE1"])).astype(np.uint32)


def scalar_beats(rng, bpm_base, total_s):
    ibi = 60.0 / bpm_base
    beats = []
    t = ibi * (0.5 + 0.5 * rng.random())
    while t < total_s - 0.1:
        beats.append(round(t, 3))
        t += ibi * (1.0 + BPM_JITTER * (rng.random() - 0.5))
    return beats


def scalar_timeline(rng, scenario, player_id):
    rounds, events = [], []
    for i in range(scenario.rounds):
        start = i * scenario.round_s
        end = (i + 1) * scenario.round_s
        rounds.append(Round(index=i + 1, start_t=start, end_t=end))
        events.append(GameEvent(start, EventKind.SPAWN, player_id))
        events.append(GameEvent(start, EventKind.SPAWN, "bot_a"))
        events.append(GameEvent(start, EventKind.SPAWN, "bot_b"))
        if rng.random() < DEATH_PROB:
            death_t = start + rng.uniform(0.6, 0.95) * scenario.round_s
            events.append(GameEvent(death_t, EventKind.KILL, "bot_a", player_id))
            events.append(GameEvent(death_t, EventKind.DEATH, player_id))
        else:
            kill_t = start + rng.uniform(0.3, 0.8) * scenario.round_s
            fire_t = max(start, kill_t - 0.1)
            events.append(GameEvent(fire_t, EventKind.WEAPON_FIRE, player_id))
            events.append(GameEvent(kill_t, EventKind.KILL, player_id, "bot_a"))
            events.append(GameEvent(kill_t, EventKind.DEATH, "bot_a"))
    return MatchTimeline(rounds=rounds, events=events)


def assert_same_position(block: Rng, scalar: ScalarRng):
    """Both streams sit at one counter: their next draws agree."""
    assert block.u64_block(2).tolist() == [scalar.u64(), scalar.u64()]


def advanced(rng: ScalarRng, count: int) -> ScalarRng:
    for _ in range(count):
        rng.u64()
    return rng


seeds = st.integers(0, MASK)


class TestStream:
    def test_seed_zero_gives_the_splitmix64_vectors(self):
        assert Rng(0).u64_block(3).tolist() == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    @settings(max_examples=200, deadline=None)
    @given(seeds, st.integers(0, 5000), st.integers(0, 40))
    def test_u64_block_matches_the_reference_mixer(self, seed, skip, count):
        rng = Rng(seed)
        rng.u64_block(skip)  # a block of any size only moves the counter
        assert rng.u64_block(count).tolist() == [
            mix64((seed + (skip + i) * GAMMA) & MASK) for i in range(1, count + 1)]

    @settings(max_examples=200, deadline=None)
    @given(seeds, st.integers(0, 1 << 40))
    def test_child_seed_matches_the_reference_mixer(self, seed, k):
        assert Rng(seed).child_seed(k) == mix64((seed + (k + 1) * CHILD_GAMMA) & MASK)

    def test_random_block_takes_the_top_53_bits(self):
        scalar = ScalarRng(99)
        assert Rng(99).random_block(64).tolist() == [scalar.random() for _ in range(64)]

    @settings(max_examples=100, deadline=None)
    @given(seeds, st.integers(0, 30), st.integers(0, 30), st.integers(0, 10))
    def test_rewind_repeats_the_given_back_draws(self, seed, head, back, more):
        rng = Rng(seed)
        drawn = rng.u64_block(head + back).tolist()
        rng.rewind(back)
        assert rng.u64_block(back + more).tolist()[:back] == drawn[head:]
        rng.rewind(back + more)
        assert_same_position(rng, advanced(ScalarRng(seed), head))

    def test_rewind_past_the_start_is_refused(self):
        rng = Rng(1)
        rng.u64_block(2)
        with pytest.raises(ValueError):
            rng.rewind(3)
        with pytest.raises(ValueError):
            rng.rewind(-1)


# on_fraction values at the edges: none, all, so rare that the OFF mean
# is astronomically long (but finite), so common that OFF runs last one slot.
EDGE_FRACTIONS = [0.0, 1.0, 1e-300, 1e-12, 0.5, 1 - 1e-12, 1 - 2 ** -53]
# mean ON lengths at or below 1 give an ON side with p >= 1, which draws nothing.
EDGE_MEANS = [0.25, 1.0, 1.5, 3.0, 40.0, 500.0]


def endless_off(on_fraction, mean_on):
    """The OFF mean overflows to inf: the scalar loop crashed there."""
    return 0.0 < on_fraction < 1.0 and mean_on * (1.0 - on_fraction) / on_fraction == math.inf


def check_runs(seed, n, on_fraction, mean_on):
    block, scalar = Rng(seed), ScalarRng(seed)
    expected = scalar_two_state_runs(scalar, n, on_fraction, mean_on)
    starts, ends = _two_state_runs(block, n, on_fraction, mean_on)
    assert starts.dtype == ends.dtype == np.int64
    assert list(zip(starts.tolist(), ends.tolist())) == expected
    assert _runs_to_mask(starts, ends, n).tolist() == scalar_runs_to_mask(expected, n).tolist()
    assert_same_position(block, scalar)


class TestTwoStateRuns:
    @settings(max_examples=300, deadline=None)
    @given(seeds, st.integers(0, 3000),
           st.one_of(st.sampled_from(EDGE_FRACTIONS), st.floats(0.0, 1.0)),
           st.one_of(st.sampled_from(EDGE_MEANS), st.floats(0.05, 800.0)))
    @example(seed=0, n=1, on_fraction=0.5, mean_on=0.5)
    # A finite OFF mean of 8.99e307: its one draw overflows to an endless run.
    @example(seed=334, n=1, on_fraction=1.1125369292536007e-308, mean_on=1.0)
    def test_matches_the_scalar_loop(self, seed, n, on_fraction, mean_on):
        assume(not endless_off(on_fraction, mean_on))
        check_runs(seed, n, on_fraction, mean_on)

    def test_seeded_sweep_matches_the_scalar_loop(self):
        params = np.random.default_rng(2024)
        for case in range(1500):
            on_fraction = (EDGE_FRACTIONS[case % len(EDGE_FRACTIONS)] if case % 3 == 0
                           else float(params.uniform(0.0, 1.0)))
            mean_on = (EDGE_MEANS[case % len(EDGE_MEANS)] if case % 5 == 0
                       else float(params.uniform(0.1, 60.0)))
            check_runs(int(params.integers(0, 1 << 62)), int(params.integers(0, 2000)),
                       on_fraction, mean_on)

    def test_runs_spanning_several_blocks_match_the_scalar_loop(self, monkeypatch):
        """A block of lengths falls short about once in 700 calls: find such calls."""
        calls = [0]
        real = Rng.random_block

        def counted(self, count):
            calls[0] += 1
            return real(self, count)

        monkeypatch.setattr(Rng, "random_block", counted)
        params = np.random.default_rng(2024)
        several = []
        for _ in range(20000):
            case = (int(params.integers(0, 1 << 62)), int(params.integers(1, 2000)),
                    float(params.uniform(0.0, 1.0)), float(params.uniform(0.1, 600.0)))
            calls[0] = 0
            _two_state_runs(Rng(case[0]), *case[1:])
            if calls[0] > 2:  # one call for the first state, one per block
                several.append(case)
        assert len(several) >= 20
        for case in several:
            check_runs(*case)

    @pytest.mark.parametrize("on_fraction", [5e-324, 1e-310])
    def test_endless_off_run_covers_the_session(self, on_fraction):
        """An OFF mean that overflows to inf gives p == 0: the run never ends."""
        rng = Rng(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            starts, ends = _two_state_runs(rng, 5000, on_fraction, 3.0)
        assert len(starts) == len(ends) == 0
        assert_same_position(rng, advanced(ScalarRng(3), 2))  # the first state, one OFF run


class TestInputKeys:
    @settings(max_examples=60, deadline=None)
    @given(seeds, st.integers(1, 3000),
           st.one_of(st.sampled_from(EDGE_FRACTIONS), st.floats(0.0, 1.0)),
           st.one_of(st.sampled_from(EDGE_FRACTIONS), st.floats(0.0, 1.0)))
    def test_matches_the_scalar_loop(self, seed, n, ad_hold_rate, w_m1_rate):
        rate_hz = DEFAULT_INPUT_RATE_HZ
        assume(not endless_off(ad_hold_rate, AD_MEAN_HOLD_S * rate_hz))
        assume(not endless_off(w_m1_rate, WM1_MEAN_HOLD_S * rate_hz))
        pro, _ = default_profiles()
        profile = CohortProfile.from_dict(pro.to_dict() | {"ad_hold_rate": ad_hold_rate,
                                                           "w_m1_rate": w_m1_rate})
        block, scalar = Rng(seed), ScalarRng(seed)
        keys = _generate_input(block, Rng(0), profile, n / rate_hz).keys
        assert keys.tolist() == scalar_input_keys(scalar, profile, n).tolist()
        assert_same_position(block, scalar)


class TestBeats:
    @settings(max_examples=300, deadline=None)
    @given(seeds, st.floats(30.0, 220.0),
           st.one_of(st.sampled_from([0.0, 0.05, 0.1, 0.3, 1.0]), st.floats(0.0, 900.0)))
    def test_matches_the_scalar_loop(self, seed, bpm_base, total_s):
        pro, _ = default_profiles()
        profile = CohortProfile.from_dict(pro.to_dict() | {"bpm_base": bpm_base})
        block, scalar = Rng(seed), ScalarRng(seed)
        beats = _generate_beats(block, profile, total_s)
        assert beats.beat_times.tolist() == BeatSeries(
            beat_times=scalar_beats(scalar, bpm_base, total_s)).beat_times.tolist()
        assert_same_position(block, scalar)


class TestTimeline:
    @settings(max_examples=100, deadline=None)
    @given(seeds, st.integers(1, 60), st.floats(0.05, 300.0))
    def test_matches_the_scalar_loop(self, seed, rounds, round_s):
        scenario = Scenario(rounds=rounds, round_s=round_s)
        block, scalar = Rng(seed), ScalarRng(seed)
        timeline = _generate_timeline(block, scenario, "p1")
        expected = scalar_timeline(scalar, scenario, "p1")
        assert timeline.rounds == expected.rounds
        assert timeline.events == expected.events
        assert all(type(e.t) is float for e in timeline.events)
        assert_same_position(block, scalar)
