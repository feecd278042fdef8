"""Shared fixtures: a hand-built valid session and the synthetic cohorts."""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest

from etk.model import (
    Cohort,
    EventKind,
    GameEvent,
    GazeSeries,
    InputSeries,
    BeatSeries,
    MatchTimeline,
    PlayerMeta,
    Round,
    Session,
    key_mask,
    key_names,
)
from etk.rng import Rng
from etk.synth import Scenario, default_profiles, generate_session


def make_gaze(points) -> GazeSeries:
    """Build a series from (t, x, y) tuples; x=None marks a dropout."""
    rows = [(t, np.nan, np.nan, False) if x is None else (t, x, y, True)
            for t, x, y in points]
    t, x, y, valid = zip(*rows) if rows else ((), (), (), ())
    return GazeSeries(t, x, y, valid)


def make_input(rows) -> InputSeries:
    """Build a series from (t, mouse_x, mouse_y, keys) tuples; keys are key names."""
    t, mx, my, keys = zip(*rows) if rows else ((), (), (), ())
    return InputSeries(t, mx, my, [key_mask(k) for k in keys])


def gaze_rows(series: GazeSeries) -> list[tuple]:
    """(t, x, y, valid) per sample, with NaN coordinates of lost samples as None."""
    return [(t, x, y, v) if v else (t, None, None, v) for t, x, y, v in
            zip(series.t.tolist(), series.x.tolist(), series.y.tolist(), series.valid.tolist())]


def input_rows(series: InputSeries) -> list[tuple]:
    """(t, mouse_x, mouse_y, keys) per sample, keys as a set of key names."""
    return [(t, x, y, frozenset(key_names(k))) for t, x, y, k in
            zip(series.t.tolist(), series.mouse_x.tolist(), series.mouse_y.tolist(),
                series.keys.tolist())]


def make_timeline(round_specs, events) -> MatchTimeline:
    rounds = [Round(index=i + 1, start_t=s, end_t=e) for i, (s, e) in enumerate(round_specs)]
    return MatchTimeline(rounds=rounds, events=list(events))


@pytest.fixture
def tiny_session() -> Session:
    """Two 40 s rounds; the player dies at t=25 in round 1, survives round 2."""
    meta = PlayerMeta(player_id="p1", cohort=Cohort.PROFESSIONAL, n=1)
    timeline = make_timeline(
        [(0.0, 40.0), (40.0, 80.0)],
        [
            GameEvent(0.0, EventKind.SPAWN, "p1"),
            GameEvent(0.0, EventKind.SPAWN, "enemy"),
            GameEvent(10.0, EventKind.WEAPON_FIRE, "p1"),
            GameEvent(25.0, EventKind.KILL, "enemy", "p1"),
            GameEvent(25.0, EventKind.DEATH, "p1"),
            GameEvent(40.0, EventKind.SPAWN, "p1"),
            GameEvent(60.0, EventKind.KILL, "p1", "enemy"),
            GameEvent(60.0, EventKind.DEATH, "enemy"),
        ],
    )
    gaze = make_gaze([(i / 60.0, 960.0, 540.0) for i in range(60 * 80)])
    inputs = make_input([(i / 100.0, 900.0, 500.0, ("W",) if i % 2 else ())
                         for i in range(100 * 80)])
    hrm = BeatSeries(beat_times=[0.5 * (i + 1) for i in range(159)])
    return Session(meta=meta, gaze=gaze, input=inputs, timeline=timeline, hrm=hrm)


@dataclass
class SynthCohorts:
    """The 5 professional + 10 amateur sessions behind the qualitative tests."""
    sessions: list
    generation_s: float


@pytest.fixture(scope="session")
def synth_cohorts() -> SynthCohorts:
    pro, am = default_profiles()
    master = Rng(0)
    t0 = time.perf_counter()
    sessions = []
    for i in range(15):
        cohort = Cohort.PROFESSIONAL if i < 5 else Cohort.AMATEUR
        prefix = "pro" if i < 5 else "am"
        meta = PlayerMeta(player_id=f"{prefix}{i + 1:02d}", cohort=cohort, n=i + 1)
        profile = pro if cohort is Cohort.PROFESSIONAL else am
        sessions.append(generate_session(profile, Scenario(), seed=master.child_seed(i),
                                         meta=meta))
    return SynthCohorts(sessions=sessions, generation_s=time.perf_counter() - t0)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the acceptance checklist collected by test_acceptance.py."""
    module = sys.modules.get("test_acceptance")
    if module is None:
        return
    lines = module.checklist_lines()
    if not lines:
        return
    terminalreporter.section("acceptance checklist")
    for line in lines:
        terminalreporter.write_line(line)
