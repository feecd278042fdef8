"""
Synthetic sessions: two cohorts, one seed each
==============================================

Every other demo needs data, so we start with the generator.  A
CohortProfile bundles the behavioural targets for one population
(zone dwell propensities, key-hold rates, heart rate, gaze noise,
dropout rate); `generate_session` turns a profile plus a match
Scenario into a full multi-sensor session, deterministically from a
seed.
"""
import tempfile
from pathlib import Path

import numpy as np

from etk import (
    PlayerMeta,
    Cohort,
    Scenario,
    default_profiles,
    generate_session,
    key_names,
    mean_bpm,
    beats_to_bpm,
    missing_stats,
    read_session_dir,
    validate_session,
    write_session_dir,
)

def most_common_keys(inputs) -> str:
    masks, counts = np.unique(inputs.keys, return_counts=True)
    return "+".join(key_names(int(masks[counts.argmax()]))) or "(none)"


# --- 1. Generate one session per cohort -----------------------------------
# The default profiles describe a steadier, cross-hair-anchored
# professional population and a busier, noisier amateur one.
pro_profile, am_profile = default_profiles()
scenario = Scenario(rounds=6, round_s=40.0)

pro = generate_session(pro_profile, scenario, seed=101,
                       meta=PlayerMeta(player_id="pro01", cohort=Cohort.PROFESSIONAL, n=1))
am = generate_session(am_profile, scenario, seed=202,
                      meta=PlayerMeta(player_id="am01", cohort=Cohort.AMATEUR, n=2))

# Gaze and input are columnar: one read-only numpy array per field,
# one entry per sample. Lost gaze samples have valid=False and NaN
# coordinates; input keys are a bitmask over KEY_ALPHABET. The tracker
# rate and the screen are the session's, in its meta.
for session in (pro, am):
    gaze = session.gaze
    report = missing_stats(gaze)
    bpm = mean_bpm(beats_to_bpm(session.hrm))
    print(f"{session.meta.player_id} ({session.meta.cohort.value})")
    print(f"  rounds          : {len(session.timeline.rounds)}"
          f" x {scenario.round_s:.0f}s")
    print(f"  gaze samples    : {len(gaze)} @ {session.meta.gaze_rate_hz:.0f} Hz,"
          f" first at t={gaze.t[0]:.3f}s ({gaze.x[0]:.0f}, {gaze.y[0]:.0f})")
    print(f"  missing fraction: {report.missing_fraction:.4f}"
          f" (target {pro_profile.missing_rate}; {int((~gaze.valid).sum())} samples)")
    print(f"  input samples   : {len(session.input)},"
          f" most common key set {most_common_keys(session.input)}")
    print(f"  mean heart rate : {bpm:.1f} bpm")

# --- 2. Validate the structural invariants --------------------------------
# validate_session returns a list of violations; synthetic output must
# come back clean.
for session in (pro, am):
    violations = validate_session(session)
    print(f"{session.meta.player_id}: {len(violations)} violations")
    assert violations == []

# --- 3. Round-trip through the on-disk layout -----------------------------
# Sessions serialize to a five-file directory (gaze.csv, input.csv,
# hrm.txt, demo.events, meta.json).  Writing, reading, and writing
# again reproduces every file byte for byte, which is what makes the
# whole pipeline replayable.
root = Path(tempfile.mkdtemp(prefix="etk-demo1-"))
first = write_session_dir(pro, root / "first")
second = write_session_dir(read_session_dir(first), root / "second")

for name in sorted(p.name for p in first.iterdir()):
    same = (first / name).read_bytes() == (second / name).read_bytes()
    print(f"  {name:12s} byte-identical: {same}")
    assert same

print(f"session dirs left in {root}")
