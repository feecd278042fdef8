"""
Input behaviour and KDE curves
==============================

Keyboard/mouse streams carry their own cohort signal: how much of the
alive time is spent strafing (A or D held), how often movement and
fire overlap (W together with MOUSE1), click cadence, and mouse
speed.  Per-player fractions then feed a Gaussian KDE so the two
cohorts can be compared as smooth densities rather than bare means.
"""
import numpy as np

from etk import (
    PlayerMeta,
    Cohort,
    Scenario,
    click_stats,
    default_profiles,
    extract_alive_segments,
    fit_kde,
    fraction_held,
    generate_session,
    kde_curve,
    kde_evaluate,
    key_mask,
    key_names,
    mouse_kinematics,
    silverman_bandwidth,
)

# --- 1. A corpus of eight players per cohort ---------------------------------
pro_profile, am_profile = default_profiles()
scenario = Scenario(rounds=4, round_s=40.0)

sessions = []
for i in range(16):
    cohort = Cohort.PROFESSIONAL if i < 8 else Cohort.AMATEUR
    profile = pro_profile if i < 8 else am_profile
    prefix = "pro" if i < 8 else "am"
    meta = PlayerMeta(player_id=f"{prefix}{i + 1:02d}", cohort=cohort, n=i + 1)
    sessions.append(generate_session(profile, scenario, seed=9000 + i, meta=meta))

# --- 2. Per-player hold fractions ---------------------------------------------
# The input stream holds the keys down at each 10 ms sample as a bitmask
# over KEY_ALPHABET, so a key condition is one array expression.
inputs = sessions[0].input
wm1_mask = key_mask(["W", "MOUSE1"])
both = (inputs.keys & wm1_mask) == wm1_mask
print(f"{sessions[0].meta.player_id}: {len(inputs)} input samples, "
      f"{int(both.sum())} with W and MOUSE1 down "
      f"(first at t={inputs.t[both][0]:.2f}s, keys {key_names(int(inputs.keys[both][0]))})")

# fraction_held works on the same masks, confined to alive time.
# "any" mode: a sample counts when at least one of the keys is down
# (strafing).  "all" mode: every key must be down at once (moving
# forward while firing).
ad, wm1 = {}, {}
for session in sessions:
    alive = extract_alive_segments(session.timeline, session.meta.player_id)
    ad[session.meta.player_id] = fraction_held(session.input, {"A", "D"}, alive,
                                               mode="any")
    wm1[session.meta.player_id] = fraction_held(session.input, {"W", "MOUSE1"},
                                                alive, mode="all")

for cohort, prefix in ((Cohort.PROFESSIONAL, "pro"), (Cohort.AMATEUR, "am")):
    ids = [s.meta.player_id for s in sessions if s.meta.cohort is cohort]
    mean_ad = np.mean([ad[i] for i in ids])
    mean_wm1 = np.mean([wm1[i] for i in ids])
    print(f"{cohort.value:12s} A/D held {mean_ad:.3f}, W+MOUSE1 {mean_wm1:.3f}")
print("(professionals strafe more; amateurs fire on the move more)\n")

# --- 3. Clicks and mouse kinematics for one player each ------------------------
for session in (sessions[0], sessions[8]):
    alive = extract_alive_segments(session.timeline, session.meta.player_id)
    cs = click_stats(session.input, alive)
    mk = mouse_kinematics(session.input, alive)
    print(f"{session.meta.player_id}: {cs.click_count} clicks "
          f"({cs.clicks_per_minute:.1f}/min, mean hold {cs.mean_duration_s * 1e3:.0f} ms), "
          f"mouse {mk.vel_mean_px_s:.0f} px/s")

# --- 4. KDE over the A/D fractions ---------------------------------------------
# Silverman's rule picks the bandwidth from the sample spread; the
# resulting density integrates to one, so curves of differently sized
# cohorts are directly comparable.
print()
for cohort, prefix in ((Cohort.PROFESSIONAL, "pro"), (Cohort.AMATEUR, "am")):
    values = [ad[s.meta.player_id] for s in sessions if s.meta.cohort is cohort]
    h = silverman_bandwidth(values)
    kde = fit_kde(values)
    xs, ys = kde_curve(kde, points=512)
    integral = float(np.trapezoid(ys, xs))
    peak = float(xs[int(np.argmax(ys))])
    print(f"{cohort.value:12s} n={len(values)}, bandwidth {h:.4f}, "
          f"peak at {peak:.3f}, curve integral {integral:.4f}")
    assert abs(kde_evaluate(kde, peak) - ys.max()) < 1e-9

# The two densities barely overlap: evaluate each curve at the other
# cohort's peak.
pro_kde = fit_kde([ad[s.meta.player_id] for s in sessions[:8]])
am_kde = fit_kde([ad[s.meta.player_id] for s in sessions[8:]])
pro_peak = float(np.mean([ad[s.meta.player_id] for s in sessions[:8]]))
am_peak = float(np.mean([ad[s.meta.player_id] for s in sessions[8:]]))
print(f"\npro density at am mean: {kde_evaluate(pro_kde, am_peak):.4f}")
print(f"am density at pro mean: {kde_evaluate(am_kde, pro_peak):.4f}")
print(f"each cohort's density at its own mean: "
      f"{kde_evaluate(pro_kde, pro_peak):.2f} / {kde_evaluate(am_kde, am_peak):.2f}")
