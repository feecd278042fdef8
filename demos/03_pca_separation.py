"""
PCA: where do the cohorts separate?
===================================

Averaged zone distributions are 9-dimensional, but the interesting
variation lives in far fewer directions.  We fit a PCA (Jacobi
eigendecomposition of the 1/n covariance) to per-window distributions
pooled across players, then project each player's averaged
distribution and look at where the cohorts land.
"""
import numpy as np

from etk import (
    PlayerMeta,
    Cohort,
    Scenario,
    assign_zones,
    average_distribution,
    default_profiles,
    default_zone_model,
    dominant_coordinate,
    extract_alive_segments,
    fit_pca,
    generate_session,
    interpolate_gaps,
    project,
    slice_by_intervals,
    window_distributions,
)

# --- 1. Build a small cohort corpus -----------------------------------------
pro_profile, am_profile = default_profiles()
scenario = Scenario(rounds=6, round_s=40.0)
model = default_zone_model()

sessions = []
for i in range(12):
    cohort = Cohort.PROFESSIONAL if i < 6 else Cohort.AMATEUR
    profile = pro_profile if i < 6 else am_profile
    prefix = "pro" if i < 6 else "am"
    meta = PlayerMeta(player_id=f"{prefix}{i + 1:02d}", cohort=cohort, n=i + 1)
    sessions.append(generate_session(profile, scenario, seed=1000 + i, meta=meta))


def session_windows(session):
    """The (n, 9) window probs matrix of one session, all segments stacked."""
    alive = extract_alive_segments(session.timeline, session.meta.player_id)
    out = []
    for interval, segment in zip(alive, slice_by_intervals(session.gaze, alive)):
        repaired, _ = interpolate_gaps(segment)
        seq = assign_zones(repaired, model,
                           span=(interval.start_t, interval.end_t))
        out.append(window_distributions(seq).probs)
    return np.concatenate(out)


per_session = {s.meta.player_id: session_windows(s) for s in sessions}
pooled = np.concatenate(list(per_session.values()))
print(f"{len(sessions)} sessions, {len(pooled)} pooled window distributions")

# --- 2. Fit the principal axes ----------------------------------------------
pca = fit_pca(pooled)
print("explained variance ratio:",
      " ".join(f"{r:.3f}" for r in pca.explained_ratio[:4]), "...")

# Each leading axis is dominated by a single zone coordinate: the
# strongest loading is at least twice any other, so the axis has a
# clean reading.
for pc in range(2):
    dom = dominant_coordinate(pca.components[pc])
    assert dom is not None
    zone, loading = dom
    print(f"PC{pc + 1} is dominated by zone {zone} "
          f"({model.labels[zone - 1]}), loading {loading:+.3f}")

# --- 3. Project each player's averaged distribution --------------------------
print(f"\n{'player':8s} {'cohort':12s} {'PC1':>8s} {'PC2':>8s}")
coords = {}
for session in sessions:
    avg = average_distribution(per_session[session.meta.player_id])
    xy = project(pca, avg)
    coords[session.meta.player_id] = xy
    print(f"{session.meta.player_id:8s} {session.meta.cohort.value:12s} "
          f"{xy[0]:8.3f} {xy[1]:8.3f}")

pro_pc1 = np.array([coords[s.meta.player_id][0] for s in sessions
                    if s.meta.cohort is Cohort.PROFESSIONAL])
am_pc1 = np.array([coords[s.meta.player_id][0] for s in sessions
                   if s.meta.cohort is Cohort.AMATEUR])

# Orient the axis so that professionals sit on the positive side, then
# measure the gap between the closest members of the two clouds.
sign = 1.0 if pro_pc1.mean() >= am_pc1.mean() else -1.0
margin = (sign * pro_pc1).min() - (sign * am_pc1).max()
print(f"\ncohort means on PC1: pro {pro_pc1.mean():+.3f}, am {am_pc1.mean():+.3f}")
print(f"separation margin along PC1: {margin:.3f} "
      f"({'clean split' if margin > 0 else 'clouds overlap'})")
