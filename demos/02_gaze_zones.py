"""
Gaze zones: assignment, rolling windows, and heatmaps
=====================================================

Gaze positions are mapped onto a fixed set of nine screen zones
(cross-hair, radar, health bar, ...), each gaze sample going to the
nearest zone center.  From the resulting categorical track we compute
rolling-window occupancy distributions, their average, and a pixel
heatmap.
"""
import tempfile
from pathlib import Path

import numpy as np

from etk import (
    PlayerMeta,
    Cohort,
    Scenario,
    assign_zone,
    assign_zones,
    average_distribution,
    default_profiles,
    default_zone_model,
    extract_alive_segments,
    generate_session,
    heatmap_grid,
    interpolate_gaps,
    slice_by_intervals,
    window_distributions,
    WindowSeries,
)
from etk.zones import write_heatmap_pgm

# --- 1. The zone model ------------------------------------------------------
model = default_zone_model()
print(f"{model.k} zones on a 1920x1080 screen:")
for i, (center, label) in enumerate(zip(model.centers, model.labels), start=1):
    print(f"  {i}: {label:24s} at {center}")

# A point is assigned to the nearest center (1-based index).
print("(100, 100)  ->", assign_zone((100.0, 100.0), model),
      "=", model.labels[assign_zone((100.0, 100.0), model) - 1])
print("(960, 540)  ->", assign_zone((960.0, 540.0), model))

# --- 2. A session's zone track ----------------------------------------------
# The preprocessing chain: keep only alive time, repair short gaze
# dropouts, then classify each sample.
pro_profile, am_profile = default_profiles()
scenario = Scenario(rounds=6, round_s=40.0)
session = generate_session(pro_profile, scenario, seed=7,
                           meta=PlayerMeta(player_id="pro01",
                                           cohort=Cohort.PROFESSIONAL, n=1))

alive = extract_alive_segments(session.timeline, session.meta.player_id)
print(f"\nalive intervals: {[(iv.start_t, iv.end_t) for iv in alive[:3]]} ...")

# Each segment yields a WindowSeries: columns index, start and an
# (n, 9) probs matrix, one row per window. concat pools the segments.
parts = []
for interval, segment in zip(alive, slice_by_intervals(session.gaze, alive)):
    repaired, _ = interpolate_gaps(segment)
    seq = assign_zones(repaired, model, span=(interval.start_t, interval.end_t))
    parts.append(window_distributions(seq))  # 15 s windows, 1 s hop
windows = WindowSeries.concat(parts, model.k)

print(f"rolling windows: {len(windows)}")
print(f"window {windows.index[0]} at t={windows.start[0]:.0f}s:",
      " ".join(f"{p:.2f}" for p in windows.probs[0]))

# Each window distribution sums to one; so does their average.
avg = average_distribution(windows.probs)
print("averaged distribution:", " ".join(f"{p:.3f}" for p in avg))
print(f"sum = {sum(avg):.12f}, cross-hair share = {avg[0]:.3f}")

# --- 3. Pixel heatmap ---------------------------------------------------------
# Raw (not zone-quantised) gaze positions binned into 40 px cells:
# the valid entries of the x and y columns, as an (n, 2) array.
gaze = session.gaze
points = np.column_stack((gaze.x[gaze.valid], gaze.y[gaze.valid]))
hm = heatmap_grid(points, screen=session.gaze.screen, cell_px=40)
peak_row, peak_col = np.unravel_index(int(hm.grid.argmax()), hm.grid.shape)
print(f"\nheatmap {hm.grid.shape[0]}x{hm.grid.shape[1]} cells, "
      f"{hm.total} points, peak cell ({peak_col}, {peak_row}) "
      f"~ pixel ({peak_col * 40 + 20}, {peak_row * 40 + 20})")

out = Path(tempfile.mkdtemp(prefix="etk-demo2-")) / "heatmap.pgm"
write_heatmap_pgm(hm, out)
print(f"wrote grayscale PGM to {out}")
