"""Command-line entry point: `etk ingest | analyze | synth`.

Every run is reproducible: outputs are plain CSV/PGM/JSON written
atomically, a `manifest.json` records the effective configuration,
seed, and SHA-256 digests of the inputs, and rerunning with the same
inputs produces a byte-identical output tree.

Exit codes: 0 success, 2 parse/profile error, 3 assembly/validation
error, 4 degenerate analysis input. `ETK_LOG` sets log verbosity.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import re
import shutil
import sys
from dataclasses import dataclass
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import (
    AssemblyError,
    DegenerateData,
    EtkError,
    InsufficientData,
    InvalidProfile,
    ParseError,
    TooManyWindows,
)
from .ingest import META_FILE, _parse_file, read_session_dir, write_session_dir
from .input_features import (
    MOUSE1,
    FeatureRow,
    click_stats,
    fraction_held,
    mouse_kinematics,
    nominal_period,
    write_feature_table,
)
from .model import Cohort, InputSeries, Interval, PlayerMeta, Session
from .numerics import fit_kde, fit_pca, kde_curve, project
from .preprocess import (
    beats_to_bpm,
    extract_alive_segments,
    interpolate_gaps,
    mean_bpm,
    missing_stats,
    slice_by_intervals,
)
from .rng import Rng
from .synth import CohortProfile, Scenario, default_profiles, generate_session, load_profiles
from .textio import _byte_cells, _fmt_cells, _join_rows, _write_text
from .zones import (
    DEFAULT_HOP_S,
    DEFAULT_WINDOW_S,
    MAX_WINDOWS,
    WindowSeries,
    ZoneModel,
    assign_zones,
    average_distribution,
    default_zone_model,
    heatmap_grid,
    read_zone_model_csv,
    window_distributions,
    write_heatmap_csv,
    write_heatmap_pgm,
    write_zone_model_csv,
)

log = logging.getLogger("etk")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ASSEMBLY = 3
EXIT_DEGENERATE = 4

KDE_FEATURES = ("ad_hold_fraction", "w_m1_fraction")
# Every file `analyze` can write; manifest.json first, as it marks a complete run.
ANALYZE_FILES = ("manifest.json", "missing.json", "windows.csv", "averages.csv", "zones.csv",
                 "features.csv", "kde.csv", "pca_model.csv", "pca_projections.csv",
                 *(f"heatmap_{c.value}.{ext}" for c in Cohort for ext in ("csv", "pgm")))
_CHUNK_ROWS = 4096    # window rows formatted at a time when writing CSVs


def _configure_logging() -> None:
    level = os.environ.get("ETK_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _dir_digests(directory: Path) -> dict[str, str]:
    return {p.name: _sha256(p) for p in sorted(directory.iterdir()) if p.is_file()}


def _expand_session_dirs(paths: list[str]) -> list[Path]:
    """Resolve arguments to session directories.

    A path holding a meta.json is a session; otherwise its immediate
    children holding one are used. Anything else is an assembly error.
    """
    out: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if (p / META_FILE).is_file():
            out.append(p)
            continue
        if p.is_dir():
            children = sorted(c for c in p.iterdir() if (c / META_FILE).is_file())
            if children:
                out.extend(children)
                continue
        raise AssemblyError([], f"{p} is not a session directory and contains none")
    return out


def _write_manifest(out_dir: Path, command: str, config: dict, inputs: dict) -> None:
    manifest = {"command": command, "config": config, "inputs": inputs}
    _write_text(out_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# ingest

def _session_summary(session: Session) -> dict:
    return {
        "player_id": session.meta.player_id,
        "cohort": session.meta.cohort.value,
        "rounds": len(session.timeline.rounds),
        "events": len(session.timeline.events),
        "gaze_samples": len(session.gaze),
        "input_samples": len(session.input),
        "beats": len(session.hrm) if session.hrm is not None else 0,
        "missing_fraction": missing_stats(session.gaze).missing_fraction,
    }


def cmd_ingest(args) -> int:
    dirs = _expand_session_dirs(args.paths)
    summaries = []
    for d in dirs:
        session = read_session_dir(d)
        log.info("ingested %s: %d rounds", d, len(session.timeline.rounds))
        summaries.append({"directory": str(d), **_session_summary(session)})
    payload = json.dumps(summaries, indent=2, sort_keys=True)
    print(payload)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_text(out_dir / "summary.json", payload + "\n")
        _write_manifest(out_dir, "ingest", {"paths": [str(d) for d in dirs]},
                        {str(d): _dir_digests(d) for d in dirs})
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze

@dataclass
class _SessionDerived:
    """Everything one session contributes to the pooled artifacts."""
    meta: PlayerMeta
    screen: tuple[int, int]
    missing: dict
    windows: WindowSeries         # every segment's windows, in segment order
    window_round: np.ndarray      # int64 round index of each window
    averaged: tuple[float, ...] | None
    feature_rows: list[FeatureRow]
    heat_points: np.ndarray       # (n, 2): valid gaze x, y after gap repair
    warnings: list[str]           # logged by the parent, in input-directory order


def _segment_features(samples: InputSeries, alive: list[Interval]):
    """Yield the (feature, value) pairs of one segment's input, in features.csv order.

    The sampling period is measured once and shared by every feature
    that credits samples with it.
    """
    period_s = nominal_period(samples)
    yield "ad_hold_fraction", fraction_held(samples, {"A", "D"}, alive, "any", period_s)
    yield "w_m1_fraction", fraction_held(samples, {"W", MOUSE1}, alive, "all", period_s)
    stats = click_stats(samples, alive, period_s)
    yield "clicks_per_minute", stats.clicks_per_minute
    yield "click_mean_duration_s", stats.mean_duration_s
    kin = mouse_kinematics(samples, alive)
    yield "mouse_path_mean_px", kin.path_mean_px
    yield "mouse_vel_mean_px_s", kin.vel_mean_px_s


def _derive_session(directory: Path, model: ZoneModel, window_s: float,
                    hop_s: float) -> _SessionDerived:
    """One session's contribution; runs in a worker process under `--jobs N`.

    It logs nothing itself, so warnings come out in input order whatever
    the workers' timing, and it refuses a session that alone places more
    than MAX_WINDOWS windows before returning them.
    """
    session = read_session_dir(directory)
    meta = session.meta
    alive = extract_alive_segments(session.timeline, meta.player_id)

    audit = missing_stats(session.gaze)
    gaze_segments = slice_by_intervals(session.gaze, alive)
    input_segments = slice_by_intervals(session.input, alive)

    interpolated = 0
    segment_windows: list[WindowSeries] = []
    segment_rounds: list[int] = []
    heat_x: list[np.ndarray] = []
    heat_y: list[np.ndarray] = []
    feature_rows: list[FeatureRow] = []
    warnings: list[str] = []
    n_windows = 0

    for interval, gaze_seg, input_seg in zip(alive, gaze_segments, input_segments):
        rnd = session.timeline.round_containing(interval.start_t)
        round_index = rnd.index if rnd is not None else 0
        repaired, filled = interpolate_gaps(gaze_seg)
        interpolated += filled

        seq = assign_zones(repaired, model, span=(interval.start_t, interval.end_t))
        windows = window_distributions(seq, window_s=window_s, hop_s=hop_s)
        n_windows += len(windows)
        if n_windows > MAX_WINDOWS:
            raise TooManyWindows(f"{meta.player_id} pools more than {MAX_WINDOWS} windows")
        segment_windows.append(windows)
        segment_rounds.append(round_index)

        heat_x.append(repaired.x[repaired.valid])
        heat_y.append(repaired.y[repaired.valid])

        try:
            # A failure keeps the rows of the features before it.
            for feature, value in _segment_features(input_seg, [interval]):
                feature_rows.append(FeatureRow(meta.player_id, meta.cohort.value,
                                               round_index, feature, value))
        except (EtkError, ValueError) as e:
            warnings.append(f"{meta.player_id} round {round_index}: "
                            f"skipping input features ({e})")

    if session.hrm is not None:
        try:
            feature_rows.append(FeatureRow(meta.player_id, meta.cohort.value, 0,
                                           "bpm_mean", mean_bpm(beats_to_bpm(session.hrm))))
        except InsufficientData as e:
            warnings.append(f"{meta.player_id}: skipping bpm ({e})")

    windows = WindowSeries.concat(segment_windows, model.k)
    window_round = np.repeat(np.asarray(segment_rounds, dtype=np.int64),
                             [len(w) for w in segment_windows])
    averaged = None
    if len(windows):
        averaged = average_distribution(windows.probs)
    else:
        warnings.append(f"{meta.player_id}: no rolling windows "
                        f"(segments shorter than {window_s:g}s)")

    missing = dict(audit.to_dict(), interpolated_samples=interpolated)
    heat_points = np.column_stack((np.concatenate(heat_x), np.concatenate(heat_y))) \
        if heat_x else np.empty((0, 2))
    return _SessionDerived(meta=meta, screen=session.gaze.screen, missing=missing,
                           windows=windows, window_round=window_round, averaged=averaged,
                           feature_rows=feature_rows, heat_points=heat_points,
                           warnings=warnings)


def _pool_sessions(dirs: list[Path], results) -> list[_SessionDerived]:
    """The derived sessions of `dirs`, taken from `results` in input order.

    Each session's warnings are logged as it is taken. A player_id seen
    twice, or a pooled window total above MAX_WINDOWS, is refused as
    soon as the session that causes it is taken.
    """
    derived: list[_SessionDerived] = []
    first_dir: dict[str, Path] = {}
    pooled = 0
    for d, session in zip(dirs, results):
        for warning in session.warnings:
            log.warning("%s", warning)
        other = first_dir.setdefault(session.meta.player_id, d)
        if other != d:
            raise AssemblyError([], f"player_id {session.meta.player_id!r} appears in "
                                    f"both {other} and {d}")
        pooled += len(session.windows)
        if pooled > MAX_WINDOWS:
            raise TooManyWindows(f"the sessions pool more than {MAX_WINDOWS} windows")
        derived.append(session)
    return derived


def _derive_sessions(dirs: list[Path], derive, jobs: int) -> list[_SessionDerived]:
    """`derive` of each directory, pooled: serially, or in up to `jobs` processes.

    Workers are forked, not spawned: a spawned worker would import numpy
    and etk again (about 0.2 s each). The executor forks all its workers
    before it starts its manager thread, and numpy's OpenBLAS stops its
    thread in its own fork handler, so no other thread runs when this
    process forks. A failure cancels the sessions not yet started; the
    pool is shut down before the error propagates.
    """
    workers = min(jobs, len(dirs))
    if workers == 1:
        return _pool_sessions(dirs, map(derive, dirs))
    # Imported here: the import costs every other command about 1 MB and 20 ms.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(max_workers=workers,
                               mp_context=multiprocessing.get_context("fork"))
    try:
        return _pool_sessions(dirs, pool.map(derive, dirs))
    finally:
        pool.shutdown(cancel_futures=True)


def _window_blocks(derived: list[_SessionDerived], kind: list[str], columns):
    """CSV rows `<kind>,player_id,cohort,round,window_index,<columns>`, one per window.

    `columns(d, rows)` gives the float columns of a slice of a session's
    windows as a matrix. Each block holds _CHUNK_ROWS rows, so only one
    block's cells are alive at once, not the whole file's.
    """
    for d in derived:
        for lo in range(0, len(d.windows), _CHUNK_ROWS):
            rows = slice(lo, lo + _CHUNK_ROWS)
            ids = np.column_stack((d.window_round[rows], d.windows.index[rows]))
            yield _join_rows([*kind, d.meta.player_id, d.meta.cohort.value,
                              *_fmt_cells(ids), *_fmt_cells(columns(d, rows))])


def _player_cells(derived: list[_SessionDerived]) -> list[np.ndarray]:
    """The player_id and cohort cells of each session."""
    return [_byte_cells([d.meta.player_id for d in derived]),
            _byte_cells([d.meta.cohort.value for d in derived])]


def _write_windows_csv(path: Path, derived: list[_SessionDerived], k: int) -> None:
    header = "player_id,cohort,round,window_index,window_start," + \
        ",".join(f"p{i}" for i in range(1, k + 1))
    blocks = _window_blocks(derived, [], lambda d, rows: np.column_stack(
        (d.windows.start[rows], d.windows.probs[rows])))
    _write_text(path, chain([header + "\n"], blocks))


def _write_averages_csv(path: Path, derived: list[_SessionDerived], k: int) -> None:
    header = "player_id,cohort," + ",".join(f"p{i}" for i in range(1, k + 1))
    averaged = [d for d in derived if d.averaged is not None]
    probs = np.reshape([d.averaged for d in averaged], (-1, k))
    _write_text(path, [header + "\n", _join_rows([*_player_cells(averaged), *_fmt_cells(probs)])])


def _write_pca_csvs(out_dir: Path, derived: list[_SessionDerived], k: int) -> None:
    model = fit_pca(np.concatenate([d.windows.probs for d in derived]))

    header = "row," + ",".join(f"v{i}" for i in range(1, k + 1))
    labels = ["mean", *(f"component_{i}" for i in range(1, len(model.components) + 1)),
              "explained_variance", "explained_ratio"]
    values = np.vstack((model.mean, model.components, model.explained_variance,
                        model.explained_ratio))
    _write_text(out_dir / "pca_model.csv",
                [header + "\n", _join_rows([_byte_cells(labels), *_fmt_cells(values)])])

    averaged = [d for d in derived if d.averaged is not None]
    xy = project(model, [d.averaged for d in averaged], dims=2)
    averages = _join_rows(["average", *_player_cells(averaged), "", "", *_fmt_cells(xy)])
    _write_text(out_dir / "pca_projections.csv", chain(
        ["kind,player_id,cohort,round,window_index,pc1,pc2\n"],
        _window_blocks(derived, ["window"], lambda d, rows: project(
            model, d.windows.probs[rows], dims=2)),
        [averages]))


def _write_missing_json(path: Path, derived: list[_SessionDerived]) -> None:
    payload = {d.meta.player_id: d.missing for d in derived}
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_heatmaps(out_dir: Path, derived: list[_SessionDerived],
                    screen: tuple[int, int]) -> None:
    for cohort in Cohort:
        points = np.concatenate([np.empty((0, 2))] + [d.heat_points for d in derived
                                                      if d.meta.cohort is cohort])
        if not len(points):
            continue
        hm = heatmap_grid(points, screen=screen)
        write_heatmap_csv(hm, out_dir / f"heatmap_{cohort.value}.csv")
        write_heatmap_pgm(hm, out_dir / f"heatmap_{cohort.value}.pgm")


def _write_kde_csv(path: Path, derived: list[_SessionDerived], bandwidth: float | None) -> None:
    blocks = ["cohort,feature,x,density\n"]
    for cohort in Cohort:
        for feature in KDE_FEATURES:
            values = [r.value for d in derived if d.meta.cohort is cohort
                      for r in d.feature_rows if r.feature == feature]
            if len(values) < 2:
                continue
            try:
                xs, dens = kde_curve(fit_kde(values, bandwidth))
            except EtkError as e:
                log.warning("kde %s/%s skipped: %s", cohort.value, feature, e)
                continue
            blocks.append(_join_rows([cohort.value, feature, *_fmt_cells(np.column_stack((xs, dens)))]))
    _write_text(path, blocks)


def cmd_analyze(args) -> int:
    dirs = _expand_session_dirs(args.paths)
    if args.zones == "default":
        model = default_zone_model()
    else:
        model = _parse_file(read_zone_model_csv, args.zones)
    if not (0 < args.window_s < math.inf and 0 < args.hop_s < math.inf):
        raise ValueError("--window-s and --hop-s must be positive and finite")
    try:
        bandwidth = None if args.bandwidth == "auto" else float(args.bandwidth)
    except ValueError:
        bandwidth = math.nan
    if bandwidth is not None and not 0 < bandwidth < math.inf:
        raise ValueError(f"--bandwidth must be positive and finite, or 'auto', "
                         f"got {args.bandwidth!r}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # A reused --out keeps no file of an earlier run, and a run that fails
    # partway leaves no manifest beside the files it did write.
    for name in ANALYZE_FILES:
        (out_dir / name).unlink(missing_ok=True)

    derive = partial(_derive_session, model=model, window_s=args.window_s, hop_s=args.hop_s)
    derived = _derive_sessions(dirs, derive, args.jobs)
    derived.sort(key=lambda d: (d.meta.cohort.value, d.meta.player_id))

    screens = {d.screen for d in derived}
    screen = sorted(screens)[0]
    if len(screens) > 1:
        log.warning("sessions use differing screens %s; heatmaps use %s", screens, screen)

    k = model.k
    _write_missing_json(out_dir / "missing.json", derived)
    _write_windows_csv(out_dir / "windows.csv", derived, k)
    _write_averages_csv(out_dir / "averages.csv", derived, k)
    write_zone_model_csv(model, out_dir / "zones.csv")
    write_feature_table([r for d in derived for r in d.feature_rows], out_dir / "features.csv")
    _write_kde_csv(out_dir / "kde.csv", derived, bandwidth)
    _write_heatmaps(out_dir, derived, screen)

    pooled = sum(len(d.windows) for d in derived)
    if len(derived) < 2:
        log.warning("only %d session(s): PCA skipped", len(derived))
    elif pooled < 2:
        log.warning("only %d rolling window(s) pooled: PCA skipped", pooled)
    else:
        _write_pca_csvs(out_dir, derived, k)

    _write_manifest(out_dir, "analyze",
                    {"zones": args.zones, "window_s": args.window_s, "hop_s": args.hop_s,
                     "bandwidth": args.bandwidth, "jobs": args.jobs, "seed": args.seed},
                    {str(d): _dir_digests(d) for d in dirs})
    log.info("analyze wrote %s", out_dir)
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth

def cmd_synth(args) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    if args.profile:
        profiles = load_profiles(args.profile)
    else:
        pro, am = default_profiles()
        profiles = {Cohort.PROFESSIONAL: pro, Cohort.AMATEUR: am}
    try:
        scenario = Scenario(rounds=args.rounds, round_s=args.round_s)
    except ValueError as e:
        raise ValueError(f"--rounds {args.rounds} --round-s {args.round_s}: {e}") from None
    if args.count == 0:
        return EXIT_OK

    if Cohort.PROFESSIONAL in profiles and Cohort.AMATEUR in profiles:
        n_pro = round(args.count / 3)
    elif Cohort.PROFESSIONAL in profiles:
        n_pro = args.count
    else:
        n_pro = 0

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # A reused --out keeps no session of an earlier run; other entries stay.
    (out_dir / "manifest.json").unlink(missing_ok=True)
    for child in out_dir.iterdir():
        if re.fullmatch(r"(pro|am)\d{2,}", child.name) and (child / META_FILE).is_file():
            shutil.rmtree(child)
    master = Rng(args.seed)
    for i in range(args.count):
        if i < n_pro:
            cohort, prefix = Cohort.PROFESSIONAL, "pro"
        else:
            cohort, prefix = Cohort.AMATEUR, "am"
        meta = PlayerMeta(player_id=f"{prefix}{i + 1:02d}", cohort=cohort, n=i + 1)
        session = generate_session(profiles[cohort], scenario,
                                   seed=master.child_seed(i), meta=meta)
        write_session_dir(session, out_dir / meta.player_id)
        log.info("synthesized %s (%s)", meta.player_id, cohort.value)

    _write_manifest(out_dir, "synth",
                    {"count": args.count, "seed": args.seed,
                     "profile": args.profile or "default",
                     "rounds": args.rounds, "round_s": args.round_s},
                    {"profile": _sha256(Path(args.profile))} if args.profile else {})
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etk",
        description="Offline gaze/input/heart-rate session analysis toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse and validate session directories")
    p_ingest.add_argument("paths", nargs="+", help="session directories (or one parent)")
    p_ingest.add_argument("--out", default=None, help="write summary + manifest here")
    p_ingest.set_defaults(func=cmd_ingest)

    p_an = sub.add_parser("analyze", help="run the full analysis pipeline")
    p_an.add_argument("paths", nargs="+", help="session directories (or one parent)")
    p_an.add_argument("--out", required=True, help="artifact output directory")
    p_an.add_argument("--zones", default="default",
                      help="zone model CSV path, or 'default'")
    p_an.add_argument("--window-s", type=float, default=DEFAULT_WINDOW_S, dest="window_s")
    p_an.add_argument("--hop-s", type=float, default=DEFAULT_HOP_S, dest="hop_s")
    p_an.add_argument("--bandwidth", default="auto",
                      help="KDE bandwidth value, or 'auto' for Silverman")
    p_an.add_argument("--jobs", type=int, default=1)
    p_an.add_argument("--seed", type=int, default=0)
    p_an.set_defaults(func=cmd_analyze)

    p_syn = sub.add_parser("synth", help="generate synthetic session directories")
    p_syn.add_argument("--out", required=True)
    p_syn.add_argument("--count", type=int, default=15)
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("--profile", default=None, help="cohort profile JSON")
    p_syn.add_argument("--rounds", type=int, default=12)
    p_syn.add_argument("--round-s", type=float, default=40.0, dest="round_s")
    p_syn.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidProfile as e:
        print(f"error: invalid profile: {e}", file=sys.stderr)
        return EXIT_PARSE
    except AssemblyError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ASSEMBLY
    except DegenerateData as e:
        print(f"error: degenerate analysis input: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except TooManyWindows as e:
        print(f"error: {e}; use a larger --hop-s or a smaller --window-s", file=sys.stderr)
        return 1
    except (EtkError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
