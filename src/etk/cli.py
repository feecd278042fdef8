"""Command-line entry point: `etk ingest | analyze | synth`.

Every run is reproducible: outputs are plain CSV/PGM/JSON written
atomically, a `manifest.json` records the effective configuration,
seed, and SHA-256 digests of the inputs read, and rerunning with the same
inputs produces a byte-identical output tree.

Exit codes: 0 success, 2 parse/profile error, 3 assembly/validation
error, 4 degenerate analysis input, 1 any other error (bad option values,
I/O failures, `TooManyWindows`). `ETK_LOG` sets log verbosity.
"""
from __future__ import annotations

import argparse
import atexit
import gc
import logging
import math
import os
import pickle
import re
import shutil
import sys
from dataclasses import dataclass
from functools import partial
from itertools import chain
from pathlib import Path
from typing import NoReturn

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
# read_session_dir stays importable from here for perfbench's tracer test.
from .ingest import (META_FILE, _read_file, read_session_captures, read_session_dir,
                     read_session_head, write_session_dir)
from .input_features import (
    MOUSE1,
    FeatureRow,
    click_stats,
    fraction_held,
    mouse_kinematics,
    nominal_period,
    write_feature_table,
)
from .model import Cohort, InputSeries, Interval, PlayerMeta, _validate_meta
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
from .synth import Scenario, default_profiles, generate_session, load_profiles
from .textio import _byte_cells, _fmt_cells, _join_rows, _json_text, _row_blocks, _write_text
from .zones import (
    DEFAULT_HOP_S,
    DEFAULT_WINDOW_S,
    MAX_WINDOWS,
    WindowSeries,
    ZoneModel,
    assign_zones,
    average_distribution,
    count_points,
    default_zone_model,
    heatmap_grid,
    read_zone_model_csv,
    window_distributions,
    write_heatmap_csv,
    write_heatmap_pgm,
    write_zone_model_csv,
)

log = logging.getLogger("etk")

# Frozen at exit, the ~22k objects that numpy and etk create at import are
# skipped by the teardown collections (about 30 ms); no run ever sees a freeze.
atexit.register(gc.freeze)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ASSEMBLY = 3
EXIT_DEGENERATE = 4

KDE_FEATURES = ("ad_hold_fraction", "w_m1_fraction")
# Every file `analyze` can write; manifest.json first, as it marks a complete run.
ANALYZE_FILES = ("manifest.json", "missing.json", "windows.csv", "averages.csv", "zones.csv",
                 "features.csv", "kde.csv", "pca_model.csv", "pca_projections.csv",
                 *(f"heatmap_{c.value}.{ext}" for c in Cohort for ext in ("csv", "pgm")))


def _configure_logging() -> None:
    level = os.environ.get("ETK_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)


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


def _check_corpus(dirs: list[Path]) -> tuple[list[tuple], tuple[int, int]]:
    """The `read_session_head` of each directory, and the pooled heatmaps' screen.

    It runs before any capture is parsed, and refuses a player_id seen twice
    (the same directory given twice included) and a meta that fails
    `_validate_meta`, such as a screen too large for a heat grid.
    """
    heads, first = [read_session_head(d) for d in dirs], {}
    for i, (meta, _) in enumerate(heads):
        if (j := first.setdefault(meta.player_id, i)) != i:
            raise AssemblyError([], f"player_id {meta.player_id!r} appears in both {dirs[j]} "
                                    f"and {dirs[i]}")
        _validate_meta(meta, bad := [])
        if bad:
            raise AssemblyError(bad, f"session {dirs[i]} failed validation")
    screen = min(screens := {meta.screen for meta, _ in heads})
    if len(screens) > 1:
        log.warning("sessions use differing screens %s; heatmaps use %s", screens, screen)
    return heads, screen


def _write_manifest(out_dir: Path, command: str, config: dict, inputs: dict) -> None:
    _write_text(out_dir / "manifest.json",
                _json_text({"command": command, "config": config, "inputs": inputs}))


def _map_sessions(dirs: list[Path], heads: list, derive, jobs: int):
    """`derive` of each directory and its head, in input order: serially, or in up to
    `jobs` workers. `ingest` maps `_session_summary` and `synth` `_synth_session`
    over one worker per usable CPU, `analyze --jobs N` maps `_derive_session` over N.

    Worker k derives the static share `dirs[k::workers]` in order and stops at
    its first failure; down its pipe go a `+` as each session begins, so a dead
    worker's error names its session, then one pickle of its results. Forked,
    it shares this process's numpy and etk instead of importing them (0.2 s);
    OpenBLAS stops its threads at fork, so no other thread runs then. Static
    shares may leave one worker the longer sessions but need no executor, whose
    modules and threads cost each run about 30 ms and 1.5 MB. The parent derives
    nothing itself and reaps every worker on every path, before any result is
    taken; a worker's failure is raised when it is taken, as a serial one is.
    """
    workers = min(jobs, len(dirs))
    if workers == 1:
        yield from map(derive, dirs, heads)
        return
    import signal  # imported here: about 1.3 ms, which only a run with workers needs
    pids, pipes, shares = [], [], []
    try:
        for k in range(workers):
            r, w = os.pipe()
            pipes.append(os.fdopen(r, "rb"))
            with os.fdopen(w, "wb") as out:
                pids.append(os.fork())
                if pids[-1] == 0:
                    _derive_share(dirs[k::workers], heads[k::workers], derive, out)
        for k, pipe in enumerate(pipes):
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pids[k], 0)[1])
            pids[k] = 0  # reaped
            begun = re.match(rb"\+*", data).end()
            if code:
                how = f"signal {signal.Signals(-code).name}" if code < 0 else f"status {code}"
                raise EtkError(f"the worker deriving {dirs[k::workers][max(begun - 1, 0)]} "
                               f"ended by {how}")
            shares.append(pickle.loads(memoryview(data)[begun:]))
    finally:
        for pid in filter(None, pids):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
    for i in range(len(dirs)):
        if isinstance(result := shares[i % workers][i // workers], Exception):
            raise result
        yield result


def _derive_share(dirs: list[Path], heads: list, derive, out) -> NoReturn:
    """A forked worker's life; it leaves by `os._exit`, never into the parent's stack."""
    code, results = 1, []
    try:
        for d, head in zip(dirs, heads):
            os.write(out.fileno(), b"+")  # unbuffered: `out` holds nothing yet
            try:
                results.append(derive(d, head))
            except Exception as e:  # the parent raises it in input order
                results.append(e)
                break
        pickle.dump(results, out, pickle.HIGHEST_PROTOCOL)
        out.flush()
        code = 0
    finally:
        os._exit(code)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity, or `os.cpu_count()` where the
    system reports none."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


# ---------------------------------------------------------------------------
# ingest

def _session_summary(directory: Path, head: tuple) -> tuple[dict, dict[str, str]]:
    """The summary of one session directory and its files' digests; its session
    is dropped on return."""
    session, digests = read_session_captures(directory, *head)
    return {
        "directory": str(directory),
        "player_id": session.meta.player_id,
        "cohort": session.meta.cohort.value,
        "rounds": len(session.timeline.rounds),
        "events": len(session.timeline.events),
        "gaze_samples": len(session.gaze),
        "input_samples": len(session.input),
        "beats": len(session.hrm) if session.hrm is not None else 0,
        "missing_fraction": missing_stats(session.gaze).missing_fraction,
    }, digests


def cmd_ingest(args) -> int:
    dirs = _expand_session_dirs(args.paths)
    heads, _ = _check_corpus(dirs)
    summaries, digests = [], []
    for summary, digest in _map_sessions(dirs, heads, _session_summary, _usable_cpus()):
        log.info("ingested %s: %d rounds", summary["directory"], summary["rounds"])
        summaries.append(summary)
        digests.append(digest)
    print(payload := _json_text(summaries), end="")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        # A run that fails partway leaves no manifest beside a new summary.
        (out_dir / "manifest.json").unlink(missing_ok=True)
        _write_text(out_dir / "summary.json", payload)
        _write_manifest(out_dir, "ingest", {"paths": [str(d) for d in dirs]},
                        dict(zip(map(str, dirs), digests)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze

@dataclass
class _SessionDerived:
    """Everything one session contributes to the pooled artifacts."""
    meta: PlayerMeta
    missing: dict
    windows: WindowSeries         # every segment's windows, in segment order
    window_round: np.ndarray      # int64 round index of each window
    averaged: tuple[float, ...] | None
    feature_rows: list[FeatureRow]
    heat_cells: np.ndarray        # flat index of each heat grid cell its valid gaze occupies
    heat_counts: np.ndarray       # int64 count of each, after gap repair
    warnings: list[str]           # logged by the parent, in input-directory order
    digests: dict[str, str]       # SHA-256 of each file read, by name


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


def _derive_session(directory: Path, head: tuple, screen: tuple[int, int], model: ZoneModel,
                    window_s: float, hop_s: float) -> _SessionDerived:
    """One session's contribution; runs in a worker process under `--jobs N`.

    It logs nothing itself, so warnings come out in input order whatever
    the workers' timing, and it refuses a session that alone places more
    than MAX_WINDOWS windows before returning them. Each segment's gaze is
    counted into one heat grid on the pooled heatmaps' `screen` as the
    segment is derived, and it hands back one count per cell occupied.
    """
    session, digests = read_session_captures(directory, *head)
    meta = session.meta
    alive = extract_alive_segments(session.timeline, meta.player_id)

    audit = missing_stats(session.gaze)
    gaze_segments = slice_by_intervals(session.gaze, alive)
    input_segments = slice_by_intervals(session.input, alive)

    interpolated = 0
    segment_windows: list[WindowSeries] = []
    segment_rounds: list[int] = []
    heat = heatmap_grid((), screen)
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

        count_points(heat.grid, repaired.x[repaired.valid], repaired.y[repaired.valid],
                     heat.cell_px)

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
        cause = (f"no {window_s:g}s window held a valid gaze sample"
                 if any(iv.end_t - iv.start_t >= window_s for iv in alive)
                 else f"segments shorter than {window_s:g}s")
        warnings.append(f"{meta.player_id}: no rolling windows ({cause})")

    missing = dict(audit.to_dict(), interpolated_samples=interpolated)
    grid = heat.grid.ravel()
    cells = np.flatnonzero(grid)
    return _SessionDerived(meta=meta, missing=missing, windows=windows, window_round=window_round,
                           averaged=averaged, feature_rows=feature_rows, heat_cells=cells,
                           heat_counts=grid[cells], warnings=warnings, digests=digests)


def _pool_sessions(results) -> list[_SessionDerived]:
    """The derived sessions taken from `results` in input order.

    Each session's warnings are logged as it is taken, and a pooled window
    total above MAX_WINDOWS is refused as soon as it is passed.
    """
    derived: list[_SessionDerived] = []
    pooled = 0
    for session in results:
        for warning in session.warnings:
            log.warning("%s", warning)
        pooled += len(session.windows)
        if pooled > MAX_WINDOWS:
            raise TooManyWindows(f"the sessions pool more than {MAX_WINDOWS} windows")
        derived.append(session)
    return derived


def _window_blocks(derived: list[_SessionDerived], kind: list[str], columns):
    """CSV rows `<kind>,player_id,cohort,round,window_index,<columns>`, one per window.

    `columns(d, rows)` gives the float columns of a slice of a session's
    windows as a matrix. Each block holds the rows of one `_row_blocks`
    slice, so only one block's cells are alive at once, not the whole file's.
    """
    for d in derived:
        for rows in _row_blocks(len(d.windows)):
            ids = np.column_stack((d.window_round[rows], d.windows.index[rows]))
            yield _join_rows([*kind, d.meta.player_id, d.meta.cohort.value,
                              _fmt_cells(ids), _fmt_cells(columns(d, rows))])


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
    _write_text(path, [header + "\n", _join_rows([*_player_cells(averaged), _fmt_cells(probs)])])


def _write_pca_csvs(out_dir: Path, derived: list[_SessionDerived], k: int) -> None:
    model = fit_pca(np.concatenate([d.windows.probs for d in derived]))

    header = "row," + ",".join(f"v{i}" for i in range(1, k + 1))
    labels = ["mean", *(f"component_{i}" for i in range(1, len(model.components) + 1)),
              "explained_variance", "explained_ratio"]
    values = np.vstack((model.mean, model.components, model.explained_variance,
                        model.explained_ratio))
    _write_text(out_dir / "pca_model.csv",
                [header + "\n", _join_rows([_byte_cells(labels), _fmt_cells(values)])])

    averaged = [d for d in derived if d.averaged is not None]
    xy = project(model, [d.averaged for d in averaged], dims=2)
    averages = _join_rows(["average", *_player_cells(averaged), "", "", _fmt_cells(xy)])
    _write_text(out_dir / "pca_projections.csv", chain(
        ["kind,player_id,cohort,round,window_index,pc1,pc2\n"],
        _window_blocks(derived, ["window"], lambda d, rows: project(
            model, d.windows.probs[rows], dims=2)),
        [averages]))


def _write_heatmaps(out_dir: Path, derived: list[_SessionDerived],
                    screen: tuple[int, int]) -> None:
    for cohort in Cohort:
        hm = heatmap_grid((), screen)
        for d in derived:
            if d.meta.cohort is cohort:
                np.add.at(hm.grid.reshape(-1), d.heat_cells, d.heat_counts)
        if hm.grid.any():  # a cohort without gaze has no heatmap
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
            blocks.append(_join_rows([cohort.value, feature, _fmt_cells(np.column_stack((xs, dens)))]))
    _write_text(path, blocks)


def cmd_analyze(args) -> int:
    dirs = _expand_session_dirs(args.paths)
    heads, screen = _check_corpus(dirs)
    inputs = {}
    if args.zones == "default":
        model = default_zone_model()
    else:
        model, inputs[args.zones] = _read_file(read_zone_model_csv, args.zones)
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

    derive = partial(_derive_session, screen=screen, model=model, window_s=args.window_s,
                     hop_s=args.hop_s)
    derived = _pool_sessions(_map_sessions(dirs, heads, derive, args.jobs))
    inputs.update((str(d), session.digests) for d, session in zip(dirs, derived))
    derived.sort(key=lambda d: (d.meta.cohort.value, d.meta.player_id))

    k = model.k
    _write_text(out_dir / "missing.json",
                _json_text({d.meta.player_id: d.missing for d in derived}))
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
                    inputs)
    log.info("analyze wrote %s", out_dir)
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth

def _synth_session(directory: Path, head: tuple) -> PlayerMeta:
    """Generate the session of `head`, `(profile, scenario, seed, meta)`, into
    `directory`; only its meta comes back."""
    profile, scenario, seed, meta = head
    # Not bound to a name, so no session outlives its writing.
    write_session_dir(generate_session(profile, scenario, seed=seed, meta=meta), directory)
    return meta


def cmd_synth(args) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    inputs = {}
    if args.profile:
        profiles, inputs["profile"] = _read_file(load_profiles, args.profile)
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
    dirs, heads = [], []
    for i in range(args.count):
        if i < n_pro:
            cohort, prefix = Cohort.PROFESSIONAL, "pro"
        else:
            cohort, prefix = Cohort.AMATEUR, "am"
        meta = PlayerMeta(player_id=f"{prefix}{i + 1:02d}", cohort=cohort, n=i + 1)
        dirs.append(out_dir / meta.player_id)
        heads.append((profiles[cohort], scenario, master.child_seed(i), meta))
    for meta in _map_sessions(dirs, heads, _synth_session, _usable_cpus()):
        log.info("synthesized %s (%s)", meta.player_id, meta.cohort.value)

    _write_manifest(out_dir, "synth",
                    {"count": args.count, "seed": args.seed,
                     "profile": args.profile or "default",
                     "rounds": args.rounds, "round_s": args.round_s}, inputs)
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
