#!/usr/bin/env python3
"""etk benchmark: end-to-end CLI timings and a traced per-layer split.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; the benchmark imports etk from
its `src/` and writes only under `.bench_work/` and `.bench_results/`.

`--trace 0` repeats cycles of `synth` (`setup_s`), `ingest`,
`analyze --jobs 1` and `analyze --jobs 2` while another cycle fits in
`--seconds` (at least three), running each as a child process, one at
a time, and reads each child's wall time and peak RSS from `os.wait4`.

`--trace 1` makes the traced run: it calls `etk.cli.main` in this
process with the etk modules wrapped by `spans.patched`, and reports
the self time and counts of each layer (see README.md).

Every command's outputs are checked; a command whose outputs fail a
check counts as failed. Without `--trace`, both runs are made. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans
from summary import spread, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
EXPECTED_JSON = Path(__file__).resolve().parent / "expected_seed42.json"
WORK_ROOT = ROOT / ".bench_work"
RESULTS_ROOT = ROOT / ".bench_results"

DEFAULT_SEED = 42
DEFAULT_SECONDS = 36
MIN_CYCLES = 3        # untraced cycles per run at least; setup_s is a median over them
JOBS2_SAMPLES = 3     # untraced --jobs 2 children in a traced run (cli.jobs2_cpu_per_wall)
STARTUP_SAMPLES = 3
RUN_LIMIT_S = 170.0   # children are killed past this point of a run

# The reference task: fixed pure-Python parsing, of the kind that dominates
# etk, timed in this process after every measured command. On a shared
# 2-vCPU VM, speed drifted by 20-35% over minutes with other tenants' load;
# dividing a command's wall time by the run's mean reference time
# (`<command>_ref`) cancels much of that drift. Its run value is the mean
# over the run's commands: with 3-8 commands a run, the mean varied less
# from run to run than the median did.
REFERENCE_LINES = [f"{i / 60:.4f},{i * 7919 % 1920 + 0.25},{i * 104729 % 1080 + 0.5},W+A"
                   .encode() for i in range(5000)]
REFERENCE_REPEATS = 40


@dataclass(frozen=True)
class Workload:
    """A corpus shape (`etk synth --count --rounds --round-s`) and its hop."""
    name: str
    count: int
    rounds: int
    round_s: float
    hop_s: float = 1.0

    def synth_args(self, seed: int, out: str) -> list[str]:
        return ["synth", "--out", out, "--count", str(self.count), "--seed", str(seed),
                "--rounds", str(self.rounds), "--round-s", f"{self.round_s:g}"]

    def analyze_args(self, out: str, jobs: int) -> list[str]:
        return ["analyze", "corpus", "--out", out, "--jobs", str(jobs),
                "--hop-s", f"{self.hop_s:g}"]


# Why each workload exists is in BENCHMARK.json; README.md says how the
# shapes were scaled so that one run repeats each command several times.
WORKLOADS = {w.name: w for w in (
    Workload("many-short", count=6, rounds=4, round_s=24),
    Workload("few-long", count=2, rounds=40, round_s=16),
    Workload("dense-windows", count=2, rounds=6, round_s=40, hop_s=0.02),
)}


# ---------------------------------------------------------------------------
# bookkeeping

@dataclass
class Ledger:
    """Commands attempted and failed; a command fails on a non-zero exit
    or when any check of its outputs fails."""
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, code: int, check=None, detail: str = "") -> None:
        self.attempted += 1
        found = [f"exit code {code}: {detail.strip()[-500:]}"] if code != 0 else []
        if not found and check is not None:
            try:
                found = check()
            except (OSError, ValueError, KeyError, TypeError) as e:
                found = [f"check raised {type(e).__name__}: {e}"]
        if found:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in found)


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    cpu_s: float
    code: int
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ETK_LOG", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], cwd: Path, deadline: float, stdout=subprocess.DEVNULL) -> Child:
    """Run one child to completion; wall time, peak RSS and CPU via wait4."""
    with open(cwd / "child.stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=stdout, stderr=err)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return Child(wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
                 proc.returncode, stderr)


def run_cli(args: list[str], cwd: Path, deadline: float) -> Child:
    return run_child([sys.executable, "-m", "etk.cli", *args], cwd, deadline)


def reference_s() -> float:
    start = time.perf_counter()
    for _ in range(REFERENCE_REPEATS):
        rows = [(float(t), float(x), float(y), keys.split("+"))
                for t, x, y, keys in (line.decode().split(",") for line in REFERENCE_LINES)]
    elapsed = time.perf_counter() - start
    del rows
    return elapsed


def another_round(start: float, previous: float, rounds: int, seconds: float,
                  minimum: int = 1) -> bool:
    """True for the first `minimum` rounds, then while one more round as long
    as the previous one (which began at `previous`) still ends within `seconds`."""
    now = time.perf_counter()
    return rounds < minimum or (now - start) + (now - previous) <= seconds


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


def expected_digests(workload: Workload, seed: int, record: bool) -> dict | None:
    """The recorded seed-42 digests of the workload's trees, or None where
    they do not apply (another seed, or `--record`). A missing file or
    workload entry gives {}, so every comparison against it fails."""
    if seed != DEFAULT_SEED or record:
        return None
    recorded = json.loads(EXPECTED_JSON.read_text()) if EXPECTED_JSON.is_file() else {}
    return recorded.get(workload.name, {})


def tree_check(work: Path, observed: dict, expected: dict | None, key: str, out: str,
               oracle=None):
    """A check of the tree `work/out`. The first tree seen for `key` must pass
    `oracle` and the recorded digests (when `expected` is not None); every
    later tree for `key` must equal it."""
    def check():
        got = checks.tree_digests(work / out)
        if key in observed:
            return checks.compare_digests(f"{out} vs first {key}", got, observed[key])
        observed[key] = got
        problems = oracle() if oracle else []
        if expected is not None:
            problems += (checks.compare_digests(
                f"{key} vs recorded seed-{DEFAULT_SEED} digests", got, expected[key])
                if key in expected else [f"no seed-{DEFAULT_SEED} digests recorded for {key}"])
        return problems
    return check


def corpus_oracle(workload: Workload, work: Path):
    return lambda: checks.check_corpus(checks.corpus_facts(work / "corpus"), workload.count,
                                       workload.rounds, workload.round_s)


# ---------------------------------------------------------------------------
# end-to-end run

def end_to_end(workload: Workload, seed: int, seconds: float, work: Path, deadline: float,
               ledger: Ledger, observed: dict, expected: dict | None) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = defaultdict(list)

    def facts():
        return checks.corpus_facts(work / "corpus")

    steps = {  # metric prefix -> (label, etk arguments, output directory, check)
        "setup": ("synth", workload.synth_args(seed, "corpus"), "corpus",
                  tree_check(work, observed, expected, "corpus", "corpus",
                             corpus_oracle(workload, work))),
        "ingest": ("ingest", ["ingest", "corpus", "--out", "ingest"], "ingest",
                   tree_check(work, observed, expected, "ingest", "ingest", lambda: checks.
                              check_ingest(work / "ingest", facts(), workload.rounds))),
        "analyze": ("analyze --jobs 1", workload.analyze_args("jobs1", 1), "jobs1",
                    tree_check(work, observed, expected, "jobs1", "jobs1",
                               lambda: checks.check_analyze(work / "jobs1", facts()))),
        "analyze_jobs2": ("analyze --jobs 2", workload.analyze_args("jobs2", 2), "jobs2",
                          lambda: checks.compare_jobs_trees(work / "jobs1", work / "jobs2")),
    }
    start = last = time.perf_counter()
    cycle = 0
    while another_round(start, last, cycle, seconds, minimum=MIN_CYCLES):
        last = time.perf_counter()
        # Alternate which analyze goes first, so neither always follows ingest.
        order = ["setup", "ingest", "analyze", "analyze_jobs2"] if cycle % 2 == 0 else \
            ["setup", "ingest", "analyze_jobs2", "analyze"]
        for name in order:
            label, args, out, check = steps[name]
            fresh(work / out)
            child = run_cli(args, work, deadline)
            samples[f"{name}_s"].append(child.wall_s)
            samples["reference_s"].append(reference_s())
            samples[f"{name}_rss_mb"].append(child.rss_mb)
            if name == "analyze_jobs2":
                samples["analyze_jobs2_cpu_per_wall"].append(child.cpu_s / child.wall_s)
            ledger.record(f"{label} (cycle {cycle + 1})", child.code, check, child.stderr)
        cycle += 1
    reference = statistics.mean(samples["reference_s"])
    for name in steps:
        samples[f"{name}_ref"] = [wall / reference for wall in samples[f"{name}_s"]]
    return samples


# ---------------------------------------------------------------------------
# traced run

def import_etk_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import etk.cli
    if not Path(etk.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"etk imported from {etk.cli.__file__}, not from {SRC}")
    return etk.cli


def run_in_process(main, args: list[str], cwd: Path) -> tuple[float, int]:
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        start = time.perf_counter()
        code = main(args)
        return time.perf_counter() - start, code
    finally:
        os.chdir(previous)


def python_output(code: str, work: Path, deadline: float) -> str:
    """Stdout of `python -c code` run as a child with etk on its path."""
    out = work / "python.out"
    with open(out, "wb") as f:
        child = run_child([sys.executable, "-c", code], work, deadline, stdout=f)
    if child.code != 0:
        raise RuntimeError(f"python -c {code!r} failed: {child.stderr[-500:]}")
    return out.read_text().strip()


def startup_s(work: Path, deadline: float) -> float:
    return float(python_output("import time; t = time.perf_counter(); import etk.cli; "
                               "print(time.perf_counter() - t)", work, deadline))


def layer_metrics(synth_trace: spans.Tracer, analyze_trace: spans.Tracer,
                  analyze_wall: float) -> dict[str, float]:
    """Per-layer self times and counts of one traced synth + analyze pass,
    plus `share.<name>`: that span's self time within analyze alone, as a
    share of the traced analyze wall time."""
    analyze_own = spans.self_time_by_name(analyze_trace.spans)
    own = spans.self_time_by_name(synth_trace.spans)
    for name, value in analyze_own.items():
        own[name] = own.get(name, 0.0) + value
    counts = synth_trace.counts + analyze_trace.counts
    m = {f"{name}.self_s": own.get(name, 0.0) for name in (
        "ingest.parse_input_log", "ingest.parse_gaze_log", "ingest.parse_hrm_log",
        "ingest.parse_demo_events", "ingest.write_input_csv", "ingest.write_gaze_csv",
        "model.validate_session", "synth.generate_session",
        "preprocess.slice_by_intervals", "preprocess.interpolate_gaps",
        "preprocess.missing_stats", "zones.assign_zones", "zones.window_distributions",
        "zones.heatmap_grid", "input_features.fraction_held", "input_features.click_stats",
        "input_features.mouse_kinematics", "numerics.fit_pca", "numerics.project",
        "cli.cmd_analyze", "cli.cmd_synth")}
    m["numerics.kde.self_s"] = sum(own.get(f"numerics.{fn}", 0.0) for fn in
                                   ("silverman_bandwidth", "fit_kde", "kde_curve",
                                    "kde_evaluate"))
    for key in ("ingest.rows_parsed", "ingest.bytes_read", "ingest.bytes_written",
                "preprocess.segments", "preprocess.samples_sliced", "zones.windows",
                "numerics.project.calls"):
        m[key] = counts[key]
    parse_s = sum(v for k, v in own.items() if k.startswith("ingest.parse_"))
    m["ingest.parse_mb_per_s"] = counts["ingest.bytes_read"] / 1e6 / parse_s if parse_s else 0.0
    for layer in spans.LAYERS:
        m[f"{layer}.errors"] = counts[f"{layer}.errors"]
    m["trace.coverage"] = sum(analyze_own.values()) / analyze_wall
    m.update({f"share.{name}.self_s": v / analyze_wall for name, v in analyze_own.items()})
    return m


def traced(workload: Workload, seed: int, seconds: float, work: Path, deadline: float,
           ledger: Ledger, observed: dict, expected: dict | None) -> tuple[dict, dict]:
    start = time.perf_counter()  # the warm-up below counts against `seconds`
    cli = import_etk_cli()
    fresh(work / "corpus")
    synth = run_cli(workload.synth_args(seed, "corpus"), work, deadline)
    ledger.record("synth", synth.code, tree_check(work, observed, expected, "corpus", "corpus",
                                                  corpus_oracle(workload, work)), synth.stderr)

    def plain_analyze(out="plain", oracle=None):
        wall, code = run_in_process(cli.main, workload.analyze_args(
            fresh(work / out).name, 1), work)
        ledger.record("in-process analyze", code,
                      tree_check(work, observed, expected, "jobs1", out, oracle))
        return wall

    def traced_analyze(tracer):
        with spans.patched(tracer):
            wall, code = run_in_process(cli.main, workload.analyze_args(
                fresh(work / "traced").name, 1), work)
        ledger.record("traced analyze", code, tree_check(work, observed, expected, "jobs1",
                                                         "traced"))
        return wall

    # Untimed first run: the reference tree, and a warm-up for this process.
    plain_analyze("jobs1", lambda: checks.check_analyze(work / "jobs1",
                                                        checks.corpus_facts(work / "corpus")))
    jobs2_cpu_per_wall = []
    for _ in range(JOBS2_SAMPLES):
        fresh(work / "jobs2")
        jobs2 = run_cli(workload.analyze_args("jobs2", 2), work, deadline)
        ledger.record("analyze --jobs 2", jobs2.code,
                      lambda: checks.compare_jobs_trees(work / "jobs1", work / "jobs2"),
                      jobs2.stderr)
        jobs2_cpu_per_wall.append(jobs2.cpu_s / jobs2.wall_s)

    per_pass: dict[str, list[float]] = defaultdict(list)
    plain_walls, traced_walls = [], []
    last_spans: dict = {}
    last = time.perf_counter()
    passes = 0
    while another_round(start, last, passes, seconds):
        last = time.perf_counter()
        synth_trace = spans.Tracer()
        with spans.patched(synth_trace):
            _, code = run_in_process(cli.main, workload.synth_args(
                seed, fresh(work / "traced_corpus").name), work)
        ledger.record("traced synth", code,
                      tree_check(work, observed, expected, "corpus", "traced_corpus"))

        analyze_trace = spans.Tracer()
        if passes % 2 == 0:
            plain_walls.append(plain_analyze())
            traced_walls.append(traced_analyze(analyze_trace))
        else:
            traced_walls.append(traced_analyze(analyze_trace))
            plain_walls.append(plain_analyze())

        for key, value in layer_metrics(synth_trace, analyze_trace, traced_walls[-1]).items():
            per_pass[key].append(value)
        last_spans = {"synth": synth_trace.spans, "analyze": analyze_trace.spans}
        passes += 1

    per_pass["cli.startup_s"] = [startup_s(work, deadline) for _ in range(STARTUP_SAMPLES)]
    per_pass["cli.jobs2_cpu_per_wall"] = jobs2_cpu_per_wall
    per_pass["trace.overhead_s"] = [statistics.median(traced_walls)
                                    - statistics.median(plain_walls)]
    return per_pass, last_spans


# ---------------------------------------------------------------------------
# reporting

def environment(work: Path, deadline: float) -> dict:
    """Where the numbers come from; numpy is imported in a child so that
    this process stays smaller than the children whose peak RSS it reads
    (a spawned child's peak RSS starts from its parent's)."""
    def git_commit():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                 capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    def cpu_model():
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or None

    src_digest = hashlib.sha256()
    for p in sorted((SRC / "etk").glob("*.py")):
        src_digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "commit": git_commit(),
        "src_sha256": src_digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": python_output("import numpy; print(numpy.__version__)", work, deadline),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


def metric_specs() -> dict[str, dict]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {"end_to_end": {m["name"]: m for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m for m in spec["per_layer"]},
            "why": {w["name"]: w["why"] for w in spec["workloads"]}}


def value_statistic(metric: str) -> str:
    """The summary statistic a run reports for a metric (see REFERENCE_LINES)."""
    return "mean" if metric.endswith("_ref") else "median"


def report(title: str, samples: dict[str, list[float]], specs: dict[str, dict],
           shares: dict[str, float] | None = None) -> dict[str, dict]:
    """Print one line per metric and return the summaries by name."""
    missing = sorted(set(specs) - set(samples))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    print(f"  {title}")
    print(f"    {'metric':40} {'unit':7} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}  notes")
    out = {}
    for name, spec in specs.items():
        s = summarize(samples[name])
        notes = []
        if "bound" in spec:
            s["spread"] = spread(s)
            s["unresolved"] = s["spread"] > spec["bound"]
            notes.append(f"spread {s['spread']:.3f} / bound {spec['bound']}"
                         + (" UNRESOLVED" if s["unresolved"] else ""))
        if value_statistic(name) != "median":
            notes.append(f"reported: {value_statistic(name)} {s[value_statistic(name)]:.6g}")
        if shares and shares.get(name):
            notes.append(f"{shares[name]:6.1%} of traced analyze")
        tails = [f"{k} {v:.6g}" for k, v in s.items() if k.startswith("p") and k[1:2].isdigit()]
        print(f"    {name:40} {spec['unit']:7} {s['median']:12.6g} {s['q1']:12.6g} "
              f"{s['q3']:12.6g} {s['n']:3d}  {'; '.join(tails + notes)}")
        out[name] = s
    return out


def run_workload(workload: Workload, seed: int, seconds: float, mode: int,
                 specs: dict, ledger: Ledger, record: bool) -> dict[str, dict]:
    run_start = time.monotonic()
    deadline = run_start + RUN_LIMIT_S
    work = fresh(WORK_ROOT / f"{workload.name}-seed{seed}-{os.getpid()}")
    work.mkdir(parents=True)
    result: dict = {"workload": workload.name, "seed": seed, "seconds": seconds,
                    "corpus": {"count": workload.count, "rounds": workload.rounds,
                               "round_s": workload.round_s, "hop_s": workload.hop_s},
                    "trace": mode, "environment": environment(work, deadline),
                    "load_1m_before": os.getloadavg()[0]}
    print(f"== {workload.name} (trace {mode}): synth --count {workload.count} "
          f"--rounds {workload.rounds} --round-s {workload.round_s:g}, "
          f"analyze --hop-s {workload.hop_s:g}; seed {seed}")
    print(f"  why: {specs['why'].get(workload.name, '-')}")
    print(f"  environment: {json.dumps(result['environment'], sort_keys=True)}")
    observed: dict = {}
    expected = expected_digests(workload, seed, record)
    summaries: dict[str, dict] = {}
    first = (ledger.attempted, ledger.failed, len(ledger.problems))
    try:
        if mode == 0:
            samples = end_to_end(workload, seed, seconds, work, deadline, ledger, observed,
                                 expected)
            # The raw wall times drift with the machine; they are shown with
            # the bound of their reference-relative counterparts.
            shown = dict(specs["end_to_end"])
            for name in ("ingest", "analyze", "analyze_jobs2"):
                shown[f"{name}_s"] = {"unit": "s", "bound": shown[f"{name}_ref"]["bound"]}
            shown["reference_s"] = {"unit": "s"}
            shown["analyze_jobs2_cpu_per_wall"] = {"unit": "ratio"}
            summaries.update(report("end to end (untraced children, closed loop, one at a time)",
                                    samples, shown))
            result["samples"] = samples
            own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["benchmark_peak_rss_mb"] = own_mb
            child_mb = min(v for k, vs in samples.items() if k.endswith("_rss_mb") for v in vs)
            if own_mb >= child_mb:
                print(f"  WARNING: this process peaked at {own_mb:.1f} MB, so children's "
                      f"peak RSS may include the parent's")
        else:
            per_layer, last_spans = traced(workload, seed, seconds, work, deadline, ledger,
                                           observed, expected)
            shares = {k[len("share."):]: statistics.median(v)
                      for k, v in per_layer.items() if k.startswith("share.")}
            summaries.update(report("per layer (traced synth + analyze --jobs 1, in process)",
                                    per_layer, specs["per_layer"], shares=shares))
            result["samples"] = per_layer
            result["spans"] = {cmd: [s._asdict() for s in recorded]
                               for cmd, recorded in last_spans.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["load_1m_after"] = os.getloadavg()[0]
    result["summaries"] = summaries
    attempted, failed = ledger.attempted - first[0], ledger.failed - first[1]
    result.update(attempted=attempted, failed=failed, failed_frac=failed / max(1, attempted),
                  problems=ledger.problems[first[2]:])
    print(f"  commands attempted {attempted}, failed {failed}, "
          f"failed_frac {result['failed_frac']:.4f}")
    print(f"  load average (1 min): {result['load_1m_before']:.2f} before, "
          f"{result['load_1m_after']:.2f} after; wall {time.monotonic() - run_start:.1f} s")
    RESULTS_ROOT.mkdir(exist_ok=True)
    (RESULTS_ROOT / f"{workload.name}-seed{seed}-trace{mode}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")
    if record and mode == 0 and failed == 0:
        recorded = json.loads(EXPECTED_JSON.read_text()) if EXPECTED_JSON.is_file() else {}
        recorded[workload.name] = {k: observed[k] for k in ("corpus", "ingest", "jobs1")
                                   if k in observed}
        EXPECTED_JSON.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return summaries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="corpus seed; a claim must also hold on a second seed")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long each run repeats its measured commands")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer metrics only")
    parser.add_argument("--record", action="store_true",
                        help=f"write the seed-{DEFAULT_SEED} output digests to "
                             f"{EXPECTED_JSON.name} instead of requiring them")
    args = parser.parse_args(argv)

    if not (SRC / "etk" / "cli.py").is_file():
        print(f"error: no etk sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.record and (args.seed != DEFAULT_SEED or args.trace == 1):
        parser.error(f"--record needs --seed {DEFAULT_SEED} and an untraced run")

    specs = metric_specs()
    modes = [0, 1] if args.trace is None else [args.trace]
    selected = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
    ledger = Ledger()
    metrics = {}
    # Every untraced run comes first: the traced runs grow this process.
    for mode in modes:
        for workload in selected:
            try:
                summaries = run_workload(workload, args.seed, args.seconds, mode, specs,
                                         ledger, args.record)
            except Exception as e:  # report the workload as failed and go on
                traceback.print_exc()
                ledger.record(f"{workload.name} (trace {mode})", 1, detail=f"raised {e!r}")
                continue
            kind = "per_layer" if mode else "end_to_end"
            for name, spec in specs[kind].items():
                key = name if len(selected) == 1 else f"{workload.name}/{name}"
                metrics[key] = {"value": summaries[name][value_statistic(name)],
                                "unit": spec["unit"]}
    for problem in ledger.problems:
        print(f"FAILED {problem}")
    print(f"commands attempted {ledger.attempted}, failed {ledger.failed}, "
          f"failed_frac {ledger.failed / max(1, ledger.attempted):.4f}")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
