"""Output checks for the etk benchmark.

Each check returns a list of problems; an empty list means it passed.
The oracle checks recompute facts straight from the corpus files, with
no etk code, so they hold for any seed. Seed 42 is additionally held to
the digests recorded in `expected_seed42.json`.
"""
from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

ANALYZE_FILES = frozenset({
    "averages.csv", "features.csv", "heatmap_amateur.csv", "heatmap_amateur.pgm",
    "heatmap_professional.csv", "heatmap_professional.pgm", "kde.csv", "manifest.json",
    "missing.json", "pca_model.csv", "pca_projections.csv", "windows.csv", "zones.csv",
})
PROB_TOL = 1e-9


def tree_digests(root: Path) -> dict[str, str]:
    """SHA-256 of every file under `root`, keyed by relative POSIX path."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def compare_digests(what: str, got: dict[str, str], want: dict[str, str]) -> list[str]:
    if got == want:
        return []
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    changed = sorted(k for k in set(got) & set(want) if got[k] != want[k])
    return [f"{what}: missing {missing}, extra {extra}, changed {changed}"]


def compare_jobs_trees(jobs1: Path, jobs2: Path) -> list[str]:
    """Byte-identical trees, apart from the `jobs` value in the manifest."""
    a, b = tree_digests(jobs1), tree_digests(jobs2)
    a.pop("manifest.json", None)
    b.pop("manifest.json", None)
    problems = compare_digests("--jobs 2 vs --jobs 1", b, a)
    m1 = json.loads((jobs1 / "manifest.json").read_text())
    m2 = json.loads((jobs2 / "manifest.json").read_text())
    m2["config"]["jobs"] = m1["config"]["jobs"]
    if m1 != m2:
        problems.append("--jobs 2 vs --jobs 1: manifest differs beyond config.jobs")
    return problems


def corpus_facts(corpus: Path) -> dict[str, dict]:
    """Row counts read from each session's files, keyed by session dir name."""
    facts = {}
    for session in sorted(p for p in corpus.iterdir() if (p / "meta.json").is_file()):
        meta = json.loads((session / "meta.json").read_text())
        gaze = (session / "gaze.csv").read_bytes().splitlines()[1:]
        facts[session.name] = {
            "player_id": meta["player_id"],
            "rate_hz": meta["gaze_rate_hz"],
            "gaze_rows": len(gaze),
            "missing_rows": sum(1 for line in gaze if line.endswith(b",,")),
            "input_rows": len((session / "input.csv").read_bytes().splitlines()) - 1,
        }
    return facts


def check_corpus(facts: dict[str, dict], count: int, rounds: int, round_s: float) -> list[str]:
    problems = []
    if len(facts) != count:
        problems.append(f"corpus has {len(facts)} sessions, expected {count}")
    for name, f in facts.items():
        want = round(rounds * round_s * f["rate_hz"])
        if f["gaze_rows"] != want:
            problems.append(f"{name}/gaze.csv has {f['gaze_rows']} rows, expected {want}")
    return problems


def check_ingest(out: Path, facts: dict[str, dict], rounds: int) -> list[str]:
    summary = json.loads((out / "summary.json").read_text())
    by_dir = {Path(s["directory"]).name: s for s in summary}
    if set(by_dir) != set(facts):
        return [f"summary.json lists {sorted(by_dir)}, corpus has {sorted(facts)}"]
    problems = []
    for name, f in facts.items():
        s = by_dir[name]
        expect = {"player_id": f["player_id"], "rounds": rounds,
                  "gaze_samples": f["gaze_rows"], "input_samples": f["input_rows"],
                  "missing_fraction": f["missing_rows"] / f["gaze_rows"]}
        for key, want in expect.items():
            if s[key] != want:
                problems.append(f"summary.json {name}.{key} = {s[key]!r}, expected {want!r}")
    return problems


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_analyze(out: Path, facts: dict[str, dict]) -> list[str]:
    files = {p.name for p in out.iterdir() if p.is_file()}
    if files != ANALYZE_FILES:
        return [f"artifact files {sorted(files)}, expected {sorted(ANALYZE_FILES)}"]
    problems = []

    missing = json.loads((out / "missing.json").read_text())
    for f in facts.values():
        got = missing.get(f["player_id"], {})
        want = (f["gaze_rows"], f["missing_rows"])
        if (got.get("total_samples"), got.get("missing_samples")) != want:
            problems.append(f"missing.json {f['player_id']} disagrees with gaze.csv")

    sums: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    for row in _read_rows(out / "windows.csv"):
        probs = [float(v) for k, v in row.items() if k.startswith("p") and k[1:].isdigit()]
        if any(not 0.0 <= p <= 1.0 for p in probs) or abs(sum(probs) - 1.0) > PROB_TOL:
            problems.append(f"windows.csv {row['player_id']} window {row['window_index']} "
                            f"is not a distribution")
            break
        acc = sums.setdefault(row["player_id"], [0.0] * len(probs))
        for i, p in enumerate(probs):
            acc[i] += p
        counts[row["player_id"]] = counts.get(row["player_id"], 0) + 1

    averages = _read_rows(out / "averages.csv")
    players = sorted(f["player_id"] for f in facts.values())
    if sorted(row["player_id"] for row in averages) != players:
        problems.append(f"averages.csv does not list each of {players} once")
    for row in averages:
        player = row["player_id"]
        avg = [float(v) for k, v in row.items() if k.startswith("p") and k[1:].isdigit()]
        want = [s / counts[player] for s in sums.get(player, [])] if player in counts else []
        if len(avg) != len(want) or any(abs(a - w) > PROB_TOL for a, w in zip(avg, want)):
            problems.append(f"averages.csv {player} is not the mean of its windows")
    return problems
