"""End-to-end CLI behavior: exit codes, artifacts, and determinism."""
import builtins
import gc
import hashlib
import io
import json
import os
import pickle
import re
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import etk
from etk import cli
from etk.cli import main
from etk.ingest import write_session_dir
from etk.model import (Cohort, EventKind, GameEvent, GazeSeries, InputSeries, MatchTimeline,
                       PlayerMeta, Round, Session)
from etk.synth import default_profiles
from etk.zones import WindowSeries, heatmap_grid

ANALYZE_ARTIFACTS = {
    "averages.csv",
    "features.csv",
    "heatmap_amateur.csv",
    "heatmap_amateur.pgm",
    "heatmap_professional.csv",
    "heatmap_professional.pgm",
    "kde.csv",
    "manifest.json",
    "missing.json",
    "pca_model.csv",
    "pca_projections.csv",
    "windows.csv",
    "zones.csv",
}
SESSION_FILES = {"gaze.csv", "input.csv", "hrm.txt", "demo.events", "meta.json"}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    """Three short synthetic sessions (1 professional + 2 amateur)."""
    root = tmp_path_factory.mktemp("corpus")
    code = main(["synth", "--out", str(root), "--count", "3",
                 "--rounds", "2", "--round-s", "30"])
    assert code == 0
    return root


def tree_bytes(root: Path, skip=()) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())
            if p.is_file() and p.name not in skip}


def _child_env() -> dict:
    """The environment of a child `python` that imports this checkout's etk."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(etk.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    env.pop("ETK_LOG", None)
    return env


_derive_session = cli._derive_session


class _InWorker:
    """`derive`, except in a worker process deriving session `name`,
    which first kills itself with SIGKILL (`kill`) or sleeps for a minute."""

    def __init__(self, derive, name: str, kill: bool):
        self.derive, self.name, self.kill, self.parent = derive, name, kill, os.getpid()

    def __call__(self, directory: Path, *args, **kwargs):
        if directory.name == self.name and os.getpid() != self.parent:
            if self.kill:
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(60)
        return self.derive(directory, *args, **kwargs)


def _run_with_workers(monkeypatch, command: str, argv: list[str], workers: str) -> int:
    """`main` of `command` with `workers` workers: `--jobs` for `analyze`, the
    usable CPUs for `ingest` and `synth`."""
    if command == "analyze":
        return main(["analyze", *argv, "--jobs", workers])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(int(workers))))
    return main([command, *argv])


# `python -c` code that runs `etk` with `sys.argv[1]` usable CPUs and `etk`'s arguments after.
_WITH_CPUS = ("import os, sys\n"
              "from etk.cli import main\n"
              "os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))\n"
              "sys.exit(main(sys.argv[2:]))\n")


class _Rewriting:
    """`_derive_session`, which then appends a comment line to its session's `name` file."""

    def __init__(self, name: str):
        self.name = name

    def __call__(self, directory: Path, *args, **kwargs):
        derived = _derive_session(directory, *args, **kwargs)
        with open(directory / self.name, "ab") as f:
            f.write(b"# rewritten after the parse\n")
        return derived


class TestSynthCommand:
    def test_creates_session_dirs_and_manifest(self, corpus):
        names = sorted(p.name for p in corpus.iterdir() if p.is_dir())
        assert names == ["am02", "am03", "pro01"]
        for name in names:
            assert {p.name for p in (corpus / name).iterdir()} == SESSION_FILES
        manifest = json.loads((corpus / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["config"]["count"] == 3
        assert "out" not in manifest["config"]

    def test_count_zero_writes_nothing(self, tmp_path):
        out = tmp_path / "empty"
        assert main(["synth", "--out", str(out), "--count", "0"]) == 0
        assert not out.exists()

    def test_count_zero_still_checks_the_scenario(self, tmp_path, capsys):
        out = tmp_path / "c0"
        assert main(["synth", "--out", str(out), "--count", "0", "--round-s", "1e-9"]) == 1
        err = capsys.readouterr().err
        assert "--rounds" in err and "--round-s" in err
        assert not out.exists()

    def test_negative_count_rejected(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path / "x"), "--count", "-2"])
        assert code == 1
        assert "count" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_round_s_exits_1_before_writing(self, tmp_path, capsys, value):
        out = tmp_path / "x"
        assert main(["synth", "--out", str(out), "--count", "1", "--round-s", value]) == 1
        assert "round_s" in capsys.readouterr().err
        assert not out.exists()

    # Each is refused by `Scenario` before anything is allocated: a round
    # shorter than one gaze sample, or far more samples than a session holds.
    @pytest.mark.parametrize("flags", [["--round-s", "1e-9"], ["--round-s", "0.01"],
                                       ["--round-s", "1e7"], ["--rounds", "10000000000"],
                                       ["--rounds", str(10 ** 400)]],
                             ids=["tiny-round", "short-round", "huge-round", "many-rounds",
                                  "overflowing-rounds"])
    def test_unusable_scenario_exits_1_before_writing(self, tmp_path, capsys, flags):
        out = tmp_path / "x"
        assert main(["synth", "--out", str(out), "--count", "1", *flags]) == 1
        assert flags[0] in capsys.readouterr().err
        assert not out.exists()

    def test_bad_profile_exits_2(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"professional": {"zone_dwell": [1.0]}}))
        code = main(["synth", "--out", str(tmp_path / "y"),
                     "--count", "1", "--profile", str(profile)])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid profile" in err
        assert "bpm_base" in err

    def test_nan_profile_field_exits_2(self, tmp_path, capsys):
        from etk.synth import default_profiles
        raw = default_profiles()[0].to_dict()
        raw["gaze_noise_px"] = float("nan")
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"professional": raw}))
        code = main(["synth", "--out", str(tmp_path / "y"),
                     "--count", "1", "--profile", str(profile)])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid profile" in err
        assert "gaze_noise_px" in err

    # Each fault is located the way one in meta.json is, and none prints a traceback.
    @pytest.mark.parametrize("data, location, fault", [
        (b'{\n"professional": \xff}\n', "line 2 (byte 18)", "invalid UTF-8"),
        (b"[" * 100_000, "line 1 (byte 0)", "invalid JSON: nested too deeply"),
        (b'{\n"professional": {,}\n}\n', "line 2 (byte 19)", "invalid JSON: Expecting"),
        (json.dumps({"professional": default_profiles()[0].to_dict() | {"bpm_base": 0}})
         .replace('"bpm_base": 0', '"bpm_base": ' + "9" * 5000).encode(),
         "line 1 (byte 0)", "invalid JSON: an integer has more than 4300 digits"),
    ], ids=["invalid-utf8", "nested-too-deeply", "syntax-error", "over-long-integer"])
    def test_undecodable_profile_exits_2_with_its_location(self, tmp_path, data, location,
                                                           fault):
        profile = tmp_path / "profile.json"
        profile.write_bytes(data)
        out = tmp_path / "y"
        proc = subprocess.run([sys.executable, "-m", "etk.cli", "synth", "--out", str(out),
                               "--count", "1", "--profile", str(profile)],
                              env=_child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"error: profile: {location}: {profile}: {fault}")
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_refused_profile_leaves_the_earlier_corpus(self, tmp_path, capsys):
        """A profile is checked whole when it is loaded, before `--out` is touched."""
        out, args = tmp_path / "out", ["--count", "2", "--rounds", "2", "--round-s", "20"]
        assert main(["synth", "--out", str(out), *args]) == 0
        before = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
                  if p.is_file()}
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps(
            {"professional": default_profiles()[0].to_dict() | {"zone_dwell": [0.5, 0.5]}}))
        assert main(["synth", "--out", str(out), *args, "--profile", str(profile)]) == 2
        assert capsys.readouterr().err == \
            "error: invalid profile: zone_dwell has 2 entries, zone model has 9\n"
        assert {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
                if p.is_file()} == before

    def test_missing_profile_exits_1_naming_it(self, tmp_path, capsys):
        profile = tmp_path / "nope.json"
        out = tmp_path / "y"
        assert main(["synth", "--out", str(out), "--count", "1", "--profile", str(profile)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2] ") and str(profile) in err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["missing_rate", "ad_hold_rate"])
    def test_subnormal_profile_rate_exits_0(self, tmp_path, field):
        """A rate of 5e-324 makes the OFF runs endless: the channel never turns on."""
        from etk.synth import default_profiles
        raw = default_profiles()[0].to_dict()
        raw[field] = 5e-324
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"professional": raw}))
        out = tmp_path / "y"
        assert main(["synth", "--out", str(out), "--count", "1", "--rounds", "2",
                     "--round-s", "20", "--profile", str(profile)]) == 0
        column = {"missing_rate": 1, "ad_hold_rate": 3}[field]
        rows = (out / "pro01" / ("gaze.csv" if field == "missing_rate" else "input.csv"))
        cells = [line.split(",") for line in rows.read_text().splitlines()[1:]]
        if field == "missing_rate":
            assert all(c[column] for c in cells)
        else:
            assert not any(k in c[column].split("+") for c in cells for k in ("A", "D"))

    def test_reused_out_drops_stale_sessions_only(self, tmp_path):
        args = ["--rounds", "2", "--round-s", "30"]
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert main(["synth", "--out", str(reused), "--count", "3", *args]) == 0
        (reused / "notes.txt").write_text("keep\n")
        for name in ("data", "pro01x", "am09"):   # no session: not a match, or no meta.json
            (reused / name).mkdir()
            (reused / name / "keep.txt").write_text("keep\n")
        assert main(["synth", "--out", str(reused), "--count", "2", *args]) == 0
        assert main(["synth", "--out", str(fresh), "--count", "2", *args]) == 0
        kept = {"notes.txt", "data", "pro01x", "am09"}
        assert {p.name for p in reused.iterdir()} == {p.name for p in fresh.iterdir()} | kept
        assert tree_bytes(reused, skip=kept) == tree_bytes(fresh)
        for name in ("pro01", "am02"):
            assert tree_bytes(reused / name) == tree_bytes(fresh / name)
        for name in ("data", "pro01x", "am09"):
            assert (reused / name / "keep.txt").read_text() == "keep\n"

    def test_same_seed_reruns_are_byte_identical(self, corpus, tmp_path):
        again = tmp_path / "again"
        assert main(["synth", "--out", str(again), "--count", "3",
                     "--rounds", "2", "--round-s", "30"]) == 0
        for name in ("pro01", "am02", "am03"):
            assert tree_bytes(again / name) == tree_bytes(corpus / name)

    def test_workers_change_no_output_byte(self, tmp_path):
        from etk.synth import default_profiles
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"professional": default_profiles()[0].to_dict()}))
        for extra in ([], ["--profile", str(profile)]):
            runs = []
            for cpus in ("1", "2"):
                out = tmp_path / f"out{cpus}"
                shutil.rmtree(out, ignore_errors=True)
                proc = subprocess.run([sys.executable, "-c", _WITH_CPUS, cpus, "synth", "--out",
                                       str(out), "--count", "5", "--rounds", "2",
                                       "--round-s", "20", *extra],
                                      env=dict(_child_env(), ETK_LOG="INFO"),
                                      capture_output=True, timeout=120)
                assert proc.returncode == 0, proc.stderr
                runs.append((proc.stderr, {str(p.relative_to(out)): p.read_bytes()
                                           for p in sorted(out.rglob("*")) if p.is_file()}))
            assert runs[0] == runs[1]
            pro = 5 if extra else 2  # the profile holds professionals only
            assert runs[0][0].decode().splitlines() == [
                f"INFO etk: synthesized pro{i:02d} (professional)" if i <= pro else
                f"INFO etk: synthesized am{i:02d} (amateur)" for i in range(1, 6)]
            assert "manifest.json" in runs[0][1]

    def test_unwritable_session_fails_alike_with_workers(self, tmp_path, capsys, monkeypatch):
        out, outcomes = tmp_path / "run", []
        for cpus in ("1", "2"):
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            (out / "pro02").write_text("not a session\n")
            got = _run_with_workers(monkeypatch, "synth", ["--out", str(out), "--count", "5",
                                                           "--rounds", "2", "--round-s", "20"],
                                    cpus)
            outcomes.append((got, capsys.readouterr().err))
            assert not (out / "manifest.json").exists()
        assert outcomes[0] == outcomes[1]
        code, err = outcomes[0]
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and str(out / "pro02") in err

    def test_synth_does_not_load_openssl(self, tmp_path):
        """hashlib maps libcrypto (~3.6 MB RSS); no command may import it."""
        from etk.synth import default_profiles
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"professional": default_profiles()[0].to_dict()}))
        code = ("import sys\n"
                "from etk.cli import main\n"
                "out, profile = sys.argv[1:]\n"
                "assert main(['synth', '--out', out + '/c', '--count', '2', '--rounds', '2',\n"
                "             '--round-s', '20']) == 0\n"
                "assert '_hashlib' not in sys.modules, '_hashlib was imported'\n"
                "for args in (['ingest', out + '/c', '--out', out + '/i'],\n"
                "             ['analyze', out + '/c', '--out', out + '/a', '--jobs', '1'],\n"
                "             ['analyze', out + '/c', '--out', out + '/a2', '--jobs', '2'],\n"
                "             ['synth', '--out', out + '/p', '--count', '1', '--rounds', '2',\n"
                "              '--round-s', '20', '--profile', profile]):\n"
                "    assert main(args) == 0\n"
                "    assert '_hashlib' not in sys.modules, f'{args[0]} imported _hashlib'\n"
                "if sys.platform == 'linux':\n"
                "    with open('/proc/self/maps') as f:\n"
                "        assert 'libcrypto' not in f.read(), 'libcrypto is mapped'\n")
        env = _child_env()
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path), str(profile)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        for run in ("i", "a", "a2"):
            inputs = json.loads((tmp_path / run / "manifest.json").read_text())["inputs"]
            assert set(inputs) == {str(tmp_path / "c" / n) for n in ("pro01", "am02")}
            for directory, digests in inputs.items():
                assert digests == {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                   for p in Path(directory).iterdir()}
        inputs = json.loads((tmp_path / "p" / "manifest.json").read_text())["inputs"]
        assert inputs == {"profile": hashlib.sha256(profile.read_bytes()).hexdigest()}

    def test_hashlib_fallback_writes_the_same_manifests(self, corpus, tmp_path):
        """Without CPython's built-in SHA-256 modules, hashlib's gives the same digests."""
        from etk.synth import default_profiles
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"amateur": default_profiles()[1].to_dict()}))
        zones = tmp_path / "zones.csv"
        zones.write_text("k,label,x,y\n1,Left,480,540\n2,Right,1440,540\n")
        code = ("import sys\n"
                "corpus, profile, zones, out, hasher = sys.argv[1:]\n"
                "if hasher == 'hashlib':\n"
                "    sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
                "import hashlib\n"
                "from etk import ingest\n"
                "from etk.cli import main\n"
                "assert (ingest._sha256 is hashlib.sha256) == (hasher == 'hashlib')\n"
                "assert main(['ingest', corpus, '--out', out + '/i']) == 0\n"
                "assert main(['analyze', corpus, '--out', out + '/a', '--jobs', '2']) == 0\n"
                "assert main(['analyze', corpus, '--out', out + '/z', '--zones', zones]) == 0\n"
                "assert main(['synth', '--out', out + '/p', '--count', '1', '--rounds', '2',\n"
                "             '--round-s', '20', '--profile', profile]) == 0\n")
        for hasher in ("built-in", "hashlib"):
            proc = subprocess.run([sys.executable, "-c", code, str(corpus), str(profile),
                                   str(zones), str(tmp_path / hasher), hasher], env=_child_env(),
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        for run in ("i", "a", "z", "p"):
            assert (tmp_path / "hashlib" / run / "manifest.json").read_bytes() == \
                (tmp_path / "built-in" / run / "manifest.json").read_bytes()
        inputs = json.loads((tmp_path / "hashlib" / "z" / "manifest.json").read_text())["inputs"]
        assert inputs[str(zones)] == hashlib.sha256(zones.read_bytes()).hexdigest()

    def test_each_input_is_read_once(self, corpus, tmp_path, monkeypatch):
        from etk.synth import default_profiles
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"professional": default_profiles()[0].to_dict()}))
        zones = tmp_path / "zones.csv"
        zones.write_text("k,label,x,y\n1,Left,480,540\n2,Right,1440,540\n")
        # A gaze.csv whose last line ends in CRLF falls back to the line parser
        # after its bulk pass; like every input, it is still opened exactly once.
        crlf = tmp_path / "crlf"
        shutil.copytree(corpus, crlf)
        gaze = sorted(crlf.glob("*/gaze.csv"))[0]
        gaze.write_bytes(gaze.read_bytes()[:-1] + b"\r\n")
        record, real_open = tmp_path / "opened.txt", io.open
        # A file, not a list, so that the opens of forked `ingest` workers, which
        # inherit it, are recorded too; O_APPEND keeps each process's lines whole.
        with real_open(record, "a+b", buffering=0) as log:

            def recording(file, mode="r", *args, **kwargs):
                if isinstance(file, (str, os.PathLike)) and "r" in mode:
                    log.write(os.fsencode(file) + b"\n")
                return real_open(file, mode, *args, **kwargs)

            monkeypatch.setattr(io, "open", recording)
            monkeypatch.setattr(builtins, "open", recording)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # two workers
            commands = {"ingest": ["ingest", str(corpus), "--out", str(tmp_path / "i")],
                        "analyze": ["analyze", str(corpus), "--out", str(tmp_path / "a")],
                        "zones": ["analyze", str(corpus), "--out", str(tmp_path / "z"),
                                  "--zones", str(zones)],
                        "synth": ["synth", "--out", str(tmp_path / "p"), "--count", "1",
                                  "--rounds", "2", "--round-s", "20", "--profile",
                                  str(profile)],
                        "fallback": ["analyze", str(crlf), "--out", str(tmp_path / "f")]}
            for name, args in commands.items():
                root = crlf if name == "fallback" else corpus
                log.truncate(0)
                assert main(args) == 0
                log.seek(0)
                opened = [Path(os.fsdecode(line)) for line in log.read().splitlines()]
                read = [p for p in opened if p.parent.parent == root or p in (profile, zones)]
                want = [profile] if name == "synth" else \
                    [d / f for d in root.iterdir() if d.is_dir() for f in SESSION_FILES]
                if name == "zones":
                    want.append(zones)
                assert sorted(read) == sorted(want), name


class TestIngestCommand:
    def test_summary_on_stdout(self, corpus, capsys):
        assert main(["ingest", str(corpus / "pro01")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        assert payload[0]["player_id"] == "pro01"
        assert payload[0]["cohort"] == "professional"
        assert payload[0]["rounds"] == 2
        assert payload[0]["gaze_samples"] == 60 * 60

    def test_parent_directory_expands_to_children(self, corpus, capsys):
        assert main(["ingest", str(corpus)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [s["player_id"] for s in payload] == ["am02", "am03", "pro01"]

    def test_piped_summary_is_complete(self, corpus, capsys):
        assert main(["ingest", str(corpus)]) == 0
        in_process = json.loads(capsys.readouterr().out)
        proc = subprocess.run([sys.executable, "-m", "etk.cli", "ingest", str(corpus)],
                              env=_child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == in_process

    def test_workers_change_no_output_byte(self, corpus, tmp_path):
        # The first session is the longest, so with two workers the second
        # one's worker finishes first.
        long = tmp_path / "long"
        assert main(["synth", "--out", str(long), "--count", "1", "--rounds", "12",
                     "--round-s", "40"]) == 0
        root = tmp_path / "corpus"
        for source, name in ((long / "am01", "a_long"), (corpus / "am02", "b_short"),
                             (corpus / "am03", "c_short")):
            shutil.copytree(source, root / name)
        runs = []
        for cpus in ("1", "2"):
            out = tmp_path / f"out{cpus}"
            proc = subprocess.run([sys.executable, "-c", _WITH_CPUS, cpus, "ingest", str(root),
                                   "--out", str(out)], env=dict(_child_env(), ETK_LOG="INFO"),
                                  capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            runs.append((proc.stdout, proc.stderr, tree_bytes(out)))
        assert runs[0] == runs[1]
        assert runs[0][1].decode().splitlines() == [
            f"INFO etk: ingested {root / name}: {rounds} rounds"
            for name, rounds in (("a_long", 12), ("b_short", 2), ("c_short", 2))]

    def test_out_writes_summary_and_manifest(self, corpus, tmp_path, capsys):
        out = tmp_path / "report"
        assert main(["ingest", str(corpus / "pro01"), "--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads((out / "summary.json").read_text())[0]["player_id"] == "pro01"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "ingest"
        assert set(manifest["inputs"][str(corpus / "pro01")]) == SESSION_FILES

    def test_failed_out_leaves_no_manifest_beside_a_new_summary(self, corpus, tmp_path,
                                                                  capsys):
        out = tmp_path / "report"
        assert main(["ingest", str(corpus / "am02"), str(corpus / "am03"),
                     "--out", str(out)]) == 0
        (out / "manifest.json.tmp").mkdir()  # the manifest cannot be written
        assert main(["ingest", str(corpus / "am02"), "--out", str(out)]) == 1
        capsys.readouterr()
        assert len(json.loads((out / "summary.json").read_text())) == 1
        assert not (out / "manifest.json").exists()

    def test_corrupt_gaze_exits_2_with_location(self, corpus, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(corpus / "pro01", broken)
        gaze = broken / "gaze.csv"
        lines = gaze.read_text().splitlines()
        lines.insert(50, "not,a,gaze,row")
        gaze.write_text("\n".join(lines) + "\n")
        assert main(["ingest", str(broken)]) == 2
        err = capsys.readouterr().err
        assert "gaze" in err
        assert "51" in err  # 1-based line number of the bad row

    def test_missing_files_exit_3(self, corpus, tmp_path, capsys):
        partial = tmp_path / "partial"
        shutil.copytree(corpus / "pro01", partial)
        (partial / "input.csv").unlink()
        assert main(["ingest", str(partial)]) == 3
        assert "input" in capsys.readouterr().err

    def test_empty_parent_exits_3(self, tmp_path, capsys):
        empty = tmp_path / "void"
        empty.mkdir()
        assert main(["ingest", str(empty)]) == 3
        capsys.readouterr()


class TestAnalyzeCommand:
    def test_writes_all_artifacts(self, corpus, tmp_path):
        out = tmp_path / "run"
        assert main(["analyze", str(corpus), "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == ANALYZE_ARTIFACTS

    def test_artifact_headers(self, corpus, tmp_path):
        out = tmp_path / "run"
        assert main(["analyze", str(corpus), "--out", str(out)]) == 0
        assert (out / "windows.csv").read_text().splitlines()[0] == (
            "player_id,cohort,round,window_index,window_start,"
            + ",".join(f"p{i}" for i in range(1, 10)))
        assert (out / "features.csv").read_text().splitlines()[0] == (
            "player_id,cohort,round,feature,value")
        assert (out / "zones.csv").read_text().splitlines()[0] == "k,label,x,y"
        assert (out / "kde.csv").read_text().splitlines()[0] == (
            "cohort,feature,x,density")

    def test_two_runs_byte_identical(self, corpus, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert main(["analyze", str(corpus), "--out", str(first)]) == 0
        assert main(["analyze", str(corpus), "--out", str(second)]) == 0
        assert tree_bytes(first) == tree_bytes(second)

    def test_jobs_do_not_change_results(self, corpus, tmp_path):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        assert main(["analyze", str(corpus), "--out", str(serial)]) == 0
        assert main(["analyze", str(corpus), "--out", str(parallel),
                     "--jobs", "4"]) == 0
        # The manifest records the jobs flag; the data must not differ.
        assert tree_bytes(serial, skip=("manifest.json",)) == \
            tree_bytes(parallel, skip=("manifest.json",))

    def test_two_screens_pool_alike_under_jobs(self, corpus, tmp_path, caplog):
        root = tmp_path / "corpus"
        for name in ("am02", "am03", "pro01"):
            shutil.copytree(corpus / name, root / name)
        meta = json.loads((root / "am03" / "meta.json").read_text())
        meta["screen"] = [2560, 1440]
        (root / "am03" / "meta.json").write_text(json.dumps(meta))
        trees = []
        for jobs in ("1", "2"):
            assert main(["analyze", str(root), "--out", str(tmp_path / jobs),
                         "--jobs", jobs]) == 0
            trees.append(tree_bytes(tmp_path / jobs, skip=("manifest.json",)))
        assert trees[0] == trees[1]
        warned = [r.getMessage() for r in caplog.records]
        assert len(warned) == 2  # once per run
        assert all("differing screens" in w and w.endswith("heatmaps use (1920, 1080)")
                   for w in warned)

    def test_jobs_agree_on_16k_screens(self, corpus, tmp_path):
        """The largest screen `_validate_meta` accepts: 1639 x 1639 heat cells."""
        root = tmp_path / "corpus"
        for name in ("am02", "am03", "pro01"):
            shutil.copytree(corpus / name, root / name)
            meta = json.loads((root / name / "meta.json").read_text())
            meta["screen"] = [16384, 16384]
            (root / name / "meta.json").write_text(json.dumps(meta))
        trees = []
        for jobs in ("1", "2"):
            assert main(["analyze", str(root), "--out", str(tmp_path / jobs),
                         "--jobs", jobs]) == 0
            trees.append(tree_bytes(tmp_path / jobs, skip=("manifest.json",)))
        assert trees[0] == trees[1]
        rows = trees[0]["heatmap_amateur.csv"].splitlines()
        assert len(rows) == 1639 and all(row.count(b",") == 1638 for row in rows)

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, corpus, tmp_path, capsys, jobs):
        out = tmp_path / "run"
        assert main(["analyze", str(corpus), "--out", str(out), "--jobs", jobs]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    # analyze forks --jobs workers, ingest and synth one per usable CPU (os.cpu_count()
    # where os.sched_getaffinity is missing): never more than there are sessions.
    @pytest.mark.parametrize("argv,cpus,forks", [
        ("analyze . --jobs 1", 64, 0), ("analyze . --jobs 64", 1, 3),
        ("ingest .", 64, 3), ("ingest .", 2, 2), ("ingest .", 1, 0), ("ingest pro01", 64, 0),
        ("ingest .", None, 2),
        ("synth --count 3", 64, 3), ("synth --count 3", 2, 2), ("synth --count 3", 1, 0),
        ("synth --count 1", 64, 0), ("synth --count 3", None, 2),
    ])
    def test_pool_never_outnumbers_sessions(self, corpus, tmp_path, monkeypatch, argv, cpus,
                                            forks):
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity")
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        parent, fork, forked = os.getpid(), os.fork, []

        def recording():
            pid = fork()
            if os.getpid() == parent:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording)
        command, *flags = argv.split()
        if command == "synth":
            flags += ["--rounds", "2", "--round-s", "20"]
        else:
            flags[0] = str(corpus / flags[0])
        assert main([command, *flags, "--out", str(tmp_path / "run")]) == 0
        assert len(forked) == forks

    @pytest.mark.parametrize("command,derive", [("analyze", "_derive_session"),
                                                ("ingest", "_session_summary"),
                                                ("synth", "_synth_session")])
    @pytest.mark.parametrize("victim", ["am02", "pro01", "am03"])
    def test_killed_worker_exits_1_naming_its_session(self, corpus, tmp_path, capsys,
                                                      monkeypatch, victim, command, derive):
        # Two workers take the sessions am02, am03, pro01 of analyze and ingest, and
        # pro01, am02, am03 of synth; the second session of a share is pro01, or am03.
        monkeypatch.setattr(cli, derive, _InWorker(getattr(cli, derive), victim, kill=True))
        out = tmp_path / "run"
        if command == "synth":
            sessions, argv = out, ["--out", str(out), "--count", "3", "--rounds", "2",
                                   "--round-s", "20"]
        else:
            sessions, argv = corpus, [str(corpus), "--out", str(out)]
        assert _run_with_workers(monkeypatch, command, argv, "2") == 1
        stdout, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(sessions / victim) in err and "SIGKILL" in err
        assert stdout == ""
        assert not (out / "manifest.json").exists() and not (out / "summary.json").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failed_collection_reaps_every_worker(self, corpus, tmp_path, monkeypatch):
        # am03's worker would run for a minute: the parent must end it, not wait.
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "_derive_session", _InWorker(_derive_session, "am03",
                                                              kill=False))
        monkeypatch.setattr(pickle, "loads", exhausted)
        out = tmp_path / "run"
        t0 = time.perf_counter()
        with pytest.raises(MemoryError):
            main(["analyze", str(corpus), "--out", str(out), "--jobs", "2"])
        assert time.perf_counter() - t0 < 30
        assert not (out / "manifest.json").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_analyze_jobs_imports_no_pool(self, tmp_path):
        code = ("import sys\n"
                "from etk.cli import main\n"
                "out = sys.argv[1]\n"
                "assert main(['synth', '--out', out + '/c', '--count', '3', '--rounds', '2',\n"
                "             '--round-s', '20']) == 0\n"
                "assert main(['analyze', out + '/c', '--out', out + '/a', '--jobs', '2']) == 0\n"
                "loaded = [m for m in ('multiprocessing', 'concurrent.futures')\n"
                "          if m in sys.modules]\n"
                "assert not loaded, loaded\n")
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=_child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_warnings_keep_input_order_under_jobs(self, corpus, tmp_path):
        env = _child_env()
        errs = []
        for jobs in ("1", "3"):
            proc = subprocess.run(
                [sys.executable, "-m", "etk.cli", "analyze", str(corpus),
                 "--out", str(tmp_path / jobs), "--window-s", "500", "--jobs", jobs],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            errs.append(proc.stderr)
        assert errs[0] == errs[1]
        assert [line.split(":")[1].strip() for line in errs[0].splitlines()
                if "no rolling windows" in line] == ["am02", "am03", "pro01"]

    def test_no_windows_warning_names_its_cause(self, corpus, tmp_path, caplog):
        session = tmp_path / "pro01"
        shutil.copytree(corpus / "pro01", session)
        gaze = session / "gaze.csv"
        gaze.write_text(gaze.read_text().splitlines()[0] + "\n")  # the header only
        # Its segments are 18 s to 30 s long.
        for flags, cause in ((["--window-s", "500"], "segments shorter than 500s"),
                             ([], "no 15s window held a valid gaze sample")):
            caplog.clear()
            assert main(["analyze", str(session), "--out", str(tmp_path / "run"), *flags]) == 0
            assert [r.getMessage() for r in caplog.records
                    if "no rolling windows" in r.getMessage()] == [
                f"pro01: no rolling windows ({cause})"]

    def test_single_session_skips_pca(self, corpus, tmp_path):
        out = tmp_path / "solo"
        assert main(["analyze", str(corpus / "pro01"), "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert "pca_model.csv" not in names
        assert "pca_projections.csv" not in names
        assert "windows.csv" in names
        assert "heatmap_amateur.csv" not in names

    def test_cleanup_list_names_every_artifact(self):
        from etk.cli import ANALYZE_FILES
        assert ANALYZE_FILES[0] == "manifest.json"
        assert sorted(ANALYZE_FILES) == sorted(ANALYZE_ARTIFACTS)

    def test_reused_out_keeps_no_stale_artifact(self, corpus, tmp_path):
        out = tmp_path / "run"
        assert main(["analyze", str(corpus), "--out", str(out)]) == 0
        (out / "notes.txt").write_text("kept\n")
        assert main(["analyze", str(corpus / "pro01"), "--out", str(out)]) == 0
        fresh = tmp_path / "fresh"
        assert main(["analyze", str(corpus / "pro01"), "--out", str(fresh)]) == 0
        assert tree_bytes(out, skip=("notes.txt",)) == tree_bytes(fresh)
        assert (out / "notes.txt").read_text() == "kept\n"

    @pytest.mark.parametrize("damage,code", [("one zone", 4), ("corrupt gaze", 2)])
    def test_failed_run_in_reused_out_leaves_no_manifest(self, corpus, tmp_path, capsys,
                                                         damage, code):
        root = tmp_path / "corpus"
        for name in ("pro01", "am02", "am03"):
            shutil.copytree(corpus / name, root / name)
        out = tmp_path / "run"
        assert main(["analyze", str(root), "--out", str(out)]) == 0
        args = []
        if damage == "one zone":
            # Every window of a one-zone model is (1.0,): PCA is degenerate.
            zones = tmp_path / "one.csv"
            zones.write_text("k,label,x,y\n1,Only,960,540\n")
            args = ["--zones", str(zones)]
        else:
            TestInputErrors._corrupt_gaze(root)
        assert main(["analyze", str(root), "--out", str(out), *args]) == code
        capsys.readouterr()
        names = {p.name for p in out.iterdir()}
        assert "manifest.json" not in names
        assert not names & {"pca_model.csv", "pca_projections.csv"}

    def test_manifest_config_and_digests(self, corpus, tmp_path):
        out = tmp_path / "run"
        assert main(["analyze", str(corpus), "--out", str(out),
                     "--window-s", "10", "--hop-s", "2"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "analyze"
        assert manifest["config"]["window_s"] == 10.0
        assert manifest["config"]["hop_s"] == 2.0
        assert "out" not in manifest["config"]
        assert set(manifest["inputs"]) == {str(corpus / n)
                                           for n in ("pro01", "am02", "am03")}
        for digests in manifest["inputs"].values():
            assert set(digests) == SESSION_FILES
            assert all(len(d) == 64 for d in digests.values())

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_manifest_digests_the_bytes_parsed(self, corpus, tmp_path, monkeypatch, jobs):
        root = tmp_path / "corpus"
        for name in ("am02", "am03", "pro01"):
            shutil.copytree(corpus / name, root / name)
        parsed = {str(d): {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                           for p in d.iterdir()} for d in sorted(root.iterdir())}
        monkeypatch.setattr(cli, "_derive_session", _Rewriting("gaze.csv"))
        out = tmp_path / "run"
        assert main(["analyze", str(root), "--out", str(out), "--jobs", jobs]) == 0
        assert json.loads((out / "manifest.json").read_text())["inputs"] == parsed
        on_disk = hashlib.sha256((root / "am02" / "gaze.csv").read_bytes()).hexdigest()
        assert on_disk != parsed[str(root / "am02")]["gaze.csv"]

    def test_custom_zone_model(self, corpus, tmp_path):
        zones = tmp_path / "z.csv"
        zones.write_text("k,label,x,y\n1,Left,480,540\n2,Right,1440,540\n")
        out = tmp_path / "run"
        assert main(["analyze", str(corpus), "--out", str(out),
                     "--zones", str(zones)]) == 0
        header = (out / "windows.csv").read_text().splitlines()[0]
        assert header.endswith("p1,p2")

    def test_manifest_digests_the_zone_model(self, corpus, tmp_path):
        zones = tmp_path / "zones.csv"
        manifests = []
        for right in ("1440", "1400"):
            zones.write_text(f"k,label,x,y\n1,Left,480,540\n2,Right,{right},540\n")
            out = tmp_path / f"run{right}"
            assert main(["analyze", str(corpus), "--out", str(out), "--zones", str(zones)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["inputs"][str(zones)] == hashlib.sha256(zones.read_bytes()).hexdigest()
            manifests.append(manifest)
        assert manifests[0] != manifests[1]

    def test_malformed_zone_model_exits_2(self, corpus, tmp_path, capsys):
        zones = tmp_path / "bad.csv"
        zones.write_text("wrong,header\n")
        assert main(["analyze", str(corpus), "--out", str(tmp_path / "x"),
                     "--zones", str(zones)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("row,message", [
        ("2,b,nan,0", "non-finite x 'nan'"),
        ("2,b,0,inf", "non-finite y 'inf'"),
        ("2,b,1e309,0", "non-finite x '1e309'"),
        ("2,b,x,0", "malformed x 'x'"),
        ("two,b,1,0", "malformed zone index 'two'"),
        ("2,a,1,0", "duplicate zone label 'a'"),
        ("2,b,960,540", "duplicate zone center (960, 540)"),
        ("2,b\x00,1,0", "zone label 'b\\x00' holds a quote or a control character"),
        ("2,\tb,1,0", "zone label '\\tb' holds a quote or a control character"),
        ('2,"b",1,0', "zone label '\"b\"' holds a quote or a control character"),
    ])
    def test_bad_zone_row_exits_2_naming_line(self, corpus, tmp_path, capsys, row, message):
        zones = tmp_path / "bad.csv"
        zones.write_text(f"k,label,x,y\n1,a,960,540\n{row}\n3,c,100,100\n")
        out = tmp_path / "x"
        assert main(["analyze", str(corpus), "--out", str(out), "--zones", str(zones)]) == 2
        assert capsys.readouterr().err == f"error: zones: line 3 (byte 24): {zones}: {message}\n"
        assert not out.exists()

    def test_bad_window_exits_1(self, corpus, tmp_path, capsys):
        assert main(["analyze", str(corpus), "--out", str(tmp_path / "x"),
                     "--window-s", "-1"]) == 1
        capsys.readouterr()

    def test_explicit_bandwidth(self, corpus, tmp_path):
        out = tmp_path / "run"
        assert main(["analyze", str(corpus), "--out", str(out),
                     "--bandwidth", "0.05"]) == 0
        assert (out / "kde.csv").stat().st_size > 0

    @pytest.mark.parametrize("value", ["nan", "inf", "abc"])
    def test_non_finite_bandwidth_exits_1_before_writing(self, corpus, tmp_path, capsys, value):
        out = tmp_path / "x"
        assert main(["analyze", str(corpus), "--out", str(out), "--bandwidth", value]) == 1
        assert "--bandwidth" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e308", "1e-320"])
    def test_bandwidth_without_a_finite_curve_skips_kde(self, corpus, tmp_path, caplog, value):
        out = tmp_path / "run"
        assert main(["analyze", str(corpus), "--out", str(out), "--bandwidth", value]) == 0
        assert (out / "kde.csv").read_text() == "cohort,feature,x,density\n"
        assert "kde professional/" in caplog.text and "non-finite" in caplog.text

    def test_round_with_one_input_sample_skips_only_mouse_features(self, tiny_session,
                                                                   tmp_path, caplog):
        # Round 1 is alive over [0, 25); keep one input sample inside it.
        t = tiny_session.input.t
        session = replace(tiny_session, input=tiny_session.input[(t >= 25.0) | (t == 10.0)])
        write_session_dir(session, tmp_path / "p1")
        out = tmp_path / "run"
        assert main(["analyze", str(tmp_path / "p1"), "--out", str(out)]) == 0
        # One row per line, segment by segment: round 1's, round 2's, then the pulse.
        features = [line.split(",")[3] for line in
                    (out / "features.csv").read_text().splitlines()[1:]]
        kept = ["ad_hold_fraction", "w_m1_fraction",
                "clicks_per_minute", "click_mean_duration_s"]
        assert features == [*kept, *kept, "mouse_path_mean_px", "mouse_vel_mean_px_s",
                            "bpm_mean"]
        skipped = [r.getMessage() for r in caplog.records
                   if "skipping input features" in r.getMessage()]
        assert len(skipped) == 1 and skipped[0].startswith("p1 round 1: ")

    def test_input_period_is_measured_once_per_alive_segment(self, corpus, monkeypatch):
        import etk.input_features
        from etk.cli import _derive_session
        from etk.ingest import read_session_dir, read_session_head
        from etk.preprocess import extract_alive_segments
        from etk.zones import default_zone_model

        measure = etk.input_features.nominal_period
        calls = []

        def counting(samples):
            calls.append(len(samples))
            return measure(samples)

        for module in ("etk.cli", "etk.input_features"):
            monkeypatch.setattr(f"{module}.nominal_period", counting)
        derived = _derive_session(corpus / "pro01", read_session_head(corpus / "pro01"),
                                  (1920, 1080), default_zone_model(), 15.0, 1.0)
        session = read_session_dir(corpus / "pro01")
        alive = extract_alive_segments(session.timeline, "pro01")
        assert len(alive) > 1
        assert len(calls) == len(alive)
        assert len([r for r in derived.feature_rows if r.round_index]) == 6 * len(alive)

    def test_log_env_variable_accepted(self, corpus, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ETK_LOG", "DEBUG")
        out = tmp_path / "run"
        assert main(["analyze", str(corpus / "pro01"), "--out", str(out)]) == 0
        capsys.readouterr()


class TestWindowLimits:
    """Window settings that place no windows, or far too many."""

    def test_zero_windows_in_several_sessions_skips_pca(self, corpus, tmp_path, caplog):
        out = tmp_path / "run"
        assert main(["analyze", str(corpus), "--out", str(out), "--window-s", "500"]) == 0
        assert {p.name for p in out.iterdir()} == \
            ANALYZE_ARTIFACTS - {"pca_model.csv", "pca_projections.csv"}
        assert (out / "windows.csv").read_text().count("\n") == 1
        assert "PCA skipped" in caplog.text

    def test_window_count_above_cap_is_refused_at_once(self, corpus, tmp_path, capsys):
        out = tmp_path / "run"
        t0 = time.perf_counter()
        code = main(["analyze", str(corpus / "pro01"), "--out", str(out),
                     "--hop-s", "1e-300"])
        elapsed = time.perf_counter() - t0
        assert code == 1
        err = capsys.readouterr().err
        assert "--hop-s" in err and "--window-s" in err
        assert elapsed < 1.0
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_pooled_window_total_above_cap_is_refused(self, corpus, tmp_path, capsys,
                                                     monkeypatch, jobs):
        monkeypatch.setattr("etk.cli.MAX_WINDOWS", 100)
        out = tmp_path / "run"
        assert main(["analyze", str(corpus), "--out", str(out), "--hop-s", "0.5",
                     "--jobs", jobs]) == 1
        assert "--hop-s" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_session_above_cap_is_refused_alike_under_jobs(self, corpus, tmp_path, capsys,
                                                           monkeypatch):
        # hop 0.5 places 62 windows in each session, so the first session
        # alone passes a cap of 30, in the worker that derives it.
        monkeypatch.setattr("etk.cli.MAX_WINDOWS", 30)
        errs = []
        for jobs in ("1", "2"):
            assert main(["analyze", str(corpus), "--out", str(tmp_path / jobs),
                         "--hop-s", "0.5", "--jobs", jobs]) == 1
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert "am02 pools more than 30 windows" in errs[0]

    @pytest.mark.parametrize("flag", ["--window-s", "--hop-s"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_window_flags_exit_1(self, corpus, tmp_path, capsys, flag, value):
        assert main(["analyze", str(corpus / "pro01"), "--out", str(tmp_path / "x"),
                     flag, value]) == 1
        assert "finite" in capsys.readouterr().err


class TestInputErrors:
    """Malformed inputs land on the documented exit codes and name the file."""

    def test_bad_meta_json_exits_2_naming_file(self, corpus, tmp_path, capsys):
        broken = tmp_path / "badjson"
        shutil.copytree(corpus / "pro01", broken)
        (broken / "meta.json").write_text('{"player_id": "pro01",\n  "cohort": \n')
        assert main(["ingest", str(broken)]) == 2
        err = capsys.readouterr().err
        assert "meta" in err
        assert str(broken / "meta.json") in err
        assert "line 3" in err

    @pytest.mark.parametrize("field,value", [
        ("screen", 5), ("screen", [1920]), ("screen", ["w", "h"]), ("screen", [1920.5, 1080]),
        ("gaze_rate_hz", "fast"), ("gaze_rate_hz", [60]), ("gaze_rate_hz", True),
        ("n", "one"), ("n", 1.5),
        ("player_id", None), ("player_id", 7), ("player_id", ["pro01"]),
        ("cohort", 5), ("cohort", ["professional"]),
    ])
    def test_mistyped_meta_field_exits_2(self, corpus, tmp_path, capsys, field, value):
        broken = tmp_path / "badtype"
        shutil.copytree(corpus / "pro01", broken)
        meta = json.loads((broken / "meta.json").read_text())
        meta[field] = value
        (broken / "meta.json").write_text(json.dumps(meta))
        assert main(["ingest", str(broken)]) == 2
        err = capsys.readouterr().err
        assert field in err
        assert str(broken / "meta.json") in err

    @pytest.mark.parametrize("command", ["ingest", "analyze"])
    @pytest.mark.parametrize("key", ["player_id", "cohort", "n"])
    def test_missing_meta_key_is_named(self, corpus, tmp_path, capsys, key, command):
        root = tmp_path / "corpus"
        for name in ("am03", "pro01"):
            shutil.copytree(corpus / name, root / name)
        path = root / "am03" / "meta.json"
        meta = json.loads(path.read_text())
        del meta[key]
        path.write_text(json.dumps(meta))
        assert main([command, str(root), "--out", str(tmp_path / "run")]) == 3
        assert capsys.readouterr().err == f"error: bad {path}: missing key {key!r}\n"
        assert not (tmp_path / "run").exists()

    def test_over_long_meta_integer_exits_2_naming_file(self, corpus, tmp_path):
        """An integer past Python's 4300-digit conversion limit is a located parse error."""
        broken = tmp_path / "longint"
        shutil.copytree(corpus / "pro01", broken)
        path = broken / "meta.json"
        path.write_text(re.sub(r'"n": \d+', '"n": ' + "9" * 5000, path.read_text()))
        proc = subprocess.run([sys.executable, "-m", "etk.cli", "ingest", str(broken)],
                              env=_child_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == (f"error: meta: line 1 (byte 0): {path}: "
                               "invalid JSON: an integer has more than 4300 digits\n")

    def test_meta_json_not_an_object_exits_2(self, corpus, tmp_path, capsys):
        broken = tmp_path / "notobj"
        shutil.copytree(corpus / "pro01", broken)
        (broken / "meta.json").write_text("[1, 2]\n")
        assert main(["ingest", str(broken)]) == 2
        assert str(broken / "meta.json") in capsys.readouterr().err

    def test_oversized_screen_exits_3_before_any_artifact(self, corpus, tmp_path, capsys):
        """A screen side above 16384 px is refused, not allocated as a heatmap grid."""
        root = tmp_path / "huge"
        for name in ("pro01", "am02"):
            shutil.copytree(corpus / name, root / name)
        meta = json.loads((root / "am02" / "meta.json").read_text())
        meta["screen"] = [1000000000, 1000000000]
        (root / "am02" / "meta.json").write_text(json.dumps(meta))
        out = tmp_path / "run"
        assert main(["analyze", str(root), "--out", str(out)]) == 3
        assert "gaze.screen" in capsys.readouterr().err
        assert not out.exists()

    def test_screen_too_tall_for_a_heat_grid_is_refused_before_any_derive(
            self, corpus, tmp_path, capsys, monkeypatch):
        """(1000, 10**9) is the smallest screen, so it would size every session's heat grid."""
        root = tmp_path / "tall"
        for name in ("am02", "pro01"):
            shutil.copytree(corpus / name, root / name)
        meta = json.loads((root / "pro01" / "meta.json").read_text())
        meta["screen"] = [1000, 10 ** 9]
        (root / "pro01" / "meta.json").write_text(json.dumps(meta))

        def refused(*args, **kwargs):
            raise AssertionError("a session was derived")

        monkeypatch.setattr(cli, "_derive_session", refused)
        assert main(["analyze", str(root), "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err
        assert str(root / "pro01") in err and "gaze.screen" in err

    def test_round_index_beyond_int64_exits_2(self, corpus, tmp_path, capsys):
        root = tmp_path / "corpus"
        for player in ("pro01", "am02"):
            shutil.copytree(corpus / player, root / player)
        demo = root / "am02" / "demo.events"
        lines = demo.read_text().splitlines()
        for i, line in enumerate(lines):
            tag, t, *rest = line.split()
            if tag in ("round_start", "round_end") and rest == ["1"]:
                lines[i] = f"{tag} {t} 10000000000000000000"
        demo.write_text("\n".join(lines) + "\n")
        lineno = lines.index(next(x for x in lines if x.startswith("round_start"))) + 1
        assert main(["analyze", str(root), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: demo: line {lineno} (byte ")
        assert "10000000000000000000" in err

    def test_player_id_with_comma_exits_3(self, corpus, tmp_path, capsys):
        """A comma in a player id would shift the cells of every CSV row naming it."""
        root = tmp_path / "comma"
        for name in ("pro01", "am02", "am03"):
            shutil.copytree(corpus / name, root / name)
        meta = json.loads((root / "pro01" / "meta.json").read_text())
        meta["player_id"] = "pro,01"
        (root / "pro01" / "meta.json").write_text(json.dumps(meta))
        demo = root / "pro01" / "demo.events"
        demo.write_text(demo.read_text().replace(" pro01", " pro,01"))
        out = tmp_path / "run"
        assert main(["analyze", str(root), "--out", str(out)]) == 3
        assert "meta.player_id" in capsys.readouterr().err
        assert not (out / "windows.csv").exists()

    def test_duplicate_player_id_exits_3_naming_both(self, corpus, tmp_path, capsys):
        root = tmp_path / "dup"
        for name in ("pro01", "am02", "am03"):
            shutil.copytree(corpus / name, root / name)
        shutil.copytree(corpus / "am02", root / "am02_copy")
        out = tmp_path / "run"
        assert main(["analyze", str(root), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "am02" in err
        assert str(root / "am02") in err
        assert str(root / "am02_copy") in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["ingest", "analyze"])
    @pytest.mark.parametrize("second", ["pro01_copy", "pro01"], ids=["copy", "same-directory"])
    def test_duplicate_player_id_is_refused_by_both_commands(self, corpus, tmp_path, capsys,
                                                             command, second):
        root = tmp_path / "dup"
        for name in ("pro01", "am02", second):
            if not (root / name).exists():
                shutil.copytree(corpus / name.removesuffix("_copy"), root / name)
        out = tmp_path / "run"
        paths = [str(root / name) for name in ("pro01", "am02", second)]
        assert main([command, *paths, "--out", str(out)]) == 3
        stdout, err = capsys.readouterr()
        assert err == f"error: player_id 'pro01' appears in both {paths[0]} and {paths[2]}\n"
        assert stdout == "" and not (out / "manifest.json").exists()

    # The meta damages, each with the start of the violation it gives.
    _META_DAMAGES = {
        "empty player_id": ({"player_id": ""}, "meta.player_id: "),
        "comma in player_id": ({"player_id": "pro,01"}, "meta.player_id: "),
        "quote in player_id": ({"player_id": '"pro01'}, "meta.player_id: "),
        "control in player_id": ({"player_id": "pro\x0701"}, "meta.player_id: "),
        "n of 0": ({"n": 0}, "meta.n: "),
        **{f"rate of {rate}": ({"gaze_rate_hz": rate},
                               f"gaze.nominal_rate_hz: rate must be positive, got {float(rate)}")
           for rate in (0, -5, -1e-300)},
    }

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command", ["analyze", "ingest"])
    @pytest.mark.parametrize("damage", ["duplicate player_id", "missing input", *_META_DAMAGES])
    def test_corpus_is_refused_before_any_session_is_derived(self, corpus, tmp_path, capsys,
                                                             caplog, monkeypatch, damage,
                                                             command, jobs):
        root = tmp_path / "corpus"
        for name in ("am02", "am03", "pro01"):
            shutil.copytree(corpus / name, root / name)
        if damage == "duplicate player_id":
            shutil.copytree(corpus / "am02", root / "zz_copy")  # the last input
        elif damage == "missing input":
            (root / "pro01" / "input.csv").unlink()
        else:  # pro01 is the last input
            meta = json.loads((root / "pro01" / "meta.json").read_text())
            meta.update(self._META_DAMAGES[damage][0])
            (root / "pro01" / "meta.json").write_text(json.dumps(meta))
        calls = []

        def counting(derive):
            def call(*args, **kwargs):
                calls.append(args[0])
                return derive(*args, **kwargs)
            return call

        def no_fork():
            raise AssertionError("a worker was forked")

        for name in ("_derive_session", "_session_summary"):
            monkeypatch.setattr(cli, name, counting(getattr(cli, name)))
        monkeypatch.setattr(os, "fork", no_fork)
        # A 500 s window fits no segment, so every derived session would log a warning.
        window = ["--window-s", "500"] if command == "analyze" else []
        assert _run_with_workers(monkeypatch, command,
                                 [str(root), "--out", str(tmp_path / "run"), *window], jobs) == 3
        assert calls == []
        assert [r.getMessage() for r in caplog.records] == []
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        if damage in self._META_DAMAGES:
            assert err.startswith(f"error: session {root / 'pro01'} failed validation: "
                                  f"{self._META_DAMAGES[damage][1]}")

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command", ["analyze", "ingest"])
    @pytest.mark.parametrize("damage,violation", [
        ("gaze past the match end", "session.gaze: last sample at t=999.0 runs past the match end"),
        ("player never spawns", "session: player 'am03' never spawns in the timeline"),
    ], ids=["gaze-past-the-end", "never-spawns"])
    def test_assembly_fault_names_its_session(self, corpus, tmp_path, capsys, monkeypatch,
                                              damage, violation, command, workers):
        root = tmp_path / "corpus"
        for name in ("am02", "am03", "pro01"):
            shutil.copytree(corpus / name, root / name)
        bad = root / "am03"  # the second input
        if damage == "gaze past the match end":
            with open(bad / "gaze.csv", "a") as f:
                f.write("999.0,1,1\n")
        else:
            demo = bad / "demo.events"
            demo.write_text(demo.read_text().replace(" am03", " am99"))
        out = tmp_path / "run"
        assert _run_with_workers(monkeypatch, command, [str(root), "--out", str(out)],
                                 workers) == 3
        stdout, err = capsys.readouterr()
        assert err.startswith(f"error: session {bad} failed validation: {violation}")
        assert err.count("\n") == 1
        assert stdout == "" and not (out / "manifest.json").exists()

    def test_quote_in_player_id_exits_3(self, corpus, tmp_path, capsys):
        # A `"` would open a quoted CSV field in every artifact row naming the player.
        root = tmp_path / "corpus"
        for name in ("am02", "pro01"):
            shutil.copytree(corpus / name, root / name)
        for name in ("meta.json", "demo.events"):
            path = root / "pro01" / name
            path.write_text(path.read_text().replace("pro01", '\\"pro01' if name == "meta.json"
                                                     else '"pro01'))
        out = tmp_path / "run"
        assert main(["analyze", str(root), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: session {root / 'pro01'} failed validation: meta.player_id: "
            "player id '\"pro01' holds a comma, a quote or a control character\n")
        assert not out.exists()

    @pytest.mark.parametrize("name,kind", [("gaze.csv", "gaze"), ("input.csv", "input"),
                                           ("hrm.txt", "hrm"), ("demo.events", "demo")])
    def test_session_parse_error_names_file_alike_under_jobs(self, corpus, tmp_path, capsys,
                                                             name, kind):
        root = tmp_path / "corpus"
        for player in ("pro01", "am02", "am03"):
            shutil.copytree(corpus / player, root / player)
        path = root / "am02" / name
        lines = path.read_text().splitlines()
        lines.insert(3, "bad row")
        path.write_text("\n".join(lines) + "\n")
        errs = []
        for jobs in ("1", "2"):
            assert main(["analyze", str(root), "--out", str(tmp_path / jobs),
                         "--jobs", jobs]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].startswith(f"error: {kind}: line 4 (byte ")
        assert f"): {path}: " in errs[0]
        assert errs[0].count("\n") == 1

    def test_parse_error_is_printed_once(self, corpus, tmp_path):
        broken = tmp_path / "pro01"
        shutil.copytree(corpus / "pro01", broken)
        self._corrupt_gaze(tmp_path)
        env = _child_env()
        proc = subprocess.run([sys.executable, "-m", "etk.cli", "ingest", str(broken)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: gaze: line 51 ")
        assert proc.stderr.count("\n") == 1

    @staticmethod
    def _corrupt_gaze(root):
        gaze = root / "pro01" / "gaze.csv"
        lines = gaze.read_text().splitlines()
        lines.insert(50, "not,a,gaze,row")
        gaze.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("command,damage,args,code", [
        pytest.param("analyze", "corrupt gaze", [], 2, id="parse"),
        pytest.param("analyze", "missing input", [], 3, id="assembly"),
        pytest.param("analyze", "duplicate player_id", [], 3, id="duplicate"),
        pytest.param("analyze", None, ["--hop-s", "1e-300"], 1, id="too-many-windows"),
        # am03, the 2nd input, fails to parse and pro01, the 3rd, to assemble; with two
        # workers pro01 shares a worker with am02 and am03 has its own.
        *(pytest.param(command, "parse, then assembly", [], 2, id=f"first-failure-{command}")
          for command in ("analyze", "ingest")),
    ])
    def test_jobs_keep_exit_code_and_message(self, corpus, tmp_path, capsys, monkeypatch,
                                             command, damage, args, code):
        root = tmp_path / "corpus"
        for name in ("pro01", "am02", "am03"):
            shutil.copytree(corpus / name, root / name)
        if damage == "corrupt gaze":
            self._corrupt_gaze(root)
        elif damage == "missing input":
            (root / "am03" / "input.csv").unlink()
        elif damage == "duplicate player_id":
            shutil.copytree(corpus / "am02", root / "am02_copy")
        elif damage == "parse, then assembly":
            gaze = root / "am03" / "gaze.csv"
            gaze.write_text(gaze.read_text().replace("\n", "\nnot,a,gaze,row\n", 1))
            demo = root / "pro01" / "demo.events"
            demo.write_text(demo.read_text().replace(" pro01", " pro99"))
        outcomes = []
        for jobs in ("1", "2"):
            out = tmp_path / f"run{jobs}"
            got = _run_with_workers(monkeypatch, command, [str(root), "--out", str(out), *args],
                                    jobs)
            outcomes.append((got, capsys.readouterr().err))
            assert not (out / "manifest.json").exists()
        assert outcomes[0] == outcomes[1]
        exit_code, err = outcomes[0]
        assert exit_code == code
        assert err.startswith("error: ") and err.count("\n") == 1
        if damage == "parse, then assembly":
            assert err.startswith("error: gaze: line 2 (byte ") and str(root / "am03") in err


def test_atomic_write_removes_tmp_when_writer_fails(tmp_path):
    from etk.textio import _write_text
    target = tmp_path / "artifact.csv"
    target.write_bytes(b"old\n")

    def blocks():
        yield "partial\n"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        _write_text(target, blocks())
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_bytes() == b"old\n"


def test_gc_is_frozen_only_at_exit(corpus, tmp_path):
    assert main(["analyze", str(corpus), "--out", str(tmp_path / "run"), "--jobs", "2"]) == 0
    assert gc.get_freeze_count() == 0 and gc.isenabled()
    # atexit runs its handlers last registered first, so this one sees the freeze.
    code = ("import atexit, gc\n"
            "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
            "import etk.cli\n"
            "print(gc.get_freeze_count())\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "True"]


# ---------------------------------------------------------------------------
# Pooled heatmaps from each session's occupied cells

def _screen_points(rng, n: int, screen: tuple[int, int]) -> np.ndarray:
    """`n` gaze points on `screen`; a fifth lie on its right or bottom edge, which clamp inward."""
    points = rng.uniform(0, 1, (n, 2)) * screen
    points[:n // 10, 0] = screen[0]
    points[n // 10:n // 5, 1] = screen[1]
    return rng.permutation(points)


def _points_session(player_id: str, cohort: Cohort, points: np.ndarray, valid: bool,
                    screen: tuple[int, int]) -> Session:
    """One round, alive throughout, whose 60 Hz gaze is `points`, all valid or all lost."""
    t = np.arange(len(points)) / 60
    timeline = MatchTimeline([Round(1, 0.0, len(points) / 60 + 1)],
                             [GameEvent(0.0, EventKind.SPAWN, player_id)])
    gaze = GazeSeries(t, *(points.T if valid else np.full((2, len(t)), np.nan)),
                      np.full(len(t), valid))
    inputs = InputSeries([0.0, 0.01], [0.0, 1.0], [0.0, 1.0], [0, 0])
    return Session(PlayerMeta(player_id, cohort, 1, screen), gaze, inputs, timeline)


@pytest.mark.parametrize("seed", range(4))
def test_summed_heat_counts_give_the_pooled_points_heatmap(tmp_path, monkeypatch, seed):
    from etk.ingest import read_session_head
    from etk.zones import default_zone_model

    rng = np.random.default_rng(seed)
    pooled = (int(rng.integers(1, 1921)), int(rng.integers(1, 1081)))
    # pro02's gaze is all lost, and pro03's larger screen puts points past the
    # pooled grid's edges. The amateur cohort holds only lost gaze, or no
    # session at all, so it has no heatmap.
    wider = (pooled[0] + int(rng.integers(0, 50)), pooled[1] + int(rng.integers(1, 50)))
    specs = [("pro01", Cohort.PROFESSIONAL, 2000, True, pooled),
             ("pro02", Cohort.PROFESSIONAL, 300, False, pooled),
             ("pro03", Cohort.PROFESSIONAL, 1500, True, wider),
             ("pro04", Cohort.PROFESSIONAL, 1, True, pooled),
             *[("am05", Cohort.AMATEUR, 200, False, wider)] * int(rng.integers(0, 2))]
    points = {Cohort.PROFESSIONAL: [], Cohort.AMATEUR: []}
    derived = []
    for player_id, cohort, n, valid, screen in specs:
        xy = _screen_points(rng, n, screen)
        points[cohort].append(xy if valid else np.empty((0, 2)))
        directory = write_session_dir(_points_session(player_id, cohort, xy, valid, screen),
                                      tmp_path / player_id)
        derived.append(cli._derive_session(directory, read_session_head(directory), pooled,
                                           default_zone_model(), 15.0, 1.0))
    written = {}
    monkeypatch.setattr(cli, "write_heatmap_csv", lambda hm, path: written.update({path.name: hm}))
    monkeypatch.setattr(cli, "write_heatmap_pgm", lambda hm, path: None)
    cli._write_heatmaps(tmp_path, derived, pooled)

    assert list(written) == ["heatmap_professional.csv"]
    oracle = heatmap_grid(np.concatenate(points[Cohort.PROFESSIONAL]), pooled)
    summed = written["heatmap_professional.csv"]
    assert np.array_equal(summed.grid, oracle.grid)
    assert (summed.total, summed.cell_px) == (oracle.total, oracle.cell_px)
    assert all(len(d.heat_cells) == 0 for d, spec in zip(derived, specs) if not spec[3])


def test_session_heat_is_bounded_by_the_grid(corpus, tmp_path):
    from etk.ingest import read_session_head
    from etk.zones import default_zone_model

    long_run = tmp_path / "long"
    assert main(["synth", "--out", str(long_run), "--count", "1", "--rounds", "20",
                 "--round-s", "40"]) == 0
    cells = 192 * 108  # a 1920x1080 screen in 10 px cells
    for directory in (corpus / "pro01", long_run / "am01"):
        d = cli._derive_session(directory, read_session_head(directory), (1920, 1080),
                                default_zone_model(), 15.0, 1.0)
        assert len(d.heat_cells) == len(d.heat_counts) <= cells
        assert d.heat_cells.nbytes + d.heat_counts.nbytes <= 16 * cells
        assert np.all(d.heat_counts > 0)
    # The long session's valid gaze points alone would take more than its heat's bound.
    assert 2 * 8 * int(d.heat_counts.sum()) > 16 * cells


def test_session_heat_is_counted_segment_by_segment_into_one_grid(corpus, monkeypatch):
    from etk.ingest import read_session_dir, read_session_head
    from etk.preprocess import extract_alive_segments, interpolate_gaps, slice_by_intervals
    from etk.zones import default_zone_model

    grids, counted = [], []
    real_grid, real_count = cli.heatmap_grid, cli.count_points

    def grid(*args, **kwargs):
        grids.append(real_grid(*args, **kwargs))
        return grids[-1]

    def count(grid, x, y, cell_px):
        counted.append(len(x))
        real_count(grid, x, y, cell_px)

    monkeypatch.setattr(cli, "heatmap_grid", grid)
    monkeypatch.setattr(cli, "count_points", count)
    directory = corpus / "pro01"
    d = cli._derive_session(directory, read_session_head(directory), (1920, 1080),
                            default_zone_model(), 15.0, 1.0)
    session = read_session_dir(directory)
    alive = extract_alive_segments(session.timeline, session.meta.player_id)
    repaired = [interpolate_gaps(segment)[0]
                for segment in slice_by_intervals(session.gaze, alive)]
    assert len(grids) == 1 and len(counted) == len(alive) > 1
    oracle = real_grid(np.concatenate([np.column_stack((r.x, r.y))[r.valid] for r in repaired]),
                       (1920, 1080)).grid.ravel()
    assert np.array_equal(d.heat_cells, np.flatnonzero(oracle))
    assert np.array_equal(d.heat_counts, oracle[d.heat_cells])


def test_write_heatmaps_peak_does_not_grow_with_sessions(tmp_path):
    rng = np.random.default_rng(0)
    screen = (1920, 1080)
    derived = []
    for i in range(16):
        grid = heatmap_grid(_screen_points(rng, 40_000, screen), screen).grid.ravel()
        cells = np.flatnonzero(grid)
        derived.append(cli._SessionDerived(
            meta=PlayerMeta(f"pro{i:02d}", Cohort.PROFESSIONAL, 1), missing={},
            windows=WindowSeries.concat([], 2), window_round=np.empty(0, np.int64),
            averaged=None, feature_rows=[], heat_cells=cells, heat_counts=grid[cells],
            warnings=[], digests={}))
    cli._write_heatmaps(tmp_path, derived[:1], screen)  # warm every first-call cache
    peaks = []
    for n in (4, 16):
        tracemalloc.start()
        cli._write_heatmaps(tmp_path, derived[:n], screen)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    grid_bytes = 8 * 192 * 108
    assert peaks[1] <= peaks[0] + grid_bytes // 4, peaks
