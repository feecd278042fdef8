"""Fuzzing the readers and the CLI against the exit-code contract.

Every capture parser, and the `--zones` reader, either parses its input
or raises `ParseError`; `read_meta_json` may also raise `AssemblyError`
(a missing key or an unknown cohort), and `load_profiles` either loads its
bytes or raises `ParseError` or `InvalidProfile`. Inputs are arbitrary bytes, and
valid files with bytes inserted, deleted or replaced, so the fuzz gets
past the headers. Zone models are also built from rows that repeat
labels and centers, which byte mutations seldom reach.
The CLI fuzz damages one or two files of a small corpus, one way being
to put a well-formed extreme number (such as 2**63, 10**400, an integer
of more than the 4300 digits `int` converts, 5e-324 or nan) in place of
a numeric token, and may give `analyze` an extreme numeric flag; it
checks that `main` returns one of the documented exit codes instead of
raising.
"""
import json
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from etk.cli import main
from etk.errors import AssemblyError, InvalidProfile, ParseError
from etk.ingest import (
    parse_demo_events,
    parse_gaze_log,
    parse_hrm_log,
    parse_input_log,
    read_meta_json,
    read_session_head,
)
from etk.synth import _PROFILE_FIELDS, default_profiles, load_profiles
from etk.zones import read_zone_model_csv

VALID = {
    "gaze": b"t,x,y\n0,960,540\n0.0166,961.5,539.25\n# lost\n0.0333,,\n0.05,1919.9,0\n",
    "input": b"t,mouse_x,mouse_y,keys\n0,960,540,\n0.01,961,540,W+MOUSE1\n0.02,962,541,A+D\n",
    "hrm": b"0.5\n1.0\n1.62\n2.2\n",
    "demo": (b"round_start 0 1\nspawn 0 p1\nspawn 0 p2\nweapon_fire 1.5 p1\n"
             b"kill 2 p1 p2\ndeath 2 p2\nround_end 10 1\n"),
    "zones": b"k,label,x,y\n1,Aiming Cross-hair,960,540\n2,b,0,1\n3,c,1e30,0\n",
    "meta": b'{"player_id": "pro01", "cohort": "professional", "n": 1, '
            b'"screen": [1920, 1080], "gaze_rate_hz": 60.0}\n',
}
PARSERS = {"gaze": parse_gaze_log, "input": parse_input_log,
           "hrm": parse_hrm_log, "demo": parse_demo_events, "zones": read_zone_model_csv}
EXIT_CODES = {0, 1, 2, 3, 4}


@st.composite
def mutated(draw, valid: bytes):
    """`valid` with a few bytes inserted, deleted or replaced."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        byte = draw(st.sampled_from(b",.+-#\n\r 0e9\x00\xff") | st.integers(0, 255))
        if op == "insert":
            data.insert(pos, byte)
        elif pos < len(data):
            if op == "delete":
                del data[pos]
            else:
                data[pos] = byte
    return bytes(data)


def fuzz_bytes(kind):
    return st.one_of(st.binary(max_size=256), mutated(VALID[kind]))


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_valid_seed_files_parse(kind):
    PARSERS[kind](VALID[kind])


@pytest.mark.parametrize("kind", sorted(PARSERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parser_parses_or_raises_parse_error(kind, data):
    raw = data.draw(fuzz_bytes(kind))
    try:
        PARSERS[kind](raw)
    except ParseError:
        pass


def _read_meta(raw: bytes):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "meta.json"
        path.write_bytes(raw)
        try:
            read_meta_json(path)
        except (ParseError, AssemblyError):
            pass


@settings(max_examples=300, deadline=None)
@given(fuzz_bytes("meta"))
def test_meta_json_bytes_parse_or_raise(raw):
    _read_meta(raw)


json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
meta_keys = st.sampled_from(["player_id", "cohort", "n", "screen", "gaze_rate_hz", "x"])


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(meta_keys, json_values | st.sampled_from(
    ["professional", "amateur", [1920, 1080], 60.0, 1]), max_size=6))
def test_meta_json_objects_parse_or_raise(meta):
    _read_meta(json.dumps(meta).encode())


PROFILE = json.dumps({"professional": default_profiles()[0].to_dict(),
                      "amateur": default_profiles()[1].to_dict()}).encode()
profile_values = json_values | st.sampled_from([10 ** 400, 1e308, 5e-324, [1.0], "1"])


@st.composite
def profile_json(draw):
    """A cohort-keyed object whose entries hold arbitrary values in some profile fields."""
    raw = json.loads(PROFILE)
    raw[draw(st.sampled_from(["professional", "amateur", "cyborg"]))] = draw(
        st.dictionaries(st.sampled_from(_PROFILE_FIELDS), profile_values, max_size=3)
        .map(lambda fields: raw["amateur"] | fields) | json_values)
    return json.dumps(raw).encode()


@st.composite
def long_integer(draw, valid: bytes):
    """`valid` with one of its numbers replaced by an integer of more than the
    4300 digits `int` converts, which `json.dumps` cannot write."""
    token = draw(st.sampled_from(list(re.finditer(rb"\d+(?:\.\d+)?", valid))))
    return valid[:token.start()] + b"9" * 4301 + valid[token.end():]


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=256) | mutated(PROFILE) | profile_json() | long_integer(PROFILE))
def test_profile_bytes_load_or_raise(raw):
    try:
        load_profiles(raw)
    except (ParseError, InvalidProfile):
        pass


def test_deeply_nested_meta_json_is_a_parse_error(tmp_path):
    for name in ("gaze.csv", "input.csv", "demo.events"):
        (tmp_path / name).touch()
    path = tmp_path / "meta.json"
    path.write_bytes(b"[" * 100_000)
    with pytest.raises(ParseError, match="nested too deeply") as exc:
        read_session_head(tmp_path)
    assert str(path) in str(exc.value)


@st.composite
def zone_csv(draw):
    """A zone model CSV whose rows repeat labels and centers and hold bad numbers."""
    rows = [b"k,label,x,y"]
    for i in range(draw(st.integers(0, 4))):
        idx = draw(st.sampled_from([str(i + 1), str(i + 1), "0", "x"]))
        label = draw(st.sampled_from(["a", "b", ""]))
        x, y = (draw(st.sampled_from(["0", "1", "-0", "nan", "inf", "1e309", "x", ""]))
                for _ in range(2))
        rows.append(f"{idx},{label},{x},{y}".encode())
    return b"\n".join(rows) + b"\n"


@settings(max_examples=200, deadline=None)
@given(zone_csv())
def test_zone_model_rows_parse_or_raise_parse_error(raw):
    try:
        read_zone_model_csv(raw)
    except ParseError:
        pass


# ---------------------------------------------------------------------------
# CLI

@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("fuzz_corpus")
    assert main(["synth", "--out", str(root), "--count", "2", "--rounds", "2",
                 "--round-s", "20", "--seed", "5"]) == 0
    return root


FILES = ["meta.json", "gaze.csv", "input.csv", "hrm.txt", "demo.events"]
EXTREMES = [str(2**63), str(-2**63), "1" + "0" * 400, "9" * 4301, "1e308", "5e-324", "-0.0",
            "nan", "inf"]
JSON_SPELLING = {"nan": "NaN", "inf": "Infinity"}   # what `json` reads as these floats
# A number standing alone: a round index, a time, a cell, a JSON value; not
# the digits of "pro01" or "MOUSE1".
NUMBER = re.compile(rb"(?<![\w.+-])[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?(?![\w.])")
# `--jobs` at 2**63 still starts at most one worker per session: two here.
NUMERIC_FLAGS = ["--window-s", "--hop-s", "--bandwidth", "--jobs", "--seed"]


@st.composite
def corruption(draw):
    """(session, file, action, argument) for one damaged file."""
    session = draw(st.sampled_from(["pro01", "am02"]))
    name = draw(st.sampled_from(FILES))
    action = draw(st.sampled_from(["delete", "truncate", "mutate", "replace", "append",
                                   "extreme"]))
    if action == "truncate":
        arg = draw(st.floats(0, 1))
    elif action == "mutate":
        arg = draw(st.lists(st.tuples(st.floats(0, 1), st.integers(0, 255)),
                            min_size=1, max_size=4))
    elif action == "replace":
        arg = draw(st.binary(max_size=64))
    elif action == "append":
        arg = draw(st.sampled_from([b"1e999,1,1\n", b"0,0,0\n", b"nan\n", b"kill\n",
                                    b"round_start 5 1\n", b"\xff\xfe\n", b",,,,\n"]))
    elif action == "extreme":
        arg = (draw(st.floats(0, 1)), draw(st.sampled_from(EXTREMES)))
    else:
        arg = None
    return session, name, action, arg


def _damage(path: Path, action, arg) -> None:
    if action == "delete":
        path.unlink()
        return
    data = bytearray(path.read_bytes())
    if action == "truncate":
        del data[int(arg * len(data)):]
    elif action == "mutate":
        # Mutating empty data leaves it empty.
        for where, byte in arg if data else ():
            data[min(int(where * len(data)), len(data) - 1)] = byte
    elif action == "replace":
        data = bytearray(arg)
    elif action == "extreme":
        where, value = arg
        numbers = list(NUMBER.finditer(data))
        if numbers:
            token = numbers[min(int(where * len(numbers)), len(numbers) - 1)]
            if path.name == "meta.json":
                value = JSON_SPELLING.get(value, value)
            data[token.start():token.end()] = value.encode()
    else:
        data += arg
    path.write_bytes(bytes(data))


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as e:   # argparse refuses a malformed flag with status 2
        return e.code


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(damage=st.lists(corruption(), max_size=2),
       jobs=st.sampled_from(["1", "2"]),
       flag=st.lists(st.tuples(st.sampled_from(NUMERIC_FLAGS), st.sampled_from(EXTREMES))
                     .map("=".join), max_size=1))
def test_cli_exits_with_a_documented_code(small_corpus, capsys, damage, jobs, flag):
    with tempfile.TemporaryDirectory() as d:
        root = Path(d) / "corpus"
        for session in ("pro01", "am02"):
            shutil.copytree(small_corpus / session, root / session)
        for session, name, action, arg in damage:
            path = root / session / name
            if path.exists():
                _damage(path, action, arg)
        for argv in (["ingest", str(root)],
                     ["analyze", str(root), "--out", str(Path(d) / "out"), "--jobs", jobs, *flag]):
            assert _exit_code(argv) in EXIT_CODES
    capsys.readouterr()
