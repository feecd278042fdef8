"""The demo and hrm parsers against the ones that checked every rule themselves.

`oracle_parse_demo_events` and `oracle_parse_hrm_log` are the earlier
parsers, kept here as oracles: each held its own copy of the timeline
and beat rules that `model._validate_timeline` and `_validate_hrm`
check. Today's parsers check syntax and round pairing only and raise
the validator's first violation at its line. Hypothesis draws valid
files and plants at most one defect in each: a duplicate index,
overlapping or out-of-order rounds, a reversed or zero-length round, an
event outside every round or on a round edge, a player who never
spawns, a syntax or pairing error; a non-increasing beat or one 0.25 s
or less after the last. Both parsers must accept or refuse each file
alike, at the same line and byte. The one exception is a round that
ends at or before its start: the oracle refuses it at its `round_end`
line, today's parser at its `round_start` line. Accepted files must
give equal timelines and beats.
"""
import math

from hypothesis import example, given, settings, strategies as st

from etk.errors import ParseError
from etk.ingest import (
    _EVENT_RANK,
    _iter_lines,
    _parse_float,
    _parse_int,
    parse_demo_events,
    parse_hrm_log,
)
from etk.model import (
    MIN_BEAT_INTERVAL_S,
    BeatSeries,
    EventKind,
    GameEvent,
    MatchTimeline,
    Round,
)
from etk.textio import fmt_num


def oracle_parse_hrm_log(source) -> BeatSeries:
    """Parse heart-beat timestamps, one per line."""
    kind = "hrm"
    beats: list[float] = []
    prev_t = -math.inf
    for lineno, offset, text in _iter_lines(source, kind):
        t = _parse_float(text.strip(), kind, lineno, offset, "beat time")
        if t <= prev_t:
            raise ParseError(kind, lineno, offset,
                             f"beat time {t} is not increasing (previous {prev_t})")
        if beats and t - prev_t <= MIN_BEAT_INTERVAL_S:
            raise ParseError(kind, lineno, offset,
                             f"inter-beat interval {t - prev_t:.4f}s implies pulse above 240 bpm")
        prev_t = t
        beats.append(t)
    return BeatSeries(beat_times=beats)


def oracle_parse_demo_events(source) -> MatchTimeline:
    """Parse a demo event export into an ordered, validated timeline."""
    kind = "demo"
    rounds: list[Round] = []
    open_round: tuple[int, float, int, int] | None = None  # (index, start_t, lineno, offset)
    events: list[tuple[int, int, GameEvent]] = []
    seen_idx: set[int] = set()

    for lineno, offset, text in _iter_lines(source, kind):
        parts = text.split()
        if len(parts) < 2:
            raise ParseError(kind, lineno, offset, f"malformed event line {text!r}")
        tag = parts[0]
        t = _parse_float(parts[1], kind, lineno, offset, "timestamp")

        if tag == "round_start":
            if len(parts) != 3:
                raise ParseError(kind, lineno, offset, "round_start takes <t> <index>")
            idx = _parse_int(parts[2], kind, lineno, offset, "round index")
            if open_round is not None:
                raise ParseError(kind, lineno, offset,
                                 f"round {idx} starts while round {open_round[0]} is still open")
            if idx in seen_idx:
                raise ParseError(kind, lineno, offset, f"duplicate round index {idx}")
            if rounds and t < rounds[-1].end_t:
                raise ParseError(kind, lineno, offset,
                                 f"round {idx} starts at {t}, overlapping the previous round")
            open_round = (idx, t, lineno, offset)
            seen_idx.add(idx)
        elif tag == "round_end":
            if len(parts) != 3:
                raise ParseError(kind, lineno, offset, "round_end takes <t> <index>")
            idx = _parse_int(parts[2], kind, lineno, offset, "round index")
            if open_round is None or open_round[0] != idx:
                raise ParseError(kind, lineno, offset, f"round_end {idx} without matching round_start")
            if t <= open_round[1]:
                raise ParseError(kind, lineno, offset,
                                 f"round {idx} ends at {t}, before its start {open_round[1]}")
            rounds.append(Round(index=idx, start_t=open_round[1], end_t=t))
            open_round = None
        elif tag in ("spawn", "death", "weapon_fire"):
            if len(parts) != 3:
                raise ParseError(kind, lineno, offset, f"{tag} takes <t> <player>")
            events.append((lineno, offset, GameEvent(t, EventKind(tag), parts[2])))
        elif tag == "kill":
            if len(parts) != 4:
                raise ParseError(kind, lineno, offset, "kill takes <t> <killer> <victim>")
            events.append((lineno, offset, GameEvent(t, EventKind.KILL, parts[2], parts[3])))
        else:
            raise ParseError(kind, lineno, offset, f"unknown event kind {tag!r}")

    if open_round is not None:
        raise ParseError(kind, open_round[2], open_round[3],
                         f"round {open_round[0]} never ends")

    outside = MatchTimeline(rounds=rounds, events=[]).outside_rounds([e.t for _, _, e in events])
    spawned = {e.subject for _, _, e in events if e.kind is EventKind.SPAWN}
    for (lineno, offset, e), out in zip(events, outside.tolist()):
        if out:
            raise ParseError(kind, lineno, offset,
                             f"{e.kind.value} at t={fmt_num(e.t)} lies outside every round")
        if e.subject not in spawned:
            raise ParseError(kind, lineno, offset, f"player {e.subject!r} never spawns")
        if e.object is not None and e.object not in spawned:
            raise ParseError(kind, lineno, offset, f"player {e.object!r} never spawns")

    ordered = sorted(
        (e for _, _, e in events),
        key=lambda e: (e.t, _EVENT_RANK[e.kind.value], e.subject, e.object or ""),
    )
    return MatchTimeline(rounds=sorted(rounds, key=lambda r: r.start_t), events=ordered)


def outcome(parse, data: bytes):
    """("error", kind, line, byte) or ("ok", value); the messages differ by design."""
    try:
        return ("ok", parse(data))
    except ParseError as e:
        return ("error", e.kind, e.line, e.byte_offset)


def line_position(data: bytes, text: bytes) -> tuple[int, int]:
    """(lineno, offset) of the first line of `data` equal to `text`."""
    offset = 0
    for lineno, line in enumerate(data.split(b"\n"), start=1):
        if line == text:
            return lineno, offset
        offset += len(line) + 1
    raise AssertionError(f"{text!r} not in file")


PLAYERS = ["p1", "p2", "p3"]
TIME = st.integers(0, 40).map(lambda n: n / 2)  # 0.0, 0.5, ... 20.0
DEMO_DEFECTS = ["none", "edge_event", "duplicate_index", "overlap", "out_of_order", "reversed",
                "zero_length", "outside_event", "ghost_subject", "ghost_victim",
                "unknown_tag", "bad_arity", "bad_time", "unmatched_end", "unclosed", "nested"]


def _num(draw, t: float) -> str:
    """`t` as the file writes it, or as another text that reads as the same float."""
    return draw(st.sampled_from([text for text in (fmt_num(t), repr(t), f"{t:.3f}")
                                 if float(text) == t]))


@st.composite
def demo_file(draw):
    """(data, defect, reversed_start): a demo file with at most one planted defect.

    `reversed_start` is the `round_start` line of a round planted to end
    at or before its start, else None.
    """
    defect = draw(st.sampled_from(DEMO_DEFECTS))
    n = draw(st.integers(2 if defect in ("overlap", "out_of_order") else 1, 4))
    spans, t = [], draw(TIME)
    for _ in range(n):
        start = t + draw(st.sampled_from([0.0, 0.0, 1.5, 3.0]))  # back to back or a gap
        end = start + draw(st.sampled_from([0.5, 4.0, 10.0]))
        spans.append([start, end])
        t = end
    indices = draw(st.permutations(range(1, n + 1)))
    k = draw(st.integers(0, n - 1))  # the round a round defect touches
    if defect == "duplicate_index" and n > 1:
        indices[k] = indices[(k + draw(st.integers(1, n - 1))) % n]
    elif defect == "overlap":
        k = max(k, 1)
        prev_start, prev_end = spans[k - 1]
        spans[k][0] = draw(st.sampled_from([prev_start, (prev_start + prev_end) / 2,
                                            prev_end - 0.25]))
    elif defect == "reversed":
        spans[k][1] = spans[k][0] - draw(st.sampled_from([0.5, 3.0]))
    elif defect == "zero_length":
        spans[k][1] = spans[k][0]

    blocks = []
    for i, ((start, end), idx) in enumerate(zip(spans, indices)):
        block = [f"round_start {_num(draw, start)} {idx}"]
        if i == 0:
            block += [f"spawn {_num(draw, start)} {p}" for p in PLAYERS]
        lo, hi = min(start, end), max(start, end)
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.sampled_from([lo, hi, (lo + hi) / 2]))
            tag = draw(st.sampled_from(["spawn", "death", "weapon_fire", "kill"]))
            who = draw(st.sampled_from(PLAYERS))
            if tag == "kill":
                block.append(f"kill {_num(draw, at)} {who} {draw(st.sampled_from(PLAYERS))}")
            else:
                block.append(f"{tag} {_num(draw, at)} {who}")
        block.append(f"round_end {_num(draw, end)} {idx}")
        blocks.append(block)
    if defect == "out_of_order":
        j = draw(st.integers(1, n - 1))
        blocks[j - 1], blocks[j] = blocks[j], blocks[j - 1]
    lines = [line for block in blocks for line in block]

    first, last = spans[0][0], spans[-1][1]
    inside = draw(st.sampled_from(sorted({first, (first + spans[0][1]) / 2})))
    at = draw(st.integers(1, len(lines) - 1))
    if defect == "edge_event":
        edge = draw(st.sampled_from([s for span in spans for s in span]))
        lines.insert(at, f"weapon_fire {_num(draw, edge)} p1")
    elif defect == "outside_event":
        gaps = [(a[1] + b[0]) / 2 for a, b in zip(spans, spans[1:]) if b[0] > a[1]]
        when = draw(st.sampled_from([first - 0.5, last + 0.25] + gaps))
        lines.insert(at, f"{draw(st.sampled_from(['spawn', 'death']))} {_num(draw, when)} p2")
    elif defect == "ghost_subject":
        form = draw(st.sampled_from(["weapon_fire {} ghost", "death {} ghost", "kill {} ghost p1"]))
        lines.insert(at, form.format(_num(draw, inside)))
    elif defect == "ghost_victim":
        lines.insert(at, f"kill {_num(draw, inside)} p1 ghost")
    elif defect == "unknown_tag":
        lines.insert(at, f"teleport {_num(draw, inside)} p1")
    elif defect == "bad_arity":
        lines.insert(at, draw(st.sampled_from([
            "kill 1 p1", "spawn 1 p1 p2", "round_start 1", "round_end 1 2 3", "death"])))
    elif defect == "bad_time":
        lines.insert(at, draw(st.sampled_from(["spawn x p1", "death nan p1", "kill inf p1 p2"])))
    elif defect in ("unmatched_end", "unclosed"):
        cut = draw(st.sampled_from([i for i, line in enumerate(lines)
                                    if line.startswith("round_end")]))
        if defect == "unmatched_end":
            lines.insert(cut + 1, lines[cut])
        else:
            del lines[cut]
    elif defect == "nested":
        # inside a round, so that it is not also a second round overlapping the first
        cut = draw(st.sampled_from([i for i, line in enumerate(lines)
                                    if line.startswith("round_start")]))
        lines.insert(cut + 1, f"round_start {_num(draw, inside)} 99")

    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["# note", "", "  # c"])))
    data = "\n".join(lines).encode() + draw(st.sampled_from([b"\n", b""]))
    reversed_start = None
    if defect in ("reversed", "zero_length"):
        reversed_start = next(line for line in lines if line.startswith("round_start")
                              and line.split()[2] == str(indices[k])).encode()
    return data, defect, reversed_start


@settings(max_examples=400, deadline=None)
@given(demo_file())
@example((b"round_start 0 1\nspawn 0 p1\nround_end 0 1\n", "zero_length", b"round_start 0 1"))
@example((b"round_start 0 1\nspawn 0 p1\nround_end 40 1\nround_start 30 2\nround_end 70 2\n",
          "overlap", None))
def test_demo_parser_refuses_where_the_oracle_does(case):
    data, defect, reversed_start = case
    old, new = outcome(oracle_parse_demo_events, data), outcome(parse_demo_events, data)
    if reversed_start is not None:
        assert old[:2] == new[:2] == ("error", "demo")
        assert new[2:] == line_position(data, reversed_start)
        assert data.split(b"\n")[old[2] - 1].startswith(b"round_end")
    else:
        assert new == old
    if defect in ("none", "edge_event"):
        assert old[0] == "ok"


HRM_DEFECTS = ["none", "repeat", "decrease", "too_fast"]


@st.composite
def hrm_file(draw):
    """(data, defect): an hrm file with at most one planted defect."""
    defect = draw(st.sampled_from(HRM_DEFECTS))
    beats = [draw(st.sampled_from([-1.0, 0.0, 0.4, 1.1]))]
    for _ in range(draw(st.integers(0 if defect == "none" else 1, 12))):
        beats.append(beats[-1] + draw(st.sampled_from([0.3, 0.5, 0.75, 0.8, 1.2, 0.25 + 1e-9])))
    lines = [_num(draw, b) for b in beats]
    if defect != "none":
        k = draw(st.integers(1, len(beats) - 1))
        prev = beats[k - 1]
        lines[k] = _num(draw, {
            "repeat": prev,
            "decrease": prev - draw(st.sampled_from([0.1, 1.0, 5e-324])),
            "too_fast": prev + draw(st.sampled_from([0.25, 0.1, 0.2499, 1e-3])),
        }[defect])
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["# note", "", "  # c"])))
    return "\n".join(lines).encode() + draw(st.sampled_from([b"\n", b""])), defect


@settings(max_examples=300, deadline=None)
@given(hrm_file())
@example((b"1.0\n1.1\n", "too_fast"))
@example((b"1.0\n0.9\n", "decrease"))
def test_hrm_parser_refuses_where_the_oracle_does(case):
    data, defect = case
    old, new = outcome(oracle_parse_hrm_log, data), outcome(parse_hrm_log, data)
    if old[0] == "ok":
        assert new[0] == "ok"
        assert new[1].beat_times.tobytes() == old[1].beat_times.tobytes()
    else:
        assert new == old
    if defect == "none":
        assert old[0] == "ok"

