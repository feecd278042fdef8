"""The columnar window kernel against the per-window loop it replaced.

`loop_window_distributions` is the earlier implementation, kept here
as the oracle: it walks the hops one by one, stops at the first window
that ends past the span, and counts each window's zones with
`bincount`. Hypothesis draws times, zones, span, `window_s` and
`hop_s`, with span ends placed on and one ulp around the edge test of
a window. Index, start and probs must be equal bit for bit.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from etk.zones import _WINDOW_EDGE_TOL, ZoneSequence, window_distributions


def loop_window_distributions(seq, window_s, hop_s):
    """(index, start, probs) per non-empty window, one hop at a time."""
    if len(seq) == 0 and seq.span is None:
        return []
    span_start, span_end = seq.span if seq.span is not None else (
        float(seq.times[0]), float(seq.times[-1]))
    out = []
    tau = 0
    while True:
        start = span_start + tau * hop_s
        if start + window_s > span_end + _WINDOW_EDGE_TOL:
            break
        lo = int(np.searchsorted(seq.times, start, side="left"))
        hi = int(np.searchsorted(seq.times, start + window_s, side="left"))
        if hi > lo:
            counts = np.bincount(seq.zones[lo:hi], minlength=seq.k + 1)[1:]
            out.append((tau, start, tuple(float(p) for p in counts / float(hi - lo))))
        tau += 1
    return out


@st.composite
def window_case(draw):
    k = draw(st.integers(1, 9))
    hop_s = draw(st.sampled_from([0.05, 0.1, 0.25, 1 / 3, 0.7, 1.0])
                 | st.floats(0.05, 5.0))
    window_s = draw(st.sampled_from([0.1, 0.5, 1.0, 5.0, 15.0]) | st.floats(0.05, 20.0))
    span_start = draw(st.sampled_from([0.0, 12.5, 1000 + 1 / 3]) | st.floats(-100.0, 1e4))
    last = draw(st.integers(0, 40))
    # A span end at which window `last` sits on the edge test, nudged by an ulp or not.
    edge = (span_start + last * hop_s + window_s) - _WINDOW_EDGE_TOL
    nudge = draw(st.sampled_from([None, 0, 1, -1]))
    if nudge is None:
        span_end = span_start + draw(st.floats(0.0, 30.0))
    else:
        span_end = edge if nudge == 0 else float(np.nextafter(edge, nudge * np.inf))
    # Sample times: hop grid points (exact window starts) mixed with free draws.
    on_grid = [span_start + j * hop_s for j in
               draw(st.lists(st.integers(0, last + 5), max_size=30))]
    free = draw(st.lists(st.floats(span_start - 5.0, span_end + 5.0), max_size=120))
    times = np.sort(np.asarray(on_grid + free, dtype=float))
    zones = np.asarray(draw(st.lists(st.integers(1, k), min_size=len(times),
                                     max_size=len(times))), dtype=np.int64)
    span = (span_start, span_end) if draw(st.booleans()) or not len(times) else None
    return ZoneSequence(times=times, zones=zones, k=k, span=span), window_s, hop_s


@given(window_case())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_loop_bit_for_bit(case):
    seq, window_s, hop_s = case
    got = window_distributions(seq, window_s=window_s, hop_s=hop_s)
    want = loop_window_distributions(seq, window_s, hop_s)
    assert got.index.tolist() == [w[0] for w in want]
    assert got.start.tolist() == [w[1] for w in want]
    assert got.probs.shape == (len(want), seq.k)
    assert [tuple(row) for row in got.probs.tolist()] == [w[2] for w in want]
