import numpy as np
import pytest

from skymimic.dataset import DependencyError, build_video
from skymimic.features import STRIDE, TooShortError, autoencoder_init
from skymimic.geometry import Intrinsics
from skymimic import pipeline, stylenet
from skymimic.pipeline import ModelBundle
from skymimic.scene import DT, STYLES
from skymimic.segmenter import (MIN_SEGMENT_SECONDS, _candidate_cuts,
                                _discontinuity, prob_curve, segment)
from skymimic.stylenet import PROB_FLOOR, VARIANTS, init_style_net, \
    style_forward
from oracles import span_rows_reference


def _new_bundle(seg_seed=None):
    """seg_seed, when given, makes the segment net one of that seed, so
    it differs from the style net; otherwise the segment net is the
    style net's ParamSet itself."""
    cfg = VARIANTS["fg+bg+att"]
    style = init_style_net(cfg, 42)
    seg = style if seg_seed is None else init_style_net(cfg, seg_seed)
    return ModelBundle(autoencoder_init("fg", 40),
                       autoencoder_init("bg", 41),
                       style, cfg, segment_params=seg)


@pytest.fixture(scope="module")
def bundle():
    return _new_bundle()


@pytest.fixture(scope="module")
def seg_bundle():
    return _new_bundle(43)


@pytest.fixture(scope="module")
def record():
    return build_video("seg0", "fly-by", "train", 50, Intrinsics())


@pytest.fixture(scope="module")
def two_style(record):
    other = build_video("seg1", "orbiting", "train", 51, Intrinsics())
    return (np.concatenate([record.fg, other.fg]),
            np.concatenate([record.bg, other.bg]))


def _span_probs(emb, net, cfg, lo, hi):
    return style_forward(emb[lo:hi], net, cfg)[1]


def _prefix_rows(emb, net, cfg):
    """The prefix rows of one plain pass of net over emb: running sums
    of its pooled outputs."""
    trace = style_forward(emb, net, cfg)[2]
    return span_rows_reference(trace.beta, trace.c, net, cfg)


def _candidates(fg, n):
    """(frame, snippet row) of each candidate cut of a demo of fg with
    n snippets, in the order segment scores them."""
    n_frames = fg.shape[0]
    min_part = max(1, int(round(MIN_SEGMENT_SECONDS / DT)))
    if n < 4 or n_frames < 2 * min_part:
        return []
    return [(f, min(max(int(round(f / STRIDE)), 2), n - 2)) for f in
            _candidate_cuts(_discontinuity(fg), min_part, n_frames - min_part)]


def _reference_curve(fg, bg, bundle):
    """Per-prefix loop: one segment-net pass for every prefix."""
    emb = bundle.embed(fg, bg)
    return np.array([_span_probs(emb, bundle.segment_params,
                                 bundle.style_cfg, 0, k + 1)
                     for k in range(emb.shape[0])])


def _reference_segment(fg, bg, bundle, threshold=0.6, left=None,
                       right=None):
    """segment() with one style-net pass per span: (cut frame or None,
    [(style index, peak prob) per segment]). left(emb, net, cfg, j) and
    right(emb, net, cfg, j), when given, score each span [0, j) and
    [j, n) in place of a pass of its own."""
    emb = bundle.embed(fg, bg)
    net, cfg = bundle.segment_params, bundle.style_cfg
    n = emb.shape[0]
    if left is None:
        def left(emb, net, cfg, j):
            return _span_probs(emb, net, cfg, 0, j)
    if right is None:
        def right(emb, net, cfg, j):
            return _span_probs(emb, net, cfg, j, n)
    full = left(emb, net, cfg, n)
    whole = (None, [(int(np.argmax(full)), float(np.max(full)))])
    d = _discontinuity(fg)
    best = None
    for fcut, jc in _candidates(fg, n):
        p1 = left(emb, net, cfg, jc)
        p2 = right(emb, net, cfg, jc)
        if int(np.argmax(p1)) == int(np.argmax(p2)):
            continue
        weak, strong = sorted([float(p1.max()), float(p2.max())])
        if weak < threshold * strong:
            continue
        score = (np.log(p1.max() + PROB_FLOOR) + np.log(p2.max() + PROB_FLOOR)
                 + 0.5 * np.log(d[fcut - 1] + 1e-12))
        if best is None or score > best[0]:
            best = (score, fcut, p1, p2)
    if best is None:
        return whole
    _, fcut, p1, p2 = best
    return fcut, [(int(np.argmax(p)), float(np.max(p))) for p in (p1, p2)]


def test_prob_curve_shape(bundle, record):
    curve = prob_curve(record.fg, record.bg, bundle)
    k = (record.n_frames - 8) // 4 + 1
    assert curve.probs.shape == (k, 5)
    assert np.allclose(curve.probs.sum(axis=1), 1.0)
    assert np.all(np.diff(curve.times) > 0)
    assert curve.times[0] == pytest.approx(8 * DT)


def test_prob_curve_too_short(bundle, record):
    with pytest.raises(TooShortError):
        prob_curve(record.fg[:5], record.bg[:5], bundle)


def test_segments_tile_video(bundle, record):
    segs = segment(record.fg, record.bg, bundle)
    assert segs
    assert segs[0].start == 0.0
    assert segs[-1].end == pytest.approx(record.n_frames * DT)
    for a, b in zip(segs, segs[1:]):
        assert a.end == pytest.approx(b.start)


def test_segments_respect_min_length(bundle, record):
    for segs in (segment(record.fg, record.bg, bundle),
                 segment(record.fg, record.bg, bundle, threshold=0.95)):
        for s in segs:
            assert s.end - s.start >= MIN_SEGMENT_SECONDS - 1e-9
            assert s.style in STYLES
            assert 0.0 < s.peak_prob <= 1.0


def test_segment_rejects_threshold_outside_unit_interval(bundle, record):
    for threshold in (float("nan"), -0.1, 1.1):
        with pytest.raises(ValueError):
            segment(record.fg, record.bg, bundle, threshold=threshold)
    for threshold in (0.0, 1.0):
        assert segment(record.fg, record.bg, bundle, threshold=threshold)


def test_bundle_without_segment_net_is_refused(record):
    # the segment net is the only span classifier: no other net stands in
    b = _new_bundle()
    b.segment_params = None
    for call in (segment, prob_curve):
        with pytest.raises(DependencyError, match="--stage style"):
            call(record.fg, record.bg, b)


@pytest.mark.parametrize("which", ["record", "two_style"])
def test_prob_curve_matches_per_prefix_reference(bundle, seg_bundle, record,
                                                 two_style, which):
    fg, bg = (record.fg, record.bg) if which == "record" else two_style
    for b in (bundle, seg_bundle):
        curve = prob_curve(fg, bg, b)
        want = _reference_curve(fg, bg, b)
        assert curve.probs.shape == want.shape
        assert np.max(np.abs(curve.probs - want)) <= 1e-12


def _used_bundles(record, two_style):
    """(seg seed, fg, bg, bundle) per demo, with the style net and with
    another net as the segment net. Each bundle has already drawn the
    demo's curve and cut it at another threshold, so the span table it
    keeps is reused."""
    for seed in (None, 43):
        for fg, bg in ((record.fg, record.bg), two_style):
            b = _new_bundle(seed)
            prob_curve(fg, bg, b)
            segment(fg, bg, b, threshold=0.3)
            yield seed, fg, bg, b


def test_segment_matches_per_span_reference(record, two_style):
    cuts = 0
    for seed, fg, bg, b in _used_bundles(record, two_style):
        for kw in ({}, {"threshold": 0.95}, {"threshold": 0.0}):
            segs = segment(fg, bg, b, **kw)
            assert segs == segment(fg, bg, _new_bundle(seed), **kw)
            fcut, want = _reference_segment(fg, bg, b, **kw)
            assert len(segs) == len(want)
            if fcut is not None:
                cuts += 1
                assert segs[0].end == fcut * DT == segs[1].start
            for s, (style, peak) in zip(segs, want):
                assert s.style == STYLES[style]
                assert abs(s.peak_prob - peak) <= 1e-12
    # the left-side rows of the prefix pass must have been exercised
    assert cuts >= 4


def test_segment_equals_per_span_passes_exactly(record, two_style):
    # every span is a row of a running-probability table: the whole
    # video and each left side get the bits of the prefix pass's row,
    # the right side of every cut those of the last row of its span's
    # own pass
    def prefix_row(emb, net, cfg, j):
        return _prefix_rows(emb, net, cfg)[j - 1]

    def last_row(emb, net, cfg, j):
        return _prefix_rows(emb[j:], net, cfg)[-1]

    cuts = 0
    for seed, fg, bg, b in _used_bundles(record, two_style):
        for kw in ({}, {"threshold": 0.95}, {"threshold": 0.0}):
            segs = segment(fg, bg, b, **kw)
            assert segs == segment(fg, bg, _new_bundle(seed), **kw)
            fcut, want = _reference_segment(fg, bg, b, left=prefix_row,
                                            right=last_row, **kw)
            assert [(s.style, s.peak_prob) for s in segs] == [
                (STYLES[style], peak) for style, peak in want]
            if fcut is not None:
                cuts += 1
                assert segs[0].end == fcut * DT == segs[1].start
    assert cuts >= 4


@pytest.fixture
def lstm_calls(monkeypatch):
    """The `starts` of every style-net LSTM call made in the test."""
    calls, real = [], stylenet.lstm_forward

    def counting(*args, **kwargs):
        calls.append(kwargs.get("starts"))
        return real(*args, **kwargs)

    monkeypatch.setattr(stylenet, "lstm_forward", counting)
    return calls


def _stacked_starts(fg, bg, b):
    """starts of segment's one stacked call: row 0, then the candidate
    cuts' rows."""
    n = b.embed(fg, bg).shape[0]
    return sorted({0, *(jc for _, jc in _candidates(fg, n))})


def test_segment_runs_the_style_net_step_loop_once(two_style, lstm_calls):
    # the whole-video prefix and every candidate right side share one
    # stacked LSTM call, and in any order and repetition, at any
    # threshold, segment and the curve read that call's table
    fg, bg = two_style

    def curve(b):
        prob_curve(fg, bg, b)

    def cut(**kw):
        return lambda b: segment(fg, bg, b, **kw)

    starts = _stacked_starts(fg, bg, _new_bundle(43))
    assert len(starts) > 1
    for calls in ([curve, cut()],
                  [cut(), cut(threshold=0.95), cut(threshold=0.0)],
                  [cut(), curve]):
        b = _new_bundle(43)
        lstm_calls.clear()
        for call in calls:
            call(b)
        assert lstm_calls == [starts]
        assert len(segment(fg, bg, b)) == 2
        assert lstm_calls == [starts]


def test_curve_after_segment_is_the_cuts_prefix_pass(two_style):
    fg, bg = two_style
    b = _new_bundle(43)
    segs = segment(fg, bg, b)
    curve = prob_curve(fg, bg, b)
    emb = b.embed(fg, bg)
    want = _prefix_rows(emb, b.segment_params, b.style_cfg)
    assert np.array_equal(curve.probs, want)
    assert not np.array_equal(
        curve.probs, _prefix_rows(emb, b.style_params, b.style_cfg))
    # the cut's left side is a row of the curve
    assert len(segs) == 2
    jc = int(round(segs[0].end / DT / STRIDE))
    assert segs[0].peak_prob == float(np.max(curve.probs[jc - 1]))
    assert segs == segment(fg, bg, _new_bundle(43))


def test_curve_memo_misses_on_new_demo_net_or_encoder(two_style, record,
                                                      lstm_calls):
    cfg = VARIANTS["fg+bg+att"]
    fg, bg = two_style
    b = _new_bundle(43)
    segment(fg, bg, b)

    def fresh_pass(fg, bg, curve_first=True):
        # one stacked call scores the demo, whichever of the curve and
        # the cuts comes first; the other and a repeat reuse its table
        lstm_calls.clear()
        if not curve_first:
            segment(fg, bg, b)
        got = prob_curve(fg, bg, b).probs
        segment(fg, bg, b, threshold=0.95)
        assert lstm_calls == [_stacked_starts(fg, bg, b)]
        emb = b.embed(fg, bg)
        assert np.array_equal(
            got, _prefix_rows(emb, b.segment_params, b.style_cfg))
        lstm_calls.clear()
        assert prob_curve(fg, bg, b).probs is got   # kept for the next call
        segment(fg, bg, b)
        assert lstm_calls == []
        return got

    fresh_pass(record.fg, record.bg)              # new demo content
    fresh_pass(fg, bg, curve_first=False)
    fg2 = record.fg.copy()
    fg2[3, 0] += 1.0
    fresh_pass(fg2, record.bg)                    # new fg content
    old = fresh_pass(fg2, record.bg + 1.0)        # new bg content
    b.segment_params = init_style_net(cfg, 44)    # a replaced segment net
    assert not np.array_equal(fresh_pass(fg2, record.bg + 1.0,
                                         curve_first=False), old)
    b.fg_encoder = b.fg_encoder.copy()            # a replaced encoder
    fresh_pass(fg2, record.bg + 1.0)
    b.bg_encoder = b.bg_encoder.copy()
    fresh_pass(fg2, record.bg + 1.0, curve_first=False)


def test_curve_before_segment_leaves_the_cuts(two_style, record):
    for fg, bg in (two_style, (record.fg, record.bg)):
        b = _new_bundle(43)
        curve = prob_curve(fg, bg, b)
        assert segment(fg, bg, b) == segment(fg, bg, _new_bundle(43))
        assert prob_curve(fg, bg, b).probs is curve.probs


def test_curve_probs_are_read_only(two_style):
    fg, bg = two_style
    for b in (_new_bundle(43), _new_bundle()):
        for probs in (prob_curve(fg, bg, b).probs,        # a fresh pass
                      prob_curve(fg, bg, b).probs):       # from the memo
            assert not probs.flags.writeable
            with pytest.raises(ValueError):
                probs[0, 0] = 1.0
        segment(fg, bg, b)
        assert not prob_curve(fg, bg, b).probs.flags.writeable


def test_curve_without_segment_net_is_the_style_net_pass(two_style, record):
    # the segment net is the style net's ParamSet: the curve has the
    # bits of one plain style-net prefix pass, before and after segment
    for fg, bg in (two_style, (record.fg, record.bg)):
        b = _new_bundle()
        want = _prefix_rows(b.embed(fg, bg), b.style_params, b.style_cfg)
        assert np.array_equal(prob_curve(fg, bg, b).probs, want)
        b = _new_bundle()
        segment(fg, bg, b)
        assert np.array_equal(prob_curve(fg, bg, b).probs, want)


def test_segment_then_curve_embed_once(two_style, record, monkeypatch):
    calls, real = [], pipeline.embed_video

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pipeline, "embed_video", counting)
    fg, bg = two_style
    b = _new_bundle()
    segs = segment(fg, bg, b)
    curve = prob_curve(fg, bg, b)
    assert len(calls) == 1
    # equal to what bundles that never saw the demo give
    assert segs == segment(fg, bg, _new_bundle())
    fresh = prob_curve(fg, bg, _new_bundle())
    assert np.array_equal(curve.probs, fresh.probs)
    assert np.array_equal(curve.times, fresh.times)
    calls.clear()

    emb = b.embed(fg.copy(), bg.copy())   # equal content, new arrays: hit
    assert not calls and not emb.flags.writeable
    with pytest.raises(ValueError):
        emb[0, 0] = 1.0
    b.embed(record.fg, record.bg)          # new content
    assert len(calls) == 1
    b.embed(record.fg, record.bg)
    assert len(calls) == 1
    fg2 = record.fg.copy()
    fg2[3, 0] += 1.0                       # new fg content
    b.embed(fg2, record.bg)
    assert len(calls) == 2
    fg2[3, 0] += 1.0                       # the memo's source written in place
    b.embed(fg2, record.bg)
    assert len(calls) == 3
    b.embed(fg2, record.bg + 1.0)          # new bg content
    assert len(calls) == 4
    b.fg_encoder = b.fg_encoder.copy()     # a replaced encoder
    b.embed(fg2, record.bg + 1.0)
    assert len(calls) == 5
    b.bg_encoder = b.bg_encoder.copy()
    got = b.embed(fg2, record.bg + 1.0)
    assert len(calls) == 6
    assert np.array_equal(got, _new_bundle().embed(fg2, record.bg + 1.0))
