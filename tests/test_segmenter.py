import numpy as np
import pytest

from skymimic.dataset import build_video
from skymimic.features import STRIDE, TooShortError, autoencoder_init
from skymimic.geometry import Intrinsics
from skymimic import pipeline, stylenet
from skymimic.pipeline import ModelBundle
from skymimic.scene import DT, STYLES
from skymimic.segmenter import (MIN_SEGMENT_SECONDS, _candidate_cuts,
                                _discontinuity, prob_curve, segment)
from skymimic.stylenet import PROB_FLOOR, VARIANTS, init_style_net, \
    prefix_probs, style_forward


def _new_bundle(seg_seed=None):
    """seg_seed, when given, adds a segment net of that seed, so the
    span classifier differs from the style net."""
    cfg = VARIANTS["fg+bg+att"]
    seg = None if seg_seed is None else init_style_net(cfg, seg_seed)
    return ModelBundle(autoencoder_init("fg", 40),
                       autoencoder_init("bg", 41),
                       init_style_net(cfg, 42), cfg, segment_params=seg)


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


def _reference_curve(fg, bg, bundle):
    """Per-prefix loop: one span-classifier pass for every prefix."""
    emb = bundle.embed(fg, bg)
    return np.array([_span_probs(emb, bundle.span_classifier(),
                                 bundle.style_cfg, 0, k + 1)
                     for k in range(emb.shape[0])])


def _reference_segment(fg, bg, bundle, threshold=0.6, mode="relative",
                       left=None):
    """segment() with one style-net pass per span: (cut frame or None,
    [(style index, peak prob) per segment]). left(emb, net, cfg, j),
    when given, scores each span [0, j) in place of a pass of its own."""
    emb = bundle.embed(fg, bg)
    net, cfg = bundle.span_classifier(), bundle.style_cfg
    n, n_frames = emb.shape[0], fg.shape[0]
    if left is None:
        def left(emb, net, cfg, j):
            return _span_probs(emb, net, cfg, 0, j)
    full = left(emb, net, cfg, n)
    whole = (None, [(int(np.argmax(full)), float(np.max(full)))])
    min_part = max(1, int(round(MIN_SEGMENT_SECONDS / DT)))
    if n < 4 or n_frames < 2 * min_part:
        return whole
    d = _discontinuity(fg)
    best = None
    for fcut in _candidate_cuts(d, min_part, n_frames - min_part):
        jc = min(max(int(round(fcut / STRIDE)), 2), n - 2)
        p1 = left(emb, net, cfg, jc)
        p2 = _span_probs(emb, net, cfg, jc, n)
        if int(np.argmax(p1)) == int(np.argmax(p2)):
            continue
        weak, strong = sorted([float(p1.max()), float(p2.max())])
        if weak < (threshold * strong if mode == "relative" else threshold):
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


def test_segment_absolute_mode(bundle, record):
    segs = segment(record.fg, record.bg, bundle, threshold=0.05,
                   mode="absolute")
    assert segs[-1].end == pytest.approx(record.n_frames * DT)


def test_segment_rejects_bad_mode(bundle, record):
    with pytest.raises(ValueError):
        segment(record.fg, record.bg, bundle, mode="sideways")


def test_segment_rejects_threshold_outside_unit_interval(bundle, record):
    for threshold in (float("nan"), -0.1, 1.1):
        with pytest.raises(ValueError):
            segment(record.fg, record.bg, bundle, threshold=threshold)
    for threshold in (0.0, 1.0):
        for mode in ("relative", "absolute"):
            assert segment(record.fg, record.bg, bundle, threshold=threshold,
                           mode=mode)


@pytest.mark.parametrize("which", ["record", "two_style"])
def test_prob_curve_matches_per_prefix_reference(bundle, seg_bundle, record,
                                                 two_style, which):
    fg, bg = (record.fg, record.bg) if which == "record" else two_style
    for b in (bundle, seg_bundle):
        curve = prob_curve(fg, bg, b)
        want = _reference_curve(fg, bg, b)
        assert curve.probs.shape == want.shape
        assert np.max(np.abs(curve.probs - want)) <= 1e-12


def test_segment_matches_per_span_reference(bundle, seg_bundle, record,
                                            two_style):
    cuts = 0
    for b in (bundle, seg_bundle):
        for fg, bg in ((record.fg, record.bg), two_style):
            for kw in ({}, {"threshold": 0.95},
                       {"threshold": 0.05, "mode": "absolute"}):
                segs = segment(fg, bg, b, **kw)
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


def test_segment_equals_per_span_passes_exactly(bundle, seg_bundle, record,
                                                two_style):
    # the right side of every cut gets the bits of its own style-net
    # pass, the whole video and each left side those of the prefix
    # pass's row
    def prefix_row(emb, net, cfg, j):
        return prefix_probs(emb, net, cfg)[j - 1]

    cuts = 0
    for b in (bundle, seg_bundle):
        for fg, bg in ((record.fg, record.bg), two_style):
            for kw in ({}, {"threshold": 0.95},
                       {"threshold": 0.05, "mode": "absolute"}):
                segs = segment(fg, bg, b, **kw)
                fcut, want = _reference_segment(fg, bg, b, left=prefix_row,
                                                **kw)
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


def test_segment_runs_the_style_net_step_loop_once(seg_bundle, two_style,
                                                   lstm_calls):
    # the whole-video prefix and every candidate right side share one
    # stacked LSTM call, and the curve reads that call's prefix rows
    fg, bg = two_style
    segs = segment(fg, bg, seg_bundle)
    assert len(lstm_calls) == 1 and len(lstm_calls[0]) > 1  # row 0, cuts
    assert len(segs) == 2
    lstm_calls.clear()
    prob_curve(fg, bg, seg_bundle)
    assert lstm_calls == []
    prob_curve(fg, bg, _new_bundle(43))
    assert lstm_calls == [None]   # one run, from row 0


def test_curve_after_segment_is_the_cuts_prefix_pass(two_style):
    fg, bg = two_style
    b = _new_bundle(43)
    segs = segment(fg, bg, b)
    curve = prob_curve(fg, bg, b)
    emb = b.embed(fg, bg)
    want = prefix_probs(emb, b.segment_params, b.style_cfg)
    assert np.array_equal(curve.probs, want)
    assert not np.array_equal(
        curve.probs, prefix_probs(emb, b.style_params, b.style_cfg))
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
    lstm_calls.clear()

    def fresh_pass(fg, bg):
        lstm_calls.clear()
        got = prob_curve(fg, bg, b).probs
        assert lstm_calls == [None]
        emb = b.embed(fg, bg)
        assert np.array_equal(
            got, prefix_probs(emb, b.span_classifier(), b.style_cfg))
        lstm_calls.clear()
        assert prob_curve(fg, bg, b).probs is got   # kept for the next call
        assert lstm_calls == []
        return got

    fresh_pass(record.fg, record.bg)              # new demo content
    fg2 = record.fg.copy()
    fg2[3, 0] += 1.0
    fresh_pass(fg2, record.bg)                    # new fg content
    old = fresh_pass(fg2, record.bg + 1.0)        # new bg content
    b.segment_params = init_style_net(cfg, 44)    # a replaced span classifier
    assert not np.array_equal(fresh_pass(fg2, record.bg + 1.0), old)
    b.fg_encoder = b.fg_encoder.copy()            # a replaced encoder
    fresh_pass(fg2, record.bg + 1.0)
    b.bg_encoder = b.bg_encoder.copy()
    fresh_pass(fg2, record.bg + 1.0)
    b.segment_params = None                       # back to the style net
    fresh_pass(fg2, record.bg + 1.0)


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
    # the span classifier is the style net: the curve has the bits of
    # one plain style-net prefix pass, before and after segment
    for fg, bg in (two_style, (record.fg, record.bg)):
        b = _new_bundle()
        want = prefix_probs(b.embed(fg, bg), b.style_params, b.style_cfg)
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
