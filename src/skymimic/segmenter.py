"""Multi-style demo decomposition.

The classifier integrates evidence over a whole span, so its output on
a mixed span stays confidently wrong rather than decaying smoothly;
cuts therefore cannot be read off a running probability curve alone.
Instead the cut is localized geometrically and verified by the
classifier: a style change moves the subject's on-screen box
discontinuously, so the largest foreground-feature frame-to-frame jumps
are taken as candidate cut points, and each candidate is scored by how
confidently the span classifier labels the two sides with two different
styles.  The best-scoring candidate becomes the cut when its weaker
side clears the confidence threshold; otherwise the video is one
segment.

The style net is causal and pools with per-step weights, so one forward
pass over the video scores every prefix span at once
(`stylenet.prefix_probs`): in `segment` it labels the whole video and
the left side of every candidate cut.  The right sides ride in the same
pass: given the cuts' rows as `starts`, `stylenet.style_forward` runs
the span from each cut to the end in the stacked LSTM step loop,
joining it at the cut's row with zero state, and gives the bits a pass
of its own would.  So `segment` runs the span classifier's step loop
once.  Its prefix rows are the running probability curve of
`prob_curve`: `ModelBundle.span_prefix` keeps them in the bundle's memo
entry, next to the snippet embedding of `ModelBundle.embed` they were
scored from, so `segment` followed by `prob_curve` on the same demo
(`skymimic segment --curve`) embeds it once and scores it once, and
the curve shows the probabilities the cuts read.

Threshold semantics (default relative): the weaker side's peak
probability must reach threshold * the stronger side's.  The absolute
reading (weaker side's probability above threshold outright) is
available via mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import STRIDE, snippet_ends
from .pipeline import ModelBundle
from .scene import DT, STYLES
from .stylenet import PROB_FLOOR, style_forward

MIN_SEGMENT_SECONDS = 2.0
N_CANDIDATES = 3   # discontinuity peaks scored per video
PEAK_SPACING = 4   # frames of non-max suppression between candidates


@dataclass
class ProbCurve:
    times: np.ndarray   # snippet end times (s), relative to video start
    probs: np.ndarray   # (K, 5) simplex rows


@dataclass
class Segment:
    start: float
    end: float
    style: str
    peak_prob: float


def prob_curve(fg: np.ndarray, bg: np.ndarray,
               bundle: ModelBundle) -> ProbCurve:
    """The span classifier's probabilities over the growing prefix, the
    rows `segment` reads for the whole video and each cut's left side.

    After `segment` on the same demo they come from the bundle's memo
    with no LSTM pass; otherwise from one causal pass.  probs is
    read-only."""
    ends = snippet_ends(fg.shape[0])
    return ProbCurve(ends * DT, bundle.span_prefix(bundle.embed(fg, bg)))


def _discontinuity(fg: np.ndarray) -> np.ndarray:
    """Per-frame-gap jump size of the std-normalized subject box; index
    t scores the gap between frames t and t + 1."""
    sd = fg.std(axis=0)
    sd[sd < 1e-9] = 1.0
    return np.linalg.norm(np.diff(fg / sd, axis=0), axis=1)


def _candidate_cuts(d: np.ndarray, lo: int, hi: int) -> list[int]:
    """Frame indices of the largest discontinuities in [lo, hi), each
    at least PEAK_SPACING frames from a stronger one."""
    if hi <= lo:
        return []
    peaks: list[int] = []
    for i in np.argsort(d[lo - 1:hi - 1])[::-1]:
        t = lo + int(i)
        if all(abs(t - q) > PEAK_SPACING for q in peaks):
            peaks.append(t)
        if len(peaks) >= N_CANDIDATES:
            break
    return peaks


def segment(fg: np.ndarray, bg: np.ndarray, bundle: ModelBundle,
            threshold: float = 0.6, mode: str = "relative") -> list[Segment]:
    """Cut the video at a detected style change, or return it whole.

    threshold must lie in [0, 1]; NaN is refused, since no comparison
    with it holds and it would pass every cut."""
    if mode not in ("relative", "absolute"):
        raise ValueError(f"unknown threshold mode {mode!r}")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold!r} is not in [0, 1]")
    emb = bundle.embed(fg, bg)
    n = emb.shape[0]
    n_frames = fg.shape[0]
    duration = n_frames * DT
    net, cfg = bundle.span_classifier(), bundle.style_cfg
    min_part = max(1, int(round(MIN_SEGMENT_SECONDS / DT)))
    cuts = []   # (frame, snippet row) of each candidate cut
    if n >= 4 and n_frames >= 2 * min_part:
        d = _discontinuity(fg)
        cuts = [(fcut, min(max(int(round(fcut / STRIDE)), 2), n - 2))
                for fcut in _candidate_cuts(d, min_part, n_frames - min_part)]
    # one pass: its run from row 0 labels every span [0, k] (row k of
    # prefix), the run from each cut's row the span from there to the end
    runs = sorted({0, *(jc for _, jc in cuts)})
    _, probs, traces, _ = style_forward(emb, net, cfg, starts=runs)
    prefix = bundle.span_prefix(emb, trace=traces[0])
    right = dict(zip(runs, probs))
    full = prefix[n - 1]
    whole = [Segment(0.0, duration, STYLES[int(np.argmax(full))],
                     float(np.max(full)))]
    best = None
    for fcut, jc in cuts:
        p1, p2 = prefix[jc - 1], right[jc]
        if int(np.argmax(p1)) == int(np.argmax(p2)):
            continue
        weak, strong = sorted([float(p1.max()), float(p2.max())])
        if weak < (threshold * strong if mode == "relative" else threshold):
            continue
        score = (np.log(p1.max() + PROB_FLOOR)
                 + np.log(p2.max() + PROB_FLOOR)
                 + 0.5 * np.log(d[fcut - 1] + 1e-12))
        if best is None or score > best[0]:
            best = (score, fcut, p1, p2)
    if best is None:
        return whole
    _, fcut, p1, p2 = best
    return [Segment(0.0, fcut * DT, STYLES[int(np.argmax(p1))],
                    float(np.max(p1))),
            Segment(fcut * DT, duration, STYLES[int(np.argmax(p2))],
                    float(np.max(p2)))]
