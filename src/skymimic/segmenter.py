"""Multi-style demo decomposition.

The classifier integrates evidence over a whole span, so its output on
a mixed span stays confidently wrong rather than decaying smoothly;
cuts therefore cannot be read off a running probability curve alone.
Instead the cut is localized geometrically and verified by the
classifier: a style change moves the subject's on-screen box
discontinuously, so the largest foreground-feature frame-to-frame jumps
are taken as candidate cut points, and each candidate is scored by how
confidently the segment net labels the two sides with two different
styles.  The best-scoring candidate becomes the cut when its weaker
side clears the confidence threshold; otherwise the video is one
segment.

The style net is causal and pools with per-step weights, so one forward
pass over the video scores every prefix span at once
(`stylenet.prefix_probs`), the whole video and each cut's left side.
The right sides ride in the same pass: given the cuts' rows as
`starts`, `stylenet.style_forward` runs the span from each cut to the
end in the stacked LSTM step loop, with the bits a pass of its own
would give.  `_span_table` makes that one call per demo and keeps its
threshold-free product in the bundle's memo entry, next to the
embedding it was scored from, keyed by the segment net: `segment`
selects a cut from the table and `prob_curve` returns its prefix rows.
So in any order and repetition of the two (`skymimic segment --curve`)
a demo is embedded and scored once, and the curve shows the
probabilities the cuts read.

Threshold: a cut holds when the weaker side's peak probability reaches
threshold * the stronger side's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DependencyError
from .features import STRIDE, snippet_ends
from .pipeline import SEGMENT_NET, ModelBundle
from .scene import DT, STYLES
from .stylenet import PROB_FLOOR, prefix_probs, style_forward

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
    """The segment net's probabilities over the growing prefix, the
    rows `segment` reads for the whole video and each cut's left side.

    They are the prefix rows of the demo's span table, so before or
    after `segment` on the same demo they cost no second LSTM call.
    probs is read-only."""
    ends = snippet_ends(fg.shape[0])
    return ProbCurve(ends * DT, _span_table(fg, bg, bundle)[0])


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


def _span_table(fg: np.ndarray, bg: np.ndarray, bundle: ModelBundle):
    """(prefix, cuts): row k of prefix (read-only) labels the span [0, k],
    and cuts holds (frame, box jump, left-side probs, right-side probs)
    per candidate cut.  One stacked pass scores it per demo and segment
    net; the bundle's memo entry keeps it.  Raises DependencyError when
    the bundle has no segment net."""
    net, cfg = bundle.segment_params, bundle.style_cfg
    if net is None:
        raise DependencyError(f"no segment net ({SEGMENT_NET}); run "
                              "`skymimic train --stage style` first")
    emb = bundle.embed(fg, bg)

    def score():
        n, n_frames = emb.shape[0], fg.shape[0]
        min_part = max(1, int(round(MIN_SEGMENT_SECONDS / DT)))
        d = _discontinuity(fg)
        fcuts = (_candidate_cuts(d, min_part, n_frames - min_part)
                 if n >= 4 and n_frames >= 2 * min_part else [])
        rows = [min(max(int(round(f / STRIDE)), 2), n - 2) for f in fcuts]
        # one pass: its run from row 0 labels every span [0, k] (row k of
        # prefix), the run from each cut's row the span from there on
        runs = sorted({0, *rows})
        _, probs, traces, _ = style_forward(emb, net, cfg, starts=runs)
        prefix = prefix_probs(traces[0], net, cfg)
        prefix.flags.writeable = False
        right = dict(zip(runs, probs))
        return prefix, [(f, d[f - 1], prefix[j - 1], right[j])
                        for f, j in zip(fcuts, rows)]

    return bundle.derived(emb, net, score)


def segment(fg: np.ndarray, bg: np.ndarray, bundle: ModelBundle,
            threshold: float = 0.6) -> list[Segment]:
    """Cut the video at the best candidate of its span table that
    passes the threshold, or return it whole.

    threshold must lie in [0, 1]; NaN is refused, since no comparison
    with it holds and it would pass every cut."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold!r} is not in [0, 1]")
    prefix, cuts = _span_table(fg, bg, bundle)
    duration = fg.shape[0] * DT
    full = prefix[-1]
    whole = [Segment(0.0, duration, STYLES[int(np.argmax(full))],
                     float(np.max(full)))]
    best = None
    for fcut, jump, p1, p2 in cuts:
        if int(np.argmax(p1)) == int(np.argmax(p2)):
            continue
        weak, strong = sorted([float(p1.max()), float(p2.max())])
        if weak < threshold * strong:
            continue
        score = (np.log(p1.max() + PROB_FLOOR)
                 + np.log(p2.max() + PROB_FLOOR)
                 + 0.5 * np.log(jump + 1e-12))
        if best is None or score > best[0]:
            best = (score, fcut, p1, p2)
    if best is None:
        return whole
    _, fcut, p1, p2 = best
    return [Segment(0.0, fcut * DT, STYLES[int(np.argmax(p1))],
                    float(np.max(p1))),
            Segment(fcut * DT, duration, STYLES[int(np.argmax(p2))],
                    float(np.max(p2)))]
