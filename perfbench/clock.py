"""Operation timing rescaled to a reference machine speed.

On a shared host the speed of the same code drifts by 10-25 % over
seconds to minutes, which is larger than any bound worth setting.  The drift
moves a fixed reference kernel and the program together, so each timed
segment is divided by the reference time measured around its two ends
and reported in milliseconds at the reference's nominal speed:

    normalized ms = wall ms * REF_NOMINAL_MS / local reference ms

The reference is benchmark-owned NumPy code of the same kind as the
program's (batch-1 LSTM-cell arithmetic), so no change to the program
moves it.  Reference runs happen between segments and are not
counted in either time.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The reference kernel's median time on the 2-core machine the
# benchmark was sized on; it only sets the scale of normalized ms.
REF_NOMINAL_MS = 8.0


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _cell(x, h, c, wx, wh, b):
    x, h, c = (np.asarray(a, float) for a in (x, h, c))
    n = wh.shape[0]
    z = x @ wx + h @ wh + b
    i, f = _sigmoid(z[..., :n]), _sigmoid(z[..., n:2 * n])
    g, o = np.tanh(z[..., 2 * n:3 * n]), _sigmoid(z[..., 3 * n:])
    c = f * c + i * g
    tc = np.tanh(c)
    return o * tc, c, (x, h, c, i, f, g, o, tc)


class Reference:
    """About 10 ms of LSTM-cell steps written the way the program writes
    them (masked sigmoid, per-step caches): `small` steps at batch 1 and
    `large` steps at batch 64.  Code dominated by many small NumPy calls
    slows down together under contention, and batch-64 code slows down
    differently, so a workload's reference has the same mix as its
    operations."""

    def __init__(self, small: int, large: int):
        rng = np.random.default_rng(0)

        def w(*shape):
            return rng.standard_normal(shape) * 0.3

        self.parts = [(w(small, 64), w(64, 256), w(64, 256), w(256)),
                      (w(large, 64, 128), w(128, 256), w(64, 256), w(256))]

    def run(self) -> float:
        """Seconds one pass of the kernel takes now."""
        t0 = perf_counter()
        for xs, wx, wh, b in self.parts:
            h = c = np.zeros(xs.shape[1:-1] + (64,))
            caches = []
            for x in xs:
                h, c, cache = _cell(x, h, c, wx, wh, b)
                caches.append(cache)
            if caches:
                np.stack([cache[0] for cache in caches])
        return perf_counter() - t0


class Stopwatch:
    """Times operations, optionally in several segments (`lap`), and
    runs the reference kernel between segments."""

    def __init__(self, reference: Reference):
        self.reference = reference
        self.refs: list[float] = []
        self._ref_at: list[float] = []
        self._segments: list[tuple[int, float]] = []  # (op, wall seconds)
        self._ops = 0
        self._measure()
        self._t0 = perf_counter()

    def _measure(self) -> None:
        self._ref_at.append(perf_counter())
        self.refs.append(self.reference.run())

    def begin(self) -> None:
        self._t0 = perf_counter()

    def lap(self) -> None:
        self._segments.append((self._ops, perf_counter() - self._t0))
        self._measure()
        self._t0 = perf_counter()

    def end(self) -> float:
        """Wall seconds of the operation since `begin`."""
        self.lap()
        self._ops += 1
        return sum(w for op, w in self._segments if op == self._ops - 1)

    def normalized_ms(self, window_s: float = 0.5) -> list[float]:
        """Every operation's time at the reference speed, in order.  A
        segment is scaled by the reference time at its two ends, each
        the median of the runs within window_s of it: one run jitters by
        several percent, while the drift takes seconds."""
        at = np.asarray(self._ref_at)
        refs = np.asarray(self.refs)
        smooth = [float(np.median(refs[np.abs(at - t) <= window_s]))
                  for t in at]
        out = [0.0] * self._ops
        for i, (op, wall) in enumerate(self._segments):
            out[op] += wall * 2.0 / (smooth[i] + smooth[i + 1])
        return [v * REF_NOMINAL_MS for v in out]

    def ref_ms_p50(self) -> float:
        return float(np.median(self.refs)) * 1e3
