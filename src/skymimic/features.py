"""Pre-processing: overlapping sliding windows over per-frame features
and LSTM-autoencoder embeddings of each window, trained separately for
the foreground (5-dim) and background (128-dim) channels.

The encoder consumes the N frames of a window and its final hidden
state is the embedding; the decoder, seeded with the encoder's final
state, reconstructs the window in reverse order. The decoder is
input-free, the "unconditioned decoder" of Srivastava, Mansimov and
Salakhutdinov, "Unsupervised Learning of Video Representations using
LSTMs" (ICML 2015): its gates see only the bias and the recurrence, so
no input GEMM runs forward and no Wx gradient backward (`dec_Wx` stays
in the parameter set, at its initial draw).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import (AdamaxState, NumericError, ParamSet, adamax_update, affine,
                 affine_backward, fit, lstm_backward, lstm_forward,
                 lstm_init, lstm_input_weights)
from .nn.layers import _gate_scale, _gate_scaled, _lstm_steps
from .nn.params import uniform_init

WINDOW = 8
STRIDE = 4

FG_DIM = 5
BG_DIM = 128
FG_EMBED = 32
BG_EMBED = 64
EMBED_DIM = FG_EMBED + BG_EMBED

CHANNEL_DIMS = {"fg": (FG_DIM, FG_EMBED), "bg": (BG_DIM, BG_EMBED)}


class TooShortError(ValueError):
    pass


class ChannelError(ValueError):
    pass


@dataclass
class Snippet:
    start: int
    video_id: str
    fg: np.ndarray  # (WINDOW, 5)
    bg: np.ndarray  # (WINDOW, 128)


def window_starts(length: int) -> list[int]:
    if length < WINDOW:
        raise TooShortError(
            f"sequence of {length} frames is shorter than the window "
            f"of {WINDOW}")
    return list(range(0, length - WINDOW + 1, STRIDE))


def window(fg: np.ndarray, bg: np.ndarray,
           video_id: str = "") -> list[Snippet]:
    return [Snippet(s, video_id, fg[s:s + WINDOW], bg[s:s + WINDOW])
            for s in window_starts(fg.shape[0])]


def autoencoder_init(channel: str, seed: int) -> ParamSet:
    if channel not in CHANNEL_DIMS:
        raise ChannelError(f"unknown channel {channel!r}")
    d_in, hidden = CHANNEL_DIMS[channel]
    rng = np.random.default_rng(seed)
    p = lstm_init(rng, d_in, hidden, prefix="enc_")
    for k, v in lstm_init(rng, d_in, hidden, prefix="dec_").items():
        p[k] = v
    p["out_W"] = uniform_init(rng, hidden, (hidden, d_in))
    p["out_b"] = np.zeros(d_in)
    p.meta["channel"] = channel
    return p


def _ae_forward(batch: np.ndarray, p: ParamSet):
    """batch (B, N, D) -> (mse, embeddings (B, H), caches)."""
    xs = np.transpose(batch, (1, 0, 2))  # (N, B, D)
    _, h_enc, c_enc, enc_caches = lstm_forward(xs, p, prefix="enc_")
    # the decoder's pre-activation block is its scaled bias at every
    # step; the scaled Wx is dropped at once, not held through the pass
    bs = lstm_input_weights(p, "dec_")[1]
    pre = np.broadcast_to(bs, xs.shape[:2] + bs.shape).copy()
    dec_hs, _, _, dec_caches = lstm_forward(None, p, prefix="dec_",
                                            h0=h_enc, c0=c_enc, pre=pre)
    recon = affine(dec_hs, p["out_W"], p["out_b"])
    target = xs[::-1]
    err = recon - target
    mse = float(np.mean(err ** 2))
    return mse, h_enc, (err, dec_hs, enc_caches, dec_caches)


def _ae_backward(p: ParamSet, cache) -> ParamSet:
    err, dec_hs, enc_caches, dec_caches = cache
    grads = p.zeros_like()
    derr = 2.0 * err / err.size
    n, b, h = dec_hs.shape
    dhs = np.empty_like(dec_hs)
    for t in range(n):
        dh, dW, db = affine_backward(derr[t], dec_hs[t], p["out_W"])
        grads["out_W"] += dW
        grads["out_b"] += db
        dhs[t] = dh
    _, dh0, dc0 = lstm_backward(dhs, dec_caches, p, grads, prefix="dec_")
    lstm_backward(None, enc_caches, p, grads, prefix="enc_",
                  dh_final=dh0, dc_final=dc0)
    return grads


def train_autoencoder(snippets: list[np.ndarray] | np.ndarray, channel: str,
                      epochs: int = 60, seed: int = 0, lr: float = 0.001,
                      batch_size: int = 64) -> tuple[ParamSet, list[dict]]:
    """Train one channel's autoencoder. Returns (params, per-epoch log
    of mean MSE, as nn.fit writes it)."""
    batch_all = np.asarray(snippets, dtype=float)
    if batch_all.ndim != 3 or batch_all.shape[0] == 0:
        raise ValueError("need a nonempty (B, N, D) snippet array")
    d_in, _ = CHANNEL_DIMS[channel]
    if batch_all.shape[2] != d_in:
        raise ChannelError(
            f"channel {channel!r} expects dim {d_in}, got "
            f"{batch_all.shape[2]}")
    p = autoencoder_init(channel, seed)
    state = AdamaxState(p, lr=lr)
    rng = np.random.default_rng(seed + 1)

    def batches():
        order = rng.permutation(batch_all.shape[0])
        for ofs in range(0, order.size, batch_size):
            yield batch_all[order[ofs:ofs + batch_size]]

    # fit gets (mse, cache); the backward runs in update, once fit has
    # found the loss finite
    return fit(p, batches, lambda batch: _ae_forward(batch, p)[::2],
               lambda cache: adamax_update(p, _ae_backward(p, cache), state),
               epochs, f"autoencoder ({channel})")


def embed_batch(batch: np.ndarray, p: ParamSet) -> np.ndarray:
    """Encoder-only pass: (B, N, D) -> (B, H) final hidden states."""
    xs = np.transpose(np.asarray(batch, float), (1, 0, 2))
    _, h_enc, _, _ = lstm_forward(xs, p, prefix="enc_")
    return _finite(h_enc)


def _finite(h: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(h)):
        raise NumericError("embedding produced non-finite values")
    return h


def _step_scratch(block: tuple, H: int) -> tuple[tuple, tuple]:
    """Scratch for `_lstm_steps` on (block, H) states: its rec and ig,
    and the leading part of each step, a gate block with its four gate
    views and tanh(c)."""
    gt = np.empty(block + (4 * H,))
    return ((np.empty_like(gt), np.empty(block + (H,))),
            (gt, *(gt[..., q * H:(q + 1) * H] for q in range(4)),
             np.empty(block + (H,))))


class EncoderStream:
    """One channel's observation rows over a run, in arrays of n rows,
    with the encoder state of every window still open.

    put(t, row) stores row t and projects it once through the encoder's
    input weights, with the (1, D) @ (D, 4H) matmul a batch-1
    lstm_forward runs for each step; repeat(t) copies row t-1 and its
    projection. embed(t) is the embedding of the WINDOW rows that end at
    row t, to the bit the one embed_batch computes from those rows.

    Each window is a run of the encoder from the zero state, and the
    stream keeps the runs alive instead of re-running every window from
    scratch, after the persistent-RNN advice of Appleyard et al. (see
    nn.layers); Wh·s is formed once per stream. The runs' h and c lie in
    (WINDOW, 1, H) arrays, oldest run first: before row d is consumed,
    slot j holds the run that starts at row d - WINDOW + 1 + j, and the
    last slot stays zero, the state of the run that starts at row d.
    Consuming row d steps every run but the oldest, which has read its
    WINDOW - 1 rows, by one stacked step of `_lstm_steps`, from one pair
    of arrays into the other, one slot down. Its (WINDOW - 1, 1, H) @
    (H, 4H) matmul runs slice by slice with the gemv of a batch-1 call,
    so each run keeps the bits of its own call.

    embed(t) consumes the rows before t, then steps the window's run, the
    oldest, through row t alone, into scratch. Row t is not consumed,
    since a row may be rewritten until a later row is stored, as the
    closed loop's bg field is. So put and repeat on a consumed row, and
    embed(t) for a window whose run has moved on, raise ValueError; embed
    raises NumericError for a non-finite embedding, as embed_batch does.
    """

    def __init__(self, p: ParamSet, n: int):
        self.Wxs, self.bs = lstm_input_weights(p, "enc_")
        self.rows = np.zeros((n, self.Wxs.shape[0]))
        self.proj = np.zeros((n, self.Wxs.shape[1]))
        H = p["enc_Wh"].shape[0]
        self._weights = (_gate_scaled(p["enc_Wh"], H), *_gate_scale(H))
        self._done = 0   # rows consumed by the runs
        self._pairs = np.zeros((2, 2, WINDOW, 1, H))   # two (h, c) pairs
        self._runs = _step_scratch((WINDOW - 1, 1), H)
        self._last = _step_scratch((1,), H)

    def _open(self, t: int) -> None:
        if t < self._done:
            raise ValueError(f"row {t} has been consumed by the open "
                             f"windows, which have read up to row "
                             f"{self._done - 1}")

    def put(self, t: int, row: np.ndarray) -> None:
        self._open(t)
        self.rows[t] = row
        np.matmul(self.rows[t:t + 1], self.Wxs, out=self.proj[t:t + 1])

    def repeat(self, t: int) -> None:
        """Row t and its projection become copies of row t-1's."""
        self._open(t)
        self.rows[t] = self.rows[t - 1]
        self.proj[t] = self.proj[t - 1]

    def embed(self, t: int) -> np.ndarray:
        """(H,) embedding of the window that ends at row t."""
        if t < WINDOW - 1:
            raise TooShortError(f"no window of {WINDOW} rows ends at row "
                                f"{t}")
        self._open(t)
        (scratch, gates), pairs = self._runs, self._pairs
        # row d steps the runs from pair d % 2 into the other, a slot down
        _lstm_steps(*self._weights, *scratch,
                    ((*gates, self.proj[d] + self.bs, *pairs[d % 2, :, 1:],
                      *pairs[1 - d % 2, :, :-1])
                     for d in range(self._done, t)))
        self._done = t
        (scratch, gates), (h, c) = self._last, pairs[t % 2, :, 0]
        out = np.empty_like(h)
        _lstm_steps(*self._weights, *scratch,
                    [(*gates, self.proj[t] + self.bs, h, c, out,
                      np.empty_like(c))])
        return _finite(out)[0]


def embed_video(fg: np.ndarray, bg: np.ndarray, fg_params: ParamSet,
                bg_params: ParamSet) -> np.ndarray:
    """(T_snippets, EMBED_DIM) embeddings of all windows of a video."""
    if fg_params.meta.get("channel") != "fg" \
            or bg_params.meta.get("channel") != "bg":
        raise ChannelError("encoder channel tags do not match fg/bg")
    starts = window_starts(fg.shape[0])
    fg_stack = np.stack([fg[s:s + WINDOW] for s in starts])
    bg_stack = np.stack([bg[s:s + WINDOW] for s in starts])
    fge = embed_batch(fg_stack, fg_params)
    bge = embed_batch(bg_stack, bg_params)
    return np.concatenate([fge, bge], axis=1)
