"""Pre-processing: overlapping sliding windows over per-frame features
and LSTM-autoencoder embeddings of each window, trained separately for
the foreground (5-dim) and background (128-dim) channels.

The encoder consumes the N frames of a window and its final hidden
state is the embedding; the decoder, seeded with the encoder's final
state, reconstructs the window in reverse order from zero inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import (AdamaxState, NumericError, ParamSet, adamax_update, affine,
                 affine_backward, fit, lstm_backward, lstm_forward,
                 lstm_init, lstm_input_weights)
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


def window_starts(length: int, n: int = WINDOW,
                  stride: int = STRIDE) -> list[int]:
    if length < n:
        raise TooShortError(
            f"sequence of {length} frames is shorter than the window "
            f"of {n}")
    return list(range(0, length - n + 1, stride))


def window(fg: np.ndarray, bg: np.ndarray, video_id: str = "",
           n: int = WINDOW, stride: int = STRIDE) -> list[Snippet]:
    starts = window_starts(fg.shape[0], n, stride)
    return [Snippet(s, video_id, fg[s:s + n], bg[s:s + n]) for s in starts]


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
    n, b, d = xs.shape
    zeros_in = np.zeros((n, b, d))
    dec_hs, _, _, dec_caches = lstm_forward(zeros_in, p, prefix="dec_",
                                            h0=h_enc, c0=c_enc)
    recon = affine(dec_hs, p["out_W"], p["out_b"])
    target = xs[::-1]
    err = recon - target
    mse = float(np.mean(err ** 2))
    return mse, h_enc, (xs, err, dec_hs, enc_caches, dec_caches)


def _ae_backward(p: ParamSet, cache) -> ParamSet:
    xs, err, dec_hs, enc_caches, dec_caches = cache
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


def embed_batch(batch: np.ndarray, p: ParamSet,
                pre: np.ndarray | None = None) -> np.ndarray:
    """Encoder-only pass: (B, N, D) -> (B, H) final hidden states.

    pre, when given, is the encoder's input pre-activation block
    (N, B, 4H), as `EncoderStream.window` builds it; see lstm_forward.
    """
    xs = np.transpose(np.asarray(batch, float), (1, 0, 2))
    _, h_enc, _, _ = lstm_forward(xs, p, prefix="enc_", pre=pre)
    if not np.all(np.isfinite(h_enc)):
        raise NumericError("embedding produced non-finite values")
    return h_enc


class EncoderStream:
    """One channel's observation rows over a run, with each row's
    encoder input projection, in arrays of n rows.

    put(t, row) stores row t and projects it once, with the (1, D) @
    (D, 4H) matmul a batch-1 lstm_forward runs for each step, so
    window(t) hands embed_batch the pre-activation block it would
    compute from the window's rows, to the bit. A stream fed one row per
    step thus projects each row once, not once per window it is in.
    """

    def __init__(self, p: ParamSet, n: int):
        self.Wxs, self.bs = lstm_input_weights(p, "enc_")
        self.rows = np.zeros((n, self.Wxs.shape[0]))
        self.proj = np.zeros((n, self.Wxs.shape[1]))

    def put(self, t: int, row: np.ndarray) -> None:
        self.rows[t] = row
        np.matmul(self.rows[t:t + 1], self.Wxs, out=self.proj[t:t + 1])

    def repeat(self, t: int) -> None:
        """Row t and its projection become copies of row t-1's."""
        self.rows[t] = self.rows[t - 1]
        self.proj[t] = self.proj[t - 1]

    def window(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """(batch (1, WINDOW, D), pre (WINDOW, 1, 4H)) of the window
        that ends at row t, for embed_batch."""
        lo = t - WINDOW + 1
        if lo < 0:
            raise TooShortError(f"no window of {WINDOW} rows ends at row "
                                f"{t}")
        return (self.rows[None, lo:t + 1],
                (self.proj[lo:t + 1] + self.bs)[:, None])


def embed_snippet(snippet: Snippet, fg_params: ParamSet,
                  bg_params: ParamSet) -> np.ndarray:
    """(EMBED_DIM,) concatenated FG and BG embedding of one snippet."""
    if fg_params.meta.get("channel") != "fg" \
            or bg_params.meta.get("channel") != "bg":
        raise ChannelError(
            f"encoder channels are "
            f"{fg_params.meta.get('channel')!r}/"
            f"{bg_params.meta.get('channel')!r}, need 'fg'/'bg'")
    fg = embed_batch(snippet.fg[None], fg_params)[0]
    bg = embed_batch(snippet.bg[None], bg_params)[0]
    return np.concatenate([fg, bg])


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
