"""Pre-processing: overlapping sliding windows over per-frame features
and LSTM-autoencoder embeddings of each window, trained separately for
the foreground (5-dim) and background (128-dim) channels.

The encoder consumes the N frames of a window and its final hidden
state is the embedding; the decoder, seeded with the encoder's final
state, reconstructs the window in reverse order. The decoder is
input-free, the "unconditioned decoder" of Srivastava, Mansimov and
Salakhutdinov, "Unsupervised Learning of Video Representations using
LSTMs" (ICML 2015): its gates see only the bias and the recurrence.
Its `dec_Wx` has no rows and it reads an input of no columns, so no
input GEMM runs forward and its Wx gradient is empty.

Every stack of n windows is (WINDOW, n, D), time-major and C-contiguous
as the LSTM kernel reads it: `snippet_stack`'s, `embed_batch`'s and each
training step's batch, which is gathered straight from the per-record
tables. Every step writes over the arrays of the last: its batch, its
LSTM caches (lstm_forward's out), its error, its dz (lstm_backward's
out) and its gradient set.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .nn import (AdamaxState, NumericError, ParamSet, adamax_update, fit,
                 lstm_backward, lstm_forward, lstm_init, lstm_input_weights)
from .nn.layers import (LSTMCache, TrainingError, _lstm_steps,
                        _recurrent_weights, _step_scratch)
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


def snippet_ends(n: int) -> np.ndarray:
    """The snippet grid of an n-frame table: snippet i covers rows
    ends[i] - WINDOW to ends[i] - 1, a new one every STRIDE rows."""
    if n < WINDOW:
        raise TooShortError(
            f"sequence of {n} frames is shorter than the window "
            f"of {WINDOW}")
    return np.arange(WINDOW, n + 1, STRIDE)


def snippet_stack(table: np.ndarray) -> np.ndarray:
    """C-contiguous (WINDOW, n_snippets, D) stack of the snippet windows
    of an (n, D) table: window j is [:, j]."""
    return table[np.arange(-WINDOW, 0)[:, None]
                 + snippet_ends(table.shape[0])]


def autoencoder_init(channel: str, seed: int) -> ParamSet:
    if channel not in CHANNEL_DIMS:
        raise ChannelError(f"unknown channel {channel!r}")
    d_in, hidden = CHANNEL_DIMS[channel]
    rng = np.random.default_rng(seed)
    enc = lstm_init(rng, d_in, hidden, prefix="enc_")
    dec = lstm_init(rng, d_in, hidden, prefix="dec_")
    # the decoder reads no input, so its Wx keeps no rows of its draw;
    # the draw is still taken, so that every later draw keeps its value
    return ParamSet({**enc, **dec, "dec_Wx": dec["dec_Wx"][:0],
                     "out_W": uniform_init(rng, hidden, (hidden, d_in)),
                     "out_b": np.zeros(d_in)}, {"channel": channel})


class _Step(NamedTuple):
    """The arrays an autoencoder step over n windows of T rows writes
    over: its batch (T, n, D); the encoder's and the decoder's caches,
    passed to lstm_forward as out; the error (T, n, D), which becomes
    its own gradient; dz (T, n, 4H), which both LSTM backwards write
    over; and flat, dz's memory as one flat array, whose first elements
    hold the forward's squared error before that (D <= 4H on both
    channels). flat stays contiguous in the _Step of a smaller batch, so
    the error's mean sums in the order of a fresh array's."""
    batch: np.ndarray
    enc: LSTMCache
    dec: LSTMCache
    err: np.ndarray
    dz: np.ndarray
    flat: np.ndarray


def _step_arrays(T: int, n: int, d_in: int, H: int) -> _Step:
    """A _Step of n windows of T rows, in new arrays."""
    shapes = [(T + 1, n, H)] * 2 + [(T, n, 4 * H), (T, n, H)]   # hs to tcs
    enc, dec = (LSTMCache(None, *map(np.empty, shapes), None)
                for _ in range(2))
    dz = np.empty((T, n, 4 * H))
    return _Step(np.empty((T, n, d_in)), enc, dec, np.empty((T, n, d_in)),
                 dz, dz.reshape(-1))


def _head(step: _Step, n: int) -> _Step:
    """The _Step of the first n windows of step's, in views of its
    arrays, each cut on axis 1."""
    batch, enc, dec, err, dz, flat = step
    enc, dec = (LSTMCache(None, *(a[:, :n] for a in c[1:5]), None)
                for c in (enc, dec))
    return _Step(batch[:, :n], enc, dec, err[:, :n], dz[:, :n], flat)


def _ae_forward(batch: np.ndarray, p: ParamSet, step: _Step | None = None):
    """batch (N, B, D) -> (mse, embeddings (B, H), caches). The arrays
    it forms are those of step, the _Step of this batch's shape, which
    are written over; by default a new _Step's."""
    if step is None:
        step = _step_arrays(*batch.shape, p["enc_Wh"].shape[0])
    _, h_enc, c_enc, enc_cache = lstm_forward(batch, p, prefix="enc_",
                                              out=step.enc)
    dec_hs, _, _, dec_cache = lstm_forward(
        batch[..., :0], p, prefix="dec_", h0=h_enc, c0=c_enc, out=step.dec)
    # the reconstruction dec_hs @ out_W + out_b minus the reversed
    # window, formed in one array
    err = np.matmul(dec_hs, p["out_W"], out=step.err)
    err += p["out_b"]
    err -= batch[::-1]
    sq = np.square(err, out=step.flat[:err.size].reshape(err.shape))
    mse = float(np.mean(sq))
    return mse, h_enc, (err, dec_hs, enc_cache, dec_cache, step.dz)


def _ae_backward(p: ParamSet, cache, grads: ParamSet | None = None
                 ) -> ParamSet:
    """The gradients of _ae_forward's mse, which the forward's err
    becomes in place; both LSTM backwards write over the step's dz.
    grads, when given, is zeroed and filled instead of a new set."""
    err, dec_hs, enc_cache, dec_cache, dz = cache
    if grads is None:
        grads = p.zeros_like()
    else:
        grads.flat.fill(0.0)
    derr = err
    derr *= 2.0
    derr /= err.size
    # the output layer over every step at once, in the per-step loop's
    # order of sums: each step's product or row sum, then the steps'
    grads["out_W"] += np.matmul(dec_hs.transpose(0, 2, 1), derr).sum(axis=0)
    grads["out_b"] += derr.sum(axis=1).sum(axis=0)
    _, dh0, dc0 = lstm_backward(derr @ p["out_W"].T, dec_cache, p, grads,
                                prefix="dec_", out=dz)
    # the decoder's dz is not read again: the encoder's is written over it
    lstm_backward(None, enc_cache, p, grads, prefix="enc_",
                  dh_final=dh0, dc_final=dc0, out=dz)
    return grads


def train_autoencoder(tables, channel: str, epochs: int = 60, seed: int = 0,
                      lr: float = 0.001,
                      batch_size: int = 64) -> tuple[ParamSet, list[dict]]:
    """Train one channel's autoencoder on the snippet windows of
    `tables`, a sequence of (n, D) per-record tables; a (B, WINDOW, D)
    array is B tables of one window each. Returns (params, per-epoch log
    of mean MSE, as nn.fit writes it).

    Window j is the j-th snippet of the tables' grids taken in order, so
    an epoch's batches are the windows rng.permutation picks, gathered
    from the tables into a (WINDOW, B, D) array: no stack of every
    window, which would be twice the tables' size, is formed. Every step
    writes over the arrays of the last one: the _Step of an epoch's
    tail batch is the head of the full batch's, views of its first
    windows, and one gradient set serves every step. What a step still
    allocates are the kernels' and the output layer's smaller
    temporaries, so the allocator keeps its memory instead of handing it
    back to the system and faulting it in again at every step."""
    tables = [np.asarray(t, dtype=float) for t in tables]
    if not tables:
        raise TrainingError(f"autoencoder ({channel}) had no training example")
    if any(t.ndim != 2 for t in tables):
        raise ValueError("need a sequence of (n, D) tables")
    d_in, hidden = CHANNEL_DIMS[channel]
    if any(t.shape[1] != d_in for t in tables):
        raise ChannelError(
            f"channel {channel!r} expects dim {d_in}, got "
            f"{sorted({t.shape[1] for t in tables})}")
    ends = [snippet_ends(t.shape[0]) for t in tables]
    table_of = np.repeat(np.arange(len(tables)), [e.size for e in ends])
    start_of = np.concatenate(ends) - WINDOW
    p = autoencoder_init(channel, seed)
    state = AdamaxState(p, lr=lr)
    rng = np.random.default_rng(seed + 1)
    full = _step_arrays(WINDOW, min(batch_size, start_of.size), d_in, hidden)
    grads = p.zeros_like()

    def batches():
        order = rng.permutation(start_of.size)
        for ofs in range(0, order.size, batch_size):
            idx = order[ofs:ofs + batch_size]
            step = _head(full, idx.size)
            np.stack([tables[k][a:a + WINDOW] for k, a in
                      zip(table_of[idx].tolist(), start_of[idx].tolist())],
                     axis=1, out=step.batch)
            yield step

    # fit gets (mse, cache); the backward runs in update, once fit has
    # found the loss finite
    return fit(p, batches,
               lambda step: _ae_forward(step.batch, p, step=step)[::2],
               lambda cache: adamax_update(
                   p, _ae_backward(p, cache, grads), state),
               epochs, f"autoencoder ({channel})")


def embed_batch(batch: np.ndarray, p: ParamSet) -> np.ndarray:
    """Encoder-only pass: (N, B, D) -> (B, H) final hidden states."""
    _, h_enc, _, _ = lstm_forward(batch, p, prefix="enc_")
    return _finite(h_enc)


def _finite(h: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(h)):
        raise NumericError("embedding produced non-finite values")
    return h


class EncoderStream:
    """One channel's observation rows over a run, in arrays of n rows,
    with the encoder state of every window still open.

    put(t, row) stores row t and projects it once through the encoder's
    input weights, with the (1, D) @ (D, 4H) matmul a batch-1
    lstm_forward runs for each step, then adds b·s, so a projected row
    is the pre-activation row every window's step reads; repeat(t)
    copies row t-1 and its projection. embed(t) is the embedding of the
    WINDOW rows that end at row t, to the bit the one embed_batch
    computes from those rows.

    Each window is a run of the encoder from the zero state, and the
    stream keeps the runs alive instead of re-running every window from
    scratch, after the persistent-RNN advice of Appleyard et al. (see
    nn.layers); Wh·s is formed once per stream, and the step scratch is
    the kernel's own (`_step_scratch`). The runs' h and c lie in
    (WINDOW, 1, 1, H) blocks, the kernel's (S, B, N, H) layout with the
    runs on S, oldest run first: before row d is consumed, slot j holds
    the run that starts at row d - WINDOW + 1 + j, and the last slot
    stays zero, the state of the run that starts at row d. Consuming row
    d steps every run but the oldest, which has read its WINDOW - 1
    rows, by one stacked step of `_lstm_steps`, from one pair of blocks
    into the other, one slot down. Its (WINDOW - 1, 1, 1, H) @
    (1, H, 4H) matmul runs slice by slice with the gemv of a batch-1
    call, so each run keeps the bits of its own call.

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
        self._weights = _recurrent_weights(p, ("enc_",), H)
        self._done = 0   # rows consumed by the runs
        # two (h, c) pairs of (WINDOW, 1, 1, H) state blocks
        self._pairs = np.zeros((2, 2, WINDOW, 1, 1, H))
        self._runs = _step_scratch((WINDOW - 1, 1, 1), H)
        self._last = _step_scratch((1, 1, 1), H)

    def _open(self, t: int) -> None:
        if t < self._done:
            raise ValueError(f"row {t} has been consumed by the open "
                             f"windows, which have read up to row "
                             f"{self._done - 1}")

    def put(self, t: int, row: np.ndarray) -> None:
        self._open(t)
        self.rows[t] = row
        np.matmul(self.rows[t:t + 1], self.Wxs, out=self.proj[t:t + 1])
        self.proj[t] += self.bs

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
                    ((gates, self.proj[d], *pairs[d % 2, :, 1:],
                      *pairs[1 - d % 2, :, :-1])
                     for d in range(self._done, t)))
        self._done = t
        (scratch, gates), (h, c) = self._last, pairs[t % 2, :, :1]
        out = np.empty_like(h)
        _lstm_steps(*self._weights, *scratch,
                    [(gates, self.proj[t], h, c, out, np.empty_like(c))])
        return _finite(out)[0, 0, 0]


def embed_video(fg: np.ndarray, bg: np.ndarray, fg_params: ParamSet,
                bg_params: ParamSet) -> np.ndarray:
    """(T_snippets, EMBED_DIM) embeddings of all windows of a video."""
    if fg_params.meta.get("channel") != "fg" \
            or bg_params.meta.get("channel") != "bg":
        raise ChannelError("encoder channel tags do not match fg/bg")
    fge = embed_batch(snippet_stack(fg), fg_params)
    bge = embed_batch(snippet_stack(bg), bg_params)
    return np.concatenate([fge, bge], axis=1)
