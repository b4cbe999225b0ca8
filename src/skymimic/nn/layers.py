"""Forward passes and hand-derived backward passes for the fixed
architectures used here: affine layers, tanh MLPs, LSTM sequences, and
softmax. Everything is float64 and batched over the leading axis.

The LSTM runs a whole sequence as one fused kernel, after Appleyard,
Kočiský and Blunsom, "Optimizing Performance of Recurrent Neural
Networks on GPUs" (2016), because a NumPy step loop costs mostly per
call, not per flop:

- One-tanh gates. With sigmoid(z) = 0.5 * (1 + tanh(z / 2)), all four
  gates of a step are one tanh over the 4H pre-activation block: the
  block is scaled by s = [1/2, 1/2, 1, 1/2] (per gate i|f|g|o, folded
  into Wx, Wh and b), passed through tanh, then mapped back by
  s * y + (1 - s).
- Forward. xs @ Wx + b for all T steps is one GEMM before the
  recurrence; each step adds h_{t-1} @ Wh and finishes its gate block
  in place, with no per-step allocation (batch-1 calls are dominated
  by per-call overhead). A caller that slides a window over a stream
  can project each row once with `lstm_input_weights` and pass the
  window's pre-activation block instead (see `lstm_forward`).
  A cell that reads no input, such as the autoencoder's decoder, passes
  xs=None and a block of b·s alone.
- Cache layout (LSTMCache), N being the product of the batch axes:
  the input xs (T, ..., D) as given, or None for an input-free run;
  hidden and cell states hs, cs (T+1, N, H) with row 0 the initial
  state; gate activations (T, N, 4H) in i|f|g|o order; tanh(c_t) as
  tcs (T, N, H); the batch axes.
- Backward. BPTT writes each step's pre-activation gradient dz into one
  (T, N, 4H) array, again with no per-step allocation; dWx (none for an
  input-free run), dWh and db are then one GEMM (or sum) each over the
  stacked steps, added into the gradient set's views in place. The
  input gradient is not formed: dz is returned, and a caller that needs
  it computes dz @ Wx.T.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .params import DimensionError, ParamSet, uniform_init


class NumericError(ArithmeticError):
    """Raised when a computation produces non-finite values."""


class TrainingError(NumericError):
    """Raised when a training loop's loss turns non-finite."""


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function as 0.5 * (1 + tanh(z / 2)): one ufunc chain
    with no overflow branch, the same form the LSTM gates use."""
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, float)))


# ---------------------------------------------------------------------------
# affine

def affine(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    x, W, b = np.asarray(x, float), np.asarray(W, float), np.asarray(b, float)
    if x.shape[-1] != W.shape[0]:
        raise DimensionError(
            f"affine: x shape {x.shape} does not conform with W shape "
            f"{W.shape}")
    if b.shape[-1] != W.shape[1]:
        raise DimensionError(
            f"affine: b shape {b.shape} does not conform with W shape "
            f"{W.shape}")
    return x @ W + b


def affine_backward(dy: np.ndarray, x: np.ndarray, W: np.ndarray):
    """Returns (dx, dW, db) for y = xW + b."""
    x2 = x if x.ndim == 2 else x[None, :]
    dy2 = dy if dy.ndim == 2 else dy[None, :]
    dx = dy2 @ W.T
    dW = x2.T @ dy2
    db = dy2.sum(axis=0)
    return dx.reshape(x.shape), dW, db


# ---------------------------------------------------------------------------
# softmax

def softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, float)
    if z.size == 0:
        raise ValueError("softmax: empty input")
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# LSTM; gate order i, f, g, o in the stacked weight matrices.

class LSTMCache(NamedTuple):
    """What lstm_backward needs from lstm_forward; N is the product of
    the batch axes (1 when there are none)."""
    xs: np.ndarray | None  # (T, ..., D) the input as given; None if none
    hs: np.ndarray     # (T+1, N, H) hidden states, row 0 the initial one
    cs: np.ndarray     # (T+1, N, H) cell states, row 0 the initial one
    gates: np.ndarray  # (T, N, 4H) gate activations i|f|g|o
    tcs: np.ndarray    # (T, N, H) tanh(c_t)
    lead: tuple        # the batch axes (...), whose product is N


@lru_cache(maxsize=8)
def _gate_scale(H: int) -> tuple[np.ndarray, np.ndarray]:
    """(s, 1 - s) over the 4H gate block, s being 1/2 on i, f, o and 1
    on g, so that s * tanh(s * z) + (1 - s) is sigmoid(z) on i, f, o
    and tanh(z) on g. Scaling by 1/2 is exact, so it is folded into the
    weights. Built once per hidden size; both arrays are read-only."""
    s = np.full(4 * H, 0.5)
    s[2 * H:3 * H] = 1.0
    off = 1.0 - s
    s.flags.writeable = off.flags.writeable = False
    return s, off


def lstm_init(rng: np.random.Generator, d_in: int, hidden: int,
              prefix: str = "") -> ParamSet:
    p = ParamSet()
    p[prefix + "Wx"] = uniform_init(rng, d_in, (d_in, 4 * hidden))
    p[prefix + "Wh"] = uniform_init(rng, hidden, (hidden, 4 * hidden))
    p[prefix + "b"] = np.zeros(4 * hidden)
    return p


def lstm_input_weights(p: ParamSet,
                       prefix: str = "") -> tuple[np.ndarray, np.ndarray]:
    """(Wx·s, b·s): the input weights and bias with the gate scale
    folded in, as lstm_forward applies them.

    A batch-1 lstm_forward projects step t as x_t[None] @ (Wx·s), a
    (1, D) @ (D, 4H) matmul, and adds b·s. A caller that projects each
    row of a stream that way, once, and adds b·s to a window of those
    rows gets the bits lstm_forward would compute for that window, and
    can pass them as its `pre` argument. One (T, D) GEMM over the rows
    does not give the same bits.
    """
    s, _ = _gate_scale(p[prefix + "Wh"].shape[0])
    return p[prefix + "Wx"] * s, p[prefix + "b"] * s


def lstm_forward(xs: np.ndarray | None, p: ParamSet, prefix: str = "",
                 h0: np.ndarray | None = None,
                 c0: np.ndarray | None = None,
                 pre: np.ndarray | None = None):
    """Run the cell over time axis 0 of xs (T, ..., D).

    pre, when given, is the input pre-activation block (T, ..., 4H),
    xs @ (Wx·s) + b·s with the factors of `lstm_input_weights`; it
    replaces the input GEMM, and the call finishes its gates in place,
    so it must be an array the caller gives up. A cell that reads no
    input passes xs=None and b·s broadcast over (T, ..., 4H) as pre:
    that is the block a zero input gives, and lstm_backward then forms
    no Wx gradient, which would be zero.

    Returns (hs (T, ..., H), final h, final c, cache). hs and the final
    states are views into the cache and must not be written to.
    """
    Wx, Wh = p[prefix + "Wx"], p[prefix + "Wh"]
    H = Wh.shape[0]
    if xs is None:
        if pre is None or pre.ndim < 2 or pre.shape[-1] != 4 * H:
            raise DimensionError(
                f"lstm_forward: an input-free run needs a pre-activation "
                f"block (T, ..., {4 * H}), got "
                f"{None if pre is None else pre.shape}")
    else:
        xs = np.asarray(xs, float)
        if xs.ndim < 2 or xs.shape[-1] != Wx.shape[0]:
            raise DimensionError(
                f"lstm_forward: input shape {xs.shape} vs Wx shape "
                f"{Wx.shape}")
        if pre is not None and pre.shape != xs.shape[:-1] + (4 * H,):
            raise DimensionError(
                f"lstm_forward: pre-activation shape {pre.shape} vs input "
                f"shape {xs.shape} and hidden {H}")
    steps = (xs if pre is None else pre).shape[:-1]
    T, lead = steps[0], steps[1:]
    N = math.prod(lead)
    hs = np.zeros((T + 1, N, H))
    cs = np.zeros((T + 1, N, H))
    for state, init in ((hs, h0), (cs, c0)):
        if init is not None:
            init = np.asarray(init, float)
            if init.shape[-1] != H:
                raise DimensionError(
                    f"lstm_forward: initial state shape {init.shape} vs "
                    f"hidden {H}")
            state[0].reshape(lead + (H,))[...] = init
    s, off = _gate_scale(H)
    Whs = Wh * s
    # input projection of every step in one GEMM, unless the caller has
    # made it; each step's gate block is then finished in place
    if pre is None:
        Wxs, bs = lstm_input_weights(p, prefix)
        gates = xs.reshape(T, N, -1) @ Wxs
        gates += bs
        del Wxs, bs  # not held through the loop: 0.25 MB at the bg shape
    else:
        gates = pre.reshape(T, N, 4 * H)
    tcs = np.empty((T, N, H))
    # the step loop allocates nothing: h_{t-1} @ Whs and i * g go into
    # two buffers, and every per-step operand is a view of the cache
    rec = np.empty((N, 4 * H))
    ig = np.empty((N, H))
    i, f, g, o = (gates[..., k * H:(k + 1) * H] for k in range(4))
    for a, i_t, f_t, g_t, o_t, h_prev, c_prev, c, tc, h in zip(
            gates, i, f, g, o, hs[:-1], cs[:-1], cs[1:], tcs, hs[1:]):
        np.matmul(h_prev, Whs, out=rec)
        a += rec
        np.tanh(a, out=a)
        a *= s
        a += off
        np.multiply(f_t, c_prev, out=c)
        np.multiply(i_t, g_t, out=ig)
        c += ig
        np.tanh(c, out=tc)
        np.multiply(o_t, tc, out=h)
    hs_out = hs[1:].reshape((T,) + lead + (H,))
    return (hs_out, hs_out[-1], cs[T].reshape(lead + (H,)),
            LSTMCache(xs, hs, cs, gates, tcs, lead))


def lstm_backward(dhs, cache: LSTMCache, p: ParamSet, grads: ParamSet,
                  prefix: str = "", dh_final=None, dc_final=None):
    """BPTT over a sequence run by lstm_forward.

    dhs: per-step gradients w.r.t. each h_t (array over time, or None).
    dh_final/dc_final: extra gradient flowing into the last state.
    Adds the weight gradients into `grads` (no Wx gradient for an
    input-free run) and returns (dz, dh0, dc0). dz (T, ..., 4H) is the
    gradient w.r.t. each step's gate pre-activation x_t·Wx + h_{t-1}·Wh
    + b; the input gradient is dz @ Wx.T, which no caller here needs.
    """
    xs, hs, cs, gates, tcs, lead = cache
    Wh = p[prefix + "Wh"]
    T, N, H = tcs.shape
    if dhs is not None:
        dhs = np.asarray(dhs, float).reshape(T, N, H)
    i, f, g, o = (gates[..., k * H:(k + 1) * H] for k in range(4))
    # dz_t = [dct, dct, dct, dh] * coef_t, with dct the gradient w.r.t.
    # c_t; coef holds each gate's derivative times its partner in
    # c_t = f c_{t-1} + i g and h_t = o tanh(c_t). Both factors are
    # formed in the arrays that hold them, with no temporaries.
    coef = np.subtract(1.0, gates)
    coef *= gates
    coef_g = coef[..., 2 * H:3 * H]
    np.multiply(g, g, out=coef_g)
    np.subtract(1.0, coef_g, out=coef_g)
    coef_g *= i
    coef[..., :H] *= g
    coef[..., H:2 * H] *= cs[:-1]
    coef[..., 3 * H:] *= tcs
    coef = coef.reshape(T, N, 4, H)
    o_dtc = np.multiply(tcs, tcs)
    np.subtract(1.0, o_dtc, out=o_dtc)
    o_dtc *= o
    WhT = Wh.T
    dz = np.empty((T, N, 4 * H))
    dz4 = dz.reshape(T, N, 4, H)
    # the step loop allocates nothing: dh, dc and dct are buffers of
    # this call (the caller's dh_final and dc_final are copied in, never
    # written), and every per-step operand is a view built up front
    dh, dc, dct = np.zeros((N, H)), np.zeros((N, H)), np.empty((N, H))
    if dh_final is not None:
        dh[...] = np.reshape(dh_final, (N, H))
    if dc_final is not None:
        dc[...] = np.reshape(dc_final, (N, H))
    steps = zip(dz[::-1], dz4[::-1, :, :3], dz4[::-1, :, 3],
                coef[::-1, :, :3], coef[::-1, :, 3], o_dtc[::-1], f[::-1],
                dhs[::-1] if dhs is not None else [None] * T)
    for dz_t, dz_c, dz_o, coef_c, coef_o, o_dtc_t, f_t, dh_t in steps:
        if dh_t is not None:
            dh += dh_t
        np.multiply(dh, o_dtc_t, out=dct)
        dct += dc
        np.multiply(coef_c, dct[:, None, :], out=dz_c)
        np.multiply(coef_o, dh, out=dz_o)
        np.multiply(dct, f_t, out=dc)
        np.matmul(dz_t, WhT, out=dh)
    # weight gradients: one GEMM each over the stacked steps, added into
    # the gradient views in place
    dz2 = dz.reshape(T * N, 4 * H)
    if xs is not None:
        grads[prefix + "Wx"] += xs.reshape(T * N, -1).T @ dz2
    grads[prefix + "Wh"] += hs[:T].reshape(T * N, H).T @ dz2
    grads[prefix + "b"] += dz2.sum(axis=0)
    return (dz.reshape((T,) + lead + (4 * H,)), dh.reshape(lead + (H,)),
            dc.reshape(lead + (H,)))


# ---------------------------------------------------------------------------
# tanh MLP with linear output head

def mlp_init(rng: np.random.Generator, dims: list[int],
             prefix: str = "") -> ParamSet:
    p = ParamSet()
    for li in range(len(dims) - 1):
        p[f"{prefix}W{li}"] = uniform_init(rng, dims[li],
                                           (dims[li], dims[li + 1]))
        p[f"{prefix}b{li}"] = np.zeros(dims[li + 1])
    return p


def mlp_forward(x: np.ndarray, p: ParamSet, n_layers: int, prefix: str = ""):
    """tanh on hidden layers, linear output. Returns (y, cache)."""
    acts = [np.asarray(x, float)]
    for li in range(n_layers):
        z = affine(acts[-1], p[f"{prefix}W{li}"], p[f"{prefix}b{li}"])
        acts.append(np.tanh(z) if li < n_layers - 1 else z)
    return acts[-1], acts


def mlp_backward(dy: np.ndarray, acts, p: ParamSet, n_layers: int,
                 grads: ParamSet, prefix: str = "") -> np.ndarray:
    """Returns dx; accumulates parameter gradients into grads."""
    d = dy
    for li in range(n_layers - 1, -1, -1):
        if li < n_layers - 1:
            a = acts[li + 1]
            d = d * (1.0 - a * a)
        dx, dW, db = affine_backward(d, acts[li], p[f"{prefix}W{li}"])
        grads[f"{prefix}W{li}"] += dW
        grads[f"{prefix}b{li}"] += db
        d = dx
    return d
