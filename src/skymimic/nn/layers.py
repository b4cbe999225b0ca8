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
  in place.
- Cache layout (LSTMCache), N being the product of the batch axes:
  the input xs (T, ..., D) as given; hidden and cell states hs, cs
  (T+1, N, H) with row 0 the initial state; gate activations
  (T, N, 4H) in i|f|g|o order; tanh(c_t) as tcs (T, N, H).
- Backward. BPTT writes each step's pre-activation gradient into one
  (T, N, 4H) array; dWx, dWh, db and dxs are then one GEMM (or sum)
  each over the stacked steps.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .params import DimensionError, ParamSet, uniform_init


class NumericError(ArithmeticError):
    """Raised when a computation produces non-finite values."""


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
    xs: np.ndarray     # (T, ..., D) the input as given
    hs: np.ndarray     # (T+1, N, H) hidden states, row 0 the initial one
    cs: np.ndarray     # (T+1, N, H) cell states, row 0 the initial one
    gates: np.ndarray  # (T, N, 4H) gate activations i|f|g|o
    tcs: np.ndarray    # (T, N, H) tanh(c_t)


def _gate_scale(H: int) -> np.ndarray:
    """s over the 4H gate block: 1/2 on i, f, o and 1 on g, so that
    s * tanh(s * z) + (1 - s) is sigmoid(z) on i, f, o and tanh(z) on g.
    Scaling by 1/2 is exact, so it is folded into the weights."""
    s = np.full(4 * H, 0.5)
    s[2 * H:3 * H] = 1.0
    return s


def lstm_init(rng: np.random.Generator, d_in: int, hidden: int,
              prefix: str = "") -> ParamSet:
    p = ParamSet()
    p[prefix + "Wx"] = uniform_init(rng, d_in, (d_in, 4 * hidden))
    p[prefix + "Wh"] = uniform_init(rng, hidden, (hidden, 4 * hidden))
    p[prefix + "b"] = np.zeros(4 * hidden)
    return p


def lstm_forward(xs: np.ndarray, p: ParamSet, prefix: str = "",
                 h0: np.ndarray | None = None,
                 c0: np.ndarray | None = None):
    """Run the cell over time axis 0 of xs (T, ..., D).

    Returns (hs (T, ..., H), final h, final c, cache). hs and the final
    states are views into the cache and must not be written to.
    """
    Wx, Wh, b = p[prefix + "Wx"], p[prefix + "Wh"], p[prefix + "b"]
    xs = np.asarray(xs, float)
    if xs.ndim < 2 or xs.shape[-1] != Wx.shape[0]:
        raise DimensionError(
            f"lstm_forward: input shape {xs.shape} vs Wx shape {Wx.shape}")
    T, lead, H = xs.shape[0], xs.shape[1:-1], Wh.shape[0]
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
    s = _gate_scale(H)
    off = 1.0 - s
    Whs = Wh * s
    # input projection of every step in one GEMM; each step's gate block
    # is then finished in place
    gates = xs.reshape(T, N, -1) @ (Wx * s)
    gates += b * s
    tcs = np.empty((T, N, H))
    for t in range(T):
        a = gates[t]
        a += hs[t] @ Whs
        np.tanh(a, out=a)
        a *= s
        a += off
        c = cs[t + 1]
        np.multiply(a[:, H:2 * H], cs[t], out=c)
        c += a[:, :H] * a[:, 2 * H:3 * H]
        np.tanh(c, out=tcs[t])
        np.multiply(a[:, 3 * H:], tcs[t], out=hs[t + 1])
    hs_out = hs[1:].reshape((T,) + lead + (H,))
    return (hs_out, hs_out[-1], cs[T].reshape(lead + (H,)),
            LSTMCache(xs, hs, cs, gates, tcs))


def lstm_step(x: np.ndarray, h: np.ndarray, c: np.ndarray, p: ParamSet,
              prefix: str = ""):
    """One cell update, as a length-1 lstm_forward. Returns (h', c',
    cache)."""
    _, h_new, c_new, cache = lstm_forward(np.asarray(x, float)[None], p,
                                          prefix, h, c)
    return h_new, c_new, cache


def lstm_backward(dhs, cache: LSTMCache, p: ParamSet, grads: ParamSet,
                  prefix: str = "", dh_final=None, dc_final=None):
    """BPTT over a sequence run by lstm_forward.

    dhs: per-step gradients w.r.t. each h_t (array over time, or None).
    dh_final/dc_final: extra gradient flowing into the last state.
    Adds the weight gradients into `grads` and returns (dxs shaped like
    xs, dh0, dc0).
    """
    xs, hs, cs, gates, tcs = cache
    Wx, Wh = p[prefix + "Wx"], p[prefix + "Wh"]
    T, N, H = tcs.shape
    lead = xs.shape[1:-1]
    if dhs is not None:
        dhs = np.asarray(dhs, float).reshape(T, N, H)
    i, f, g, o = (gates[..., k * H:(k + 1) * H] for k in range(4))
    # dz_t = [dct, dct, dct, dh] * coef_t, with dct the gradient w.r.t.
    # c_t; coef holds each gate's derivative times its partner in
    # c_t = f c_{t-1} + i g and h_t = o tanh(c_t)
    coef = gates * (1.0 - gates)
    coef[..., 2 * H:3 * H] = 1.0 - g * g
    coef[..., :H] *= g
    coef[..., H:2 * H] *= cs[:-1]
    coef[..., 2 * H:3 * H] *= i
    coef[..., 3 * H:] *= tcs
    coef = coef.reshape(T, N, 4, H)
    o_dtc = o * (1.0 - tcs * tcs)
    WhT = Wh.T
    dz = np.empty((T, N, 4 * H))
    dz4 = dz.reshape(T, N, 4, H)
    dh = np.zeros((N, H)) if dh_final is None \
        else np.reshape(dh_final, (N, H))
    dc = np.zeros((N, H)) if dc_final is None \
        else np.reshape(dc_final, (N, H))
    for t in range(T - 1, -1, -1):
        if dhs is not None:
            dh = dh + dhs[t]
        dct = dh * o_dtc[t]
        dct += dc
        np.multiply(coef[t, :, :3], dct[:, None, :], out=dz4[t, :, :3])
        np.multiply(coef[t, :, 3], dh, out=dz4[t, :, 3])
        dc = dct * f[t]
        dh = dz[t] @ WhT
    # weight gradients and dxs: one GEMM each over the stacked steps
    dz2 = dz.reshape(T * N, 4 * H)
    grads[prefix + "Wx"] = grads[prefix + "Wx"] \
        + xs.reshape(T * N, -1).T @ dz2
    grads[prefix + "Wh"] = grads[prefix + "Wh"] \
        + hs[:T].reshape(T * N, H).T @ dz2
    grads[prefix + "b"] = grads[prefix + "b"] + dz2.sum(axis=0)
    dxs = (dz2 @ Wx.T).reshape(xs.shape)
    return dxs, dh.reshape(lead + (H,)), dc.reshape(lead + (H,))


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
        grads[f"{prefix}W{li}"] = grads[f"{prefix}W{li}"] + dW
        grads[f"{prefix}b{li}"] = grads[f"{prefix}b{li}"] + db
        d = dx
    return d
