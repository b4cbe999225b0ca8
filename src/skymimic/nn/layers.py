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
  by per-call overhead). The step itself is `_lstm_steps`, the one copy
  of the cell math: a caller that keeps runs alive across rows of a
  stream (`features.EncoderStream`) projects each row once with
  `lstm_input_weights` and steps its runs through it.
  A cell that reads no input, such as the autoencoder's decoder, passes
  xs=None and a block of b·s alone.
- Stacks. Independent runs share the step loop, after the same paper's
  advice to run independent recurrent streams together: a stack of B
  cells of one hidden size (the style net's fg and bg branches), and S
  runs of each that join the loop late, run s at row starts[s] from its
  initial state. The cells' inputs lie side by side on the last axis of
  one input array. Every elementwise op of a step covers all runs in the
  loop at once, and the recurrent matmul is one broadcast
  (S, B, N, H) @ (B, H, 4H) call, which NumPy runs slice by slice with
  the gemv or GEMM of a 2-D call. Runs share each row's input
  projection, which the projection's matmul forms row by row, so its
  bits do not depend on the span. So each run of each cell gets the
  bits of its own call on the rows it reads.
  A single-cell call is a stack of one: its blocks keep no stack axes
  and it copies no weight matrix.
- Cache layout (LSTMCache): each time row holds R = S·B·N state rows,
  runs outermost, then cells, then the N rows of the batch axes; the
  input xs (T, ..., D) as given, or None for an input-free run; hidden
  and cell states hs, cs (T+1, R, H), with run s's initial state at row
  starts[s]; gate activations (T, R, 4H) in i|f|g|o order, zero before
  a run's start when there are several runs; tanh(c_t) as tcs
  (T, R, H); the batch axes and the run starts (None for one run from
  row 0). The backward is given the forward's prefixes, which fix the
  cell count.
- Backward. BPTT writes each step's pre-activation gradient dz into one
  (T, R, 4H) array, again with no per-step allocation, and steps the
  runs of a stack together as the forward does; dWx (none for an
  input-free run), dWh and db are then one GEMM (or sum) each per run
  and cell over the rows the run read, added into the gradient set's
  views in place. The input gradient is not formed: dz is returned, and
  a caller that needs it computes dz @ Wx.T.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
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
    """What lstm_backward needs from lstm_forward. A time row holds
    R = S·B·N state rows: S runs of B cells over N batch rows, in that
    order, N being the product of the batch axes (1 when there are
    none)."""
    xs: np.ndarray | None  # the input (T, ..., D) as given; None if none
    hs: np.ndarray     # (T+1, R, H) hidden states; run s starts from its
    #                    initial state at row starts[s] (row 0 if None)
    cs: np.ndarray     # (T+1, R, H) cell states, laid out as hs
    gates: np.ndarray  # (T, R, 4H) gate activations i|f|g|o
    tcs: np.ndarray    # (T, R, H) tanh(c_t)
    lead: tuple        # the batch axes (...), whose product is N
    starts: tuple | None = None  # the runs' first rows, ascending; None
    #                              for one run from row 0


def _cells(prefix: str | tuple) -> tuple[tuple, tuple]:
    """(prefixes, cell axis): a plain prefix is one cell and its calls
    have no cell axis; a tuple of B prefixes is a stack, with one."""
    if isinstance(prefix, str):
        return (prefix,), ()
    return tuple(prefix), (len(prefix),)


def _layout(starts: tuple | None, cell_axis: tuple, lead: tuple):
    """(runs, N, axes, block) of a kernel call: the runs' first rows; the
    batch size; the axes between time and H of what the kernel returns,
    which are the run axis when starts are given, the cell axis for a
    stack of cells, then the batch axes; and the step loop's block
    ([S,] [B,] N), with a run or cell axis only for more than one, so
    one run of one cell steps on (N, H) blocks."""
    runs = (0,) if starts is None else starts
    S, B, N = len(runs), math.prod(cell_axis), math.prod(lead)
    axes = (S,) * (starts is not None) + cell_axis + lead
    return runs, N, axes, (S,) * (S > 1) + (B,) * (B > 1) + (N,)


def _columns(xs: np.ndarray, p: ParamSet, prefixes: tuple) -> list:
    """Each cell's input: the cells read consecutive column blocks of
    xs, in prefix order, each as wide as its Wx has rows."""
    edges = list(accumulate((p[q + "Wx"].shape[0] for q in prefixes),
                            initial=0))
    return [xs[..., a:z] for a, z in zip(edges, edges[1:])]


def _active(starts: tuple, T: int) -> list[tuple[int, int, int]]:
    """(k, a, z): over rows [a, z) the first k runs are in the loop."""
    ends = starts[1:] + (T,)
    return [(k, a, z) for k, (a, z) in enumerate(zip(starts, ends), 1)
            if a < z]


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


def _gate_scaled(W: np.ndarray, H: int, out=None) -> np.ndarray:
    """W·s over the last axis, W's 4H gate columns, to the bit: halving
    is exact and g's columns are copied, at half the cost of a
    broadcast multiply by s."""
    out = np.multiply(W, 0.5, out=out)
    out[..., 2 * H:3 * H] = W[..., 2 * H:3 * H]
    return out


def _lstm_steps(Whs, s, off, rec, ig, steps) -> None:
    """Run the cell's steps over a block of state rows (..., H), in
    place: the one copy of the cell math. Each step is (gt, i, f, g, o,
    tc, row, h_prev, c_prev, h, c): the gate block gt, whose views i, f,
    g, o are its four gates, is formed from the input pre-activation row
    and h_prev @ Whs; then c from c_prev, tc = tanh(c) and h. Whs, s
    and off are the scaled recurrent weights and the gate scale pair of
    `_gate_scale`; rec and ig are scratch of gt's and h's shapes.
    Nothing is allocated. With run or cell axes before the (N, H) rows,
    the matmul is one broadcast call, which NumPy runs slice by slice
    with the kernel of a 2-D call, so each run of each cell gets the
    bits of a step of its own."""
    for gt, i, f, g, o, tc, row, h_prev, c_prev, h, c in steps:
        np.matmul(h_prev, Whs, out=rec)
        rec += row   # not into gt: gt may be row itself
        np.tanh(rec, out=gt)
        gt *= s
        gt += off
        np.multiply(f, c_prev, out=c)
        np.multiply(i, g, out=ig)
        c += ig
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h)


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
    row of a stream that way, once, and adds b·s gets the pre-activation
    rows lstm_forward would compute for any window of those rows, to the
    bit. One (T, D) GEMM over the rows does not give the same bits.
    """
    H = p[prefix + "Wh"].shape[0]
    return _gate_scaled(p[prefix + "Wx"], H), _gate_scaled(p[prefix + "b"], H)


def lstm_forward(xs, p: ParamSet, prefix: str | tuple = "",
                 h0: np.ndarray | None = None,
                 c0: np.ndarray | None = None,
                 pre: np.ndarray | None = None,
                 starts=None):
    """Run the cell over time axis 0 of xs (T, ..., D).

    pre, when given, is the input pre-activation block (T, ..., 4H),
    xs @ (Wx·s) + b·s with the factors of `lstm_input_weights`; it
    replaces the input GEMM, and the call finishes its gates in place,
    so it must be an array the caller gives up. A cell that reads no
    input passes xs=None and b·s broadcast over (T, ..., 4H) as pre:
    that is the block a zero input gives, and lstm_backward then forms
    no Wx gradient, which would be zero.

    A stack of B cells of one hidden size runs in the same step loop:
    prefix is then a tuple of their parameter prefixes, xs holds their
    inputs side by side, cell b reading the D_b columns after those of
    cells 0..b-1 (D_b being the rows of its Wx), and pre, if given, is
    a block (T, B, ..., 4H). starts, ascending rows of the input, makes
    S runs of every cell: run s joins the loop at row starts[s] from the
    initial state and reads the rows from there on. Each run of each
    cell gets the bits of a call of its own on the rows it reads of its
    columns: it shares its rows' input projections, which the
    projection's matmul forms row by row whatever the span, and its
    recurrent matmul is a slice of one broadcast matmul over the stack,
    which NumPy runs per slice with the kernel of a 2-D call. h0 and c0
    broadcast against the final state and give each run's initial state.

    Returns (hs (T, [S,] [B,] ..., H), final h, final c, cache), with
    the run axis when starts are given and the cell axis for a stack;
    a run's rows before its start are zero. hs and the final states are
    views into the cache and must not be written to.
    """
    prefixes, cell_axis = _cells(prefix)
    B = len(prefixes)
    Wh = [p[q + "Wh"] for q in prefixes]
    H = Wh[0].shape[0]
    if any(W.shape[0] != H for W in Wh[1:]):
        raise DimensionError(
            f"lstm_forward: a stack of cells needs one hidden size, got "
            f"{[W.shape[0] for W in Wh]}")
    if xs is None:
        if (pre is None or pre.ndim < 2 + len(cell_axis)
                or pre.shape[-1] != 4 * H
                or pre.shape[1:1 + len(cell_axis)] != cell_axis):
            raise DimensionError(
                f"lstm_forward: an input-free run needs a pre-activation "
                f"block (T, {'B, ' * len(cell_axis)}..., {4 * H}), got "
                f"{None if pre is None else pre.shape}")
        T, lead = pre.shape[0], pre.shape[1 + len(cell_axis):-1]
    else:
        xs = np.asarray(xs, float)
        if xs.ndim < 2 or xs.shape[-1] != sum(
                p[q + "Wx"].shape[0] for q in prefixes):
            raise DimensionError(
                f"lstm_forward: input shape {xs.shape} vs Wx shapes "
                f"{[p[q + 'Wx'].shape for q in prefixes]}")
        T, lead = xs.shape[0], xs.shape[1:-1]
        if pre is not None and pre.shape != (T,) + cell_axis + lead + (
                4 * H,):
            raise DimensionError(
                f"lstm_forward: pre-activation shape {pre.shape} vs input "
                f"shape {xs.shape} and hidden {H}")
    if starts is not None:
        starts = tuple(int(j) for j in starts)
        if not starts or list(starts) != sorted(starts) \
                or starts[0] < 0 or starts[-1] >= T:
            raise ValueError(
                f"lstm_forward: run starts {starts} are not ascending "
                f"rows of [0, {T})")
    runs, N, axes, block = _layout(starts, cell_axis, lead)
    S = len(runs)
    R = S * B * N
    hs = np.zeros((T + 1, R, H))
    cs = np.zeros((T + 1, R, H))
    for state, init in ((hs, h0), (cs, c0)):
        if init is not None:
            init = np.asarray(init, float)
            if init.shape[-1] != H:
                raise DimensionError(
                    f"lstm_forward: initial state shape {init.shape} vs "
                    f"hidden {H}")
            init = np.broadcast_to(init, axes + (H,)).reshape(S, B * N, H)
            state = state.reshape(T + 1, S, B * N, H)
            for k, j in enumerate(runs):
                state[j, k] = init[k]
    s, off = _gate_scale(H)
    # each cell's Wh·s, formed in one block without a stacked copy of Wh
    Whs = np.empty((B, H, 4 * H))
    for W, scaled in zip(Wh, Whs):
        _gate_scaled(W, H, out=scaled)
    Whs = Whs.reshape((B,) * (B > 1) + (H, 4 * H))
    # each cell's input projection of every row in one matmul, unless
    # the caller has made it; the runs of a cell share it
    if pre is None:
        pre = np.empty((T, B, N, 4 * H))
        for b, (x, q) in enumerate(zip(_columns(xs, p, prefixes),
                                       prefixes)):
            Wxs, bs = lstm_input_weights(p, q)
            np.matmul(x.reshape(T, N, -1), Wxs, out=pre[:, b])
            pre[:, b] += bs
        del Wxs, bs  # not held through the loop: 0.25 MB at the bg shape
    rows = pre.reshape((T,) + (block[1:] if S > 1 else block) + (4 * H,))
    # each step's gate block is finished in place: in the projection
    # itself for one run, else in a block per run whose rows before the
    # run's start stay zero
    gates = rows if S == 1 else np.zeros((T,) + block + (4 * H,))
    hs_b = hs.reshape((T + 1,) + block + (H,))
    cs_b = cs.reshape(hs_b.shape)
    # rows before a late run's start are never written, and the backward
    # reads them: zero them then
    tcs = (np.zeros if runs[-1] > 0 else np.empty)((T,) + block + (H,))
    # the step loop allocates nothing: h_{t-1} @ Whs and i * g go into
    # two buffers, and every per-step operand is a view of the cache;
    # each op covers every run and cell in the loop at that row
    rec = np.empty(block + (4 * H,))
    ig = np.empty(block + (H,))
    for k, a, z in _active(runs, T):
        run = slice(k if S > 1 else None)   # the runs in the loop
        blk = gates[a:z, run]
        i, f, g, o = (blk[..., q * H:(q + 1) * H] for q in range(4))
        _lstm_steps(Whs, s, off, rec[run], ig[run],
                    zip(blk, i, f, g, o, tcs[a:z, run], rows[a:z],
                        hs_b[a:z, run], cs_b[a:z, run],
                        hs_b[a + 1:z + 1, run], cs_b[a + 1:z + 1, run]))
    hs_out = hs[1:].reshape((T,) + axes + (H,))
    return (hs_out, hs_out[-1], cs[T].reshape(axes + (H,)),
            LSTMCache(xs, hs, cs, gates.reshape(T, R, 4 * H),
                      tcs.reshape(T, R, H), lead, starts))


def lstm_backward(dhs, cache: LSTMCache, p: ParamSet, grads: ParamSet,
                  prefix: str | tuple = "", dh_final=None, dc_final=None):
    """BPTT over a sequence run by lstm_forward.

    dhs: per-step gradients w.r.t. each h_t (array over time, or None).
    dh_final/dc_final: extra gradient flowing into the last state.
    prefix and the arrays are as lstm_forward's: a stack of cells
    passes the prefixes it ran with, and the gradient of a run's rows
    before its start is ignored.
    Adds the weight gradients into `grads` (no Wx gradient for an
    input-free run) and returns (dz, dh0, dc0). dz (T, ..., 4H) is the
    gradient w.r.t. each step's gate pre-activation x_t·Wx + h_{t-1}·Wh
    + b, zero before a run's start; dh0 and dc0 are the gradients w.r.t.
    each run's initial state. The input gradient is dz @ Wx.T, which no
    caller here needs.
    """
    xs, hs, cs, gates, tcs, lead, starts = cache
    prefixes, cell_axis = _cells(prefix)
    runs, N, axes, block = _layout(starts, cell_axis, lead)
    T, R, H = tcs.shape
    S, B = len(runs), len(prefixes)
    if R != S * B * N:
        raise DimensionError(
            f"lstm_backward: {B} cells do not fit a cache of {R} state "
            f"rows per step")
    inputs = None if xs is None else _columns(xs, p, prefixes)
    if dhs is not None:
        dhs = np.asarray(dhs, float).reshape((T,) + block + (H,))
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
    coef = coef.reshape((T,) + block + (4, H))
    o_dtc = np.multiply(tcs, tcs)
    np.subtract(1.0, o_dtc, out=o_dtc)
    o_dtc *= o
    o_dtc = o_dtc.reshape((T,) + block + (H,))
    f = f.reshape((T,) + block + (H,))
    # Wh.T per cell: a view for one cell, a stacked copy for more
    Wh = [p[q + "Wh"] for q in prefixes]
    WhT = np.swapaxes(Wh[0] if B == 1 else np.stack(Wh), -1, -2)
    dz = (np.zeros if runs[-1] > 0 else np.empty)((T,) + block + (4 * H,))
    dz4 = dz.reshape((T,) + block + (4, H))
    # the step loop allocates nothing: dh, dc and dct are buffers of
    # this call (the caller's dh_final and dc_final are copied in, never
    # written), and every per-step operand is a view built up front
    dh, dc = np.zeros(block + (H,)), np.zeros(block + (H,))
    dct = np.empty(block + (H,))
    if dh_final is not None:
        dh[...] = np.reshape(dh_final, dh.shape)
    if dc_final is not None:
        dc[...] = np.reshape(dc_final, dc.shape)
    for k, a, z in reversed(_active(runs, T)):
        run = slice(k if S > 1 else None)   # the runs in the loop
        back = slice(z - 1, a - 1 if a else None, -1)   # rows z-1 to a
        dh_k, dc_k, dct_k = dh[run], dc[run], dct[run]
        steps = zip(dz[back, run], dz4[back, run, ..., :3, :],
                    dz4[back, run, ..., 3, :], coef[back, run, ..., :3, :],
                    coef[back, run, ..., 3, :], o_dtc[back, run],
                    f[back, run],
                    dhs[back, run] if dhs is not None else [None] * (z - a))
        for dz_t, dz_c, dz_o, coef_c, coef_o, o_dtc_t, f_t, dh_t in steps:
            if dh_t is not None:
                dh_k += dh_t
            np.multiply(dh_k, o_dtc_t, out=dct_k)
            dct_k += dc_k
            np.multiply(coef_c, dct_k[..., None, :], out=dz_c)
            np.multiply(coef_o, dh_k, out=dz_o)
            np.multiply(dct_k, f_t, out=dc_k)
            np.matmul(dz_t, WhT, out=dh_k)
    # weight gradients: one GEMM (or sum) each per run and cell over the
    # rows the run read, added into the gradient views in place
    dz = dz.reshape(T, S, B, N, 4 * H)
    hs_r = hs.reshape(T + 1, S, B, N, H)
    for r, j in enumerate(runs):
        for b, q in enumerate(prefixes):
            dz2 = dz[j:, r, b].reshape(-1, 4 * H)
            if inputs is not None:
                x2 = inputs[b][j:].reshape(len(dz2), -1)
                grads[q + "Wx"] += x2.T @ dz2
            grads[q + "Wh"] += hs_r[j:T, r, b].reshape(-1, H).T @ dz2
            grads[q + "b"] += dz2.sum(axis=0)
    return (dz.reshape((T,) + axes + (4 * H,)), dh.reshape(axes + (H,)),
            dc.reshape(axes + (H,)))


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
