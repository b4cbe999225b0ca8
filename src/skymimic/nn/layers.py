"""Forward passes and hand-derived backward passes for the fixed
architectures used here: tanh MLPs (every dense layer but the
autoencoder's output, which `features._ae_forward` writes into its
training step's arrays), LSTM sequences, and softmax. Everything is
float64 and batched over the leading axis.

The LSTM runs a whole sequence as one fused kernel, after Appleyard,
Kočiský and Blunsom, "Optimizing Performance of Recurrent Neural
Networks on GPUs" (2016), because a NumPy step loop costs mostly per
call, not per flop:

- One-tanh gates. With sigmoid(z) = 0.5 * (1 + tanh(z / 2)), all four
  gates of a step are one tanh over the 4H pre-activation block: the
  block is scaled by s = [1/2, 1/2, 1, 1/2] (per gate i|f|g|o), passed
  through tanh, then mapped back by s * y + (1 - s). The scale is
  applied to each step's pre-activation sum, not to the weights:
  halving is exact, so the scaled sum has the bits that Wx·s, Wh·s and
  b·s would give. s and 1 - s are read at the step block's own shape,
  so their multiplies run without a broadcast: views of one read-only
  buffer per hidden size (`_gate_scale`), grown to the largest block
  seen, so no call tiles or allocates a scale. No call rescales or
  copies a weight: a single cell's Wh, and a stack's whose Wh lie side
  by side in its ParamSet (the style net's), are read in place.
- Forward. xs @ Wx + b for all T steps is one GEMM before the
  recurrence; each step adds h_{t-1} @ Wh, scales the sum and finishes
  its gate block in place, with no per-step allocation (batch-1 calls
  are dominated by per-call overhead). The step itself is
  `_lstm_steps`, the one copy of the cell math and, with `_gate_scale`,
  the only code that knows the scale: a caller whose runs share rows
  projects each row once with the cell's own Wx and b and steps its runs
  through it, as the closed loop's stream of windows
  (`features.EncoderStream`) and the embedding of a table's overlapping
  windows (`features.embed_video`) do.
  A cell that reads no input, such as the autoencoder's decoder, has a
  Wx of no rows and is given an input of no columns; its block is b
  alone, filled without a matmul.
- Stacks. Independent runs share the step loop, after the same paper's
  advice to run independent recurrent streams together: a stack of B
  cells of one hidden size (the style net's fg and bg branches), and S
  runs of each that join the loop late, run s at row starts[s] from the
  zero state. The cells' inputs lie side by side on the last axis of
  one input array. Every step loop runs on (S, B, N, H) blocks of runs,
  cells and batch rows, singleton axes kept. Each elementwise op of a
  step covers all runs in the loop at once, and the recurrent matmul is
  one broadcast (S, B, N, H) @ (B, H, 4H) call, which NumPy runs slice
  by slice with the gemv or GEMM of a 2-D (N, H) @ (H, 4H) call. Runs
  share each row's input projection, which the projection's matmul
  forms row by row, so its bits do not depend on the span. So each run
  of each cell gets the bits of its own call on the rows it reads.
  Late runs are for forward-only callers (the segmenter's spans): a
  forward with starts keeps no cache, and its runs finish every row's
  gate block and tanh(c) in one step's scratch, the gate block in the
  recurrent product's own buffer. `_step_scratch` gives every step
  loop its block's operands, that scratch and the gate scale views,
  and the first k runs' are their [:k].
- Cache layout (LSTMCache): each time row holds R = B·N state rows,
  cells outermost, then the N rows of the batch axes; the input
  xs (T, ..., D) as given, which the backward's dWx GEMM reads as a
  view when it is C-contiguous, as the time-major window stacks of
  `features` are; hs, cs (T+1, R, H), the initial state in row 0; gate
  activations (T, R, 4H) in i|f|g|o order; tanh(c_t) as tcs (T, R, H);
  and the batch axes. The backward takes the forward's prefixes.
- Reuse. A training loop runs one shape step after step, and fresh
  arrays per step cost, once freed, the page faults of the allocator
  handing the memory back and taking it again. `lstm_forward(...,
  out=cache)` writes over the arrays of a cache of the same shapes that
  the caller no longer needs, and `lstm_backward(..., out=dz)` over a
  dz, after the same paper's advice to keep a step's buffers resident.
  The arrays a call returns are then the ones it was given. out may be
  views, such as the first n batch rows of larger arrays: the
  autoencoder's tail batch writes over the head of its full batch's.
- Backward. BPTT over one run forms each step's gate coefficients in
  one (T, R, 4H) array and writes the step's pre-activation gradient
  dz over that step's coefficient rows, their last read, so dz needs no
  array of its own and the step loop allocates nothing. It steps the
  cells of a stack together as the forward does; dWx, dWh and db are
  then one GEMM (or sum) each per cell over every row, added into the
  gradient set's views in place. The input gradient is not formed: dz
  is returned, and a caller that needs it computes dz @ Wx.T.
"""

from __future__ import annotations

import math
import mmap
from itertools import accumulate, repeat
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
    """x @ W + b on float arrays; the shapes are checked, not converted."""
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
    R = B·N state rows: B cells over N batch rows, in that order, N
    being the product of the batch axes (1 when there are none)."""
    xs: np.ndarray     # the input (T, ..., D) as given
    hs: np.ndarray     # (T+1, R, H) hidden states, the initial one first
    cs: np.ndarray     # (T+1, R, H) cell states, laid out as hs
    gates: np.ndarray  # (T, R, 4H) gate activations i|f|g|o
    tcs: np.ndarray    # (T, R, H) tanh(c_t)
    lead: tuple        # the batch axes (...), whose product is N


def _cells(prefix: str | tuple) -> tuple[tuple, tuple]:
    """(prefixes, cell axis): a plain prefix is one cell and its calls
    have no cell axis; a tuple of B prefixes is a stack, with one."""
    if isinstance(prefix, str):
        return (prefix,), ()
    return tuple(prefix), (len(prefix),)


def _layout(runs: tuple, cell_axis: tuple, lead: tuple) -> tuple:
    """The step loop's block (S, B, N) of a kernel call: its runs, cells
    and batch rows, singleton axes kept."""
    return len(runs), math.prod(cell_axis), math.prod(lead)


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


# per hidden size, the (s, 1 - s) buffer whose views `_gate_scale` gives
_SCALES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gate_scale(block: tuple, H: int) -> tuple[np.ndarray, np.ndarray]:
    """(s, 1 - s) at the shape block + (4H,) of an (S, B, N) block's gate
    rows, s being 1/2 on i, f, o and 1 on g, so that s * tanh(s * z) +
    (1 - s) is sigmoid(z) on i, f, o and tanh(z) on g. `_lstm_steps`
    multiplies each step's pre-activation z by s; halving is exact, so
    s * z has the bits of the same sum over weights and bias scaled by
    s. At the block's own shape the multiply runs without a broadcast.

    Both are views of the first rows of one read-only buffer per hidden
    size in `_SCALES`, which a block of more rows than any before
    replaces with one of its size: a call allocates no scale once its
    block's size has been seen, and the first k runs' rows are the
    views' [:k]. The buffer is an anonymous mapping of its own: a heap
    block made during a training loop and kept after it holds the heap
    memory freed under it resident (1.6 MB more after the fg
    autoencoder's training, measured)."""
    rows = math.prod(block)
    if H not in _SCALES or len(_SCALES[H][0]) < rows:
        s, off = np.frombuffer(mmap.mmap(-1, 2 * rows * 4 * H * 8)
                               ).reshape(2, rows, 4 * H)
        s.fill(0.5)
        s[:, 2 * H:3 * H] = 1.0
        np.subtract(1.0, s, out=off)
        s.flags.writeable = off.flags.writeable = False
        _SCALES[H] = s, off
    return tuple(a[:rows].reshape(block + (4 * H,)) for a in _SCALES[H])


def _recurrent_weights(p: ParamSet, prefixes: tuple) -> np.ndarray:
    """The cells' Wh, unscaled, in one (B, H, 4H) block, the recurrent
    weights `_lstm_steps` takes: a view of p's vector, in which a
    stack's Wh lie side by side in prefix order (DimensionError if
    not)."""
    return p.stacked([q + "Wh" for q in prefixes])


def _gate_views(gt: np.ndarray, tc: np.ndarray) -> tuple:
    """(gt, i, f, g, o, tc): a gate block, its four gate views and a
    tanh(c) block, a step's gates as `_lstm_steps` takes them."""
    H = tc.shape[-1]
    return (gt, *(gt[..., q * H:(q + 1) * H] for q in range(4)), tc)


def _step_scratch(block: tuple, H: int) -> tuple[tuple, tuple]:
    """The block operands of `_lstm_steps` on (block, H) states, (s, off,
    rec, ig): the gate scale of `_gate_scale`, read-only views shared by
    every block of this hidden size, and scratch for rec and ig; and the
    gates of a step that keeps none of them, whose gate block is rec
    itself. A step loop that keeps nothing repeats these gates at every
    row, so it allocates one step's worth. The first k runs' operands
    are each one's [:k]."""
    rec = np.empty(block + (4 * H,))
    return ((*_gate_scale(block, H), rec, np.empty(block + (H,))),
            _gate_views(rec, np.empty(block + (H,))))


def _lstm_steps(Wh, s, off, rec, ig, steps) -> None:
    """Run the cell's steps over an (S, B, N, H) block of state rows, in
    place: the one copy of the cell math. Each step is ((gt, i, f, g, o,
    tc), row, h_prev, c_prev, h, c): the gate block gt, whose views i,
    f, g, o are its four gates, is formed from the input pre-activation
    row, x @ Wx + b unscaled, and h_prev @ Wh, their sum scaled by s;
    then c from c_prev, tc = tanh(c) and h. s is 1/2 or 1, so the scaled
    sum is exact: its bits are those of weights and bias scaled by s.
    Wh is `_recurrent_weights`; s, off, rec and ig are `_step_scratch`'s
    block operands, s and off at gt's shape and rec and ig scratch of
    gt's and h's, and gt may be rec itself. Nothing is allocated.
    The (S, B, N, H) @ (B, H, 4H) matmul is one broadcast call, which
    NumPy runs slice by slice with the kernel of a 2-D (N, H) @ (H, 4H)
    call, so each run of each cell gets the bits of a step of its own."""
    for (gt, i, f, g, o, tc), row, h_prev, c_prev, h, c in steps:
        np.matmul(h_prev, Wh, out=rec)
        rec += row   # not into gt: gt may be row itself
        rec *= s
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
    return ParamSet({
        prefix + "Wx": uniform_init(rng, d_in, (d_in, 4 * hidden)),
        prefix + "Wh": uniform_init(rng, hidden, (hidden, 4 * hidden)),
        prefix + "b": np.zeros(4 * hidden)})


def lstm_forward(xs, p: ParamSet, prefix: str | tuple = "",
                 h0: np.ndarray | None = None,
                 c0: np.ndarray | None = None,
                 starts=None, out: LSTMCache | None = None):
    """Run the cell over time axis 0 of xs (T, ..., D).

    A cell that reads no input has a Wx of no rows and is given xs of
    no columns: its gates see only b and the recurrence, as on an
    all-zero input, and its Wx gradient has no elements.

    A stack of B cells of one hidden size runs in the same step loop:
    prefix is then a tuple of their parameter prefixes, whose Wh lie
    side by side in p's layout in that order, so that their recurrent
    block is a view; and xs holds their inputs side by side, cell b
    reading the D_b columns after those of cells 0..b-1 (D_b being the
    rows of its Wx). starts, ascending rows of the input, makes S runs
    of every cell: run s joins the loop at row starts[s] from the zero
    state and reads the rows from there on. Each run of each cell gets
    the bits of a call of its own on the rows it reads of its columns:
    it shares its rows' input projections, which the projection's matmul
    forms row by row whatever the span, and its recurrent matmul is a
    slice of one broadcast matmul over the stack, which NumPy runs per
    slice with the kernel of a 2-D call. Late runs are for scoring: the
    cache is then None, since lstm_backward takes one run.

    h0 and c0, the initial state of a call of one run, broadcast against
    the final state; with starts they raise ValueError.

    out, an LSTMCache whose hs, cs, gates and tcs have this call's
    shapes and hold nothing the caller still needs (the cache of the
    last step of a training loop, say), is written over instead of
    allocating new arrays; its xs and lead are not read. Its arrays may
    be views, such as the first rows on the batch axis of a larger
    cache's, as long as the step loop's (S, B, N) blocks of them are
    views too, as a single cell's are. The returned arrays are then
    out's, and so is every view of an earlier call that returned them.
    out of other shapes, or out with starts, raises DimensionError.

    Returns (hs (T, [S,] [B,] ..., H), final h, final c, cache), with
    the run axis when starts are given and the cell axis for a stack;
    a run's rows before its start are zero. hs and the final states are
    views into the cache's arrays and must not be written to.
    """
    prefixes, cell_axis = _cells(prefix)
    B = len(prefixes)
    hidden = [p[q + "Wh"].shape[0] for q in prefixes]
    H = hidden[0]
    if any(h != H for h in hidden[1:]):
        raise DimensionError(
            f"lstm_forward: a stack of cells needs one hidden size, got "
            f"{hidden}")
    xs = np.asarray(xs, float)
    if xs.ndim < 2 or xs.shape[-1] != sum(
            p[q + "Wx"].shape[0] for q in prefixes):
        raise DimensionError(
            f"lstm_forward: input shape {xs.shape} vs Wx shapes "
            f"{[p[q + 'Wx'].shape for q in prefixes]}")
    T, lead = xs.shape[0], xs.shape[1:-1]
    if starts is not None:
        starts = tuple(int(j) for j in starts)
        if not starts or list(starts) != sorted(starts) \
                or starts[0] < 0 or starts[-1] >= T:
            raise ValueError(
                f"lstm_forward: run starts {starts} are not ascending "
                f"rows of [0, {T})")
        if h0 is not None or c0 is not None:
            raise ValueError("lstm_forward: h0 and c0 are the initial "
                             "state of one run; runs given by starts "
                             "start from zero")
    runs = (0,) if starts is None else starts
    block = _layout(runs, cell_axis, lead)
    N, R = block[2], math.prod(block)
    # the axes between time and H of what the call returns
    axes = block[:1] * (starts is not None) + cell_axis + lead
    if out is None:
        hs, cs = np.zeros((T + 1, R, H)), np.zeros((T + 1, R, H))
        pre = np.empty((T, 1, B, N, 4 * H))
    else:
        if starts is not None:
            raise DimensionError("lstm_forward: a forward with starts "
                                 "keeps no cache to write over")
        want = [(T + 1, R, H)] * 2 + [(T, R, 4 * H), (T, R, H)]
        if [a.shape for a in out[1:5]] != want:
            raise DimensionError(
                f"lstm_forward: out arrays of shapes "
                f"{[a.shape for a in out[1:5]]} do not fit this call's "
                f"{want}")
        hs, cs = out.hs, out.cs
        hs[0] = cs[0] = 0.0   # every later row is written by the steps
        pre = out.gates.reshape(T, 1, B, N, 4 * H)
    for state, init in ((hs, h0), (cs, c0)):
        if init is not None:
            init = np.asarray(init, float)
            if init.shape[-1] != H:
                raise DimensionError(
                    f"lstm_forward: initial state shape {init.shape} vs "
                    f"hidden {H}")
            state[0] = np.broadcast_to(init, axes + (H,)).reshape(R, H)
    Wh = _recurrent_weights(p, prefixes)
    # each cell's input projection of every row in one matmul; the runs
    # of a cell share it. A cell that reads no input gets b alone: a
    # matmul over no columns and a bias add cost several times the copy
    for b, (x, q) in enumerate(zip(_columns(xs, p, prefixes), prefixes)):
        if x.shape[-1]:
            np.matmul(x.reshape(T, N, x.shape[-1]), p[q + "Wx"],
                      out=pre[:, 0, b])
            pre[:, 0, b] += p[q + "b"]
        else:
            pre[:, 0, b] = p[q + "b"]
    scratch, step = _step_scratch(block, H)
    if starts is None:
        # kept for the backward: each step's gate block is finished in
        # place in the projection itself, and its tanh(c) in tcs
        shape = (T,) + block + (H,)
        tcs = np.empty(shape) if out is None else out.tcs.reshape(shape)
        kept = _gate_views(pre, tcs)
    hs_b = hs.reshape((T + 1,) + block + (H,))
    cs_b = cs.reshape(hs_b.shape)
    # the step loop allocates nothing: every per-step operand is a view
    # of the cache, of one step's scratch or of the shared gate scale;
    # each op covers every run and cell in the loop at that row, the
    # first k runs
    for k, a, z in _active(runs, T):
        gates = zip(*kept) if starts is None else repeat(
            tuple(v[:k] for v in step))
        _lstm_steps(Wh, *(v[:k] for v in scratch),
                    zip(gates, pre[a:z], hs_b[a:z, :k], cs_b[a:z, :k],
                        hs_b[a + 1:z + 1, :k], cs_b[a + 1:z + 1, :k]))
    hs_out = hs[1:].reshape((T,) + axes + (H,))
    cache = None if starts is not None else LSTMCache(
        xs, hs, cs, pre.reshape(T, R, 4 * H), tcs.reshape(T, R, H), lead)
    return hs_out, hs_out[-1], cs[T].reshape(axes + (H,)), cache


def lstm_backward(dhs, cache: LSTMCache, p: ParamSet, grads: ParamSet,
                  prefix: str | tuple = "", dh_final=None, dc_final=None,
                  out: np.ndarray | None = None):
    """BPTT over a sequence run by lstm_forward without starts.

    dhs: per-step gradients w.r.t. each h_t (array over time, or None).
    dh_final/dc_final: extra gradient flowing into the last state.
    prefix and the arrays are as lstm_forward's: a stack of cells
    passes the prefixes it ran with. The None cache of a forward with
    starts, or a cache of another cell count, raises DimensionError.
    Adds the weight gradients into `grads` and returns (dz, dh0, dc0).
    dz (T, ..., 4H) is the gradient w.r.t. each step's gate
    pre-activation x_t·Wx + h_{t-1}·Wh + b; dh0 and dc0 are the
    gradients w.r.t. the initial state. The input gradient is
    dz @ Wx.T, which no caller here needs.

    out, an array of dz's shape that holds nothing the caller still
    needs, is written over and returned as dz instead of allocating
    one; another shape raises DimensionError.
    """
    if cache is None:
        raise DimensionError("lstm_backward: a forward with starts keeps "
                             "no cache; only one run has a backward")
    xs, hs, cs, gates, tcs, lead = cache
    prefixes, cell_axis = _cells(prefix)
    block, axes = _layout((0,), cell_axis, lead), cell_axis + lead
    T, R, H = tcs.shape
    B, N = block[1:]
    if R != B * N:
        raise DimensionError(
            f"lstm_backward: {B} cells do not fit a cache of {R} state "
            f"rows per step")
    inputs = _columns(xs, p, prefixes)
    if dhs is not None:
        dhs = np.asarray(dhs, float).reshape((T,) + block + (H,))
    _, i, f, g, o, _ = _gate_views(gates, tcs)
    # dz_t = [dct, dct, dct, dh] * coef_t, with dct the gradient w.r.t.
    # c_t; coef holds each gate's derivative times its partner in
    # c_t = f c_{t-1} + i g and h_t = o tanh(c_t). Both factors are
    # formed in the arrays that hold them, with no temporaries.
    if out is None:
        coef = np.subtract(1.0, gates)
    elif out.shape != (T,) + axes + (4 * H,):
        raise DimensionError(
            f"lstm_backward: out shape {out.shape} is not dz's "
            f"{(T,) + axes + (4 * H,)}")
    else:
        coef = np.subtract(1.0, gates, out=out.reshape(T, R, 4 * H))
    coef *= gates
    coef_g = coef[..., 2 * H:3 * H]
    np.multiply(g, g, out=coef_g)
    np.subtract(1.0, coef_g, out=coef_g)
    coef_g *= i
    coef[..., :H] *= g
    coef[..., H:2 * H] *= cs[:-1]
    coef[..., 3 * H:] *= tcs
    # each step's dz is written over that step's coef rows, their last
    # read: dz is the coef array
    dz = coef.reshape((T,) + block + (4 * H,))
    coef = coef.reshape((T,) + block + (4, H))
    o_dtc = np.multiply(tcs, tcs)
    np.subtract(1.0, o_dtc, out=o_dtc)
    o_dtc *= o
    o_dtc = o_dtc.reshape((T,) + block + (H,))
    f = f.reshape((T,) + block + (H,))
    # the forward's Wh block, transposed: a view of one cell's or of
    # a side-by-side stack's
    WhT = _recurrent_weights(p, prefixes).swapaxes(1, 2)
    # the step loop allocates nothing: dh, dc and dct are buffers of
    # this call (the caller's dh_final and dc_final are copied in, never
    # written), and every per-step operand is a view built up front
    dh, dc = np.zeros(block + (H,)), np.zeros(block + (H,))
    dct = np.empty(block + (H,))
    if dh_final is not None:
        dh[...] = np.reshape(dh_final, dh.shape)
    if dc_final is not None:
        dc[...] = np.reshape(dc_final, dc.shape)
    steps = zip(dz[::-1], coef[::-1, ..., :3, :], coef[::-1, ..., 3, :],
                o_dtc[::-1], f[::-1],
                dhs[::-1] if dhs is not None else [None] * T)
    for dz_t, coef_c, coef_o, o_dtc_t, f_t, dh_t in steps:
        if dh_t is not None:
            dh += dh_t
        np.multiply(dh, o_dtc_t, out=dct)
        dct += dc
        np.multiply(coef_c, dct[..., None, :], out=coef_c)
        np.multiply(coef_o, dh, out=coef_o)
        np.multiply(dct, f_t, out=dc)
        np.matmul(dz_t, WhT, out=dh)
    # weight gradients: one GEMM (or sum) each per cell over every row,
    # added into the gradient views in place
    dz = dz.reshape(T, B, N, 4 * H)
    hs_b = hs.reshape(T + 1, B, N, H)
    for b, q in enumerate(prefixes):
        dz2 = dz[:, b].reshape(-1, 4 * H)
        x = inputs[b]
        grads[q + "Wx"] += x.reshape(len(dz2), x.shape[-1]).T @ dz2
        grads[q + "Wh"] += hs_b[:T, b].reshape(-1, H).T @ dz2
        grads[q + "b"] += dz2.sum(axis=0)
    return (dz.reshape((T,) + axes + (4 * H,)), dh.reshape(axes + (H,)),
            dc.reshape(axes + (H,)))


# ---------------------------------------------------------------------------
# tanh MLP with linear output head

def mlp_init(rng: np.random.Generator, dims: list[int],
             prefix: str = "") -> ParamSet:
    arrays = {}
    for li in range(len(dims) - 1):
        arrays[f"{prefix}W{li}"] = uniform_init(rng, dims[li],
                                                (dims[li], dims[li + 1]))
        arrays[f"{prefix}b{li}"] = np.zeros(dims[li + 1])
    return ParamSet(arrays)


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
