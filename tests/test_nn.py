import math

import numpy as np
import pytest

from skymimic.features import (CHANNEL_DIMS, WINDOW, _ae_backward, _ae_forward,
                               autoencoder_init)
from skymimic.nn import (AdamaxState, DimensionError, ParamSet, adamax,
                         adamax_update, lstm_backward, lstm_forward,
                         lstm_init, mlp_backward, mlp_forward, mlp_init,
                         sigmoid, softmax, uniform_init)
from skymimic.nn import layers
from skymimic.nn.layers import _recurrent_weights, affine, affine_backward
from oracles import grad_check


def test_affine_identity():
    y = affine(np.array([1.0, 0.0]), np.eye(2), np.zeros(2))
    assert np.allclose(y, [1.0, 0.0])


def test_affine_forced():
    y = affine(np.array([1.0, 2.0]), np.array([[1.0], [1.0]]),
               np.array([3.0]))
    assert np.allclose(y, [6.0])


def test_affine_shape_error_names_shapes():
    with pytest.raises(DimensionError, match=r"\(3,\).*\(2, 1\)"):
        affine(np.zeros(3), np.zeros((2, 1)), np.zeros(1))


def test_affine_gradients_vs_finite_differences():
    rng = np.random.default_rng(7)
    R = rng.normal(size=(3, 4))  # fixed projection to a scalar
    p = ParamSet({
        "x": rng.normal(size=(3, 2)),
        "W": rng.normal(size=(2, 4)),
        "b": rng.normal(size=4),
    })

    def loss(ps):
        return float(np.sum(affine(ps["x"], ps["W"], ps["b"]) * R))

    g = p.zeros_like()
    g["x"], g["W"], g["b"] = affine_backward(R, p["x"], p["W"])
    assert grad_check(loss, p, g, eps=1e-5) <= 1e-6


def test_lstm_zero_everything():
    p = ParamSet({"Wx": np.zeros((3, 8)), "Wh": np.zeros((2, 8)),
                  "b": np.zeros(8)})
    _, h, c, _ = lstm_forward(np.zeros((1, 3)), p, "", np.zeros(2),
                              np.zeros(2))
    assert np.allclose(h, 0) and np.allclose(c, 0)


def test_lstm_purity():
    rng = np.random.default_rng(3)
    p = lstm_init(rng, 3, 4)
    x, h, c = rng.normal(size=3), rng.normal(size=4), rng.normal(size=4)
    _, h1, c1, _ = lstm_forward(x[None], p, "", h, c)
    _, h2, c2, _ = lstm_forward(x[None], p, "", h, c)
    assert np.array_equal(h1, h2) and np.array_equal(c1, c2)


def test_lstm_shape_error():
    p = lstm_init(np.random.default_rng(0), 3, 4)
    with pytest.raises(DimensionError):
        lstm_forward(np.zeros((1, 5)), p, "", np.zeros(4), np.zeros(4))


def test_lstm_bptt_vs_finite_differences():
    rng = np.random.default_rng(11)
    p = lstm_init(rng, 3, 4)
    xs = rng.normal(size=(3, 3))
    R = rng.normal(size=(3, 4))

    def loss(ps):
        return float(np.sum(lstm_forward(xs, ps)[0] * R))

    g = p.zeros_like()
    lstm_backward(list(R), lstm_forward(xs, p)[3], p, g)
    assert grad_check(loss, p, g, eps=1e-5) <= 1e-5


@pytest.mark.parametrize("seed", range(20))
def test_layer_gradients_randomized(seed):
    """Per-layer analytic gradients match finite differences, 20 seeds."""
    rng = np.random.default_rng(1000 + seed)
    p = ParamSet({**lstm_init(rng, 2, 3),
                  **mlp_init(rng, [3, 4, 2], prefix="m_")})
    xs = rng.normal(size=(4, 2))
    R = rng.normal(size=2)

    def loss(ps):
        _, h, _, _ = lstm_forward(xs, ps)
        y, _ = mlp_forward(h, ps, 2, prefix="m_")
        return float(np.sum(y * R))

    _, h, _, caches = lstm_forward(xs, p)
    _, acts = mlp_forward(h, p, 2, prefix="m_")
    g = p.zeros_like()
    dh = mlp_backward(R, acts, p, 2, g, prefix="m_")
    lstm_backward(None, caches, p, g, dh_final=dh)
    assert grad_check(loss, p, g, eps=1e-5) <= 1e-4


def _ref_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _ref_lstm(xs, p, h0, c0, dhs, dh_final, dc_final):
    """Plain per-step LSTM forward and BPTT: the reference for the fused
    kernel. Returns (hs, h, c, dxs, dh0, dc0, {name: gradient})."""
    Wx, Wh, b = p["Wx"], p["Wh"], p["b"]
    H = Wh.shape[0]
    h, c, steps, hs = h0, c0, [], []
    for x in xs:
        z = x @ Wx + h @ Wh + b
        i, f = _ref_sigmoid(z[..., :H]), _ref_sigmoid(z[..., H:2 * H])
        g, o = np.tanh(z[..., 2 * H:3 * H]), _ref_sigmoid(z[..., 3 * H:])
        c_new = f * c + i * g
        steps.append((x, h, c, i, f, g, o, np.tanh(c_new)))
        h, c = o * np.tanh(c_new), c_new
        hs.append(h)
    gW = {"Wx": np.zeros_like(Wx), "Wh": np.zeros_like(Wh),
          "b": np.zeros_like(b)}
    dh, dc, dxs = dh_final, dc_final, []
    for t in range(len(xs) - 1, -1, -1):
        x, h_prev, c_prev, i, f, g, o, tc = steps[t]
        if dhs is not None:
            dh = dh + dhs[t]
        dct = dc + dh * o * (1.0 - tc * tc)
        dz = np.concatenate([dct * g * i * (1.0 - i),
                             dct * c_prev * f * (1.0 - f),
                             dct * i * (1.0 - g * g),
                             dh * tc * o * (1.0 - o)], axis=-1)
        gW["Wx"] += np.atleast_2d(x).T @ np.atleast_2d(dz)
        gW["Wh"] += np.atleast_2d(h_prev).T @ np.atleast_2d(dz)
        gW["b"] += np.atleast_2d(dz).sum(axis=0)
        dxs.insert(0, dz @ Wx.T)
        dh, dc = dz @ Wh.T, dct * f
    return np.stack(hs), h, c, np.stack(dxs), dh, dc, gW


def _rel(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


@pytest.mark.parametrize("lead,given_state,with_dhs,with_final", [
    ((64,), True, True, True),     # autoencoder decoder shape
    ((64,), False, False, True),   # autoencoder encoder shape
    ((), False, True, False),      # batch-1 style net, no batch axis
    ((), True, False, True),
])
def test_lstm_fused_matches_per_step_reference(lead, given_state, with_dhs,
                                               with_final):
    rng = np.random.default_rng(17)
    T, D, H = 8, 6, 5
    p = lstm_init(rng, D, H)
    p["b"] = rng.normal(size=4 * H)
    xs = rng.normal(size=(T,) + lead + (D,))

    def draw(shape, wanted):
        return rng.normal(size=shape) if wanted else None

    state = lead + (H,)
    zero = np.zeros(state)
    h0, c0 = draw(state, given_state), draw(state, given_state)
    dhs = draw((T,) + state, with_dhs)
    dh_f, dc_f = draw(state, with_final), draw(state, with_final)
    snap = {"xs": xs.copy(), "params": p.copy(),
            "rest": [None if a is None else a.copy()
                     for a in (h0, c0, dhs, dh_f, dc_f)]}

    hs, h, c, cache = lstm_forward(xs, p, h0=h0, c0=c0)
    grads = p.zeros_like()
    dz, dh0, dc0 = lstm_backward(dhs, cache, p, grads, dh_final=dh_f,
                                 dc_final=dc_f)
    ref = _ref_lstm(xs, p, zero if h0 is None else h0,
                    zero if c0 is None else c0, dhs,
                    zero if dh_f is None else dh_f,
                    zero if dc_f is None else dc_f)
    # hs is (T, ..., H) and dz is (T, ..., 4H): the bench's .rows and
    # .steps counters read their leading axes
    assert hs.shape == (T,) + state
    assert dz.shape == xs.shape[:-1] + (4 * H,)
    assert dz.shape[:-1] == xs.shape[:-1]
    assert h.shape == c.shape == dh0.shape == dc0.shape == state
    # the input gradient, which lstm_backward leaves to a caller
    dxs = dz @ p["Wx"].T
    for got, want in zip((hs, h, c, dxs, dh0, dc0), ref[:6]):
        assert _rel(got, want) <= 1e-12
    for k in ("Wx", "Wh", "b"):
        assert _rel(grads[k], ref[6][k]) <= 1e-12
    # neither inputs nor params are mutated
    assert np.array_equal(xs, snap["xs"])
    for k in p:
        assert np.array_equal(p[k], snap["params"][k])
    for a, s in zip((h0, c0, dhs, dh_f, dc_f), snap["rest"]):
        assert (a is None and s is None) or np.array_equal(a, s)


def _loop_lstm_forward(xs, p, h0, c0):
    """lstm_forward's step loop as first fused, with a fresh gate scale
    per call and two temporaries per step: the reference the loop that
    allocates nothing must equal bit for bit. Returns (hs, cs, gates,
    tcs) as laid out in LSTMCache."""
    Wx, Wh, b = p["Wx"], p["Wh"], p["b"]
    T, lead, H = xs.shape[0], xs.shape[1:-1], Wh.shape[0]
    N = math.prod(lead)
    hs, cs = np.zeros((T + 1, N, H)), np.zeros((T + 1, N, H))
    for state, init in ((hs, h0), (cs, c0)):
        if init is not None:
            state[0] = np.reshape(init, (N, H))
    s = np.full(4 * H, 0.5)
    s[2 * H:3 * H] = 1.0
    off = 1.0 - s
    Whs = Wh * s
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
    return hs, cs, gates, tcs


@pytest.mark.parametrize("given_state", [False, True])
@pytest.mark.parametrize("T,lead,D", [
    (1, (), 32), (8, (), 32), (40, (), 64),   # batch-1 style net shapes
    (8, (1,), 5),                             # one-window embedding
    (8, (64,), 128),                          # autoencoder batch shape
])
def test_lstm_forward_loop_bit_identical_to_reference(T, lead, D,
                                                      given_state):
    rng = np.random.default_rng(T * 1000 + D)
    H = 64 if D != 5 else 32
    p = lstm_init(rng, D, H)
    p["b"] = rng.normal(size=4 * H)
    xs = rng.normal(size=(T,) + lead + (D,))
    h0 = rng.normal(size=lead + (H,)) if given_state else None
    c0 = rng.normal(size=lead + (H,)) if given_state else None
    want = _loop_lstm_forward(xs, p, h0, c0)
    for _ in range(2):   # the second call reuses the cached gate scale
        _, _, _, cache = lstm_forward(xs, p, h0=h0, c0=c0)
        got = (cache.hs, cache.cs, cache.gates, cache.tcs)
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g, w)


def test_single_cell_recurrent_block_is_a_view_of_its_wh():
    # the kernel scales each step's pre-activation, not the weights: a
    # single cell's (1, H, 4H) Wh block is its Wh, unscaled and uncopied
    p = lstm_init(np.random.default_rng(0), 5, 8)
    Wh = _recurrent_weights(p, ("",))
    assert Wh.shape == (1, 8, 32)
    assert np.shares_memory(Wh, p["Wh"])
    assert np.array_equal(Wh[0], p["Wh"])


def _loop_lstm_backward(dhs, cache, p, grads, dh_final=None,
                        dc_final=None, prefix=""):
    """lstm_backward as first fused, with fresh dh, dc and dct arrays
    each step, temporaries for the gate derivatives, a Wx gradient
    whatever the input and gradients added by rebinding: the reference
    the loop that allocates nothing must equal bit for bit. Returns
    (dz, dh0, dc0)."""
    xs, hs, cs, gates, tcs = cache[:5]
    Wh = p[prefix + "Wh"]
    T, N, H = tcs.shape
    lead = xs.shape[1:-1]
    if dhs is not None:
        dhs = np.asarray(dhs, float).reshape(T, N, H)
    i, f, g, o = (gates[..., k * H:(k + 1) * H] for k in range(4))
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
    dz2 = dz.reshape(T * N, 4 * H)
    for k, dW in (("Wx", xs.reshape(T * N, xs.shape[-1]).T @ dz2),
                  ("Wh", hs[:T].reshape(T * N, H).T @ dz2),
                  ("b", dz2.sum(axis=0))):
        grads[prefix + k] = grads[prefix + k] + dW
    return (dz.reshape((T,) + lead + (4 * H,)), dh.reshape(lead + (H,)),
            dc.reshape(lead + (H,)))


@pytest.mark.parametrize("with_dhs", [False, True])
@pytest.mark.parametrize("with_dh_final", [False, True])
@pytest.mark.parametrize("with_dc_final", [False, True])
@pytest.mark.parametrize("T,lead,D", [
    (1, (), 32), (8, (), 32), (40, (), 64),          # batch-1 style net
    (1, (64,), 128), (8, (64,), 128), (40, (64,), 5),  # batch 64
])
def test_lstm_backward_loop_bit_identical_to_reference(
        T, lead, D, with_dhs, with_dh_final, with_dc_final):
    rng = np.random.default_rng(T * 1000 + D)
    H = 64 if D != 5 else 32
    p = lstm_init(rng, D, H)
    p["b"] = rng.normal(size=4 * H)
    xs = rng.normal(size=(T,) + lead + (D,))
    state = lead + (H,)
    _, _, _, cache = lstm_forward(xs, p, h0=rng.normal(size=state),
                                  c0=rng.normal(size=state))
    dhs = rng.normal(size=(T,) + state) if with_dhs else None
    dh_f = rng.normal(size=state) if with_dh_final else None
    dc_f = rng.normal(size=state) if with_dc_final else None
    given = [None if a is None else a.copy() for a in (dhs, dh_f, dc_f)]
    g_ref = p.zeros_like()
    g_ref.flat[:] = rng.normal(size=g_ref.flat.size)  # accumulation
    grads = g_ref.copy()
    want = _loop_lstm_backward(dhs, cache, p, g_ref, dh_f, dc_f)
    got = lstm_backward(dhs, cache, p, grads, dh_final=dh_f, dc_final=dc_f)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)
    for k in p:
        assert np.array_equal(grads[k], g_ref[k])
    # the caller's arrays are read, never written or returned
    for a, s in zip((dhs, dh_f, dc_f), given):
        assert (a is None and s is None) or np.array_equal(a, s)
    for a in (dh_f, dc_f):
        if a is not None:
            assert not any(np.shares_memory(a, r) for r in got)


@pytest.mark.parametrize("T,lead", [(8, (64,)), (8, ()), (1, (1,))])
def test_lstm_input_free_run_equals_zero_input(T, lead):
    # a cell whose Wx has no rows, run on an input of no columns, is the
    # same cell with a full-width Wx run on an all-zero input, to the
    # bit, forward and backward; its Wx gradient has no elements
    rng = np.random.default_rng(T * 100 + len(lead))
    D, H = 6, 5
    p = lstm_init(rng, D, H)
    p["b"] = rng.normal(size=4 * H)
    free = ParamSet({"Wx": p["Wx"][:0], "Wh": p["Wh"], "b": p["b"]})
    state = lead + (H,)
    h0, c0 = rng.normal(size=state), rng.normal(size=state)
    got = lstm_forward(np.empty((T,) + lead + (0,)), free, h0=h0, c0=c0)
    want = lstm_forward(np.zeros((T,) + lead + (D,)), p, h0=h0, c0=c0)
    for g, w in zip(got[:3], want[:3]):
        assert g.shape == w.shape and np.array_equal(g, w)
    dhs = rng.normal(size=(T,) + state)
    grads, g_ref = free.zeros_like(), p.zeros_like()
    back = lstm_backward(dhs, got[3], free, grads, dh_final=h0)
    ref = _loop_lstm_backward(dhs, want[3], p, g_ref, dh_final=h0)
    for g, w in zip(back, ref):
        assert g.shape == w.shape and np.array_equal(g, w)
    assert np.array_equal(grads["Wh"], g_ref["Wh"])
    assert np.array_equal(grads["b"], g_ref["b"])
    assert grads["Wx"].shape == (0, 4 * H)


def _zero_input_ae_grads(xs, p):
    """The autoencoder's loss gradient with the decoder given a
    full-width Wx and run on an all-zero input, and each LSTM through
    the full reference backward: the reference the input-free decoder
    must equal bit for bit. Returns (mse, grads of the full-width set)."""
    p = ParamSet({k: np.ones((xs.shape[2], v.shape[1]))
                  if k == "dec_Wx" else v for k, v in p.items()})
    _, h, c, enc = lstm_forward(xs, p, prefix="enc_")
    dec_hs, _, _, dec = lstm_forward(np.zeros_like(xs), p, prefix="dec_",
                                     h0=h, c0=c)
    err = affine(dec_hs, p["out_W"], p["out_b"]) - xs[::-1]
    derr = 2.0 * err / err.size
    grads = p.zeros_like()
    dhs = np.empty_like(dec_hs)
    for t in range(xs.shape[0]):
        dhs[t], dW, db = affine_backward(derr[t], dec_hs[t], p["out_W"])
        grads["out_W"] = grads["out_W"] + dW
        grads["out_b"] = grads["out_b"] + db
    _, dh0, dc0 = _loop_lstm_backward(dhs, dec, p, grads, prefix="dec_")
    _loop_lstm_backward(None, enc, p, grads, dh0, dc0, prefix="enc_")
    return float(np.mean(err ** 2)), grads


@pytest.mark.parametrize("channel", ["fg", "bg"])
def test_ae_backward_bit_identical_to_zero_input_reference(channel):
    rng = np.random.default_rng(21)
    p = autoencoder_init(channel, seed=4)
    p.flat[:] = rng.normal(scale=0.3, size=p.flat.size)
    batch = rng.normal(size=(WINDOW, 64, CHANNEL_DIMS[channel][0]))
    mse, _, cache = _ae_forward(batch, p)
    grads = _ae_backward(p, cache)
    want_mse, want = _zero_input_ae_grads(batch, p)
    assert mse == want_mse
    for k in p:
        if k != "dec_Wx":
            assert np.array_equal(grads[k], want[k]), k
    assert grads["dec_Wx"].shape == (0, p["dec_Wh"].shape[1])


@pytest.mark.parametrize("channel", ["fg", "bg"])
@pytest.mark.parametrize("seed", [0, 5])
def test_autoencoder_init_keeps_the_draws_of_a_full_width_decoder(channel,
                                                                  seed):
    # the decoder's Wx keeps no rows, but its draw is still taken, so
    # every other parameter has the value it had when the decoder's Wx
    # was full width: enc cell, full-width dec cell, then out_W
    d_in, hidden = CHANNEL_DIMS[channel]
    rng = np.random.default_rng(seed)
    old = {**lstm_init(rng, d_in, hidden, "enc_"),
           **lstm_init(rng, d_in, hidden, "dec_"),
           "out_W": uniform_init(rng, hidden, (hidden, d_in)),
           "out_b": np.zeros(d_in)}
    p = autoencoder_init(channel, seed)
    assert list(p) == list(old)
    assert p["dec_Wx"].shape == (0, 4 * hidden)
    for k in p:
        if k != "dec_Wx":
            assert np.array_equal(p[k], old[k]), k


def _cell_stack_params(n_cells, H, T, seed):
    """One LSTM cell per input width 32, 64, ... with prefixes c0_,
    c1_, ..., a random bias and the cells' Wh side by side at the head
    of the layout, as a stack needs; and a (T, 32 + 64 + ...) input
    holding the cells' inputs side by side; also each cell's input on
    its own, as a contiguous copy."""
    rng = np.random.default_rng(seed)
    arrays, edges = {}, [0]
    for k in range(n_cells):
        D = 32 * (k + 1)
        arrays |= lstm_init(rng, D, H, f"c{k}_")
        arrays[f"c{k}_b"] = rng.normal(size=4 * H)
        edges.append(edges[-1] + D)
    p = ParamSet({f"c{k}_Wh": arrays[f"c{k}_Wh"] for k in range(n_cells)}
                 | arrays)
    xs = rng.normal(size=(T, edges[-1]))
    own = tuple(xs[:, a:z].copy() for a, z in zip(edges, edges[1:]))
    return p, tuple(f"c{k}_" for k in range(n_cells)), xs, own, rng


def _run_starts(kind, T):
    """None: one run from row 0 and no run axis; "late": a run from
    row 0, a duplicate pair from the middle and the last row; "all-late":
    no run from row 0; "one-late": one run, from the middle, so starts
    but no run axis."""
    return {"none": None, "late": (0, T // 2, T // 2, T - 1),
            "all-late": (T // 2, T - 1), "one-late": (T // 2,)}[kind]


@pytest.mark.parametrize("kind", ["none", "late", "all-late", "one-late"])
@pytest.mark.parametrize("T", [1, 8, 40])
@pytest.mark.parametrize("H", [64, 128])
@pytest.mark.parametrize("n_cells", [1, 2])
def test_lstm_stack_bit_identical_to_per_cell_runs(n_cells, H, T, kind):
    # every run of every cell in one step loop gives the bits of that
    # cell's own lstm_forward over the rows it reads; one run's
    # lstm_backward gives the bits of each cell's own
    p, prefixes, xs, own, rng = _cell_stack_params(n_cells, H, T, H + T)
    starts = _run_starts(kind, T)
    runs = (0,) if starts is None else starts
    S, B = len(runs), n_cells
    hs, h, c, cache = lstm_forward(xs, p, prefixes, starts=starts)
    axes = (B,) if starts is None else (S, B)
    assert hs.shape == (T,) + axes + (H,)
    assert h.shape == c.shape == axes + (H,)

    def per_run(a):  # as (..., S, B, last), with or without a run axis
        return a.reshape(a.shape[:a.ndim - len(axes) - 1] + (S, B, -1))

    own_caches = []
    for r, j in enumerate(runs):
        for b, q in enumerate(prefixes):
            want_hs, want_h, want_c, want_cache = lstm_forward(own[b][j:],
                                                               p, q)
            assert np.array_equal(per_run(hs)[j:, r, b], want_hs)
            assert not per_run(hs)[:j, r, b].any()
            assert np.array_equal(per_run(h)[r, b], want_h)
            assert np.array_equal(per_run(c)[r, b], want_c)
            own_caches.append(want_cache)
    if starts is not None:
        return
    dhs = rng.normal(size=hs.shape)
    dh_f, dc_f = rng.normal(size=h.shape), rng.normal(size=c.shape)
    grads = p.zeros_like()
    dz, dh0, dc0 = lstm_backward(dhs, cache, p, grads, prefixes,
                                 dh_final=dh_f, dc_final=dc_f)
    assert dz.shape == (T,) + axes + (4 * H,)
    assert dh0.shape == dc0.shape == axes + (H,)
    g_ref = p.zeros_like()
    for b, (q, want_cache) in enumerate(zip(prefixes, own_caches)):
        want = lstm_backward(dhs[:, b], want_cache, p, g_ref, q,
                             dh_final=dh_f[b], dc_final=dc_f[b])
        assert np.array_equal(dz[:, b], want[0])
        assert np.array_equal(dh0[b], want[1])
        assert np.array_equal(dc0[b], want[2])
    for k in p:
        assert np.array_equal(grads[k], g_ref[k]), k


def _nan_like(cache):
    """A cache of cache's shapes whose arrays all hold NaN."""
    return cache._replace(**{f: np.full_like(a, np.nan) for f, a in
                             zip(("hs", "cs", "gates", "tcs"), cache[1:5])})


@pytest.mark.parametrize("given_state", [False, True])
@pytest.mark.parametrize("n_cells", [1, 2])
def test_lstm_forward_out_gives_the_bits_of_a_fresh_call(n_cells,
                                                         given_state):
    # a call that writes over an earlier cache's arrays, here all NaN,
    # returns the bits of a fresh call: hs, the final states and every
    # cache array, which are the out arrays themselves
    p, prefixes, xs, _, rng = _cell_stack_params(n_cells, 16, 8, n_cells)
    prefix = prefixes if n_cells > 1 else prefixes[0]
    xs = np.stack([xs, rng.normal(size=xs.shape)], axis=1)   # batch of 2
    axes = (n_cells,) * (n_cells > 1) + (2,)
    state = ({"h0": rng.normal(size=axes + (16,)),
              "c0": rng.normal(size=axes + (16,))} if given_state else {})
    want = lstm_forward(xs, p, prefix, **state)
    out = _nan_like(want[3])
    got = lstm_forward(xs, p, prefix, out=out, **state)
    for g, w in zip(got[:3], want[:3]):
        assert g.shape == w.shape and np.array_equal(g, w)
    for g, w, o in zip(got[3][1:5], want[3][1:5], out[1:5]):
        assert np.shares_memory(g, o)
        assert g.shape == w.shape and np.array_equal(g, w)
    assert got[3].lead == want[3].lead and got[3].xs is xs
    # and again over the reused arrays, now holding the last call's
    again = lstm_forward(xs, p, prefix, out=got[3], **state)
    for g, w in zip(again[:3], want[:3]):
        assert np.array_equal(g, w)


def test_lstm_forward_out_rejects_another_shape_and_starts():
    p, prefixes, xs, _, _ = _cell_stack_params(2, 16, 8, 3)
    cache = lstm_forward(xs, p, prefixes)[3]
    for other in (xs[:7], np.stack([xs, xs], axis=1),
                  np.concatenate([xs, xs], axis=0)):
        with pytest.raises(DimensionError):
            lstm_forward(other, p, prefixes, out=cache)
    with pytest.raises(DimensionError):   # one cell of the stack
        lstm_forward(xs[:, :32], p, prefixes[0], out=cache)
    with pytest.raises(DimensionError):
        lstm_forward(xs, p, prefixes, starts=(0, 2), out=cache)


@pytest.mark.parametrize("n_cells", [1, 2])
def test_lstm_backward_out_gives_the_bits_of_a_fresh_call(n_cells):
    p, prefixes, xs, _, rng = _cell_stack_params(n_cells, 16, 8, 7)
    prefix = prefixes if n_cells > 1 else prefixes[0]
    hs, h, _, cache = lstm_forward(xs, p, prefix)
    dhs, dh_f = rng.normal(size=hs.shape), rng.normal(size=h.shape)
    g_want, g_got = p.zeros_like(), p.zeros_like()
    want = lstm_backward(dhs, cache, p, g_want, prefix, dh_final=dh_f)
    out = np.full_like(want[0], np.nan)
    got = lstm_backward(dhs, cache, p, g_got, prefix, dh_final=dh_f,
                        out=out)
    assert np.shares_memory(got[0], out)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)
    assert np.array_equal(g_got.flat, g_want.flat)
    with pytest.raises(DimensionError):
        lstm_backward(dhs, cache, p, g_got, prefix, out=out[:-1])


@pytest.mark.parametrize("D,H", [(5, 32), (128, 64)])
def test_lstm_backward_of_a_transposed_input_gives_the_bits(D, H):
    # the autoencoder's windows, time-major and C-contiguous, against
    # the (T, B, D) transpose of a batch-major array of the same values,
    # which the dWx GEMM reads through a copy
    rng = np.random.default_rng(D)
    T, B = WINDOW, 64
    p = lstm_init(rng, D, H)
    xs = rng.normal(size=(T, B, D))
    view = np.ascontiguousarray(xs.transpose(1, 0, 2)).transpose(1, 0, 2)
    assert xs.flags.c_contiguous and not view.flags.c_contiguous
    dhs = rng.normal(size=(T, B, H))
    grads = []
    for x in (xs, view):
        _, _, _, cache = lstm_forward(x, p)
        grads.append(p.zeros_like())
        lstm_backward(dhs, cache, p, grads[-1])
    for k in p:
        assert np.array_equal(grads[0][k], grads[1][k]), k


def test_lstm_stack_rejects_what_it_cannot_run():
    T = 4
    p, prefixes, xs, own, _ = _cell_stack_params(2, 8, T, 0)
    p = ParamSet({**p, **lstm_init(np.random.default_rng(1), 32, 16,
                                   "wide_")})
    with pytest.raises(DimensionError):   # two hidden sizes
        lstm_forward(np.hstack([own[0], own[0]]), p, ("c0_", "wide_"))
    with pytest.raises(DimensionError):   # one cell's input for two cells
        lstm_forward(own[1], p, prefixes)
    with pytest.raises(DimensionError):   # Wh not side by side in order
        lstm_forward(xs, ParamSet(dict(reversed(list(p.items())))),
                     prefixes)
    for starts in [(), (2, 1), (-1, 2), (0, T)]:
        with pytest.raises(ValueError):
            lstm_forward(xs, p, prefixes, starts=starts)
    state = np.zeros((2, 8))
    for h0, c0 in [(state, None), (None, state), (state, state)]:
        with pytest.raises(ValueError):   # an initial state is one run's
            lstm_forward(xs, p, prefixes, h0, c0, starts=(0, 2))
    _, _, _, cache = lstm_forward(xs, p, prefixes)
    with pytest.raises(DimensionError):   # backward with one prefix
        lstm_backward(None, cache, p, p.zeros_like(), "c0_")
    for starts in [(0, 2), (1, 1, 3), (2,)]:
        _, _, _, cache = lstm_forward(xs, p, prefixes, starts=starts)
        assert cache is None   # runs given by starts have no backward
        with pytest.raises(DimensionError):
            lstm_backward(None, cache, p, p.zeros_like(), prefixes)


@pytest.mark.parametrize("k", [2, 7])
@pytest.mark.parametrize("H", [32, 64, 128])
def test_broadcast_matmul_slices_equal_2d_calls(H, k):
    # the stacks of lstm_forward and the window runs of
    # features.EncoderStream rely on NumPy sending each slice of a
    # broadcast (k, 1, H) @ (H, 4H) matmul to the kernel a 2-D
    # (1, H) @ (H, 4H) call uses; a NumPy or BLAS build that folds the
    # stack into one GEMM may round otherwise, and fails here
    rng = np.random.default_rng(H + k)
    W = rng.normal(size=(H, 4 * H))
    hs = rng.normal(size=(k, 1, H))
    stacked = np.empty((k, 1, 4 * H))
    np.matmul(hs, W, out=stacked)
    for h, got in zip(hs, stacked):
        assert np.array_equal(got, h @ W)
    # every step loop runs on (S, B, N, H) blocks, singleton run and
    # cell axes kept: one run of one cell is a (1, 1, N, H) @ (1, H, 4H)
    # call, which must give the bits of the 2-D (N, H) @ (H, 4H) call,
    # at batch 1 and at the autoencoder's batch of 64
    for N in (1, 64):
        h = rng.normal(size=(N, H))
        got = np.empty((1, 1, N, 4 * H))
        np.matmul(h[None, None], W[None], out=got)
        assert np.array_equal(got[0, 0], h @ W)


@pytest.mark.parametrize("D, H", [(5, 32), (128, 64)])
def test_gemm_rows_do_not_depend_on_the_row_count(D, H):
    # features.embed_video projects an (n, D) table in one GEMM and reads
    # each window's rows from it, where embed_batch projects the K
    # windows' rows of one time step in a (K, D) GEMM: the two agree only
    # while a GEMM row's bits do not depend on how many rows the GEMM
    # has, two or more (one row goes to a gemv). A BLAS build that splits
    # the rows' sums by the row count fails here
    rng = np.random.default_rng(D)
    W = rng.normal(size=(D, 4 * H))
    x = rng.normal(size=(481, D))
    for n in (12, 13, 97, 250, 481):
        full = x[:n] @ W
        grid = (n - WINDOW) // 4 + 1   # the table's snippet count
        for K in sorted({2, min(3, grid), grid}):
            for t in (0, WINDOW - 1):
                rows = t + 4 * np.arange(K)   # a snippet grid's time row
                assert np.array_equal(x[rows] @ W, full[rows]), (n, K, t)
            assert np.array_equal(x[n - K:n] @ W, full[n - K:])


def _scale_spy(monkeypatch):
    """Empties the gate scale buffers and records the (s, off, rec) that
    every `_lstm_steps` call receives."""
    monkeypatch.setattr(layers, "_SCALES", {})
    seen, real = [], layers._lstm_steps

    def spy(Wh, s, off, rec, *rest):
        seen.append((s, off, rec))
        return real(Wh, s, off, rec, *rest)

    monkeypatch.setattr(layers, "_lstm_steps", spy)
    return seen


def test_gate_scale_is_read_only_views_at_the_block_shape(monkeypatch):
    seen = _scale_spy(monkeypatch)
    rng = np.random.default_rng(3)
    p = lstm_init(rng, 5, 8)
    xs = rng.normal(size=(6, 4, 5))
    lstm_forward(xs, p)                            # one (1, 1, 4) block
    lstm_forward(xs[:, 0], p, starts=(0, 2, 2, 4))   # (4, 1, 1), cut [:k]
    lstm_forward(xs[:, :3], p)                     # a (1, 1, 3) block
    assert len(seen) == 1 + 3 + 1
    for s, off, rec in seen:
        assert s.shape == off.shape == rec.shape
        assert not s.flags.writeable and not off.flags.writeable
        assert np.all(s[..., 16:24] == 1.0) and np.all(s[..., :16] == 0.5)
        assert np.all(s[..., 24:] == 0.5) and np.array_equal(off, 1.0 - s)
    # every call reads views of one buffer: once the hidden size's
    # largest block has been seen, no call allocates a scale
    assert all(np.shares_memory(s, seen[0][0]) for s, _, _ in seen)
    assert all(np.shares_memory(off, seen[0][1]) for _, off, _ in seen)


def test_gate_scale_holds_one_buffer_per_hidden_size(monkeypatch):
    seen = _scale_spy(monkeypatch)
    rng = np.random.default_rng(4)
    small, wide = lstm_init(rng, 5, 8), lstm_init(rng, 5, 16)
    for p, rows in ((small, 2), (wide, 3), (small, 5), (small, 1)):
        lstm_forward(rng.normal(size=(3, rows, 5)), p)
    # one (s, off) pair per hidden size, as large as its largest block:
    # a larger block replaces the buffer, a smaller one reads its head
    assert {H: [a.shape for a in pair]
            for H, pair in layers._SCALES.items()} == {
        8: [(5, 32)] * 2, 16: [(3, 64)] * 2}
    s8 = layers._SCALES[8][0]
    assert np.shares_memory(seen[-1][0], s8)
    assert np.shares_memory(seen[-2][0], s8)
    assert not np.shares_memory(seen[0][0], s8)


def test_paramset_stacks_side_by_side_arrays_as_a_view():
    rng = np.random.default_rng(6)
    p = ParamSet({k: rng.normal(size=(2, 3)) for k in "abc"}
                 | {"d": rng.normal(size=6)})
    ab = p.stacked(["a", "b"])
    assert ab.shape == (2, 2, 3) and np.shares_memory(ab, p.flat)
    assert np.array_equal(ab, np.stack([p["a"], p["b"]]))
    assert np.shares_memory(p.stacked(["c"]), p["c"])
    # out of layout order, apart, or of another shape: no view exists
    for names in (["b", "a"], ["a", "c"], ["c", "d"]):
        with pytest.raises(DimensionError):
            p.stacked(names)


def test_sigmoid_matches_logistic_without_overflow():
    z = np.linspace(-30.0, 30.0, 601)
    assert np.max(np.abs(sigmoid(z) - _ref_sigmoid(z))) <= 1e-15
    with np.errstate(all="raise"):
        out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
    assert np.array_equal(out, [0.0, 0.5, 1.0])


def test_softmax_uniform():
    assert np.allclose(softmax(np.zeros(5)), 0.2)


def test_softmax_forced():
    out = softmax(np.array([np.log(2.0), 0.0]))
    assert np.allclose(out, [2 / 3, 1 / 3])


def test_softmax_no_overflow():
    out = softmax(np.array([1000.0, 0.0]))
    assert np.isfinite(out).all()
    assert out[0] > 0.999999 and out[1] < 1e-6


def test_softmax_simplex_and_shift_invariance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        z = rng.normal(scale=50, size=rng.integers(1, 9))
        s = softmax(z)
        assert np.all(s >= 0)
        assert abs(s.sum() - 1.0) <= 1e-12
        assert np.allclose(s, softmax(z + 13.7), atol=1e-12)


def test_softmax_empty():
    with pytest.raises(ValueError):
        softmax(np.zeros(0))


def test_adamax_zero_gradient_is_noop():
    p = ParamSet({"w": np.array([1.0, -2.0])})
    st = AdamaxState(p)
    adamax_update(p, p.zeros_like(), st)
    assert np.allclose(p["w"], [1.0, -2.0])
    assert st.step == 1


def test_adamax_single_step_magnitude():
    # constant gradient g: first step moves by exactly lr in magnitude
    p = ParamSet({"w": np.array([0.0])})
    st = AdamaxState(p, lr=0.001)
    g = ParamSet({"w": np.array([2.5])})
    adamax_update(p, g, st)
    assert abs(abs(p["w"][0]) - 0.001) <= 1e-9


def test_adamax_quadratic_bowl():
    # lr 0.01: at the training default 0.001 the step magnitude caps
    # total travel at 0.5 over 500 steps, short of the bowl minimum
    p = ParamSet({"w": np.array([1.0])})
    st = AdamaxState(p, lr=0.01)
    for _ in range(500):
        g = ParamSet({"w": 2.0 * p["w"]})
        adamax_update(p, g, st)
    assert abs(p["w"][0]) < 0.05


def test_adamax_infinity_norm_nondecreasing():
    rng = np.random.default_rng(9)
    p = ParamSet({"w": rng.normal(size=4)})
    st = AdamaxState(p)
    prev = st.u["w"].copy()
    for _ in range(100):
        adamax_update(p, ParamSet({"w": rng.normal(size=4)}), st)
        assert np.all(st.u["w"] >= prev * adamax.BETA2 - 1e-15)
        assert np.all(st.u["w"] >= 0)
        prev = st.u["w"].copy()


def test_adamax_shape_mismatch():
    p = ParamSet({"w": np.zeros(3)})
    st = AdamaxState(p)
    with pytest.raises(DimensionError):
        adamax_update(p, ParamSet({"w": np.zeros(2)}), st)


def _toy_layout(seed):
    rng = np.random.default_rng(seed)
    return ParamSet({"W": rng.normal(size=(4, 3)), "b": rng.normal(size=3)})


def _bg_autoencoder(seed):
    from skymimic.features import autoencoder_init
    return autoencoder_init("bg", seed)


def _style_net(seed):
    from skymimic.stylenet import VARIANTS, init_style_net
    return init_style_net(VARIANTS["fg+bg+att"], seed)


def _imitation_net(seed):
    from skymimic.imitation import init_imitation_net
    return init_imitation_net(128, 96, seed)


def test_adamax_in_place_bit_identical_to_formula():
    """The chunked flat update equals the per-array formula bit for bit,
    on a toy layout and on the bg autoencoder (more than one chunk, the
    last one partial), style-net and imitation-net layouts."""
    for make in (_toy_layout, _bg_autoencoder, _style_net, _imitation_net):
        rng = np.random.default_rng(21)
        p = make(21)
        st = AdamaxState(p, lr=0.01)
        ref_p, ref_m, ref_u = p.copy(), p.zeros_like(), p.zeros_like()
        b1, b2, eps = adamax.BETA1, adamax.BETA2, adamax.EPS
        for step in range(1, 5):
            g = ParamSet({k: rng.normal(size=v.shape) for k, v in p.items()})
            snapshot = p.copy()
            adamax_update(p, g, st)
            bias = 1.0 - b1 ** step
            for k in p:
                # the snapshot still holds the values from before the
                # update
                assert np.array_equal(snapshot[k], ref_p[k])
                ref_m[k] = b1 * ref_m[k] + (1.0 - b1) * g[k]
                ref_u[k] = np.maximum(b2 * ref_u[k], np.abs(g[k]))
                ref_p[k] = ref_p[k] - (st.lr / bias) * ref_m[k] / (
                    ref_u[k] + eps)
                assert np.array_equal(p[k], ref_p[k])
                assert np.array_equal(st.m[k], ref_m[k])
                assert np.array_equal(st.u[k], ref_u[k])


def test_grad_check_sum_of_squares():
    p = ParamSet({"a": np.array([1.0, -2.0, 3.0]), "b": np.array([[0.5]])})

    def loss(ps):
        return sum(float(np.sum(v ** 2)) for v in ps.values())

    g = ParamSet({k: 2.0 * v for k, v in p.items()})
    assert grad_check(loss, p, g, eps=1e-5) <= 1e-8


def test_grad_check_leaves_params_unchanged():
    rng = np.random.default_rng(12)
    p = lstm_init(rng, 3, 4)
    xs = rng.normal(size=(3, 3))
    before = p.copy()

    def loss(ps):
        return float(np.sum(lstm_forward(xs, ps)[0]))

    g = p.zeros_like()
    lstm_backward(np.ones((3, 4)), lstm_forward(xs, p)[3], p, g)
    assert grad_check(loss, p, g, eps=1e-5) <= 1e-5
    for k in p:
        assert np.array_equal(p[k], before[k])


def test_paramset_is_one_flat_vector():
    rng = np.random.default_rng(13)
    p = ParamSet({"W": rng.normal(size=(3, 2)), "b": rng.normal(size=2),
                  "s": rng.normal(size=())})
    assert p.flat.shape == (9,)
    for k in p:
        assert np.shares_memory(p[k], p.flat)
    # copies and zero sets are independent of the source, in one layout
    for other in (p.copy(), p.zeros_like()):
        assert not np.shares_memory(other.flat, p.flat)
        for k in p:
            assert not np.shares_memory(other[k], p[k])
        assert other.layout is p.layout
        p.check_mirror(other)
    assert np.array_equal(p.copy().flat, p.flat)
    assert not np.any(p.zeros_like().flat)


def test_paramset_assignment_copies_into_view():
    p = ParamSet({"W": np.zeros((2, 2)), "b": np.zeros(2)})
    src = np.arange(4.0).reshape(2, 2)
    view = p["W"]
    p["W"] = src
    assert p["W"] is view and np.array_equal(p.flat[:4], [0, 1, 2, 3])
    src[...] = -1.0   # writing the source afterwards leaves the set alone
    assert np.array_equal(p["W"], [[0.0, 1.0], [2.0, 3.0]])
    with pytest.raises(DimensionError):
        p["W"] = np.zeros((2, 3))
    with pytest.raises(DimensionError):
        p["b"] = np.zeros(3)
    assert np.array_equal(p["b"], [0.0, 0.0])
    # in-place accumulation writes the set
    p["b"] += np.array([1.0, 2.0])
    assert np.array_equal(p.flat[4:], [1.0, 2.0])
    # a set built from arrays does not alias them either
    a = np.ones(3)
    q = ParamSet({"a": a})
    a[0] = 5.0
    assert np.array_equal(q["a"], [1.0, 1.0, 1.0])


def test_check_mirror_rejects_other_names_shapes_and_order():
    base = ParamSet({"W": np.zeros((2, 3)), "b": np.zeros(3)})
    base.check_mirror(ParamSet({"W": np.ones((2, 3)), "b": np.ones(3)}))
    for other, what in [
            (ParamSet({"W": np.zeros((2, 3))}), "names"),
            (ParamSet({"W": np.zeros((2, 3)), "c": np.zeros(3)}), "names"),
            (ParamSet({"W": np.zeros((3, 2)), "b": np.zeros(3)}), "shape"),
            (ParamSet({"W": np.zeros((2, 3)), "b": np.zeros((1, 3))}),
             "shape"),
            (ParamSet({"b": np.zeros(3), "W": np.zeros((2, 3))}), "order")]:
        with pytest.raises(DimensionError, match=what):
            base.check_mirror(other)


def _per_record_save(p, path):
    """The container layout written from the module's description, one
    record at a time: magic, uint32 header length, the sorted-key JSON
    header, then each record's payload in layout order."""
    import json
    import struct
    header = json.dumps({"meta": p.meta,
                         "layout": [[k, list(v.shape)] for k, v in p.items()]},
                        sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as f:
        f.write(b"SMC1")
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for arr in p.values():
            f.write(arr.astype("<f8").tobytes(order="C"))


@pytest.mark.parametrize("make", [_toy_layout, _bg_autoencoder, _style_net,
                                  _imitation_net])
def test_paramset_save_bytes_equal_per_record_writer(make, tmp_path):
    p = make(5)
    p = ParamSet({**p, "s": np.array(2.5)}, p.meta)   # a 0-d record too
    p.save(tmp_path / "flat.bin")
    _per_record_save(p, tmp_path / "ref.bin")
    assert (tmp_path / "flat.bin").read_bytes() == \
        (tmp_path / "ref.bin").read_bytes()
    q = ParamSet.load(tmp_path / "flat.bin")
    assert q.layout == p.layout and np.array_equal(q.flat, p.flat)
    assert q.meta == p.meta


def test_paramset_assigning_an_unknown_name_raises_and_keeps_the_layout():
    p = ParamSet({"W": np.ones((2, 3)), "b": np.zeros(3)})
    layout, flat, before = p.layout, p.flat, p.flat.copy()
    with pytest.raises(KeyError):
        p["c"] = np.zeros(3)
    assert p.layout is layout and p.flat is flat
    assert list(p) == ["W", "b"] and np.array_equal(p.flat, before)


# sha256 of each fresh net's file at seed 0: fixes the init functions'
# draw order, names, shapes, layout order and meta. The style-type nets'
# are those of the layout whose branches' Wh lead, side by side
INIT_DIGESTS = {
    "autoencoder-fg":
        "b78fdfb6b73bfca61e9948b1feb07d6be0a5e0e3e129154c42c9730129c085c6",
    "autoencoder-bg":
        "0cfc1b82ee9e2e9ad0caf7ccbef3ea139e199b6940ac2792640e2e70ff3129bc",
    "style-fg-only":
        "ef9bca9b6100773ac55c78c98adec4239fc0e3c8092231891af044943d3469f5",
    "style-bg-only":
        "90a27a897450f2f97c1182bc3ba0a3a3564ef130bdf5cb3e17854af578b74d9b",
    "style-fg+bg":
        "304da0f4fbc095ab55b005135e971a3cc79893111bf52c2d10fbbc8328cdff09",
    "style-fg+bg+att":
        "b360e482500b6b30fdd5f54a303f6de42845235ad8bb3e7fadbff9c18a75c4bc",
    "imitation":
        "f42a66564ba134c646db084a73c065b5a1987e040f80575548267e0147887fa8",
}


def test_fresh_nets_save_the_bytes_of_their_fixed_draw_order(tmp_path):
    import hashlib
    from skymimic.imitation import init_imitation_net
    from skymimic.stylenet import VARIANTS, init_style_net
    nets = {f"autoencoder-{c}": autoencoder_init(c, 0) for c in ("fg", "bg")}
    nets |= {f"style-{k}": init_style_net(cfg, 0)
             for k, cfg in VARIANTS.items()}
    nets["imitation"] = init_imitation_net(128, 96, 0)
    assert nets.keys() == INIT_DIGESTS.keys()
    for name, p in nets.items():
        p.save(tmp_path / f"{name}.bin")
        blob = (tmp_path / f"{name}.bin").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == INIT_DIGESTS[name], name


def test_paramset_save_is_atomic(tmp_path, monkeypatch):
    # a file is moved into place whole: when the move fails, save
    # raises, the old file is intact and no temporary file is left
    import os
    path = tmp_path / "params.bin"
    ParamSet({"w": np.arange(3.0)}, {"v": 1}).save(path)
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError(f"cannot move {src} onto {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="cannot move"):
        ParamSet({"w": np.ones(5)}, {"v": 2}).save(path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["params.bin"]
    assert not list(tmp_path.glob(".*.tmp"))


def test_paramset_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    meta = {"channel": "fg", "config": {"hidden": 7, "lam": 0.1,
                                        "use_fg": False}}
    p = ParamSet({"Wx": rng.normal(size=(3, 8)), "b": rng.normal(size=8),
                  "scalarish": rng.normal(size=(1,)),
                  "empty": np.empty((0, 8)),   # an input-free cell's Wx
                  "s": rng.normal(size=())}, meta=meta)
    path = tmp_path / "params.bin"
    p.save(path)
    assert not list(tmp_path.glob("*.json"))   # no sidecar
    q = ParamSet.load(path)
    assert list(q.keys()) == list(p.keys())
    assert q.layout == p.layout and q["s"].shape == ()
    assert q["empty"].shape == (0, 8)
    for k in p:
        assert q[k].tobytes() == p[k].tobytes()
    assert q.meta == meta
    # saving again is byte-identical
    p.save(tmp_path / "params2.bin")
    assert (tmp_path / "params.bin").read_bytes() == \
        (tmp_path / "params2.bin").read_bytes()


def test_paramset_load_rejects_truncated_and_trailing(tmp_path):
    import struct
    rng = np.random.default_rng(3)
    path = tmp_path / "params.bin"
    ParamSet({"Wx": rng.normal(size=(3, 8)), "b": rng.normal(size=8),
              "s": rng.normal(size=())}, meta={"channel": "bg"}).save(path)
    blob = path.read_bytes()
    # every proper prefix: inside the magic, the header length, the
    # header or the vector
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(OSError):
            ParamSet.load(path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(OSError, match="trailing"):
        ParamSet.load(path)
    path.write_bytes(b"CMN1" + blob[4:])
    with pytest.raises(OSError, match="not a skymimic container"):
        ParamSet.load(path)
    # a header length that runs past the end of the file
    path.write_bytes(blob[:4] + struct.pack("<I", len(blob)) + blob[8:])
    with pytest.raises(OSError, match="truncated"):
        ParamSet.load(path)
    path.write_bytes(blob)
    assert list(ParamSet.load(path).keys()) == ["Wx", "b", "s"]


@pytest.mark.parametrize("header", [
    b"not json", b"[]", b'{"layout":[]}', b'{"meta":{}}',
    b'{"layout":[["W",[-1]]],"meta":{}}', b'{"layout":[["W",2]],"meta":{}}',
    b'{"layout":[["W",[1.5]]],"meta":{}}',
    b'{"layout":[["W",[1]],["W",[1]]],"meta":{}}',
    b'{"layout":[[3,[1]]],"meta":{}}', b'{"layout":[],"meta":[]}',
    b"\xff\xfe"])
def test_paramset_load_rejects_malformed_header(tmp_path, header):
    import struct
    path = tmp_path / "params.bin"
    path.write_bytes(b"SMC1" + struct.pack("<I", len(header)) + header
                     + bytes(16))
    with pytest.raises(OSError, match="malformed header"):
        ParamSet.load(path)


def test_uniform_init_bounds_and_determinism():
    a = uniform_init(np.random.default_rng(4), 16, (100,))
    b = uniform_init(np.random.default_rng(4), 16, (100,))
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= 0.25)
