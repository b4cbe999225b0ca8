import numpy as np
import pytest

from skymimic.nn import (AdamaxState, DimensionError, ParamSet, adamax_update,
                         affine, affine_backward, grad_check, lstm_backward,
                         lstm_forward, lstm_init, lstm_step, mlp_backward,
                         mlp_forward, mlp_init, sigmoid, softmax,
                         uniform_init)


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

    def f(ps):
        y = affine(ps["x"], ps["W"], ps["b"])
        g = ps.zeros_like()
        dx, dW, db = affine_backward(R, ps["x"], ps["W"])
        g["x"], g["W"], g["b"] = dx, dW, db
        return float(np.sum(y * R)), g

    assert grad_check(f, p, eps=1e-5) <= 1e-6


def test_lstm_zero_everything():
    p = ParamSet({"Wx": np.zeros((3, 8)), "Wh": np.zeros((2, 8)),
                  "b": np.zeros(8)})
    h, c, _ = lstm_step(np.zeros(3), np.zeros(2), np.zeros(2), p)
    assert np.allclose(h, 0) and np.allclose(c, 0)


def test_lstm_purity():
    rng = np.random.default_rng(3)
    p = lstm_init(rng, 3, 4)
    x, h, c = rng.normal(size=3), rng.normal(size=4), rng.normal(size=4)
    h1, c1, _ = lstm_step(x, h, c, p)
    h2, c2, _ = lstm_step(x, h, c, p)
    assert np.array_equal(h1, h2) and np.array_equal(c1, c2)


def test_lstm_shape_error():
    p = lstm_init(np.random.default_rng(0), 3, 4)
    with pytest.raises(DimensionError):
        lstm_step(np.zeros(5), np.zeros(4), np.zeros(4), p)


def test_lstm_bptt_vs_finite_differences():
    rng = np.random.default_rng(11)
    p = lstm_init(rng, 3, 4)
    xs = rng.normal(size=(3, 3))
    R = rng.normal(size=(3, 4))

    def f(ps):
        hs, _, _, caches = lstm_forward(xs, ps)
        loss = float(np.sum(hs * R))
        g = ps.zeros_like()
        lstm_backward(list(R), caches, ps, g)
        return loss, g

    assert grad_check(f, p, eps=1e-5) <= 1e-5


@pytest.mark.parametrize("seed", range(20))
def test_layer_gradients_randomized(seed):
    """Per-layer analytic gradients match finite differences, 20 seeds."""
    rng = np.random.default_rng(1000 + seed)
    p = lstm_init(rng, 2, 3)
    for k in ("W0", "b0", "W1", "b1"):
        pass
    mlp = mlp_init(rng, [3, 4, 2], prefix="m_")
    for k, v in mlp.items():
        p[k] = v
    xs = rng.normal(size=(4, 2))
    R = rng.normal(size=2)

    def f(ps):
        hs, h, c, caches = lstm_forward(xs, ps)
        y, acts = mlp_forward(h, ps, 2, prefix="m_")
        loss = float(np.sum(y * R))
        g = ps.zeros_like()
        dh = mlp_backward(R, acts, ps, 2, g, prefix="m_")
        lstm_backward(None, caches, ps, g, dh_final=dh)
        return loss, g

    assert grad_check(f, p, eps=1e-5) <= 1e-4


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
    dxs, dh0, dc0 = lstm_backward(dhs, cache, p, grads, dh_final=dh_f,
                                  dc_final=dc_f)
    ref = _ref_lstm(xs, p, zero if h0 is None else h0,
                    zero if c0 is None else c0, dhs,
                    zero if dh_f is None else dh_f,
                    zero if dc_f is None else dc_f)
    # hs is (T, ..., H) and dxs is shaped like xs: the bench's .rows and
    # .steps counters read these shapes
    assert hs.shape == (T,) + state
    assert dxs.shape == xs.shape
    assert h.shape == c.shape == dh0.shape == dc0.shape == state
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
        assert np.all(st.u["w"] >= prev * st.beta2 - 1e-15)
        assert np.all(st.u["w"] >= 0)
        prev = st.u["w"].copy()


def test_adamax_shape_mismatch():
    p = ParamSet({"w": np.zeros(3)})
    st = AdamaxState(p)
    with pytest.raises(DimensionError):
        adamax_update(p, ParamSet({"w": np.zeros(2)}), st)


def test_adamax_in_place_bit_identical_to_formula():
    rng = np.random.default_rng(21)
    shapes = {"W": (4, 3), "b": (3,)}
    p = ParamSet({k: rng.normal(size=s) for k, s in shapes.items()})
    st = AdamaxState(p, lr=0.01)
    ref_p, ref_m, ref_u = p.copy(), p.zeros_like(), p.zeros_like()
    b1, b2, eps = st.beta1, st.beta2, st.eps
    for step in range(1, 4):
        g = ParamSet({k: rng.normal(size=s) for k, s in shapes.items()})
        snapshot = p.copy()
        adamax_update(p, g, st)
        bias = 1.0 - b1 ** step
        for k in p:
            # the snapshot still holds the values from before the update
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

    def f(ps):
        loss = sum(float(np.sum(v ** 2)) for v in ps.values())
        g = ParamSet({k: 2.0 * v for k, v in ps.items()})
        return loss, g

    assert grad_check(f, p, eps=1e-5) <= 1e-8


def test_paramset_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    p = ParamSet({"Wx": rng.normal(size=(3, 8)), "b": rng.normal(size=8),
                  "scalarish": rng.normal(size=(1,))},
                 meta={"channel": "fg"})
    path = tmp_path / "params.bin"
    p.save(path)
    q = ParamSet.load(path)
    assert list(q.keys()) == list(p.keys())
    for k in p:
        assert q[k].tobytes() == p[k].tobytes()
    assert q.meta == {"channel": "fg"}
    # saving again is byte-identical
    p.save(tmp_path / "params2.bin")
    assert (tmp_path / "params.bin").read_bytes() == \
        (tmp_path / "params2.bin").read_bytes()


def test_uniform_init_bounds_and_determinism():
    a = uniform_init(np.random.default_rng(4), 16, (100,))
    b = uniform_init(np.random.default_rng(4), 16, (100,))
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= 0.25)
