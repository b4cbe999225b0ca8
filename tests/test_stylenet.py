import tracemalloc

import numpy as np
import pytest

from skymimic.nn import (ParamSet, lstm_backward, lstm_forward, lstm_init,
                         mlp_init, sigmoid, softmax)
from skymimic.nn.layers import _recurrent_weights, affine, affine_backward
from oracles import grad_check
from skymimic.stylenet import (N_CLASSES, VARIANTS, AttentionTrace,
                               StyleNetConfig, _cells, _lstm,
                               confusion_and_accuracy, init_style_net,
                               predict_style, prefix_probs,
                               style_forward, style_loss, style_loss_and_grad,
                               train_style_net)

TINY = StyleNetConfig(hidden=6, attn_hidden=4, fg_dim=3, bg_dim=4)


def test_forward_single_step_is_weighted_concat():
    p = init_style_net(TINY, seed=0)
    seq = np.random.default_rng(0).normal(size=(1, 7))
    v, probs, trace, _ = style_forward(seq, p, TINY)
    expect = np.concatenate([trace.beta["fg"][0] * trace.c["fg"][0],
                             trace.beta["bg"][0] * trace.c["bg"][0]])
    assert np.array_equal(v, expect)


def test_forward_eq3_reconstruction_bit_exact():
    p = init_style_net(TINY, seed=1)
    seq = np.random.default_rng(1).normal(size=(9, 7))
    v, _, trace, _ = style_forward(seq, p, TINY)
    recon = np.concatenate([trace.beta["fg"] @ trace.c["fg"],
                            trace.beta["bg"] @ trace.c["bg"]])
    assert np.array_equal(v, recon)


def test_forward_zero_classifier_uniform_probs():
    p = init_style_net(TINY, seed=2)
    p["cls_W0"] = np.zeros_like(p["cls_W0"])
    p["cls_b0"] = np.zeros_like(p["cls_b0"])
    seq = np.random.default_rng(2).normal(size=(4, 7))
    _, probs, _, _ = style_forward(seq, p, TINY)
    assert np.allclose(probs, 0.2)


def test_forward_sequence_order_sensitivity():
    p = init_style_net(TINY, seed=3)
    seq = np.random.default_rng(3).normal(size=(6, 7))
    v1, _, _, _ = style_forward(seq, p, TINY)
    v2, _, _, _ = style_forward(seq[::-1], p, TINY)
    assert not np.allclose(v1, v2)


def test_forward_empty_sequence():
    p = init_style_net(TINY, seed=4)
    with pytest.raises(ValueError):
        style_forward(np.zeros((0, 7)), p, TINY)


@pytest.mark.parametrize("T", [1, 2, 13])
@pytest.mark.parametrize("name", list(VARIANTS))
def test_prefix_probs_match_per_prefix_forward(name, T):
    cfg = VARIANTS[name]
    p = init_style_net(cfg, seed=6)
    seq = np.random.default_rng(6).uniform(-1, 1, size=(T, 96))
    got = prefix_probs(style_forward(seq, p, cfg)[2], p, cfg)
    assert got.shape == (T, 5)
    for k in range(T):
        _, want, _, _ = style_forward(seq[:k + 1], p, cfg)
        assert np.max(np.abs(got[k] - want)) <= 1e-12


@pytest.mark.parametrize("name", list(VARIANTS))
def test_style_forward_starts_equal_per_span_forward(name):
    # one stacked pass gives each span [j, T) the bits of a pass over
    # seq[j:], with a duplicate start, the first and the last row
    cfg = VARIANTS[name]
    rng = np.random.default_rng(9)
    p = init_style_net(cfg, seed=9)
    p.flat[:] = rng.normal(scale=0.3, size=p.flat.size)
    T = 13
    seq = rng.uniform(-1, 1, size=(T, 96))
    starts = [0, 2, 5, 5, 9, T - 1]
    v, probs, traces, _ = style_forward(seq, p, cfg, starts=starts)
    assert v.shape == (len(starts), cfg.feature_dim)
    assert probs.shape == (len(starts), 5)
    assert len(traces) == len(starts)
    for m, j in enumerate(starts):
        want_v, want_probs, want_trace, _ = style_forward(seq[j:], p, cfg)
        assert np.array_equal(v[m], want_v)
        assert np.array_equal(probs[m], want_probs)
        for branch in cfg.branches:
            assert np.array_equal(traces[m].beta[branch],
                                  want_trace.beta[branch])
            assert np.array_equal(traces[m].c[branch], want_trace.c[branch])
    # the run from row 0 gives every prefix the bits of a pass of its own
    assert np.array_equal(prefix_probs(traces[0], p, cfg),
                          prefix_probs(style_forward(seq, p, cfg)[2], p, cfg))
    for bad in ([5, 2], [], [-1], [T]):
        with pytest.raises(ValueError):
            style_forward(seq, p, cfg, starts=bad)


def test_late_run_memory_guard():
    # four late runs over T = 59 rows with the full config keep no gate
    # blocks or tanh(c): they step through one step's scratch, and the
    # call peaks at 1.27 MiB (tracemalloc). Keeping every row's gate
    # blocks and tanh(c) for the late runs would add about 1.2 MiB
    cfg = VARIANTS["fg+bg+att"]
    p = init_style_net(cfg, seed=3)
    seq = np.random.default_rng(3).normal(size=(59, 96))
    starts = (0, 14, 29, 44)
    style_forward(seq, p, cfg, starts=starts)   # builds the cached scale
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        style_forward(seq, p, cfg, starts=starts)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 1.27 * 2**20


@pytest.mark.parametrize("name", list(VARIANTS))
def test_style_forward_branches_equal_single_cell_runs(name):
    # the branches share one step loop and keep the bits of their own
    cfg = VARIANTS[name]
    rng = np.random.default_rng(10)
    p = init_style_net(cfg, seed=10)
    p["fg_b" if cfg.use_fg else "bg_b"] = rng.normal(size=4 * cfg.hidden)
    seq = rng.uniform(-1, 1, size=(15, 96))
    _, _, trace, _ = style_forward(seq, p, cfg)
    for branch in cfg.branches:
        want = lstm_forward(seq[:, cfg.branch_input(branch)], p,
                            f"{branch}_")[0]
        assert np.array_equal(trace.c[branch], want)


def test_beta_in_unit_interval():
    p = init_style_net(TINY, seed=5)
    seq = np.random.default_rng(5).normal(scale=5, size=(20, 7))
    _, _, trace, _ = style_forward(seq, p, TINY)
    for b in trace.beta.values():
        assert np.all(b > 0) and np.all(b < 1)


def test_loss_perfect_prediction():
    trace = AttentionTrace({"fg": np.zeros(3), "bg": np.zeros(3)}, {})
    probs = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    loss, clamped = style_loss(probs, 0, trace, TINY)
    assert loss == 0.0 and not clamped


def test_loss_uniform():
    trace = AttentionTrace({"fg": np.zeros(4), "bg": np.zeros(4)}, {})
    loss, _ = style_loss(np.full(5, 0.2), 2, trace, TINY)
    assert abs(loss - (-np.log(0.2))) < 1e-12


def test_loss_attention_arithmetic():
    trace = AttentionTrace({"fg": np.ones(10), "bg": np.ones(10)}, {})
    probs = np.array([1.0, 0, 0, 0, 0])
    loss, _ = style_loss(probs, 0, trace, TINY)
    assert abs(loss - 0.02) < 1e-12


def test_loss_zero_probability_clamped():
    trace = AttentionTrace({"fg": np.zeros(2), "bg": np.zeros(2)}, {})
    loss, clamped = style_loss(np.array([1.0, 0, 0, 0, 0]), 1, trace, TINY)
    assert clamped and np.isfinite(loss)


def _check_style_gradient(seq, label, p, cfg):
    def loss(ps):
        _, probs, trace, _ = style_forward(seq, ps, cfg)
        return style_loss(probs, label, trace, cfg)[0]

    _, g = style_loss_and_grad(seq, label, p, cfg)
    return grad_check(loss, p, g, eps=1e-5)


@pytest.mark.parametrize("seed", range(5))
def test_full_loss_gradient(seed):
    cfg = TINY
    p = init_style_net(cfg, seed=seed)
    seq = np.random.default_rng(100 + seed).normal(size=(4, 7))
    assert _check_style_gradient(seq, seed % 5, p, cfg) <= 1e-4


@pytest.mark.parametrize("name", list(VARIANTS))
def test_variant_gradients(name):
    base = VARIANTS[name]
    cfg = StyleNetConfig(use_fg=base.use_fg, use_bg=base.use_bg,
                         use_attention=base.use_attention,
                         hidden=6, attn_hidden=4, fg_dim=3, bg_dim=4)
    p = init_style_net(cfg, seed=7)
    seq = np.random.default_rng(7).normal(size=(3, 7))
    assert _check_style_gradient(seq, 1, p, cfg) <= 1e-4


def _ref_pool(hs, p, cfg):
    """One run's pooling, each scorer written out as affine layers:
    (v, beta, c, and per branch the scorer's tanh layer a1)."""
    parts, beta, c, a1s = [], {}, {}, {}
    for b, name in enumerate(cfg.branches):
        cs = hs[:, b]
        if cfg.use_attention:
            a1 = np.tanh(affine(cs, p[f"a{name}_W0"], p[f"a{name}_b0"]))
            s = affine(a1, p[f"a{name}_W1"], p[f"a{name}_b1"])[:, 0]
            a1s[name], gate, norm = a1, sigmoid(s), 1.0
        else:
            a1s[name], gate, norm = None, np.ones(len(cs)), float(len(cs))
        beta[name], c[name] = gate / norm, cs
        parts.append(beta[name] @ cs)
    return np.concatenate(parts), beta, c, a1s


def _ref_classify(v, p):
    return softmax(affine(v, p["cls_W0"], p["cls_b0"]))


def _ref_prefix_probs(beta, c, p, cfg):
    cum = [np.cumsum(beta[name][:, None] * c[name], axis=0)
           if cfg.use_attention else np.cumsum(c[name], axis=0)
           / np.arange(1.0, len(c[name]) + 1.0)[:, None]
           for name in cfg.branches]
    return _ref_classify(np.concatenate(cum, axis=1), p)


def _ref_loss_and_grad(seq, label, p, cfg):
    """style_loss_and_grad with the classifier's and the scorers'
    backward written out as affine_backward calls."""
    hs, _, _, lstm_cache = _lstm(seq, p, cfg)
    v, beta, c, a1s = _ref_pool(hs, p, cfg)
    probs = _ref_classify(v, p)
    loss, _ = style_loss(probs, label, AttentionTrace(beta, c), cfg)
    grads = p.zeros_like()
    dlogits = probs.copy()
    dlogits[label] -= 1.0
    dv, dW, db = affine_backward(dlogits, v, p["cls_W0"])
    grads["cls_W0"] += dW
    grads["cls_b0"] += db
    T = seq.shape[0]
    dhs = np.empty((T, len(cfg.branches), cfg.hidden))
    for b, name in enumerate(cfg.branches):
        dv_part = dv[b * cfg.hidden:(b + 1) * cfg.hidden]
        dc = beta[name][:, None] * dv_part[None, :]
        if cfg.use_attention:
            lam = cfg.lambda_fg if name == "fg" else cfg.lambda_bg
            dbeta = c[name] @ dv_part + lam / T
            ds = dbeta * beta[name] * (1.0 - beta[name])
            a1 = a1s[name]
            da1, dW1, db1 = affine_backward(ds[:, None], a1, p[f"a{name}_W1"])
            grads[f"a{name}_W1"] += dW1
            grads[f"a{name}_b1"] += db1
            dz0 = da1 * (1.0 - a1 * a1)
            dc_att, dW0, db0 = affine_backward(dz0, c[name],
                                               p[f"a{name}_W0"])
            grads[f"a{name}_W0"] += dW0
            grads[f"a{name}_b0"] += db0
            dc = dc + dc_att
        dhs[:, b] = dc
    lstm_backward(dhs, lstm_cache, p, grads, prefix=_cells(cfg))
    return loss, grads, v, probs, beta


@pytest.mark.parametrize("tiny", [False, True])
@pytest.mark.parametrize("name", list(VARIANTS))
def test_scorers_and_classifier_match_affine_reference_bits(name, tiny):
    # the scorers and the classifier run on nn's MLP layers; written out
    # as affine layers, forward and backward, they give the same bits
    cfg = VARIANTS[name]
    if tiny:
        cfg = StyleNetConfig(use_fg=cfg.use_fg, use_bg=cfg.use_bg,
                             use_attention=cfg.use_attention, hidden=6,
                             attn_hidden=4, fg_dim=3, bg_dim=4)
    rng = np.random.default_rng(11)
    p = init_style_net(cfg, seed=11)
    p.flat[:] = rng.normal(scale=0.3, size=p.flat.size)
    seq = rng.uniform(-1, 1, size=(9, cfg.fg_dim + cfg.bg_dim))
    loss, grads = style_loss_and_grad(seq, 2, p, cfg)
    want_loss, want_grads, want_v, want_probs, want_beta = \
        _ref_loss_and_grad(seq, 2, p, cfg)
    v, probs, trace, _ = style_forward(seq, p, cfg)
    assert np.array_equal(v, want_v)
    assert np.array_equal(probs, want_probs)
    for branch in cfg.branches:
        assert np.array_equal(trace.beta[branch], want_beta[branch])
    assert loss == want_loss
    assert list(grads) == list(want_grads)
    for key in grads:
        assert np.array_equal(grads[key], want_grads[key]), key
    starts = [0, 3, 5]
    v, probs, traces, _ = style_forward(seq, p, cfg, starts=starts)
    hs = _lstm(seq, p, cfg, starts)[0]
    for r, j in enumerate(starts):
        want_v, beta, c, _ = _ref_pool(hs[j:, r], p, cfg)
        assert np.array_equal(v[r], want_v)
        assert np.array_equal(probs[r], _ref_classify(want_v, p))
        assert np.array_equal(prefix_probs(traces[r], p, cfg),
                              _ref_prefix_probs(beta, c, p, cfg))


def _toy_corpus(rng, n_per_class=8, T=6):
    """Three separable synthetic 'styles' in a 7-dim embedding space."""
    data = []
    for label in range(5):
        for _ in range(n_per_class):
            base = np.zeros(7)
            base[label % 7] = 1.0
            seq = base + rng.normal(0, 0.1, size=(T, 7))
            if label >= 3:
                seq = seq * np.linspace(-1, 1, T)[:, None]
            data.append((seq, label))
    return data


def test_training_learns_and_is_deterministic():
    rng = np.random.default_rng(11)
    train = _toy_corpus(rng)
    val = _toy_corpus(rng, n_per_class=3)
    p1, log1 = train_style_net(train, val, TINY, epochs=12, seed=3)
    p2, log2 = train_style_net(train, val, TINY, epochs=12, seed=3)
    assert log1 == log2
    for k in p1:
        assert np.array_equal(p1[k], p2[k])
    assert log1[-1]["val_accuracy"] >= 0.8


def test_confusion_matrix_row_stochastic():
    rng = np.random.default_rng(12)
    data = _toy_corpus(rng, n_per_class=4)
    p = init_style_net(TINY, seed=0)
    cm, acc = confusion_and_accuracy(data, p, TINY)
    assert cm.shape == (5, 5)
    assert np.allclose(cm.sum(axis=1), 1.0)
    # the accuracy is the hit rate of the predictions the matrix counts
    hits = sum(predict_style(seq, p, TINY) == label for seq, label in data)
    assert acc == hits / len(data)
    assert acc == pytest.approx(np.mean(np.diag(cm)))   # 4 per class


def test_increasing_lambda_decreases_mean_beta():
    rng = np.random.default_rng(13)
    train = _toy_corpus(rng)
    val = _toy_corpus(rng, n_per_class=2)
    betas = {}
    for lam in (0.01, 1.0):
        cfg = StyleNetConfig(hidden=6, attn_hidden=4, fg_dim=3, bg_dim=4,
                             lambda_fg=lam, lambda_bg=lam)
        p, _ = train_style_net(train, val, cfg, epochs=10, seed=5)
        vals = []
        for seq, _label in val:
            _, _, trace, _ = style_forward(seq, p, cfg)
            vals.append(trace.beta["fg"].mean())
        betas[lam] = np.mean(vals)
    assert betas[1.0] < betas[0.01]


@pytest.mark.parametrize("name", ["fg+bg+att", "fg+bg"])
def test_stacked_branches_read_their_wh_as_a_view(name):
    # the branches' Wh lie side by side in the net's vector, so the
    # stacked forward and backward read their (2, H, 4H) block in place
    cfg = VARIANTS[name]
    p = init_style_net(cfg, 0)
    Wh = _recurrent_weights(p, _cells(cfg))
    assert Wh.shape == (2, cfg.hidden, 4 * cfg.hidden)
    assert np.shares_memory(Wh, p.flat)
    assert np.array_equal(Wh[0], p["fg_Wh"])
    assert np.array_equal(Wh[1], p["bg_Wh"])


@pytest.mark.parametrize("name", list(VARIANTS))
def test_style_net_init_keeps_each_arrays_draw(name):
    # the layout puts the Wh first, but every array is drawn in the
    # order branch by branch (LSTM, then scorer), then the classifier
    cfg = VARIANTS[name]
    for seed in (0, 7):
        rng = np.random.default_rng(seed)
        want = {}
        for branch in cfg.branches:
            d_in = cfg.fg_dim if branch == "fg" else cfg.bg_dim
            want |= lstm_init(rng, d_in, cfg.hidden, f"{branch}_")
            if cfg.use_attention:
                want |= mlp_init(rng, [cfg.hidden, cfg.attn_hidden, 1],
                                 prefix=f"a{branch}_")
        want |= mlp_init(rng, [cfg.feature_dim, N_CLASSES], prefix="cls_")
        p = init_style_net(cfg, seed)
        assert sorted(p) == sorted(want)
        for k, v in want.items():
            assert np.array_equal(p[k], v), (seed, k)
