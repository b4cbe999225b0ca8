import numpy as np
import pytest

from skymimic.imitation import (DIR_EPS, SamplingError, SnippetCorpus,
                                _context_forward, _head_forward, dtw_align,
                                direction_angle, imitation_loss_and_grad,
                                init_imitation_net, make_action, median_matches,
                                predict_action, sample_training_pair,
                                train_imitation_net)
from skymimic.nn import NumericError, TrainingError, sigmoid
from oracles import dtw_brute_force, grad_check, imitation_loss


def test_dtw_self_alignment():
    rng = np.random.default_rng(0)
    seq = rng.normal(size=(5, 3))
    path = dtw_align(seq, seq)
    assert path.cost == 0.0
    assert path.pairs == [(i, i) for i in range(5)]


def test_dtw_spec_example():
    path = dtw_align(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 2.0, 3.0]))
    assert path.cost == 0.0
    assert path.pairs == [(0, 0), (1, 1), (1, 2), (2, 3)]


def test_dtw_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.normal(size=(rng.integers(1, 7), 2))
        b = rng.normal(size=(rng.integers(1, 7), 2))
        pa = dtw_align(a, b)
        pb = dtw_align(b, a)
        assert abs(pa.cost - pb.cost) < 1e-12


def test_dtw_empty():
    with pytest.raises(ValueError):
        dtw_align(np.zeros((0, 2)), np.zeros((3, 2)))


def test_dtw_matches_brute_force():
    # the acceptance criterion runs 100 seeds; keep a fast slice here
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        a = rng.normal(size=(n, 2))
        b = rng.normal(size=(m, 2))
        fast = dtw_align(a, b)
        slow = dtw_brute_force(a, b)
        assert abs(fast.cost - slow.cost) < 1e-9
        assert fast.pairs == slow.pairs


def _table_dtw_align(seq_a, seq_b):
    """dtw_align as it was with a NumPy cost table: the reference the
    Python-float table must equal in path and cost bit for bit."""
    a = np.asarray(seq_a, float)
    b = np.asarray(seq_b, float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    n, m = a.shape[0], b.shape[0]
    dist = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    D = np.full((n + 1, m + 1), np.inf)
    D[0, 0] = 0.0
    for i in range(1, n + 1):
        D[i, 1:] = dist[i - 1]
        for j in range(1, m + 1):
            D[i, j] += min(D[i - 1, j - 1], D[i - 1, j], D[i, j - 1])
    pairs = []
    i, j = n - 1, m - 1
    while True:
        pairs.append((i, j))
        if i == 0 and j == 0:
            break
        cand = [(D[i, j], i - 1, j - 1), (D[i, j + 1], i - 1, j),
                (D[i + 1, j], i, j - 1)]
        mn = min(val for val, _, _ in cand)
        for val, pi, pj in cand:
            if val == mn:
                i, j = pi, pj
                break
    pairs.reverse()
    return pairs, float(D[n, m])


def test_dtw_align_bit_identical_to_numpy_table():
    rng = np.random.default_rng(8)
    cases = []
    for _ in range(30):   # random: embedding-like widths and lengths
        n, m = rng.integers(1, 45, size=2)
        d = int(rng.choice([1, 5, 96]))
        cases.append((rng.normal(size=(n, d)), rng.normal(size=(m, d))))
    for _ in range(60):   # small integers: many equal costs and ties
        n, m = rng.integers(1, 12, size=2)
        d = int(rng.integers(1, 3))
        cases.append((rng.integers(0, 3, size=(n, d)).astype(float),
                      rng.integers(0, 3, size=(m, d)).astype(float)))
    cases.append((np.zeros((7, 2)), np.zeros((4, 2))))   # all ties
    for a, b in cases:
        path = dtw_align(a, b)
        pairs, cost = _table_dtw_align(a, b)
        assert path.pairs == pairs
        assert path.cost == cost and type(path.cost) is float


def test_median_match_rule():
    path = dtw_align(np.array([0.0, 5.0]), np.array([0.0, 5.0, 5.0, 5.0]))
    assert sorted(j for i, j in path.pairs if i == 1) == [1, 2, 3]
    assert median_matches(path) == {0: 0, 1: 2}


def test_make_action_normalizes():
    a = make_action([0.1, 0, 0], [3.0, 0.0, 0.0], 1.7)
    assert abs(np.linalg.norm(a[3:6]) - 1.0) < 1e-12
    assert a[6] == 1.0


def test_predict_action_zero_params():
    p = init_imitation_net(8, 6, seed=0)
    for k in p:
        p[k] = np.zeros_like(p[k])
    prev = make_action([0, 0, 0], [0.0, 1.0, 0.0], 0.3)
    a = predict_action(np.zeros(8), np.zeros(6), prev, p)
    assert np.allclose(a[:3], 0.0)
    assert np.allclose(a[3:6], [0.0, 1.0, 0.0])  # direction fallback
    assert a[6] == 0.5


def test_predict_action_purity_and_validity():
    rng = np.random.default_rng(2)
    p = init_imitation_net(8, 6, seed=2)
    v, o = rng.normal(size=8), rng.normal(size=6)
    prev = make_action(rng.normal(size=3), rng.normal(size=3), 0.4)
    a1 = predict_action(v, o, prev, p)
    a2 = predict_action(v, o, prev, p)
    assert np.array_equal(a1, a2)
    assert abs(np.linalg.norm(a1[3:6]) - 1.0) < 1e-9
    assert 0.0 <= a1[6] <= 1.0


def _predict_action_by_concatenation(v, o, a, p):
    """predict_action with the action joined from its three blocks by
    np.concatenate and the direction's norm from np.linalg.norm."""
    ctx, _ = _context_forward(v, o, p)
    raw, _ = _head_forward(ctx, a, p)
    omega = a[:3] + raw[:3]
    d = raw[3:6]
    norm = np.linalg.norm(d)
    if norm < DIR_EPS:
        direction = a[3:6].copy()
    else:
        direction = d / norm
    scale = sigmoid(raw[6:7])[0]
    pred = np.concatenate([omega, direction, [scale]])
    if not np.all(np.isfinite(pred)):
        raise NumericError("non-finite output")
    return pred


def test_predict_action_bytes_match_concatenation():
    # random nets and inputs, and nets whose direction head is zero or
    # below DIR_EPS, which fall back to the current action's direction
    rng = np.random.default_rng(12)
    for trial in range(300):
        p = init_imitation_net(8, 6, seed=trial, hidden1=12, hidden2=10)
        if trial % 3:
            p["m2_W1"][:, 3:6] *= (0.0, 1e-12)[trial % 3 - 1]
            p["m2_b1"][3:6] = 0.0
        v, o = rng.normal(size=8), rng.normal(size=6)
        a = make_action(rng.normal(size=3), rng.normal(size=3),
                        rng.uniform())
        got = predict_action(v, o, a, p)
        assert got.tobytes() == \
            _predict_action_by_concatenation(v, o, a, p).tobytes()
        if trial % 3:
            assert got[3:6].tobytes() == a[3:6].tobytes()


def test_imitation_loss_values():
    a = np.zeros(7)
    b = np.zeros(7)
    assert imitation_loss(a, b, a, b) == 0.0
    e = np.zeros(7)
    e[0] = 1.0
    assert abs(imitation_loss(a + e, a, b, b) - 1.0) < 1e-12
    assert abs(imitation_loss(a + e, a, b + e, b) - 1.7) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_imitation_gradient(seed):
    rng = np.random.default_rng(300 + seed)
    p = init_imitation_net(4, 3, seed=seed, hidden1=6, hidden2=5)
    v, o = rng.normal(size=4), rng.normal(size=3)
    a_c = make_action(rng.normal(size=3), rng.normal(size=3), 0.3)
    a_s = make_action(rng.normal(size=3), rng.normal(size=3), 0.6)
    l_c = make_action(rng.normal(size=3), rng.normal(size=3), 0.5)
    l_s = make_action(rng.normal(size=3), rng.normal(size=3), 0.2)

    def loss(ps):
        return imitation_loss(predict_action(v, o, a_c, ps), l_c,
                              predict_action(v, o, a_s, ps), l_s)

    _, g = imitation_loss_and_grad(v, o, a_c, l_c, a_s, l_s, lam=0.7, p=p)
    assert grad_check(loss, p, g, eps=1e-5) <= 1e-4


def _toy_corpus(rng, n_videos=4, T=6, obs_dim=5):
    from skymimic.scene import STYLES
    styles, embs, acts, feats = [], [], [], []
    for style_i, style in enumerate(STYLES):
        for _ in range(n_videos):
            styles.append(style)
            base = rng.normal(size=(T, obs_dim)) * 0.1
            base[:, style_i % obs_dim] += np.linspace(0, 1, T)
            embs.append(base)
            a = np.zeros((T, 7))
            a[:, style_i % 3] = 0.1 * (style_i + 1)
            a[:, 3 + style_i % 3] = 1.0
            a[:, 6] = 0.2 + 0.1 * style_i
            acts.append(a)
            feats.append(np.eye(5)[style_i] * 1.0)
    return SnippetCorpus(styles, embs, acts, feats)


def test_sample_training_pair_properties():
    rng = np.random.default_rng(3)
    corpus = _toy_corpus(rng)
    pair = sample_training_pair(corpus, "follow", np.random.default_rng(5))
    assert corpus.styles[pair["content_video"]] == "follow"
    assert corpus.styles[pair["style_video"]] == "follow"
    assert pair["content_video"] != pair["style_video"]
    # determinism given the rng seed
    pair2 = sample_training_pair(corpus, "follow", np.random.default_rng(5))
    assert pair["t"] == pair2["t"] and pair["t_style"] == pair2["t_style"]


def test_sample_training_pair_self_alignment_diagonal():
    rng = np.random.default_rng(4)
    corpus = _toy_corpus(rng)
    emb = corpus.embeddings[0]
    path = dtw_align(emb, emb)
    assert median_matches(path) == {i: i for i in range(len(emb))}


def _rescan_sample(corpus, style, rng):
    """sample_training_pair as it was: align the drawn pair and rescan
    its path for every match, on every draw."""
    idxs = corpus.by_style(style)
    ci, si = rng.choice(idxs, size=2, replace=False)
    path = dtw_align(corpus.embeddings[ci], corpus.embeddings[si])
    t_max = corpus.embeddings[ci].shape[0] - 2
    s_max = corpus.embeddings[si].shape[0] - 2

    def median(i):
        js = sorted(b for a, b in path.pairs if a == i)
        return js[(len(js) - 1) // 2]

    usable = [i for i, _ in path.pairs
              if i <= t_max and median(i) <= s_max]
    t = int(usable[rng.integers(len(usable))])
    return ci, si, t, median(t)


def test_sample_training_pair_aligns_each_pair_once(monkeypatch):
    from skymimic import imitation
    from skymimic.scene import STYLES
    rng = np.random.default_rng(9)
    corpus = _toy_corpus(rng, n_videos=4)
    for i, T in enumerate([5, 9, 12, 7] * 5):   # unequal lengths
        corpus.embeddings[i] = rng.normal(size=(T, 5))
        corpus.actions[i] = np.tile(corpus.actions[i][:1], (T, 1))
    draws_ref, draws = np.random.default_rng(10), np.random.default_rng(10)
    want = []
    for k in range(300):
        style = STYLES[k % len(STYLES)]
        ci, si, t, t2 = _rescan_sample(corpus, style, draws_ref)
        want.append((ci, si, t, t2))
    aligned = []
    real = imitation.dtw_align
    monkeypatch.setattr(imitation, "dtw_align",
                        lambda a, b: aligned.append(1) or real(a, b))
    for k in range(300):
        pair = sample_training_pair(corpus, STYLES[k % len(STYLES)], draws)
        assert (pair["content_video"], pair["style_video"], pair["t"],
                pair["t_style"]) == want[k]
        t, t2 = pair["t"], pair["t_style"]
        ci, si = pair["content_video"], pair["style_video"]
        assert np.array_equal(pair["obs"], corpus.embeddings[ci][t])
        assert np.array_equal(pair["label_c"], corpus.actions[ci][t + 1])
        assert np.array_equal(pair["label_s"], corpus.actions[si][t2 + 1])
    # the same rng calls in the same order, and each ordered pair of
    # same-style videos aligned at most once
    assert draws.bit_generator.state == draws_ref.bit_generator.state
    assert len(aligned) == len(corpus._pairs) <= 5 * 4 * 3


def test_sample_training_pair_needs_two_videos():
    rng = np.random.default_rng(5)
    corpus = _toy_corpus(rng, n_videos=1)
    with pytest.raises(SamplingError):
        sample_training_pair(corpus, "follow", rng)


def test_training_without_a_usable_pair_raises():
    corpus = _toy_corpus(np.random.default_rng(5), n_videos=1)
    with pytest.raises(TrainingError, match="imitation net had no "
                                            "training example at epoch 0"):
        train_imitation_net(corpus, epochs=2, steps_per_epoch=10, seed=7,
                            lr=0.001, lam=0.7)


def test_training_reduces_loss_and_is_deterministic():
    rng = np.random.default_rng(6)
    corpus = _toy_corpus(rng, n_videos=3)
    p1, log1 = train_imitation_net(corpus, epochs=5, steps_per_epoch=40,
                                   seed=7, lr=0.001, lam=0.7)
    p2, log2 = train_imitation_net(corpus, epochs=5, steps_per_epoch=40,
                                   seed=7, lr=0.001, lam=0.7)
    assert log1 == log2
    for k in p1:
        assert np.array_equal(p1[k], p2[k])
    assert log1[-1]["train_loss"] < log1[0]["train_loss"]


def test_direction_angle():
    assert direction_angle(np.array([1.0, 0, 0]), np.array([1.0, 0, 0])) == 0
    assert abs(direction_angle(np.array([1.0, 0, 0]),
                               np.array([0.0, 1.0, 0])) - np.pi / 2) < 1e-12
