"""nn.fit, the one epoch loop, and the four trainers built on it.

The reference trainers below are the per-net loops that fit replaced,
kept verbatim in logic: each trainer must give the same parameters,
losses and accuracies to the bit.
"""

import weakref

import numpy as np
import pytest

from skymimic import features, imitation, stylenet
from skymimic.features import (_ae_backward, _ae_forward, autoencoder_init,
                               train_autoencoder)
from skymimic.imitation import (SamplingError, SnippetCorpus,
                                imitation_loss_and_grad, init_imitation_net,
                                sample_training_pair, train_imitation_net)
from skymimic.nn import (AdamaxState, ParamSet, TrainingError, adamax_update,
                         fit)
from skymimic.scene import STYLES
from skymimic.stylenet import (StyleNetConfig, accuracy, init_style_net,
                               style_loss_and_grad, train_segment_net,
                               train_style_net)

TINY = StyleNetConfig(hidden=6, attn_hidden=4, fg_dim=3, bg_dim=4)


# ---------------------------------------------------------------------------
# the per-net loops fit replaced

def _ref_autoencoder(batch_all, channel, epochs, seed, lr, batch_size):
    """batch_all is (n, WINDOW, D), gathered batch-major and each batch
    handed to _ae_forward as its (WINDOW, B, D) transpose."""
    p = autoencoder_init(channel, seed)
    state = AdamaxState(p, lr=lr)
    rng = np.random.default_rng(seed + 1)
    n = batch_all.shape[0]
    history = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        losses = []
        for ofs in range(0, n, batch_size):
            idx = order[ofs:ofs + batch_size]
            mse, _, cache = _ae_forward(batch_all[idx].transpose(1, 0, 2),
                                        p)
            grads = _ae_backward(p, cache)
            adamax_update(p, grads, state)
            losses.append(mse)
        history.append(float(np.mean(losses)))
    return p, history


def _ref_classifier(train, val, cfg, epochs, seed, lr, crop=None):
    p = init_style_net(cfg, seed)
    state = AdamaxState(p, lr=lr)
    rng = np.random.default_rng(seed + 1)
    best_acc, best_p = -1.0, p.copy()
    log = []
    for epoch in range(epochs):
        order = rng.permutation(len(train))
        losses = []
        for i in order:
            seq, label = train[i]
            if crop is not None:
                crop_prob, min_crop = crop
                t = seq.shape[0]
                if rng.random() < crop_prob and t > min_crop:
                    w = int(rng.integers(min_crop, t + 1))
                    lo = int(rng.integers(t - w + 1))
                    seq = seq[lo:lo + w]
            loss, grads = style_loss_and_grad(seq, label, p, cfg)
            adamax_update(p, grads, state)
            losses.append(loss)
        acc = accuracy(val, p, cfg)
        log.append({"epoch": epoch, "train_loss": float(np.mean(losses)),
                    "val_accuracy": acc})
        if acc > best_acc:
            best_acc, best_p = acc, p.copy()
    return best_p, log


def _ref_imitation(corpus, epochs, steps_per_epoch, seed, lr, lam, dual):
    p = init_imitation_net(corpus.style_features[0].shape[0],
                           corpus.embeddings[0].shape[1], seed)
    state = AdamaxState(p, lr=lr)
    rng = np.random.default_rng(seed + 1)
    log = []
    for epoch in range(epochs):
        losses = []
        for _ in range(steps_per_epoch):
            style = STYLES[int(rng.integers(len(STYLES)))]
            try:
                pair = sample_training_pair(corpus, style, rng)
            except SamplingError:
                continue
            if dual:
                loss, grads = imitation_loss_and_grad(
                    pair["style_feature"], pair["obs"], pair["action_c"],
                    pair["label_c"], pair["action_s"], pair["label_s"],
                    lam=lam, p=p)
            else:
                loss, grads = imitation_loss_and_grad(
                    pair["style_feature"], pair["obs"], pair["action_c"],
                    pair["label_c"], p=p)
            adamax_update(p, grads, state)
            losses.append(loss)
        log.append(float(np.mean(losses)))
    return p, log


# ---------------------------------------------------------------------------
# toy data

def _style_data(rng, n_per_class, T=8):
    data = []
    for label in range(5):
        for _ in range(n_per_class):
            seq = rng.normal(0, 0.3, size=(T, 7))
            seq[:, label] += 1.0
            data.append((seq, label))
    return data


def _imitation_corpus(rng, n_videos=3, T=6, obs_dim=5):
    """Two styles without a usable pair (one video), so some steps are
    skipped, and three with several."""
    styles, embs, acts, feats = [], [], [], []
    for style_i, style in enumerate(STYLES):
        for _ in range(1 if style_i < 2 else n_videos):
            styles.append(style)
            emb = rng.normal(size=(T, obs_dim)) * 0.1
            emb[:, style_i % obs_dim] += np.linspace(0, 1, T)
            embs.append(emb)
            a = np.zeros((T, 7))
            a[:, style_i % 3] = 0.1 * (style_i + 1)
            a[:, 3 + style_i % 3] = 1.0
            a[:, 6] = 0.2 + 0.1 * style_i
            acts.append(a)
            feats.append(np.eye(5)[style_i])
    return SnippetCorpus(styles, embs, acts, feats)


def _assert_same_params(p, q):
    assert list(p) == list(q)
    for k in p:
        assert np.array_equal(p[k], q[k]), k


# ---------------------------------------------------------------------------
# bit-equality with the replaced loops

@pytest.mark.parametrize("channel,dim", [("fg", 5), ("bg", 128)])
def test_autoencoder_matches_reference(channel, dim):
    batch = np.random.default_rng(1).normal(size=(13, 8, dim))
    p, log = train_autoencoder(batch, channel, epochs=3, seed=4, lr=0.01,
                               batch_size=5)
    ref_p, ref_losses = _ref_autoencoder(batch, channel, 3, 4, 0.01, 5)
    _assert_same_params(p, ref_p)
    assert np.array_equal([e["train_loss"] for e in log], ref_losses)
    assert [e["epoch"] for e in log] == [0, 1, 2]


def test_style_net_matches_reference():
    rng = np.random.default_rng(2)
    train, val = _style_data(rng, 4), _style_data(rng, 2)
    p, log = train_style_net(train, val, TINY, epochs=4, seed=3, lr=0.01)
    ref_p, ref_log = _ref_classifier(train, val, TINY, 4, 3, 0.01)
    _assert_same_params(p, ref_p)
    assert log == ref_log


def test_segment_net_matches_reference():
    rng = np.random.default_rng(3)
    train, val = _style_data(rng, 4), _style_data(rng, 2)
    # min_crop 3 is below the toy length 8, so crops are drawn and taken
    p, log = train_segment_net(train, val, TINY, epochs=4, seed=5, lr=0.01,
                               crop_prob=0.7, min_crop=3)
    ref_p, ref_log = _ref_classifier(train, val, TINY, 4, 5, 0.01,
                                     crop=(0.7, 3))
    _assert_same_params(p, ref_p)
    assert log == ref_log
    # the crop changes training: the uncropped net differs
    plain, _ = train_style_net(train, val, TINY, epochs=4, seed=5, lr=0.01)
    assert not all(np.array_equal(p[k], plain[k]) for k in p)


@pytest.mark.parametrize("dual", [True, False])
def test_imitation_net_matches_reference(dual):
    corpus = _imitation_corpus(np.random.default_rng(4))
    p, log = train_imitation_net(corpus, epochs=3, steps_per_epoch=12,
                                 seed=6, lr=0.01, lam=0.7, dual=dual)
    ref_p, ref_losses = _ref_imitation(corpus, 3, 12, 6, 0.01, 0.7, dual)
    _assert_same_params(p, ref_p)
    assert np.array_equal([e["train_loss"] for e in log], ref_losses)


# ---------------------------------------------------------------------------
# divergence: each trainer raises, naming its net, before any update

def _count_updates(monkeypatch, module):
    calls = []
    real = module.adamax_update
    monkeypatch.setattr(module, "adamax_update",
                        lambda *a: calls.append(1) or real(*a))
    return calls


def _nan_loss(real):
    def wrapped(*args, **kwargs):
        out = real(*args, **kwargs)
        return (float("nan"),) + tuple(out[1:])
    return wrapped


def test_autoencoder_divergence_raises(monkeypatch):
    calls = _count_updates(monkeypatch, features)
    monkeypatch.setattr(features, "_ae_forward",
                        _nan_loss(features._ae_forward))
    batch = np.random.default_rng(0).normal(size=(4, 8, 5))
    with pytest.raises(TrainingError,
                       match=r"^autoencoder \(fg\) diverged at epoch 0$"):
        train_autoencoder(batch, "fg", epochs=2)
    assert calls == []


@pytest.mark.parametrize("trainer,what", [(train_style_net, "style net"),
                                          (train_segment_net,
                                           "segment net")])
def test_classifier_divergence_raises(monkeypatch, trainer, what):
    calls = _count_updates(monkeypatch, stylenet)
    monkeypatch.setattr(stylenet, "style_loss_and_grad",
                        _nan_loss(stylenet.style_loss_and_grad))
    data = _style_data(np.random.default_rng(0), 1)
    with pytest.raises(TrainingError, match=f"^{what} diverged at epoch 0$"):
        trainer(data, data, TINY, epochs=2)
    assert calls == []


def test_imitation_divergence_raises(monkeypatch):
    calls = _count_updates(monkeypatch, imitation)
    monkeypatch.setattr(imitation, "imitation_loss_and_grad",
                        _nan_loss(imitation.imitation_loss_and_grad))
    corpus = _imitation_corpus(np.random.default_rng(0))
    with pytest.raises(TrainingError,
                       match="^imitation net diverged at epoch 0$"):
        train_imitation_net(corpus, epochs=2, steps_per_epoch=5)
    assert calls == []


def test_divergence_in_a_later_epoch_names_it():
    p = ParamSet({"w": np.zeros(1)})
    losses = iter([1.0, 2.0, np.inf])
    with pytest.raises(TrainingError, match="^toy diverged at epoch 1$"):
        fit(p, lambda: iter([None, None]), lambda _: (next(losses), None),
            lambda _: None, 3, "toy")


# ---------------------------------------------------------------------------
# fit itself

def _counting_net(accuracies):
    """A one-weight net whose update adds 1 and whose validation reads
    the given accuracies in turn."""
    p = ParamSet({"w": np.zeros(1)})

    def update(_):
        p["w"] += 1.0

    acc = iter(accuracies)
    return p, update, lambda q: next(acc)


def test_fit_keeps_the_first_best_epoch():
    p, update, validate = _counting_net([0.5, 0.8, 0.8, 0.7])
    best, log = fit(p, lambda: iter([0]), lambda _: (1.0, None), update, 4,
                    "toy", validate=validate)
    assert best is not p
    assert best["w"][0] == 2.0  # after epoch 1, not the tied epoch 2
    assert p["w"][0] == 4.0
    assert [e["val_accuracy"] for e in log] == [0.5, 0.8, 0.8, 0.7]


def test_fit_log_without_validation():
    p, update, _ = _counting_net([])
    losses = iter([1.0, 3.0, 0.5])
    out, log = fit(p, lambda: iter([0, 0]) if p["w"][0] < 2 else iter([0]),
                   lambda _: (next(losses), None), update, 2, "toy")
    assert out is p
    assert log == [{"epoch": 0, "train_loss": 2.0},
                   {"epoch": 1, "train_loss": 0.5}]


def test_fit_empty_epoch_raises():
    p, update, _ = _counting_net([])
    with pytest.raises(TrainingError,
                       match="^toy had no training example at epoch 0$"):
        fit(p, lambda: iter([]), lambda _: (1.0, None), update, 1, "toy")


def test_fit_holds_no_step_when_the_next_example_is_drawn():
    # a step's example and the cache its loss_and_grad gave are freed
    # once update returns, before the examples iterator makes the next
    class Box:
        pass

    refs, alive = [], []

    def tracked():
        box = Box()
        refs.append(weakref.ref(box))
        return box

    def examples():
        for _ in range(3):
            alive.append(sum(r() is not None for r in refs))
            yield tracked()

    p, update, _ = _counting_net([])
    fit(p, examples, lambda ex: (1.0, tracked()), update, 2, "toy")
    assert len(refs) == 12   # an example and a cache per step
    assert alive == [0] * 6
