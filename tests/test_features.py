import numpy as np
import pytest

from skymimic.features import (WINDOW, ChannelError, EncoderStream,
                               Snippet, TooShortError, autoencoder_init,
                               embed_batch, embed_snippet, embed_video,
                               train_autoencoder, window, window_starts,
                               _ae_backward, _ae_forward)
from skymimic.nn import DimensionError, ParamSet, grad_check


def test_window_counts():
    assert window_starts(40) == [0, 4, 8, 12, 16, 20, 24, 28, 32]
    assert window_starts(8) == [0]
    with pytest.raises(TooShortError):
        window_starts(7)


def test_window_count_formula():
    for length in range(8, 100):
        starts = window_starts(length)
        assert len(starts) == (length - 8) // 4 + 1
        assert starts[-1] <= length - 8


def test_window_slices():
    fg = np.arange(12 * 5, dtype=float).reshape(12, 5)
    bg = np.zeros((12, 128))
    sns = window(fg, bg, "vid")
    assert len(sns) == 2
    assert np.allclose(sns[1].fg, fg[4:12])
    assert sns[1].start == 4 and sns[1].video_id == "vid"


def test_autoencoder_gradients():
    rng = np.random.default_rng(8)
    p = autoencoder_init("fg", seed=8)
    batch = rng.normal(size=(2, 4, 5))

    def loss(ps):
        return _ae_forward(batch, ps)[0]

    g = _ae_backward(p, _ae_forward(batch, p)[2])
    assert grad_check(loss, p, g, eps=1e-5) <= 1e-6


def test_autoencoder_memorizes_single_snippet():
    rng = np.random.default_rng(3)
    sn = rng.uniform(-0.5, 0.5, size=(1, 8, 5))
    p, hist = train_autoencoder(sn, "fg", epochs=1500, seed=5, lr=0.01)
    assert hist[-1]["train_loss"] <= 1e-5


def test_autoencoder_constant_sequences():
    rng = np.random.default_rng(4)
    vals = rng.uniform(-0.5, 0.5, size=(20, 1, 5))
    sns = np.repeat(vals, 8, axis=1)
    p, hist = train_autoencoder(sns, "fg", epochs=400, seed=6, lr=0.01)
    assert hist[-1]["train_loss"] <= 1e-3
    assert hist[-1]["train_loss"] <= 0.2 * hist[0]["train_loss"]


def test_autoencoder_determinism():
    rng = np.random.default_rng(5)
    sns = rng.normal(size=(6, 8, 5))
    p1, h1 = train_autoencoder(sns, "fg", epochs=5, seed=9)
    p2, h2 = train_autoencoder(sns, "fg", epochs=5, seed=9)
    assert h1 == h2
    for k in p1:
        assert np.array_equal(p1[k], p2[k])


def test_channel_guards():
    with pytest.raises(ChannelError):
        autoencoder_init("sideways", 0)
    rng = np.random.default_rng(0)
    with pytest.raises(ChannelError):
        train_autoencoder(rng.normal(size=(2, 8, 7)), "fg", epochs=1)
    fgp = autoencoder_init("fg", 0)
    bgp = autoencoder_init("bg", 0)
    sn = Snippet(0, "v", rng.normal(size=(8, 5)), rng.normal(size=(8, 128)))
    with pytest.raises(ChannelError):
        embed_snippet(sn, bgp, fgp)


def test_embedding_purity_and_channel_separation():
    rng = np.random.default_rng(6)
    fgp = autoencoder_init("fg", 1)
    bgp = autoencoder_init("bg", 2)
    fg = rng.normal(size=(8, 5))
    bg1 = rng.normal(size=(8, 128))
    bg2 = rng.normal(size=(8, 128))
    a = embed_snippet(Snippet(0, "v", fg, bg1), fgp, bgp)
    b = embed_snippet(Snippet(0, "v", fg, bg1), fgp, bgp)
    c = embed_snippet(Snippet(0, "v", fg, bg2), fgp, bgp)
    assert np.array_equal(a, b)
    assert np.array_equal(a[:32], c[:32])
    assert not np.array_equal(a[32:], c[32:])


def test_embeddings_bounded():
    rng = np.random.default_rng(7)
    p = autoencoder_init("bg", 3)
    emb = embed_batch(rng.normal(scale=10, size=(50, 8, 128)), p)
    assert np.all(np.abs(emb) < 1.0)
    assert np.all(np.isfinite(emb))


def test_embed_video_shape():
    rng = np.random.default_rng(8)
    fgp = autoencoder_init("fg", 1)
    bgp = autoencoder_init("bg", 2)
    emb = embed_video(rng.normal(size=(20, 5)), rng.normal(size=(20, 128)),
                      fgp, bgp)
    assert emb.shape == (4, 96)


@pytest.mark.parametrize("channel", ["fg", "bg"])
def test_stream_windows_bit_identical_to_embed_batch(channel):
    # rows stored and projected one at a time, as the closed loop does;
    # each window's embedding must equal the one computed from its rows
    p = autoencoder_init(channel, 3)
    d = p["enc_Wx"].shape[0]
    rng = np.random.default_rng(4)
    n = 30
    rows = rng.normal(scale=0.5, size=(n, d))
    stream = EncoderStream(p, n)
    checked = []
    for t in range(n):
        stream.put(t, rows[t])
        if t >= WINDOW - 1 and t in (WINDOW - 1, 17, n - 1):
            w, pre = stream.window(t)
            want = embed_batch(np.stack(list(rows[t - WINDOW + 1:t + 1]))
                               [None], p)
            assert np.array_equal(embed_batch(w, p, pre), want)
            checked.append(t)
    assert checked == [WINDOW - 1, 17, n - 1]
    # a window whose last row repeats the one before, as the closed
    # loop's bg window does: the repeat reuses that row's projection
    for t in (WINDOW - 1, 17):
        stream.repeat(t)
        window_rows = list(rows[t - WINDOW + 1:t]) + [rows[t - 1]]
        w, pre = stream.window(t)
        assert np.array_equal(stream.rows[t], rows[t - 1])
        assert np.array_equal(embed_batch(w, p, pre),
                              embed_batch(np.stack(window_rows)[None], p))


def test_stream_window_needs_full_window():
    stream = EncoderStream(autoencoder_init("fg", 0), 10)
    with pytest.raises(TooShortError):
        stream.window(WINDOW - 2)


def test_embed_batch_rejects_misshapen_pre_activations():
    p = autoencoder_init("fg", 0)
    batch = np.zeros((1, WINDOW, 5))
    with pytest.raises(DimensionError):
        embed_batch(batch, p, np.zeros((WINDOW, 1, 4 * 32 + 1)))
    with pytest.raises(DimensionError):
        embed_batch(batch, p, np.zeros((WINDOW - 1, 1, 4 * 32)))
