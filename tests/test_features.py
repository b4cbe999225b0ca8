import tracemalloc

import numpy as np
import pytest

from skymimic import features
from skymimic.features import (STRIDE, WINDOW, ChannelError, EncoderStream,
                               TooShortError, autoencoder_init, embed_batch,
                               embed_video, snippet_ends, snippet_stack,
                               train_autoencoder, _ae_backward, _ae_forward)
from skymimic.nn import NumericError
from oracles import grad_check, snippet_windows_reference


def test_window_counts():
    assert snippet_ends(40).tolist() == [8, 12, 16, 20, 24, 28, 32, 36, 40]
    assert snippet_ends(8).tolist() == [8]
    with pytest.raises(TooShortError):
        snippet_ends(7)


def test_window_count_formula():
    # the grid against a start-by-start loop, for every length that
    # fits fewer than ten windows, and one too short
    rng = np.random.default_rng(21)
    for length in range(7, 41):
        table = rng.normal(size=(length, 3))
        if length < WINDOW:
            with pytest.raises(TooShortError):
                snippet_ends(length)
            with pytest.raises(TooShortError):
                snippet_stack(table)
            continue
        starts, windows = snippet_windows_reference(table)
        ends = snippet_ends(length)
        assert ends.tolist() == [s + WINDOW for s in starts]
        assert ends.size == (length - WINDOW) // STRIDE + 1
        stack = snippet_stack(table)
        assert stack.flags.c_contiguous
        assert stack.shape == windows.shape
        assert np.array_equal(stack, windows)


def test_window_slices():
    fg = np.arange(12 * 5, dtype=float).reshape(12, 5)
    stack = snippet_stack(fg)
    assert stack.shape == (WINDOW, 2, 5)
    assert np.array_equal(stack[:, 1], fg[4:12])
    # a copy, not a view of the table
    stack[0, 0, 0] = -1.0
    assert fg[0, 0] == 0.0


def _recorded_batches(monkeypatch, batch_size):
    """Copies of the batches train_autoencoder's forward is given. A
    full batch is C-contiguous, so the encoder's dWx GEMM reads it as a
    view; a tail batch is the head of one on axis 1."""
    seen, real = [], features._ae_forward

    def record(batch, p, **kw):
        seen.append(batch.copy())
        assert batch.flags.c_contiguous or batch.shape[1] < batch_size
        return real(batch, p, **kw)

    monkeypatch.setattr(features, "_ae_forward", record)
    return seen


def test_autoencoder_batches_are_the_tables_windows_in_order(monkeypatch):
    # window j is the j-th snippet of the tables' grids in order; an
    # epoch's batches are the windows its permutation picks, the full
    # batches first and the tail last
    rng = np.random.default_rng(22)
    tables = [rng.normal(size=(n, 5)) for n in (8, 13, 30, 11)]
    windows = np.concatenate([snippet_windows_reference(t)[1]
                              for t in tables], axis=1)
    seen = _recorded_batches(monkeypatch, 3)
    train_autoencoder(tables, "fg", epochs=3, seed=4, batch_size=3)
    order_rng = np.random.default_rng(5)
    want = []
    for _ in range(3):
        order = order_rng.permutation(windows.shape[1])
        want += [windows[:, order[a:a + 3]]
                 for a in range(0, len(order), 3)]
    assert len(seen) == len(want) == 3 * 4
    for got, w in zip(seen, want):
        assert got.shape == w.shape and np.array_equal(got, w)


def test_autoencoder_window_stack_is_one_window_tables():
    # a (B, WINDOW, D) array, such as a window stack's transpose, trains
    # as B tables of one window each
    rng = np.random.default_rng(23)
    tables = [rng.normal(size=(n, 5)) for n in (8, 13, 30, 11)]
    stack = np.concatenate([snippet_stack(t) for t in tables], axis=1)
    p, log = train_autoencoder(tables, "fg", epochs=2, seed=4, batch_size=4)
    q, log_q = train_autoencoder(stack.transpose(1, 0, 2), "fg", epochs=2,
                                 seed=4, batch_size=4)
    assert log == log_q
    assert np.array_equal(p.flat, q.flat)


def test_autoencoder_epoch_memory_guard():
    # one bg epoch over 50 tables of 54 rows (600 windows, batch 64)
    # peaks at 9.35 MiB (tracemalloc) with the windows gathered from the
    # tables and every step's arrays reused. Stacking the 600 windows
    # (4.7 MiB) and training on the stack with fresh arrays per step, as
    # before, peaked at 12.2 MiB beside the stack, 16.9 MiB in all
    rng = np.random.default_rng(0)
    tables = [rng.normal(size=(54, 128)) for _ in range(50)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        train_autoencoder(tables, "bg", epochs=1, seed=3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 9.35 * 2**20


def test_autoencoder_tail_batch_is_the_head_of_the_full_batch(monkeypatch):
    # 10 windows in batches of 4: the tail batch of 2 steps through
    # views of the full batch's arrays, and every full batch through
    # the same arrays
    rng = np.random.default_rng(24)
    tables = [rng.normal(size=(n, 5)) for n in (8, 13, 30, 11)]
    steps, real = [], features._ae_forward

    def record(batch, p, step=None):
        steps.append(step)
        return real(batch, p, step=step)

    monkeypatch.setattr(features, "_ae_forward", record)
    train_autoencoder(tables, "fg", epochs=2, seed=4, batch_size=4)
    assert [s.batch.shape[1] for s in steps] == [4, 4, 2] * 2
    full, tail = steps[0], steps[2]
    arrays = [lambda s: s.batch, lambda s: s.err, lambda s: s.dz,
              lambda s: s.flat] + [
        lambda s, c=c, k=k: getattr(s, c)[k]
        for c in ("enc", "dec") for k in range(1, 5)]
    for a in arrays:
        assert np.shares_memory(a(tail), a(full))
        for s in steps:
            assert np.shares_memory(a(s), a(full))
    assert tail.flat.flags.c_contiguous


def test_autoencoder_gradients():
    rng = np.random.default_rng(8)
    p = autoencoder_init("fg", seed=8)
    batch = rng.normal(size=(4, 2, 5))

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
    with pytest.raises(ChannelError):
        embed_video(rng.normal(size=(8, 5)), rng.normal(size=(8, 128)),
                    bgp, fgp)


def test_embedding_purity_and_channel_separation():
    rng = np.random.default_rng(6)
    fgp = autoencoder_init("fg", 1)
    bgp = autoencoder_init("bg", 2)
    fg = rng.normal(size=(8, 5))
    bg1 = rng.normal(size=(8, 128))
    bg2 = rng.normal(size=(8, 128))
    a = embed_video(fg, bg1, fgp, bgp)
    b = embed_video(fg, bg1, fgp, bgp)
    c = embed_video(fg, bg2, fgp, bgp)
    assert a.shape == (1, 96)
    assert np.array_equal(a, b)
    assert np.array_equal(a[:, :32], c[:, :32])
    assert not np.array_equal(a[:, 32:], c[:, 32:])


def test_embeddings_bounded():
    rng = np.random.default_rng(7)
    p = autoencoder_init("bg", 3)
    emb = embed_batch(rng.normal(scale=10, size=(8, 50, 128)), p)
    assert np.all(np.abs(emb) < 1.0)
    assert np.all(np.isfinite(emb))


def test_embed_video_shape():
    rng = np.random.default_rng(8)
    fgp = autoencoder_init("fg", 1)
    bgp = autoencoder_init("bg", 2)
    emb = embed_video(rng.normal(size=(20, 5)), rng.normal(size=(20, 128)),
                      fgp, bgp)
    assert emb.shape == (4, 96)


def _stream(channel, n, seed):
    p = autoencoder_init(channel, seed)
    rows = np.random.default_rng(seed + 1).normal(
        scale=0.5, size=(n, p["enc_Wx"].shape[0]))
    return p, rows, EncoderStream(p, n)


def _raw_embedding(window_rows, p):
    return embed_batch(np.stack(list(window_rows))[:, None], p)[0]


@pytest.mark.parametrize("channel", ["fg", "bg"])
def test_stream_windows_bit_identical_to_embed_batch(channel):
    # rows stored one at a time, some of them repeats of the row before
    # as the closed loop's fg rows are while the subject is lost; the
    # calls start at the first full window and skip some rows, and each
    # embedding must equal the one computed from the window's rows
    n = 30
    p, rows, stream = _stream(channel, n, 3)
    repeats, embedded = {9, 10, 16, 28}, {7, 8, 11, 14, 15, 16, 22, 29}
    stored = rows.copy()
    checked = []
    for t in range(n):
        if t in repeats:
            stream.repeat(t)
            stored[t] = stored[t - 1]
        else:
            stream.put(t, rows[t])
        assert np.array_equal(stream.rows[t], stored[t])
        if t in embedded:
            got = stream.embed(t)
            assert got.shape == (p["enc_Wh"].shape[0],)
            assert np.array_equal(got, _raw_embedding(
                stored[t - WINDOW + 1:t + 1], p))
            assert np.array_equal(stream.embed(t), got)   # asked again
            checked.append(t)
    assert checked == sorted(embedded)


@pytest.mark.parametrize("channel", ["fg", "bg"])
def test_stream_embed_of_a_provisional_last_row(channel):
    # the closed loop's bg pattern: at step t, row t-1 gets its field and
    # row t repeats it until the next step overwrites it; each window
    # embeds the provisional row, and the runs read the final one
    n = 24
    p, rows, stream = _stream(channel, n, 5)
    for t in range(1, n):
        stream.put(t - 1, rows[t - 1])
        stream.repeat(t)
        if t >= WINDOW - 1:
            window_rows = list(rows[t - WINDOW + 1:t]) + [rows[t - 1]]
            assert np.array_equal(stream.embed(t),
                                  _raw_embedding(window_rows, p)), t


def test_stream_window_needs_full_window():
    stream = EncoderStream(autoencoder_init("fg", 0), 10)
    with pytest.raises(TooShortError):
        stream.embed(WINDOW - 2)


def test_stream_refuses_consumed_rows():
    p, rows, stream = _stream("fg", 20, 7)
    for t in range(12):
        stream.put(t, rows[t])
    stream.embed(10)   # the runs have read rows 0-9, not row 10
    for stale in (lambda: stream.put(9, rows[9]), lambda: stream.repeat(9),
                  lambda: stream.embed(9)):
        with pytest.raises(ValueError, match="consumed"):
            stale()
    stream.put(10, rows[10])
    stream.repeat(11)
    assert np.array_equal(stream.embed(11),
                          _raw_embedding(list(rows[4:11]) + [rows[10]], p))


@pytest.mark.parametrize("channel", ["fg", "bg"])
def test_stream_embed_rejects_non_finite_embeddings(channel):
    p, rows, stream = _stream(channel, 12, 9)
    for t in range(12):
        stream.put(t, rows[t])
    stream.embed(WINDOW - 1)
    stream.put(WINDOW, np.full(rows.shape[1], np.nan))
    with pytest.raises(NumericError):
        stream.embed(WINDOW)
    with pytest.raises(NumericError):
        embed_batch(stream.rows[1:WINDOW + 1, None], p)
