import numpy as np
import pytest

from skymimic.dataset import build_video
from skymimic.features import autoencoder_init
from skymimic.geometry import Intrinsics
from skymimic.imitation import init_imitation_net
from skymimic.pipeline import (DependencyError, ModelBundle,
                               demo_conditioning, snippet_action_labels)
from skymimic.stylenet import VARIANTS, init_style_net


def _fresh_bundle(seed=7, with_imitation=False):
    cfg = VARIANTS["fg+bg+att"]
    imitation = init_imitation_net(128, 96, seed + 3) if with_imitation \
        else None
    return ModelBundle(autoencoder_init("fg", seed),
                       autoencoder_init("bg", seed + 1),
                       init_style_net(cfg, seed + 2), cfg, imitation)


def test_bundle_save_load_roundtrip(tmp_path):
    bundle = _fresh_bundle(with_imitation=True)
    bundle.save(tmp_path)
    loaded = ModelBundle.load(tmp_path, need_imitation=True)
    rec = build_video("v0", "fly-by", "train", 11, Intrinsics())
    emb = bundle.embed(rec.fg, rec.bg)
    assert np.array_equal(emb, loaded.embed(rec.fg, rec.bg))
    v0, p0, _ = bundle.style_feature(rec.fg, rec.bg)
    v1, p1, _ = loaded.style_feature(rec.fg, rec.bg)
    assert np.array_equal(v0, v1) and np.array_equal(p0, p1)
    assert loaded.style_cfg.hidden == bundle.style_cfg.hidden


def test_bundle_load_missing_artifact(tmp_path):
    bundle = _fresh_bundle()
    bundle.save(tmp_path)
    (tmp_path / "style_net.bin").unlink()
    with pytest.raises(DependencyError):
        ModelBundle.load(tmp_path)


def test_bundle_load_missing_imitation(tmp_path):
    bundle = _fresh_bundle(with_imitation=False)
    bundle.save(tmp_path)
    loaded = ModelBundle.load(tmp_path)
    assert loaded.imitation_params is None
    with pytest.raises(DependencyError):
        ModelBundle.load(tmp_path, need_imitation=True)


def test_classify_returns_index():
    bundle = _fresh_bundle()
    rec = build_video("v1", "orbiting", "train", 12, Intrinsics())
    idx = bundle.classify(rec)
    assert 0 <= idx < 5


def test_snippet_action_labels_shape():
    rec = build_video("v2", "follow", "train", 13, Intrinsics())
    labels = snippet_action_labels(rec)
    emb_rows = (rec.n_frames - 8) // 4 + 1
    assert labels.shape == (emb_rows, 7)
    assert np.array_equal(labels[0], rec.actions[7])


def test_demo_conditioning_elapsed_fraction():
    # 8 demo actions over 5 steps: fractions 0, 1/4, ... land on indices
    # 0, 1.75, 3.5, 5.25, 7 and round to the nearest
    demo = np.arange(8.0)[:, None] * np.ones(7)
    picks = [demo_conditioning(demo, s, 5)[0] for s in range(5)]
    assert picks == [0.0, 2.0, 4.0, 5.0, 7.0]
    assert demo_conditioning(demo, 0, 1)[0] == 0.0
