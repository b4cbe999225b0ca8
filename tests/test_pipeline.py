from dataclasses import asdict

import numpy as np
import pytest

from skymimic.dataset import build_video
from skymimic.features import autoencoder_init
from skymimic.geometry import Intrinsics
from skymimic.imitation import init_imitation_net
from skymimic.nn import ParamSet
from skymimic.pipeline import (DependencyError, ModelBundle,
                               demo_conditioning, snippet_action_labels)
from skymimic.stylenet import VARIANTS, StyleNetConfig, init_style_net


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


def test_bundle_restores_a_non_default_style_config(tmp_path):
    cfg = StyleNetConfig(use_fg=False, use_attention=False, hidden=12,
                         attn_hidden=5, lambda_fg=0.25, lambda_bg=0.03)
    bundle = ModelBundle(autoencoder_init("fg", 1), autoencoder_init("bg", 2),
                         init_style_net(cfg, 3), cfg,
                         segment_params=init_style_net(cfg, 4))
    metas = [dict(bundle.style_params.meta),
             dict(bundle.segment_params.meta)]
    bundle.save(tmp_path)
    # save writes the config into the files, not into the caller's sets
    assert [bundle.style_params.meta, bundle.segment_params.meta] == metas
    loaded = ModelBundle.load(tmp_path)
    assert loaded.style_cfg == cfg
    for got, want in ((loaded.style_params, bundle.style_params),
                      (loaded.segment_params, bundle.segment_params)):
        assert got.layout == want.layout
        assert np.array_equal(got.flat, want.flat)


@pytest.mark.parametrize("net,config", [
    ("style_net", {"hidden": 32}),            # layout does not match
    ("style_net", {"use_fg": False}),
    ("style_net", {"bogus": 1}),              # not a config field
    ("style_net", {"use_fg": False, "use_bg": False}),   # no branch
    ("segment_net", {"hidden": 32}),
    ("segment_net", {"lambda_fg": 0.5}),      # differs from the style net
])
def test_bundle_load_rejects_a_config_that_does_not_fit(tmp_path, net,
                                                        config):
    cfg = VARIANTS["fg+bg+att"]
    ModelBundle(autoencoder_init("fg", 7), autoencoder_init("bg", 8),
                init_style_net(cfg, 9), cfg,
                segment_params=init_style_net(cfg, 10)).save(tmp_path)
    path = tmp_path / f"{net}.bin"
    p = ParamSet.load(path)
    p.meta["config"].update(config)
    p.save(path)
    with pytest.raises(OSError):
        ModelBundle.load(tmp_path)


def test_bundle_load_rejects_a_style_net_without_config(tmp_path):
    bundle = _fresh_bundle()
    bundle.save(tmp_path)
    # init_style_net writes the config; a net saved without one
    p = bundle.style_params.copy()
    del p.meta["config"]
    p.save(tmp_path / "style_net.bin")
    with pytest.raises(OSError, match="builds no net"):
        ModelBundle.load(tmp_path)


@pytest.mark.parametrize("name", list(VARIANTS))
def test_init_style_net_stores_its_config(name):
    cfg = VARIANTS[name]
    assert init_style_net(cfg, 0).meta == {"kind": "style-net",
                                           "config": asdict(cfg)}


def test_bundle_load_rejects_swapped_encoders(tmp_path):
    _fresh_bundle().save(tmp_path)
    fg, bg = tmp_path / "fg_encoder.bin", tmp_path / "bg_encoder.bin"
    blob = fg.read_bytes()
    fg.write_bytes(bg.read_bytes())
    bg.write_bytes(blob)
    with pytest.raises(OSError, match="does not match"):
        ModelBundle.load(tmp_path)


def test_bundle_load_rejects_an_imitation_net_of_another_size(tmp_path):
    # the style net's feature is 128 wide
    bundle = _fresh_bundle()
    bundle.imitation_params = init_imitation_net(64, 96, 0)
    bundle.save(tmp_path)
    with pytest.raises(OSError, match="does not match"):
        ModelBundle.load(tmp_path)


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
    idx = bundle.classify_features(rec.fg, rec.bg)
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


def test_imitation_stages_share_one_corpus(monkeypatch):
    """The dual and baseline stages on one bundle build the train
    corpus once; replacing an encoder, the style net or the records
    rebuilds it; the trained nets equal those from fresh bundles."""
    import dataclasses
    import gc
    import weakref

    from skymimic import training
    from skymimic.config import ExperimentConfig

    records = [build_video(f"{style}_{k}", style, "train", 40 + 3 * i + k,
                           Intrinsics(), duration_range=(8.0, 9.0))
               for i, style in enumerate(("fly-by", "orbiting"))
               for k in range(3)]
    records.append(build_video("held", "fly-by", "test", 60, Intrinsics(),
                               duration_range=(8.0, 8.0)))
    cfg = ExperimentConfig(imitation_epochs=2, imitation_steps=15)
    built = []
    real = training.build_snippet_corpus
    monkeypatch.setattr(training, "build_snippet_corpus",
                        lambda recs, b: built.append(len(recs))
                        or real(recs, b))

    bundle = _fresh_bundle()
    shared = {dual: training.train_imitation_stage(records, bundle, cfg,
                                                   dual=dual)
              for dual in (True, False)}
    assert built == [6]   # the train split, once for both stages
    for dual, (params, log) in shared.items():
        want, want_log = training.train_imitation_stage(
            records, _fresh_bundle(), cfg, dual=dual)
        assert log == want_log
        assert params.layout == want.layout
        assert np.array_equal(params.flat, want.flat)
    assert built == [6, 6, 6]

    def stage(recs):
        training.train_imitation_stage(recs, bundle, cfg, dual=False)
        return len(built)

    assert stage(records) == 3               # same key: a hit
    assert stage(list(records)) == 3         # a new list, same records
    bundle.fg_encoder = bundle.fg_encoder.copy()
    assert stage(records) == 4
    bundle.bg_encoder = bundle.bg_encoder.copy()
    assert stage(records) == 5
    bundle.style_params = bundle.style_params.copy()
    assert stage(records) == 6
    assert stage([dataclasses.replace(r) for r in records]) == 7
    extra = build_video("extra", "orbiting", "train", 61, Intrinsics(),
                        duration_range=(8.0, 8.0))
    assert stage(records + [extra]) == 8 and built[-1] == 7
    # the memo holds records weakly: a dropped record is freed
    gone = weakref.ref(extra)
    del extra
    gc.collect()
    assert gone() is None


def test_style_and_segment_stages_share_one_embedding(monkeypatch):
    """The segment stage reuses the style stage's embeddings of the
    augmented train split and then frees them; replacing an encoder or
    the records embeds again; the trained nets equal those from calls
    that embed afresh."""
    import dataclasses
    import gc
    import weakref

    from skymimic import features, training
    from skymimic.config import ExperimentConfig

    records = [build_video(f"{style}_{k}", style, "train", 70 + 3 * i + k,
                           Intrinsics(), duration_range=(8.0, 9.0))
               for i, style in enumerate(("fly-by", "orbiting"))
               for k in range(2)]
    records.append(build_video("held", "fly-by", "test", 80, Intrinsics(),
                               duration_range=(8.0, 8.0)))
    cfg = ExperimentConfig(style_epochs=2, seg_epochs=2)
    fg_p, bg_p = autoencoder_init("fg", 5), autoencoder_init("bg", 6)
    embedded = []
    real = features.embed_video
    monkeypatch.setattr(features, "embed_video",
                        lambda *a: embedded.append(a[0].shape[0])
                        or real(*a))

    monkeypatch.setattr(training, "_train_examples_memo", None)
    style, _, _ = training.train_style_stage(records, fg_p, bg_p, cfg,
                                             variants=False)
    assert len(embedded) == 8 + 1   # 4 train videos and mirrors, 1 test
    seg, _ = training.train_segment_stage(records, fg_p, bg_p, cfg)
    assert len(embedded) == 9       # the second stage embeds nothing
    assert training._train_examples_memo is None   # and frees the entry

    want_style, _, _ = training.train_style_stage(records, fg_p, bg_p, cfg,
                                                  variants=False)
    monkeypatch.setattr(training, "_train_examples_memo", None)
    want_seg, _ = training.train_segment_stage(records, fg_p, bg_p, cfg)
    assert len(embedded) == 9 + 9 + 8
    for got, want in ((style, want_style), (seg, want_seg)):
        assert got.layout == want.layout
        assert np.array_equal(got.flat, want.flat)

    def embeds(recs, fg, bg):
        n = len(embedded)
        training._train_examples(recs, fg, bg)
        return len(embedded) - n

    assert embeds(records, fg_p, bg_p) == 8
    assert embeds(records, fg_p, bg_p) == 0
    assert embeds(list(records), fg_p, bg_p) == 0   # same records
    assert embeds(records, fg_p.copy(), bg_p) == 8
    assert embeds(records, fg_p, bg_p.copy()) == 8
    assert embeds([dataclasses.replace(r) for r in records], fg_p, bg_p) == 8
    assert embeds(records[1:], fg_p, bg_p) == 6
    # the memo holds its keys weakly: a dropped record is freed
    extra = build_video("extra", "orbiting", "train", 81, Intrinsics(),
                        duration_range=(8.0, 8.0))
    assert embeds(records + [extra], fg_p, bg_p) == 10
    gone = weakref.ref(extra)
    del extra
    gc.collect()
    assert gone() is None
