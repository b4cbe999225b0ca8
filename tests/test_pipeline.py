from dataclasses import asdict

import numpy as np
import pytest

from skymimic.dataset import build_video
from skymimic.features import autoencoder_init
from skymimic.geometry import Intrinsics
from skymimic.imitation import init_imitation_net
from skymimic.nn import ParamSet
from skymimic.pipeline import (DependencyError, ModelBundle,
                               demo_conditioning, save_stage,
                               snippet_action_labels, stage_inputs)
from skymimic.stylenet import VARIANTS, StyleNetConfig, init_style_net


def _fresh_bundle(seed=7, with_imitation=False):
    cfg = VARIANTS["fg+bg+att"]
    imitation = init_imitation_net(128, 96, seed + 3) if with_imitation \
        else None
    return ModelBundle(autoencoder_init("fg", seed),
                       autoencoder_init("bg", seed + 1),
                       init_style_net(cfg, seed + 2), cfg, imitation)


def _save(bundle, art):
    """Write a bundle's nets through the stage writer, as `train` does;
    the segment net is the style net when the bundle has none, and each
    ablation variant is a fresh net of its config."""
    segment = bundle.segment_params if bundle.segment_params is not None \
        else bundle.style_params
    def save(stage, nets):
        save_stage(art, stage, nets, stage_inputs(art, stage))

    save("autoencoder", (bundle.fg_encoder, bundle.bg_encoder))
    save("style", (bundle.style_params, segment,
                   *(init_style_net(cfg, 0) for cfg in VARIANTS.values())))
    if bundle.imitation_params is not None:
        save("imitation", (bundle.imitation_params,))


def test_bundle_save_load_roundtrip(tmp_path):
    bundle = _fresh_bundle(with_imitation=True)
    _save(bundle, tmp_path)
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
    _save(bundle, tmp_path)
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
    _save(ModelBundle(autoencoder_init("fg", 7), autoencoder_init("bg", 8),
                      init_style_net(cfg, 9), cfg,
                      segment_params=init_style_net(cfg, 10)), tmp_path)
    path = tmp_path / f"{net}.bin"
    p = ParamSet.load(path)
    p.meta["config"].update(config)
    p.save(path)
    with pytest.raises(OSError):
        ModelBundle.load(tmp_path)


def test_bundle_load_rejects_a_style_net_without_config(tmp_path):
    bundle = _fresh_bundle()
    _save(bundle, tmp_path)
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
    _save(_fresh_bundle(), tmp_path)
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
    _save(bundle, tmp_path)
    with pytest.raises(OSError, match="does not match"):
        ModelBundle.load(tmp_path, need_imitation=True)


def test_bundle_load_missing_artifact(tmp_path):
    bundle = _fresh_bundle()
    _save(bundle, tmp_path)
    (tmp_path / "style_net.bin").unlink()
    with pytest.raises(DependencyError):
        ModelBundle.load(tmp_path)


def test_bundle_load_missing_imitation(tmp_path):
    bundle = _fresh_bundle(with_imitation=False)
    _save(bundle, tmp_path)
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


def _reuse_records(seed=40):
    records = [build_video(f"{style}_{k}", style, "train",
                           seed + 3 * i + k, Intrinsics(),
                           duration_range=(8.0, 9.0))
               for i, style in enumerate(("fly-by", "orbiting"))
               for k in range(2)]
    records.append(build_video("held", "fly-by", "test", seed + 20,
                               Intrinsics(), duration_range=(8.0, 8.0)))
    return records


def _assert_same_nets(got_nets, want_nets):
    for got, exp in zip(got_nets, want_nets):
        if isinstance(got, tuple):   # an imitation stage's (net, log)
            assert got[1] == exp[1]
            got, exp = got[0], exp[0]
        assert got.layout == exp.layout
        assert np.array_equal(got.flat, exp.flat)


def test_imitation_stages_share_one_corpus(monkeypatch):
    """The baseline stage reuses the dual stage's corpus of the train
    split; the nets equal those of stages that build afresh.  The reuse
    slot hits only on the same key objects, is empty after a hit, frees
    its product before the next build and keeps no key alive."""
    import dataclasses
    import gc
    import weakref

    from skymimic import training
    from skymimic.config import ExperimentConfig

    records = _reuse_records()
    cfg = ExperimentConfig(imitation_epochs=2, imitation_steps=15)
    bundle = _fresh_bundle()
    built, products = [], []
    real_build = training.build_snippet_corpus

    def build(recs, b):
        # every earlier corpus is gone, the slot's too
        assert all(ref() is None for ref in products)
        corpus = real_build(recs, b)
        built.append(len(recs))
        products.append(weakref.ref(corpus))
        return corpus

    monkeypatch.setattr(training, "build_snippet_corpus", build)
    monkeypatch.setattr(training, "_slot", None)

    def chain(fresh):
        nets = []
        for dual in (True, False):
            if fresh:   # monkeypatch has kept the slot's value to restore
                training._slot = None
            nets.append(training.train_imitation_stage(records, bundle, cfg,
                                                       dual=dual))
        return nets

    shared = chain(fresh=False)
    assert built == [4]             # the train split, once for both
    assert training._slot is None   # the baseline's hit emptied it
    _assert_same_nets(shared, chain(fresh=True))
    assert built == [4, 4, 4]

    def builds(recs=records):
        n = len(built)
        training.train_imitation_stage(recs, bundle, cfg, dual=False)
        return len(built) - n

    # the fresh baseline stage kept its corpus: a new list of the same
    # records is a hit, which empties the slot
    assert builds(list(records)) == 0
    assert training._slot is None
    assert builds() == 1
    for name in ("fg_encoder", "bg_encoder", "style_params"):
        setattr(bundle, name, getattr(bundle, name).copy())
        assert builds() == 1
    assert builds([dataclasses.replace(r) for r in records]) == 1
    assert builds() == 1
    # the slot holds its keys weakly: a dropped record is freed
    extra = build_video("extra", "orbiting", "train", 61, Intrinsics(),
                        duration_range=(8.0, 8.0))
    assert builds(records + [extra]) == 1 and built[-1] == 5
    gone = weakref.ref(extra)
    del extra
    gc.collect()
    assert gone() is None


def test_style_stage_without_variants_embeds_no_test_split(monkeypatch):
    """Only the ablation variants read the test split: a style stage
    without them embeds each augmented train record once and no test
    record."""
    from skymimic import features, training
    from skymimic.config import ExperimentConfig

    records = _reuse_records(71)
    fg_p, bg_p = autoencoder_init("fg", 5), autoencoder_init("bg", 6)
    seen, real = [], features.embed_video

    def embed(fg, *rest):
        seen.append(fg.tobytes())
        return real(fg, *rest)

    monkeypatch.setattr(features, "embed_video", embed)
    monkeypatch.setattr(training, "_slot", None)
    training.train_style_stage(records, fg_p, bg_p,
                               ExperimentConfig(style_epochs=1),
                               variants=False)
    train = training.augmented([r for r in records if r.split == "train"])
    assert sorted(seen) == sorted(r.fg.tobytes() for r in train)
    assert records[-1].split == "test"
    assert records[-1].fg.tobytes() not in seen


def test_style_and_segment_stages_share_one_embedding(monkeypatch):
    """The segment stage reuses the style stage's embeddings of the
    augmented train split and empties the slot; the nets equal those of
    stages that embed afresh.  A style stage's examples are freed before
    the next imitation stage builds its corpus, and a replaced encoder
    or new records embed again."""
    import weakref

    from skymimic import features, training
    from skymimic.config import ExperimentConfig

    records = _reuse_records(70)
    cfg = ExperimentConfig(style_epochs=2, seg_epochs=2, imitation_epochs=2,
                           imitation_steps=15)
    fg_p, bg_p = autoencoder_init("fg", 5), autoencoder_init("bg", 6)
    net_cfg = VARIANTS["fg+bg+att"]
    bundle = ModelBundle(fg_p, bg_p, init_style_net(net_cfg, 7), net_cfg)
    embedded, products = [], []
    real_embed, real_build = features.embed_video, \
        training.build_snippet_corpus

    def embed(*a):
        emb = real_embed(*a)
        embedded.append(emb.shape[0])
        products.append(weakref.ref(emb))
        return emb

    def build(recs, b):
        # every earlier embedding is gone, the slot's too
        assert all(ref() is None for ref in products)
        return real_build(recs, b)

    monkeypatch.setattr(features, "embed_video", embed)
    monkeypatch.setattr(training, "build_snippet_corpus", build)
    monkeypatch.setattr(training, "_slot", None)

    def chain(fresh):
        nets = []
        for stage in (
                lambda: training.train_style_stage(records, fg_p, bg_p, cfg,
                                                   variants=False)[0],
                lambda: training.train_segment_stage(records, fg_p, bg_p,
                                                     cfg)[0]):
            if fresh:   # monkeypatch has kept the slot's value to restore
                training._slot = None
            nets.append(stage())
        return nets

    shared = chain(fresh=False)
    assert len(embedded) == 8   # 4 train videos and mirrors, no test
    assert training._slot is None   # the segment stage's hit emptied it
    _assert_same_nets(shared, chain(fresh=True))
    assert len(embedded) == 8 + 8 + 8

    def embeds(recs, fg, bg):
        n = len(embedded)
        training._train_examples(recs, fg, bg)
        return len(embedded) - n

    # the fresh segment stage kept its examples: a new list of the same
    # records is a hit, which empties the slot
    assert embeds(list(records), fg_p, bg_p) == 0
    assert training._slot is None
    assert embeds(records, fg_p, bg_p) == 8
    assert embeds(records, fg_p.copy(), bg_p) == 8
    assert embeds(records, fg_p, bg_p.copy()) == 8
    assert embeds(records[:2] + records[3:], fg_p, bg_p) == 6
    # the style stage keeps its examples; the imitation stage's miss
    # frees them before it builds, as `build` checks
    training.train_style_stage(records, fg_p, bg_p, cfg, variants=False)
    assert training._slot is not None
    training.train_imitation_stage(records, bundle, cfg, dual=False)
