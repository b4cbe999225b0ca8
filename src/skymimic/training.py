"""End-to-end training drivers: corpus -> encoders -> style net ->
imitation net.  The CLI and the test suite both call these, so every
run with the same config and corpus produces identical artifacts."""

from __future__ import annotations

import weakref

import numpy as np

from .config import ExperimentConfig
from .dataset import VideoRecord
from .features import train_autoencoder
from .geometry import Intrinsics
from .imitation import SnippetCorpus, train_imitation_net
from .nn import TrainingError
from .pipeline import ModelBundle, snippet_action_labels
from .scene import STYLES, draw_scene, generate_style_trajectory
from .stylenet import VARIANTS, style_forward, train_ablation_variants, \
    train_segment_net, train_style_net
from .controller import LiveScene


def augmented(records: list[VideoRecord]) -> list[VideoRecord]:
    """Originals plus their horizontal mirrors."""
    return list(records) + [r.flipped() for r in records]


def train_encoders(records: list[VideoRecord], cfg: ExperimentConfig):
    """The fg and bg autoencoders, trained on the snippet windows of the
    records' tables and their mirrors'."""
    recs = augmented(records)
    fg_p, _ = train_autoencoder([r.fg for r in recs], "fg",
                                epochs=cfg.autoencoder_epochs, seed=cfg.seed,
                                lr=cfg.autoencoder_lr)
    bg_p, _ = train_autoencoder([r.bg for r in recs], "bg",
                                epochs=cfg.autoencoder_epochs,
                                seed=cfg.seed + 1, lr=cfg.autoencoder_lr)
    return fg_p, bg_p


def style_examples(records: list[VideoRecord], fg_p, bg_p):
    """(embedding sequence, label index) pairs for the classifier."""
    from .features import embed_video
    return [(embed_video(r.fg, r.bg, fg_p, bg_p), STYLES.index(r.style))
            for r in records]


# (weak references to the keys of the last _reuse call, its product)
_slot = None


def _reuse(keys: list, build):
    """build(), or the product the last call kept if that call's keys
    were these objects in this order.

    A stage's product is reused once, by the next stage: the segment
    stage takes the style stage's embeddings of the augmented train
    split, and the baseline stage the dual stage's imitation corpus,
    with every DTW alignment made. The one slot holds the product and
    weak references to its keys, so it keeps no key alive and a key
    that is gone never matches; a key written in place still does. A
    hit takes the product out of the slot; a miss drops the slot before
    it builds and keeps the new product.
    """
    global _slot
    slot, _slot = _slot, None
    if (slot is not None and len(slot[0]) == len(keys)
            and all(ref() is k for ref, k in zip(slot[0], keys))):
        return slot[1]
    del slot  # free the old product before building
    product = build()
    _slot = ([weakref.ref(k) for k in keys], product)
    return product


def _train_examples(records: list[VideoRecord], fg_p, bg_p):
    """style_examples of the augmented train split, reused by the next
    stage on the same encoders and train records; the sequences are
    read-only."""
    train_recs = [r for r in records if r.split == "train"]

    def build():
        examples = style_examples(augmented(train_recs), fg_p, bg_p)
        for seq, _ in examples:
            seq.flags.writeable = False
        return examples

    return _reuse([fg_p, bg_p] + train_recs, build)


def train_val_split(examples):
    """Deterministic carve-out: every fifth example is val."""
    train = [ex for i, ex in enumerate(examples) if i % 5]
    val = [ex for i, ex in enumerate(examples) if not i % 5]
    return train, val


def train_style_stage(records: list[VideoRecord], fg_p, bg_p,
                      cfg: ExperimentConfig, variants: bool = True):
    """Train the classifier (and optionally all ablation variants).

    Returns (params, config) of the full model plus, when variants is
    set, the {name: (params, config, test confusion)} table. A corpus
    with no train record raises TrainingError before any video is
    embedded.
    """
    if not any(r.split == "train" for r in records):
        raise TrainingError("style net had no training example")
    tr, val = train_val_split(_train_examples(records, fg_p, bg_p))
    if variants:
        # the test split is read only by the variants' confusion tables
        test_ex = style_examples([r for r in records if r.split == "test"],
                                 fg_p, bg_p)
        table = train_ablation_variants(tr, val, test_ex,
                                        epochs=cfg.style_epochs,
                                        seed=cfg.seed,
                                        lr=cfg.style_lr)
        params, net_cfg, _ = table["fg+bg+att"]
        return params, net_cfg, table
    net_cfg = VARIANTS["fg+bg+att"]
    params, _ = train_style_net(tr, val, net_cfg, epochs=cfg.style_epochs,
                                seed=cfg.seed, lr=cfg.style_lr)
    return params, net_cfg, None


def train_segment_stage(records: list[VideoRecord], fg_p, bg_p,
                        cfg: ExperimentConfig):
    """Train the crop-augmented classifier the segmenter scores spans
    with.  Returns (params, net config)."""
    tr, val = train_val_split(_train_examples(records, fg_p, bg_p))
    net_cfg = VARIANTS["fg+bg+att"]
    params, _ = train_segment_net(tr, val, net_cfg, epochs=cfg.seg_epochs,
                                  seed=cfg.seed, lr=cfg.style_lr,
                                  crop_prob=cfg.seg_crop_prob,
                                  min_crop=cfg.seg_min_crop)
    return params, net_cfg


def build_snippet_corpus(records: list[VideoRecord], bundle: ModelBundle,
                         embeddings: list[np.ndarray] | None = None
                         ) -> SnippetCorpus:
    """The imitation corpus of records; `embeddings`, when given, are
    the records' bundle embeddings, which are then not made again."""
    styles, embs, acts, feats = [], [], [], []
    for i, rec in enumerate(records):
        emb = embeddings[i] if embeddings is not None \
            else bundle.embed(rec.fg, rec.bg)
        v, _, _, _ = style_forward(emb, bundle.style_params, bundle.style_cfg)
        styles.append(rec.style)
        embs.append(emb)
        acts.append(snippet_action_labels(rec))
        feats.append(v)
    return SnippetCorpus(styles, embs, acts, feats)


def train_imitation_stage(records: list[VideoRecord], bundle: ModelBundle,
                          cfg: ExperimentConfig, dual: bool = True):
    train_recs = [r for r in records if r.split == "train"]
    corpus = _reuse([bundle.fg_encoder, bundle.bg_encoder,
                     bundle.style_params, bundle.style_cfg] + train_recs,
                    lambda: build_snippet_corpus(train_recs, bundle))
    params, log = train_imitation_net(
        corpus, epochs=cfg.imitation_epochs,
        steps_per_epoch=cfg.imitation_steps,
        seed=cfg.seed + 2, lr=cfg.imitation_lr, lam=cfg.loss_mix,
        dual=dual)
    return params, log


def make_live_scene(style: str, rng: np.random.Generator,
                    cfg: ExperimentConfig | None = None,
                    duration_range=(10.0, 14.0)):
    """A fresh recapture scene: new subject path, new world, and a
    drone start pose with valid initial geometry for the style: the
    first frame of a scripted shot, the only one built."""
    cfg = cfg or ExperimentConfig()
    script, cloud = draw_scene(style, rng, duration_range,
                               cfg.subject_height)
    first, = generate_style_trajectory(script, n_frames=1)
    scene = LiveScene(script, cloud, Intrinsics(focal=cfg.focal),
                      first.camera)
    return scene, script.duration
