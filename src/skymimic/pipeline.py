"""Trained-artifact bundle shared by the segmenter, the closed-loop
controller, and the CLI: feature encoders, style net, imitation net,
with save/load against a directory of ParamSet files.

Every net file is read through `load_net`, which checks it against the
net its user runs: the encoders against `autoencoder_init` of their
channel, the style net against `init_style_net` of the StyleNetConfig
in its meta, the segment net against the style net's, and an imitation
net against `init_imitation_net` of the bundle's style feature size.
`skymimic eval` checks each ablation variant against its own config in
`stylenet.VARIANTS`."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .dataset import DependencyError, VideoRecord
from .features import (EMBED_DIM, autoencoder_init, embed_video,
                       snippet_ends)
from .imitation import init_imitation_net
from .nn import ParamSet
from .stylenet import StyleNetConfig, init_style_net, style_forward


def load_net(path: str | Path,
             build: Callable[[dict], ParamSet]) -> ParamSet:
    """Read the net file at `path` and check it against `build(meta)`,
    a fresh net of the kind its user runs, built from the file's meta.

    Raises DependencyError when the file is missing, and OSError when
    it is damaged, when its meta builds no net, or when its meta or
    parameter layout differ from the built net's."""
    path = Path(path)
    if not path.exists():
        raise DependencyError(f"missing artifact {path}; run the training "
                              f"stage that writes it first")
    params = ParamSet.load(path)
    try:
        want = build(params.meta)
    except (KeyError, TypeError, ValueError) as e:
        raise OSError(f"{path}: meta {params.meta} builds no net "
                      f"({e!r})") from e
    if params.meta != want.meta or params.layout != want.layout:
        raise OSError(f"{path}: meta or parameter layout does not match "
                      f"the net it is loaded as ({want.meta})")
    return params


def load_encoders(art_dir: str | Path) -> tuple[ParamSet, ParamSet]:
    """The fg and bg encoders of an artifact directory, each checked
    against its channel's net, so a swapped pair fails on load."""
    return tuple(load_net(Path(art_dir) / f"{ch}_encoder.bin",
                          lambda _, ch=ch: autoencoder_init(ch, 0))
                 for ch in ("fg", "bg"))


@dataclass
class ModelBundle:
    fg_encoder: ParamSet
    bg_encoder: ParamSet
    style_params: ParamSet
    style_cfg: StyleNetConfig
    imitation_params: ParamSet | None = None
    segment_params: ParamSet | None = None

    # (fg encoder, bg encoder, fg copy, bg copy, embedding, key, product)
    # of the last embed call; the last two are None until `derived` runs
    _memo: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)

    def embed(self, fg: np.ndarray, bg: np.ndarray) -> np.ndarray:
        """(T_snippets, EMBED_DIM) embedding of a video, read-only.

        The last call is memoised, so a demo that `segment` and
        `prob_curve` both read is embedded once. The memo's key is the
        two encoder ParamSets, compared by identity, and the fg/bg
        content, compared with np.array_equal against copies taken on
        the call that filled it. Encoders therefore must not be written
        in place once they are in a bundle: assign new ParamSets to
        `fg_encoder`/`bg_encoder` instead. The entry also keeps the
        segmenter's span table of the embedding (`derived`), keyed by
        the span classifier by identity, so the span classifier must not
        be written in place either: assign a new ParamSet to
        `segment_params`/`style_params` instead.
        """
        m = self._memo
        if (m is not None and m[0] is self.fg_encoder
                and m[1] is self.bg_encoder
                and np.array_equal(m[2], fg) and np.array_equal(m[3], bg)):
            return m[4]
        emb = embed_video(fg, bg, self.fg_encoder, self.bg_encoder)
        emb.flags.writeable = False
        self._memo = (self.fg_encoder, self.bg_encoder, np.array(fg),
                      np.array(bg), emb, None, None)
        return emb

    def derived(self, emb: np.ndarray, key, make: Callable[[], object]):
        """make(), kept in the memo entry when emb is its embedding: a
        later call with that embedding and the same key (by identity)
        returns the kept product and does not call make."""
        m = self._memo
        entry = m is not None and m[4] is emb
        if entry and m[5] is key:
            return m[6]
        product = make()
        if entry:
            self._memo = m[:5] + (key, product)
        return product

    def span_classifier(self) -> ParamSet:
        """Net used to label sub-spans: the crop-trained segment net
        when present, otherwise the whole-video classifier."""
        if self.segment_params is not None:
            return self.segment_params
        return self.style_params

    def style_feature(self, fg: np.ndarray, bg: np.ndarray):
        emb = self.embed(fg, bg)
        v, probs, trace, _ = style_forward(emb, self.style_params,
                                           self.style_cfg)
        return v, probs, trace

    def classify_features(self, fg: np.ndarray, bg: np.ndarray) -> int:
        _, probs, _ = self.style_feature(fg, bg)
        return int(np.argmax(probs))

    def load_imitation_net(self, path: str | Path) -> ParamSet:
        """An imitation net file (dual or baseline), checked against
        the net this bundle's style feature feeds."""
        return load_net(path, lambda _: init_imitation_net(
            self.style_cfg.feature_dim, EMBED_DIM, 0))

    def save(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        self.fg_encoder.save(out / "fg_encoder.bin")
        self.bg_encoder.save(out / "bg_encoder.bin")
        self.style_params.save(out / "style_net.bin")
        if self.imitation_params is not None:
            self.imitation_params.save(out / "imitation_net.bin")
        if self.segment_params is not None:
            self.segment_params.save(out / "segment_net.bin")

    @classmethod
    def load(cls, art_dir: str | Path,
             need_imitation: bool = False) -> "ModelBundle":
        art = Path(art_dir)
        fg, bg = load_encoders(art)
        style = load_net(art / "style_net.bin", lambda meta: init_style_net(
            StyleNetConfig(**meta["config"]), 0))
        cfg = StyleNetConfig(**style.meta["config"])
        bundle = cls(fg, bg, style, cfg)
        if need_imitation or (art / "imitation_net.bin").exists():
            bundle.imitation_params = bundle.load_imitation_net(
                art / "imitation_net.bin")
        if (art / "segment_net.bin").exists():
            # the segmenter runs the segment net with the style net's config
            bundle.segment_params = load_net(art / "segment_net.bin",
                                             lambda _: init_style_net(cfg, 0))
        return bundle


def demo_conditioning(demo_actions: np.ndarray, step: int,
                      n_steps: int) -> np.ndarray:
    """Demo action that conditions executed step `step` of `n_steps`:
    the one at the same fraction of elapsed time, nearest index."""
    frac = step / max(n_steps - 1, 1)
    last = demo_actions.shape[0] - 1
    return demo_actions[min(int(round(frac * last)), last)]


def snippet_action_labels(record: VideoRecord) -> np.ndarray:
    """Action at each snippet's final frame, per snippet index."""
    return record.actions[snippet_ends(record.n_frames) - 1]

