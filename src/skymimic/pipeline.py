"""Trained-artifact bundle shared by the segmenter, the closed-loop
controller, and the CLI: feature encoders, style net, imitation net,
with save/load against a directory of ParamSet files. A style-type net
(the style net, the segment net, an ablation variant) carries its full
StyleNetConfig in its file's meta, so it is rebuilt from the file
alone."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .dataset import VideoRecord
from .features import WINDOW, embed_video, window_starts
from .nn import ParamSet
from .stylenet import StyleNetConfig, init_style_net, style_forward


class DependencyError(RuntimeError):
    """A required trained artifact is missing."""


def save_style_net(path: str | Path, params: ParamSet,
                   cfg: StyleNetConfig) -> None:
    """Write a style-type net with `cfg` in its file's meta; the
    caller's params.meta is not changed."""
    params.save(path, meta={**params.meta, "config": asdict(cfg)})


def load_style_net(path: str | Path) -> tuple[ParamSet, StyleNetConfig]:
    """Read a file written by save_style_net. Raises OSError when its
    config is missing or unusable, or when its layout is not the one
    init_style_net builds from that config."""
    params = ParamSet.load(path)
    try:
        cfg = StyleNetConfig(**params.meta["config"])
        want = init_style_net(cfg, 0).layout
    except (KeyError, TypeError, ValueError) as e:
        raise OSError(f"{path}: no usable style-net config ({e})") from e
    if params.layout != want:
        raise OSError(f"{path}: parameter layout does not match its "
                      f"config {cfg}")
    return params, cfg


@dataclass
class ModelBundle:
    fg_encoder: ParamSet
    bg_encoder: ParamSet
    style_params: ParamSet
    style_cfg: StyleNetConfig
    imitation_params: ParamSet | None = None
    segment_params: ParamSet | None = None

    # (fg encoder, bg encoder, fg copy, bg copy, embedding) of the
    # last embed call
    _memo: tuple | None = field(default=None, init=False, repr=False,
                                compare=False)
    # (nets, record weakrefs, corpus) of the last
    # training._imitation_corpus call
    _corpus_memo: tuple | None = field(default=None, init=False,
                                       repr=False, compare=False)

    def embed(self, fg: np.ndarray, bg: np.ndarray) -> np.ndarray:
        """(T_snippets, EMBED_DIM) embedding of a video, read-only.

        The last call is memoised, so a demo that is cut by `segment`
        and then scored by `prob_curve` is embedded once. The memo's key
        is the two encoder ParamSets, compared by identity, and the
        fg/bg content, compared with np.array_equal against copies taken
        on the call that filled it. Encoders therefore must not be
        written in place once they are in a bundle: assign new ParamSets
        to `fg_encoder`/`bg_encoder` instead.
        """
        m = self._memo
        if (m is not None and m[0] is self.fg_encoder
                and m[1] is self.bg_encoder
                and np.array_equal(m[2], fg) and np.array_equal(m[3], bg)):
            return m[4]
        emb = embed_video(fg, bg, self.fg_encoder, self.bg_encoder)
        emb.flags.writeable = False
        self._memo = (self.fg_encoder, self.bg_encoder, np.array(fg),
                      np.array(bg), emb)
        return emb

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

    def classify(self, record: VideoRecord) -> int:
        return self.classify_features(record.fg, record.bg)

    def classify_features(self, fg: np.ndarray, bg: np.ndarray) -> int:
        _, probs, _ = self.style_feature(fg, bg)
        return int(np.argmax(probs))

    def save(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        self.fg_encoder.save(out / "fg_encoder.bin")
        self.bg_encoder.save(out / "bg_encoder.bin")
        save_style_net(out / "style_net.bin", self.style_params,
                       self.style_cfg)
        if self.imitation_params is not None:
            self.imitation_params.save(out / "imitation_net.bin")
        if self.segment_params is not None:
            save_style_net(out / "segment_net.bin", self.segment_params,
                           self.style_cfg)

    @classmethod
    def load(cls, art_dir: str | Path,
             need_imitation: bool = False) -> "ModelBundle":
        art = Path(art_dir)
        paths = {
            "fg_encoder": art / "fg_encoder.bin",
            "bg_encoder": art / "bg_encoder.bin",
            "style_net": art / "style_net.bin",
        }
        for stage, path in paths.items():
            if not path.exists():
                raise DependencyError(
                    f"missing artifact {path.name}; run the "
                    f"prerequisite training stage first")
        style, cfg = load_style_net(paths["style_net"])
        imitation = None
        imit_path = art / "imitation_net.bin"
        if imit_path.exists():
            imitation = ParamSet.load(imit_path)
        elif need_imitation:
            raise DependencyError(
                "missing artifact imitation_net.bin; run the imitation "
                "training stage first")
        seg_path = art / "segment_net.bin"
        seg = None
        if seg_path.exists():
            # the segmenter runs the segment net with the style net's config
            seg, seg_cfg = load_style_net(seg_path)
            if seg_cfg != cfg:
                raise OSError(f"{seg_path}: config {seg_cfg} differs from "
                              f"the style net's {cfg}")
        return cls(ParamSet.load(paths["fg_encoder"]),
                   ParamSet.load(paths["bg_encoder"]),
                   style, cfg, imitation, seg)


def demo_conditioning(demo_actions: np.ndarray, step: int,
                      n_steps: int) -> np.ndarray:
    """Demo action that conditions executed step `step` of `n_steps`:
    the one at the same fraction of elapsed time, nearest index."""
    frac = step / max(n_steps - 1, 1)
    last = demo_actions.shape[0] - 1
    return demo_actions[min(int(round(frac * last)), last)]


def snippet_action_labels(record: VideoRecord) -> np.ndarray:
    """Action at each snippet's final frame, per snippet index."""
    starts = window_starts(record.n_frames)
    return np.stack([record.actions[s + WINDOW - 1] for s in starts])

