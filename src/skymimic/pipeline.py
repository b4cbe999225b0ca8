"""Trained-artifact bundle shared by the segmenter, the closed-loop
controller, and the CLI: feature encoders, style net, imitation net,
with save/load against a directory of parameter containers."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import VideoRecord
from .features import WINDOW, embed_video, window_starts
from .nn import ParamSet
from .stylenet import StyleNetConfig, style_forward


class DependencyError(RuntimeError):
    """A required trained artifact is missing."""


@dataclass
class ModelBundle:
    fg_encoder: ParamSet
    bg_encoder: ParamSet
    style_params: ParamSet
    style_cfg: StyleNetConfig
    imitation_params: ParamSet | None = None
    segment_params: ParamSet | None = None

    def embed(self, fg: np.ndarray, bg: np.ndarray) -> np.ndarray:
        return embed_video(fg, bg, self.fg_encoder, self.bg_encoder)

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
        self.style_params.meta["hidden"] = self.style_cfg.hidden
        self.style_params.save(out / "style_net.bin")
        if self.imitation_params is not None:
            self.imitation_params.save(out / "imitation_net.bin")
        if self.segment_params is not None:
            self.segment_params.save(out / "segment_net.bin")

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
        style = ParamSet.load(paths["style_net"])
        cfg = StyleNetConfig(hidden=int(style.meta.get("hidden", 64)))
        imitation = None
        imit_path = art / "imitation_net.bin"
        if imit_path.exists():
            imitation = ParamSet.load(imit_path)
        elif need_imitation:
            raise DependencyError(
                "missing artifact imitation_net.bin; run the imitation "
                "training stage first")
        seg_path = art / "segment_net.bin"
        seg = ParamSet.load(seg_path) if seg_path.exists() else None
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

