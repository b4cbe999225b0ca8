"""Trained-artifact bundle shared by the segmenter, the closed-loop
controller, and the CLI: feature encoders, style net, imitation net,
in a directory of ParamSet files laid out by `STAGES`. `save_stage`
writes every net file, recording in its meta the digest of each file
its stage read, and `load_net` reads each one. It refuses a net whose
recorded inputs are not the files beside it, then checks the net
against the net its user runs: the encoders against `autoencoder_init`
of their channel, the style net against `init_style_net` of the
StyleNetConfig in its meta, the segment net against the style net's,
and an imitation net against `init_imitation_net` of the bundle's style
feature size. `skymimic eval` checks each ablation variant against its
own config in `stylenet.VARIANTS`."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .dataset import DependencyError, VideoRecord
from .features import (EMBED_DIM, autoencoder_init, embed_video,
                       snippet_ends)
from .imitation import init_imitation_net
from .nn import ParamSet
from .stylenet import (VARIANTS, StyleNetConfig, init_style_net,
                       style_forward)


# each train stage, in train order: (the artifact files it reads, the
# nets it writes, in the order it trains them, ablation variants last)
_ENCODERS = ("fg_encoder.bin", "bg_encoder.bin")
STYLE_NET, SEGMENT_NET = "style_net.bin", "segment_net.bin"
IMITATION_NET, BASELINE_NET = "imitation_net.bin", "imitation_baseline.bin"
VARIANT_FILES = {v: f"variants/{v.replace('+', '_')}.bin" for v in VARIANTS}
STAGES = {
    "autoencoder": ((), _ENCODERS),
    "style": (_ENCODERS, (STYLE_NET, SEGMENT_NET, *VARIANT_FILES.values())),
    "imitation": (_ENCODERS + (STYLE_NET,), (IMITATION_NET,)),
    "baseline": (_ENCODERS + (STYLE_NET,), (BASELINE_NET,)),
}


def digest(blob: bytes) -> str:
    """The 16-hex sha256 prefix that names a config or a file's bytes."""
    return hashlib.sha256(blob).hexdigest()[:16]


def _writer(name: str) -> str:
    """The train stage that writes the net file `name`."""
    return next(s for s, (_, writes) in STAGES.items() if name in writes)


def _existing(art_dir: str | Path, name: str) -> Path:
    """art_dir/name; raises DependencyError, naming the stage that
    writes it, when it is missing."""
    path = Path(art_dir) / name
    if not path.exists():
        raise DependencyError(f"missing artifact {path}; run `skymimic "
                              f"train --stage {_writer(name)}` first")
    return path


def stage_inputs(art_dir: str | Path, stage: str) -> dict[str, str]:
    """The digest of each file `stage` reads from art_dir, by name."""
    return {name: digest(_existing(art_dir, name).read_bytes())
            for name in STAGES[stage][0]}


def save_stage(art_dir: str | Path, stage: str, nets,
               inputs: dict[str, str]) -> None:
    """Write `stage`'s nets, in STAGES order, to their files in art_dir.
    When the stage reads files, each net's meta records `inputs`: their
    `stage_inputs`, taken before the stage trained."""
    for name, net in zip(STAGES[stage][1], nets, strict=True):
        if inputs:
            net = net.copy()
            net.meta["inputs"] = inputs
        (Path(art_dir) / name).parent.mkdir(parents=True, exist_ok=True)
        net.save(Path(art_dir) / name)


def load_net(art_dir: str | Path, name: str,
             build: Callable[[dict], ParamSet]) -> ParamSet:
    """Read the net file art_dir/name and check it against `build(meta)`,
    a fresh net of the kind its user runs, built from the file's meta.

    Raises DependencyError when the file or a file its stage reads is
    missing, or when its meta records another digest for such a file
    than the file's; and OSError when it is damaged, when its meta
    builds no net, or when its meta (with the recorded inputs) or
    parameter layout differ from the built net's."""
    path = _existing(art_dir, name)
    params = ParamSet.load(path)
    inputs = stage_inputs(art_dir, _writer(name))
    recorded = params.meta.get("inputs")
    for dep, have in inputs.items():
        if isinstance(recorded, dict) and recorded.get(dep, have) != have:
            raise DependencyError(
                f"{path} was trained on another {dep} than the one beside "
                f"it; rerun `skymimic train --stage {_writer(name)}`")
    try:
        want = build(params.meta)
    except (KeyError, TypeError, ValueError) as e:
        raise OSError(f"{path}: meta {params.meta} builds no net "
                      f"({e!r})") from e
    if inputs:
        want.meta["inputs"] = inputs
    if params.meta != want.meta or params.layout != want.layout:
        raise OSError(f"{path}: meta or parameter layout does not match "
                      f"the net it is loaded as ({want.meta})")
    return params


def load_encoders(art_dir: str | Path) -> tuple[ParamSet, ParamSet]:
    """The fg and bg encoders of an artifact directory, each checked
    against its channel's net, so a swapped pair fails on load."""
    return tuple(load_net(art_dir, name,
                          lambda _, ch=ch: autoencoder_init(ch, 0))
                 for ch, name in zip(("fg", "bg"), _ENCODERS))


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
        `segment_params` by identity, so the segment net must not be
        written in place either: assign a new ParamSet to
        `segment_params` instead.
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

    def style_feature(self, fg: np.ndarray, bg: np.ndarray):
        emb = self.embed(fg, bg)
        v, probs, trace, _ = style_forward(emb, self.style_params,
                                           self.style_cfg)
        return v, probs, trace

    def classify_features(self, fg: np.ndarray, bg: np.ndarray) -> int:
        _, probs, _ = self.style_feature(fg, bg)
        return int(np.argmax(probs))

    def load_imitation_net(self, art_dir: str | Path, name: str) -> ParamSet:
        """An imitation net file (dual or baseline), checked against
        the net this bundle's style feature feeds."""
        return load_net(art_dir, name, lambda _: init_imitation_net(
            self.style_cfg.feature_dim, EMBED_DIM, 0))

    @classmethod
    def load(cls, art_dir: str | Path,
             need_imitation: bool = False) -> "ModelBundle":
        """The bundle of an artifact directory: its encoders, its style
        net, its segment net when present (the segmenter refuses a
        bundle without one), and, with need_imitation, its imitation
        net; no other file is read."""
        art = Path(art_dir)
        fg, bg = load_encoders(art)
        style = load_net(art, STYLE_NET, lambda meta: init_style_net(
            StyleNetConfig(**meta["config"]), 0))
        cfg = StyleNetConfig(**style.meta["config"])
        bundle = cls(fg, bg, style, cfg)
        if (art / SEGMENT_NET).exists():
            # the segmenter runs the segment net with the style net's config
            bundle.segment_params = load_net(art, SEGMENT_NET,
                                             lambda _: init_style_net(cfg, 0))
        if need_imitation:
            bundle.imitation_params = bundle.load_imitation_net(
                art, IMITATION_NET)
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

