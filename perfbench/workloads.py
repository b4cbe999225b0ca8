"""The three benchmark workloads: train, segment and recapture.

Each workload builds its inputs from the seed during `setup` and then
serves operations from a fixed pool.  The harness in run.py times every
operation, runs whole passes over the pool so that each run sees the
same mix of input sizes, and counts an operation as failed when it
raises or when `op` reports a problem with its output.

Every call into the program goes through a module attribute
(`training.train_encoders`, `segmenter.segment`, ...) so that the
tracer's wrappers see it.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from skymimic import (config, controller, dataset, features, geometry,
                      pipeline, scene, segmenter, stylenet, training)

STYLES = scene.STYLES


@dataclass(frozen=True)
class Sizes:
    """Corpus sizes and epoch counts.  The network shapes stay at the
    program's defaults (AE batch 64, window 8, fg/bg 5/128 -> 32/64,
    style hidden 64, one sequence per style step)."""

    # train: the gate fixture's schedule at reduced size
    train_videos: int = 7           # per style, 8-20 s long
    train_test_every: int = 3       # every 3rd length is held out
    train_ae_epochs: int = 5        # fewer leave the bg loss on a plateau
    train_style_epochs: int = 3
    train_seg_epochs: int = 3
    train_imitation_epochs: int = 3
    train_imitation_steps: int = 60
    train_min_passes: int = 4
    # segment and recapture: the bundle trained during set-up
    bundle_videos: int = 3          # per style, 8-20 s long, all for training
    bundle_ae_epochs: int = 3
    bundle_style_epochs: int = 3
    bundle_seg_epochs: int = 3
    bundle_imitation_epochs: int = 3
    bundle_imitation_steps: int = 100
    # operation pools: with 5 or 15 entries both the p50 and the p90 fall
    # in the middle of one entry's repeats, not between two entries
    segment_demos: int = 5
    recapture_demos: int = 15
    # enough operations to leave ten beyond the p90
    min_ops: int = 100
    setup_repeats: int = 3


def experiment_config(seed: int, ae: int, style: int, seg: int, imit: int,
                      steps: int):
    return config.ExperimentConfig(
        seed=seed, autoencoder_epochs=ae, style_epochs=style,
        seg_epochs=seg, imitation_epochs=imit, imitation_steps=steps)


def make_corpus(seed: int, out: Path, lengths, test_every: int = 0):
    """Generate the corpus on disk and read it back, as `gen-data`
    followed by `train` does.  Every style gets one video of each
    length, so the training work does not swing with the seed's draw
    of lengths; with test_every = n, every n-th length is held out."""
    records = []
    for i, seconds in enumerate(lengths):
        test = 1 if test_every and i % test_every == test_every - 1 else 0
        cfg = dataset.CorpusConfig(
            counts={s: 1 for s in STYLES},
            test_counts={s: test for s in STYLES},
            seed=seed * len(lengths) + i, duration_range=(seconds, seconds))
        dataset.make_dataset(cfg, out / f"len{i}")
        records += dataset.load_corpus(out / f"len{i}")
    return records


def build_clip(seed: int, tag: str, style: str, seconds: float):
    """One single-style clip of an exact length."""
    return dataset.build_video(tag, style, "test", seed,
                               geometry.Intrinsics(),
                               duration_range=(seconds, seconds))


def losses_of(log) -> list[float]:
    return [e["train_loss"] if isinstance(e, dict) else float(e)
            for e in log]


def loss_problems(stage: str, logs) -> list[str]:
    """A stage passes when every log it produced is finite and its last
    epoch's loss is below its first."""
    if not logs:
        return [f"{stage}: no loss log captured"]
    out = []
    for log in logs:
        losses = losses_of(log)
        if not losses or not np.all(np.isfinite(losses)):
            out.append(f"{stage}: non-finite or empty losses {losses}")
        elif len(losses) > 1 and not losses[-1] < losses[0]:
            out.append(f"{stage}: last epoch loss {losses[-1]:.4g} is not "
                       f"below the first {losses[0]:.4g}")
    return out


class Tap:
    """Records the return values of the wrapped trainers so the train
    workload can check their loss logs; the stage drivers drop them."""

    SITES = {"autoencoder": ("training", "train_autoencoder"),
             "style": ("stylenet", "train_style_net"),
             "segment": ("training", "train_segment_net")}

    def __init__(self, lap=lambda: None):
        self.lap = lap
        self.logs = {stage: [] for stage in self.SITES}
        self.present = set()
        self._undo = []

    def __enter__(self):
        mods = {"training": training, "stylenet": stylenet}
        for stage, (mod, attr) in self.SITES.items():
            fn = getattr(mods[mod], attr, None)
            if fn is None:
                continue
            self.present.add(stage)
            self._undo.append((mods[mod], attr, fn))
            setattr(mods[mod], attr, self._wrap(stage, fn))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def _wrap(self, stage, fn):
        def tapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.logs[stage].append(result[1])
            self.lap()
            return result
        return tapped


def train_bundle(records, cfg, ablations: bool, lap=lambda: None):
    """The gate fixture's training order, calling `lap` after each
    stage.  Returns the bundle and the imitation loss logs; with
    ablations, the baseline imitation net is trained too."""
    train_recs = [r for r in records if r.split == "train"]
    fg_p, bg_p = training.train_encoders(train_recs, cfg)
    lap()
    params, net_cfg, _ = training.train_style_stage(records, fg_p, bg_p, cfg,
                                                    variants=ablations)
    lap()
    seg_params, _ = training.train_segment_stage(records, fg_p, bg_p, cfg)
    lap()
    bundle = pipeline.ModelBundle(fg_p, bg_p, params, net_cfg,
                                  segment_params=seg_params)
    dual, dual_log = training.train_imitation_stage(records, bundle, cfg,
                                                    dual=True)
    lap()
    bundle.imitation_params = dual
    logs = [dual_log]
    if ablations:
        _, base_log = training.train_imitation_stage(records, bundle, cfg,
                                                     dual=False)
        logs.append(base_log)
    return bundle, logs


class Workload:
    name = ""
    pool_size = 1
    # reference kernel steps (batch 1, batch 64), see clock.py
    reference_mix = (140, 0)

    @staticmethod
    def lap() -> None:
        """Marks a point inside an operation where the harness may
        re-measure machine speed; the harness replaces it."""

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    @property
    def min_ops(self) -> int:
        return self.sizes.min_ops

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def op(self, k: int) -> tuple[list[str], dict]:
        """Run operation k; returns (output problems, measurements)."""
        raise NotImplementedError

    def details(self, ops) -> dict:
        """The workload's own end-to-end figures: name -> (value, unit)."""
        return {}

    def outcomes(self, ops) -> dict:
        """Recorded, not gated: results a numerics change would move."""
        return {}


class Train(Workload):
    """One pass of the gate fixture's training schedule on a corpus
    built during set-up."""

    name = "train"
    reference_mix = (40, 8)  # the autoencoders run at batch 64

    @property
    def min_ops(self) -> int:
        return self.sizes.train_min_passes

    def setup(self, seed, workdir):
        s = self.sizes
        self.records = make_corpus(seed, workdir / "corpus",
                                   np.linspace(8.0, 20.0, s.train_videos),
                                   s.train_test_every)
        self.cfg = experiment_config(seed, s.train_ae_epochs,
                                     s.train_style_epochs,
                                     s.train_seg_epochs,
                                     s.train_imitation_epochs,
                                     s.train_imitation_steps)

    def op(self, k):
        with Tap(self.lap) as tap:
            _, imit_logs = train_bundle(self.records, self.cfg,
                                        ablations=True, lap=self.lap)
        problems = []
        for stage in sorted(tap.present):
            problems += loss_problems(stage, tap.logs[stage])
        problems += loss_problems("imitation", imit_logs)
        final = {f"{stage}_{i}": losses_of(log)[-1]
                 for stage, logs in tap.logs.items()
                 for i, log in enumerate(logs) if losses_of(log)}
        final.update({f"imitation_{i}": losses_of(log)[-1]
                      for i, log in enumerate(imit_logs) if log})
        return problems, {"final_losses": final}

    def details(self, ops):
        times = [o.seconds for o in ops]
        return {"train_s": (float(np.median(times)), "s")}

    def outcomes(self, ops):
        if not ops or "final_losses" not in ops[-1].extra:
            return {}
        return {f"final_loss.{k}": round(v, 6)
                for k, v in ops[-1].extra["final_losses"].items()}


class BundleWorkload(Workload):
    """Set-up shared by segment and recapture: a corpus plus a bundle of
    encoders, full style net, segment net and dual imitation net."""

    def setup(self, seed, workdir):
        s = self.sizes
        records = make_corpus(seed, workdir / "corpus",
                              np.linspace(8.0, 20.0, s.bundle_videos))
        cfg = experiment_config(seed, s.bundle_ae_epochs,
                                s.bundle_style_epochs, s.bundle_seg_epochs,
                                s.bundle_imitation_epochs,
                                s.bundle_imitation_steps)
        self.cfg = cfg
        self.bundle, _ = train_bundle(records, cfg, ablations=False)
        self.seed = seed
        self.build_pool(np.random.default_rng([seed, 1]))

    def build_pool(self, rng) -> None:
        raise NotImplementedError


class Segment(BundleWorkload):
    """Multi-style demos of 2 or 3 clips, 16 s to 60 s long, each cut by
    `segment` and scored by `prob_curve` (`skymimic segment --curve`)."""

    name = "segment"

    @property
    def pool_size(self):
        return self.sizes.segment_demos

    def build_pool(self, rng):
        self.demos = []
        n = self.sizes.segment_demos
        for j, total in enumerate(np.linspace(16.0, 60.0, n)):
            n_clips = 2 if total <= 36.0 else 3
            styles = [STYLES[i] for i in
                      rng.choice(len(STYLES), n_clips, replace=False)]
            clips = [build_clip(int(rng.integers(1 << 31)),
                                f"seg{j}-{c}", st, total / n_clips)
                     for c, st in enumerate(styles)]
            fg = np.concatenate([c.fg for c in clips])
            bg = np.concatenate([c.bg for c in clips])
            bounds = np.cumsum([c.n_frames for c in clips])[:-1] * scene.DT
            self.demos.append((fg, bg, styles, bounds))

    def op(self, k):
        fg, bg, styles, bounds = self.demos[k % len(self.demos)]
        segs = segmenter.segment(fg, bg, self.bundle)
        curve = segmenter.prob_curve(fg, bg, self.bundle)
        duration = fg.shape[0] * scene.DT
        problems = segment_problems(segs, duration) \
            + curve_problems(curve, (fg.shape[0] - features.WINDOW)
                             // features.STRIDE + 1)
        hit = (len(segs) == len(styles)
               and [g.style for g in segs] == styles
               and all(abs(g.end - b) <= 1.0 for g, b in zip(segs, bounds)))
        return problems, {"hit": hit, "clips": len(styles)}

    def details(self, ops):
        ms = [o.seconds * 1e3 for o in ops]
        return {"segment_ms_p50": (float(np.percentile(ms, 50)), "ms"),
                "segment_ms_p90": (float(np.percentile(ms, 90)), "ms")}

    def outcomes(self, ops):
        first = ops[:self.pool_size]
        return {"segment_hits": sum(o.extra.get("hit", False)
                                    for o in first),
                "segment_demos": len(first),
                "segment_hits_2clip": sum(o.extra.get("hit", False)
                                          for o in first
                                          if o.extra.get("clips") == 2)}


def segment_problems(segs, duration: float) -> list[str]:
    if not segs:
        return ["segment: no segments"]
    out = []
    if abs(segs[0].start) > 1e-9 or abs(segs[-1].end - duration) > 1e-9:
        out.append(f"segment: segments span [{segs[0].start}, "
                   f"{segs[-1].end}], not [0, {duration}]")
    for a, b in zip(segs, segs[1:]):
        if abs(a.end - b.start) > 1e-9:
            out.append(f"segment: gap or overlap at {a.end} / {b.start}")
    for g in segs:
        if not g.start < g.end:
            out.append(f"segment: empty segment [{g.start}, {g.end}]")
        if g.style not in STYLES:
            out.append(f"segment: unknown label {g.style!r}")
    return out


def curve_problems(curve, expected_rows: int) -> list[str]:
    probs, times = np.asarray(curve.probs), np.asarray(curve.times)
    out = []
    if probs.shape != (expected_rows, len(STYLES)) \
            or times.shape != (expected_rows,):
        out.append(f"prob_curve: shapes {probs.shape}/{times.shape}, "
                   f"expected {expected_rows} rows")
    elif not (np.all(np.isfinite(probs)) and np.all(probs >= 0.0)):
        out.append("prob_curve: rows are not probabilities")
    elif np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-9:
        out.append("prob_curve: rows do not sum to 1 within 1e-9")
    elif not np.all(np.diff(times) > 0):
        out.append("prob_curve: times are not increasing")
    return out


class Recapture(BundleWorkload):
    """One-shot imitation: recognize a held-out demo, build a fresh live
    scene, fly the closed loop conditioned on the demo's actions and
    classify the recapture."""

    name = "recapture"

    @property
    def pool_size(self):
        return self.sizes.recapture_demos

    def build_pool(self, rng):
        n = self.sizes.recapture_demos
        demo_len = np.linspace(8.0, 20.0, n)
        fly_len = np.linspace(10.0, 14.0, n)[rng.permutation(n)]
        self.demos = []
        for j in range(n):
            style = STYLES[j % len(STYLES)]
            demo = build_clip(int(rng.integers(1 << 31)), f"demo{j}", style,
                              demo_len[j])
            self.demos.append((demo, float(fly_len[j])))

    def op(self, k):
        demo, fly = self.demos[k % len(self.demos)]
        t0 = perf_counter()
        v, _, _ = self.bundle.style_feature(demo.fg, demo.bg)
        t_recognize = perf_counter() - t0
        rng = np.random.default_rng([self.seed, 2, k])
        live, duration = training.make_live_scene(
            demo.style, rng, self.cfg, duration_range=(fly, fly))
        t1 = perf_counter()
        run = controller.closed_loop_run(v, live, self.bundle, duration,
                                         demo.actions)
        loop_s = perf_counter() - t1
        label = STYLES[self.bundle.classify_features(run.fg, run.bg)]
        return run_problems(run, duration), {
            "recognize_s": t_recognize, "loop_s": loop_s,
            "steps": len(run.actions), "recovered": label == demo.style}

    def details(self, ops):
        ms = [o.seconds * 1e3 for o in ops]
        recog = [o.extra["recognize_s"] * 1e3 for o in ops
                 if "recognize_s" in o.extra]
        steps = sum(o.extra.get("steps", 0) for o in ops)
        loop_s = sum(o.extra.get("loop_s", 0.0) for o in ops)
        return {"recapture_ms_p50": (float(np.percentile(ms, 50)), "ms"),
                "recapture_ms_p90": (float(np.percentile(ms, 90)), "ms"),
                "recognize_ms_p50": (float(np.median(recog)), "ms"),
                "control_steps_per_s": (steps / loop_s if loop_s else 0.0,
                                        "1/s")}

    def outcomes(self, ops):
        return {"recapture_recovered": sum(o.extra.get("recovered", False)
                                           for o in ops),
                "recapture_lost": sum(o.error == "SubjectLostError"
                                      for o in ops),
                "recapture_runs": len(ops)}


def run_problems(run, duration: float) -> list[str]:
    actions = np.asarray(run.actions)
    n = int(round(duration / scene.DT))
    out = []
    if actions.shape != (n, 7) or len(run.frames) != n:
        out.append(f"closed_loop_run: {actions.shape[0]} actions and "
                   f"{len(run.frames)} frames, expected {n}")
    if not np.all(np.isfinite(actions)):
        out.append("closed_loop_run: non-finite action")
        return out
    norms = np.linalg.norm(actions[:, 3:6], axis=1)
    if np.max(np.abs(norms - 1.0), initial=0.0) > 1e-6:
        out.append("closed_loop_run: action direction is not unit norm")
    if np.any(actions[:, 6] < 0.0) or np.any(actions[:, 6] > 1.0):
        out.append("closed_loop_run: scale outside [0, 1]")
    return out


WORKLOADS = {w.name: w for w in (Train, Segment, Recapture)}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
