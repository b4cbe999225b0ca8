"""Command-line pipeline driver.

Subcommands
    gen-data   synthesize the filming corpus
    train      fit one training stage against a corpus
    eval       write confusion matrices, loss tables, attention traces
    segment    cut a multi-style demo video into single-style spans
    imitate    recapture a demo video's style(s) in a fresh scene

Exit codes: 0 success, 2 bad arguments, 3 missing dependency,
4 numeric failure, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import imitation as imitation_mod
from . import stylenet as stylenet_mod
from .config import ConfigError, ExperimentConfig, parse_overrides
from .controller import SubjectLostError, closed_loop_run
from .dataset import CorpusConfig, load_corpus, load_video, \
    write_text_atomic
from .geometry import Intrinsics
from .nn import NumericError, ParamSet
from .pipeline import DependencyError, ModelBundle
from .scene import (DT, DURATION_MAX, DURATION_MIN, STYLES, GeneratorError,
                    check_style_contract)
from .segmenter import prob_curve, segment as segment_video
from .stylenet import VARIANTS
from .training import (build_snippet_corpus, make_live_scene,
                       train_encoders, train_imitation_stage,
                       train_segment_stage, train_style_stage)

EXIT_OK = 0
EXIT_ARGS = 2
EXIT_DEPENDENCY = 3
EXIT_NUMERIC = 4
EXIT_IO = 5

TRAIN_STAGES = ("autoencoder", "style", "imitation", "baseline")


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if getattr(args, "config", None):
        cfg = ExperimentConfig.load(args.config)
    if getattr(args, "set", None):
        cfg = cfg.updated(parse_overrides(args.set))
    if not (DURATION_MIN <= cfg.duration_min <= cfg.duration_max
            <= DURATION_MAX):
        raise ConfigError(
            f"duration_min={cfg.duration_min}, duration_max="
            f"{cfg.duration_max}: shots must last {DURATION_MIN} to "
            f"{DURATION_MAX} s, with duration_min <= duration_max")
    try:
        Intrinsics(focal=cfg.focal)
    except ValueError as e:
        raise ConfigError(f"focal={cfg.focal}: {e}") from e
    if not cfg.subject_height > 0:
        raise ConfigError(f"subject_height={cfg.subject_height}: the "
                          f"subject's height must be positive")
    return cfg


def _config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(cfg.__dict__, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_manifest(out: Path, cfg: ExperimentConfig, lines: list[str]):
    body = [f"config_hash {_config_hash(cfg)}", f"seed {cfg.seed}"] + lines
    write_text_atomic(out / "manifest.txt", "\n".join(body) + "\n")


def _need_data(path: Path) -> None:
    """Report an absent corpus file or video before any output is made."""
    if not path.exists():
        raise DependencyError(f"no {path.name} in {path.parent}")


def _write_csv(path: Path, header: list[str], rows: list[list]):
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(str(c) for c in row) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        print(f"error: output directory {out} is not empty "
              f"(use --force to overwrite)", file=sys.stderr)
        return EXIT_ARGS
    styles = None
    if args.styles:
        styles = [s.strip() for s in args.styles.split(",")]
        unknown = [s for s in styles if s not in STYLES]
        if unknown:
            print(f"error: unknown styles {unknown}", file=sys.stderr)
            return EXIT_ARGS
    corpus_cfg = CorpusConfig(seed=cfg.seed,
                              duration_range=(cfg.duration_min,
                                              cfg.duration_max),
                              subject_height=cfg.subject_height,
                              focal=cfg.focal)
    from .dataset import make_dataset
    records = make_dataset(corpus_cfg, out, styles)
    n_test = sum(r.split == "test" for r in records)
    print(f"wrote {len(records)} videos ({n_test} test) to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args)
    _need_data(Path(args.data) / "manifest.txt")
    records = load_corpus(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train_recs = [r for r in records if r.split == "train"]

    if args.stage == "autoencoder":
        fg_p, bg_p = train_encoders(train_recs, cfg)
        fg_p.save(out / "fg_encoder.bin")
        bg_p.save(out / "bg_encoder.bin")
        lines = ["stage autoencoder"]
    elif args.stage == "style":
        fg_p, bg_p = _need_encoders(out)
        params, net_cfg, table = train_style_stage(records, fg_p, bg_p, cfg)
        params.meta["hidden"] = net_cfg.hidden
        params.save(out / "style_net.bin")
        (out / "variants").mkdir(exist_ok=True)
        for name, (vp, vcfg, cm) in table.items():
            vp.meta["variant"] = name
            vp.save(out / "variants" / f"{_slug(name)}.bin")
            np.savetxt(out / "variants" / f"{_slug(name)}_confusion.csv",
                       cm, delimiter=",", fmt="%.6f")
        seg_params, _ = train_segment_stage(records, fg_p, bg_p, cfg)
        seg_params.save(out / "segment_net.bin")
        lines = ["stage style", "segment net"] \
            + [f"variant {n}" for n in table]
    elif args.stage in ("imitation", "baseline"):
        bundle = ModelBundle.load(out)
        dual = args.stage == "imitation"
        params, _ = train_imitation_stage(records, bundle, cfg, dual=dual)
        name = "imitation_net.bin" if dual else "imitation_baseline.bin"
        params.save(out / name)
        lines = [f"stage {args.stage}"]
    else:  # pragma: no cover - argparse restricts choices
        return EXIT_ARGS

    _write_manifest(out, cfg, lines)
    print(f"stage {args.stage}: artifacts written to {out}")
    return EXIT_OK


def _slug(name: str) -> str:
    return name.replace("+", "_")


def _need_encoders(art: Path):
    for fname in ("fg_encoder.bin", "bg_encoder.bin"):
        if not (art / fname).exists():
            raise DependencyError(
                f"missing artifact {fname}; run the autoencoder stage first")
    return ParamSet.load(art / "fg_encoder.bin"), \
        ParamSet.load(art / "bg_encoder.bin")


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    bundle = ModelBundle.load(args.artifacts)
    _need_data(Path(args.data) / "manifest.txt")
    records = load_corpus(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    test_recs = [r for r in records if r.split == "test"]

    # confusion matrices, one per classifier variant
    from .training import style_examples
    test_ex = style_examples(test_recs, bundle.fg_encoder,
                             bundle.bg_encoder)
    var_dir = Path(args.artifacts) / "variants"
    if not var_dir.is_dir():
        raise DependencyError(
            "missing variants directory; run the style stage first")
    accuracies = []
    for name in VARIANTS:
        path = var_dir / f"{_slug(name)}.bin"
        if not path.exists():
            raise DependencyError(f"missing variant artifact {path.name}")
        vp = ParamSet.load(path)
        vcfg = VARIANTS[name]
        cm = stylenet_mod.confusion_matrix(test_ex, vp, vcfg)
        acc = stylenet_mod.accuracy(test_ex, vp, vcfg)
        accuracies.append([name, f"{acc:.4f}"])
        np.savetxt(out / f"confusion_{_slug(name)}.csv", cm,
                   delimiter=",", fmt="%.6f")
    _write_csv(out / "style_accuracy.csv", ["variant", "accuracy"],
               accuracies)

    # imitation loss table: dual-objective net vs single-term baseline
    rows = []
    imit = Path(args.artifacts) / "imitation_net.bin"
    base = Path(args.artifacts) / "imitation_baseline.bin"
    if imit.exists():
        corpus = build_snippet_corpus(test_recs, bundle)
        trained = {"dual": ParamSet.load(imit)}
        if base.exists():
            trained["baseline"] = ParamSet.load(base)
        for label, params in trained.items():
            table = imitation_mod.evaluate_imitation(corpus, params)
            for style, errs in table.items():
                rows.append([label, style, f"{errs['omega']:.6f}",
                             f"{errs['v']:.6f}", f"{errs['s']:.6f}"])
        _write_csv(out / "imitation_mse.csv",
                   ["model", "style", "omega_mse", "dir_angle_rad",
                    "scale_mse"], rows)

    # attention traces on the test split
    trace_rows = []
    for rec in test_recs:
        _, _, trace = bundle.style_feature(rec.fg, rec.bg)
        for branch, beta in trace.beta.items():
            for t, b in enumerate(beta):
                trace_rows.append([rec.video_id, rec.style, branch, t,
                                   f"{b:.6f}"])
    _write_csv(out / "attention_traces.csv",
               ["video_id", "style", "branch", "snippet", "beta"],
               trace_rows)
    print(f"evaluation written to {out}")
    return EXIT_OK


def cmd_segment(args) -> int:
    bundle = ModelBundle.load(args.artifacts)
    _need_data(Path(args.data) / args.video)
    rec = load_video(Path(args.data), args.video)
    segs = segment_video(rec.fg, rec.bg, bundle, threshold=args.threshold,
                         mode=args.mode)
    for s in segs:
        print(f"{s.start:7.2f}s  {s.end:7.2f}s  {s.style:12s} "
              f"peak={s.peak_prob:.3f}")
    if args.curve:
        curve = prob_curve(rec.fg, rec.bg, bundle)
        rows = [[f"{t:.2f}"] + [f"{p:.4f}" for p in row]
                for t, row in zip(curve.times, curve.probs)]
        _write_csv(Path(args.curve), ["time_s"] + list(STYLES), rows)
    return EXIT_OK


def cmd_imitate(args) -> int:
    cfg = _load_config(args)
    bundle = ModelBundle.load(args.artifacts, need_imitation=True)
    _need_data(Path(args.data) / args.video)
    rec = load_video(Path(args.data), args.video)
    segs = segment_video(rec.fg, rec.bg, bundle)
    print(f"demo {rec.video_id}: {len(segs)} segment(s)")
    for s in segs:
        print(f"  plan: {s.start:6.2f}s-{s.end:6.2f}s  {s.style}")
    if args.dry_run:
        return EXIT_OK

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed + 17)
    verdicts = []
    for i, s in enumerate(segs):
        lo, hi = int(round(s.start / DT)), int(round(s.end / DT))
        v, _, _ = bundle.style_feature(rec.fg[lo:hi], rec.bg[lo:hi])
        scene, duration = make_live_scene(s.style, rng, cfg)
        try:
            run = closed_loop_run(v, scene, bundle, duration,
                                  rec.actions[lo:hi])
        except SubjectLostError as e:
            print(f"segment {i}: subject lost ({e})")
            verdicts.append([i, s.style, "lost", ""])
            continue
        idx = bundle.classify_features(run.fg, run.bg)
        recovered = STYLES[idx]
        ok, _ = check_style_contract(s.style, run.frames, strict=False)
        verdicts.append([i, s.style, recovered,
                         "ok" if ok and recovered == s.style else "miss"])
        np.savetxt(out / f"segment_{i}_actions.csv", run.actions,
                   delimiter=",", fmt="%.6f")
        print(f"segment {i}: wanted {s.style}, recovered {recovered}, "
              f"contract {'ok' if ok else 'violated'}")
    _write_csv(out / "verdicts.csv",
               ["segment", "wanted", "recovered", "verdict"], verdicts)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="skymimic",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config value")

    g = sub.add_parser("gen-data", help="synthesize the filming corpus")
    common(g)
    g.add_argument("--out", required=True)
    g.add_argument("--styles", help="comma-separated subset of styles")
    g.add_argument("--force", action="store_true",
                   help="allow writing into a non-empty directory")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="fit one training stage")
    common(t)
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--stage", required=True, choices=TRAIN_STAGES)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="write evaluation tables")
    common(e)
    e.add_argument("--data", required=True)
    e.add_argument("--artifacts", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("segment", help="cut a demo into style segments")
    s.add_argument("--data", required=True)
    s.add_argument("--artifacts", required=True)
    s.add_argument("--video", required=True)
    s.add_argument("--threshold", type=float, default=0.6)
    s.add_argument("--mode", choices=("relative", "absolute"),
                   default="relative")
    s.add_argument("--curve", help="also write the probability curve CSV")
    s.set_defaults(func=cmd_segment)

    m = sub.add_parser("imitate", help="recapture a demo in a fresh scene")
    common(m)
    m.add_argument("--data", required=True)
    m.add_argument("--artifacts", required=True)
    m.add_argument("--video", required=True)
    m.add_argument("--out", default="runs")
    m.add_argument("--dry-run", action="store_true",
                   help="print the segment plan and stop")
    m.set_defaults(func=cmd_imitate)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ConfigError, GeneratorError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ARGS
    except DependencyError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DEPENDENCY
    except (NumericError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
