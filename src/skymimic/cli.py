"""Command-line pipeline driver.

Subcommands
    gen-data   synthesize the filming corpus
    train      fit one training stage against a corpus
    eval       write confusion matrices, loss tables, attention traces
    segment    cut a multi-style demo video into single-style spans
    imitate    recapture a demo video's style(s) in a fresh scene

Exit codes: 0 success, 2 bad arguments or config value, 3 missing
dependency, 4 numeric failure, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import imitation as imitation_mod
from . import stylenet as stylenet_mod
from .config import ConfigError, ExperimentConfig, parse_overrides
from .controller import SubjectLostError, closed_loop_run
from .dataset import CorpusConfig, DependencyError, load_corpus, load_video
from .nn import NumericError, write_atomic
from .pipeline import ModelBundle, load_encoders, load_net
from .scene import DT, STYLES, GeneratorError, check_style_contract
from .segmenter import prob_curve, segment as segment_video
from .stylenet import VARIANTS
from .training import (build_snippet_corpus, make_live_scene,
                       train_encoders, train_imitation_stage,
                       train_segment_stage, train_style_stage)

# the exit code of each error class a command may raise; a command
# that returns exits 0
EXIT_CODES = {ConfigError: 2, GeneratorError: 2, DependencyError: 3,
              NumericError: 4, FloatingPointError: 4, OSError: 5}

TRAIN_STAGES = ("autoencoder", "style", "imitation", "baseline")


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.load(args.config) if args.config \
        else ExperimentConfig()
    return cfg.updated(parse_overrides(args.set or []))


def _config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(cfg.__dict__, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_manifest(out: Path, cfg: ExperimentConfig, stage: str):
    """Write cfg to out/config_<stage>.txt, which `--config` reads back
    and whose config_hash is the stage's manifest line's, then replace
    `stage`'s line in out's manifest, keeping the lines of the other
    stages already there."""
    cfg.save(out / f"config_{stage}.txt")
    path = out / "manifest.txt"
    lines = {stage: f"{stage} config_hash={_config_hash(cfg)} "
                    f"seed={cfg.seed}"}
    if path.exists():
        for line in path.read_text().splitlines():
            lines.setdefault(line.split(" ", 1)[0], line)
    body = [f"# skymimic artifacts version={__version__}"] \
        + [lines[s] for s in TRAIN_STAGES if s in lines]
    write_atomic(path, ("\n".join(body) + "\n").encode())


def _write_csv(path: Path, rows, cell: str = "{}") -> None:
    """Write rows (a header row first, if any), each cell formatted by
    cell, as comma-separated lines moved into place whole."""
    write_atomic(path, "".join(",".join(cell.format(c) for c in row) + "\n"
                               for row in rows).encode())


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_data(args) -> None:
    """Write the corpus; a bad argument or config value (exit 2) is
    refused before --out is made."""
    cfg = _load_config(args)
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise ConfigError(f"output directory {out} is not empty "
                          f"(use --force to overwrite)")
    styles = None
    if args.styles:
        styles = [s.strip() for s in args.styles.split(",")]
        unknown = [s for s in styles if s not in STYLES]
        if unknown:
            raise ConfigError(f"unknown styles {unknown}")
    corpus_cfg = CorpusConfig(seed=cfg.seed,
                              duration_range=(cfg.duration_min,
                                              cfg.duration_max),
                              subject_height=cfg.subject_height,
                              focal=cfg.focal)
    from .dataset import make_dataset
    records = make_dataset(corpus_cfg, out, styles)
    n_test = sum(r.split == "test" for r in records)
    print(f"wrote {len(records)} videos ({n_test} test) to {out}")


def cmd_train(args) -> None:
    cfg = _load_config(args)
    records = load_corpus(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    train_recs = [r for r in records if r.split == "train"]

    if args.stage == "autoencoder":
        fg_p, bg_p = train_encoders(train_recs, cfg)
        fg_p.save(out / "fg_encoder.bin")
        bg_p.save(out / "bg_encoder.bin")
    elif args.stage == "style":
        fg_p, bg_p = load_encoders(out)
        params, _, table = train_style_stage(records, fg_p, bg_p, cfg)
        params.save(out / "style_net.bin")
        (out / "variants").mkdir(exist_ok=True)
        for name, (vp, _, cm) in table.items():
            vp.save(out / "variants" / f"{_slug(name)}.bin")
            _write_csv(out / "variants" / f"{_slug(name)}_confusion.csv",
                       cm, "{:.6f}")
        seg_params, _ = train_segment_stage(records, fg_p, bg_p, cfg)
        seg_params.save(out / "segment_net.bin")
    else:   # imitation or baseline
        bundle = ModelBundle.load(out)
        dual = args.stage == "imitation"
        params, _ = train_imitation_stage(records, bundle, cfg, dual=dual)
        name = "imitation_net.bin" if dual else "imitation_baseline.bin"
        params.save(out / name)

    _write_manifest(out, cfg, args.stage)
    print(f"stage {args.stage}: artifacts written to {out}")


def _slug(name: str) -> str:
    return name.replace("+", "_")


def cmd_eval(args) -> None:
    bundle = ModelBundle.load(args.artifacts)
    # every net is loaded before the report directory is made
    art = Path(args.artifacts)
    variants = {
        name: load_net(art / "variants" / f"{_slug(name)}.bin",
                       lambda _, c=c: stylenet_mod.init_style_net(c, 0))
        for name, c in VARIANTS.items()}
    trained = {}
    if bundle.imitation_params is not None:
        trained["dual"] = bundle.imitation_params
        if (art / "imitation_baseline.bin").exists():
            trained["baseline"] = bundle.load_imitation_net(
                art / "imitation_baseline.bin")
    records = load_corpus(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    test_recs = [r for r in records if r.split == "test"]

    # each test video is embedded once, for every table below
    from .training import style_examples
    test_ex = style_examples(test_recs, bundle.fg_encoder,
                             bundle.bg_encoder)

    # confusion matrices and accuracies, one per classifier variant
    accuracies = []
    for name, vp in variants.items():
        cm, acc = stylenet_mod.confusion_and_accuracy(test_ex, vp,
                                                      VARIANTS[name])
        accuracies.append([name, f"{acc:.4f}"])
        _write_csv(out / f"confusion_{_slug(name)}.csv", cm, "{:.6f}")
    _write_csv(out / "style_accuracy.csv",
               [["variant", "accuracy"], *accuracies])

    # imitation loss table: dual-objective net vs single-term baseline
    if trained:
        rows = []
        corpus = build_snippet_corpus(test_recs, bundle,
                                      [emb for emb, _ in test_ex])
        for label, params in trained.items():
            table = imitation_mod.evaluate_imitation(corpus, params)
            for style, errs in table.items():
                rows.append([label, style, f"{errs['omega']:.6f}",
                             f"{errs['v']:.6f}", f"{errs['s']:.6f}"])
        _write_csv(out / "imitation_mse.csv",
                   [["model", "style", "omega_mse", "dir_angle_rad",
                     "scale_mse"], *rows])

    # attention traces on the test split
    trace_rows = []
    for rec, (emb, _) in zip(test_recs, test_ex):
        _, _, trace, _ = stylenet_mod.style_forward(
            emb, bundle.style_params, bundle.style_cfg)
        for branch, beta in trace.beta.items():
            for t, b in enumerate(beta):
                trace_rows.append([rec.video_id, rec.style, branch, t,
                                   f"{b:.6f}"])
    _write_csv(out / "attention_traces.csv",
               [["video_id", "style", "branch", "snippet", "beta"],
                *trace_rows])
    print(f"evaluation written to {out}")


def cmd_segment(args) -> None:
    bundle = ModelBundle.load(args.artifacts)
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
        _write_csv(Path(args.curve), [["time_s", *STYLES], *rows])


def cmd_imitate(args) -> None:
    cfg = _load_config(args)
    bundle = ModelBundle.load(args.artifacts, need_imitation=True)
    rec = load_video(Path(args.data), args.video)
    segs = segment_video(rec.fg, rec.bg, bundle)
    print(f"demo {rec.video_id}: {len(segs)} segment(s)")
    for s in segs:
        print(f"  plan: {s.start:6.2f}s-{s.end:6.2f}s  {s.style}")
    if args.dry_run:
        return

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
        _write_csv(out / f"segment_{i}_actions.csv", run.actions, "{:.6f}")
        print(f"segment {i}: wanted {s.style}, recovered {recovered}, "
              f"contract {'ok' if ok else 'violated'}")
    _write_csv(out / "verdicts.csv",
               [["segment", "wanted", "recovered", "verdict"], *verdicts])


# ---------------------------------------------------------------------------
# wiring

def fraction(text: str) -> float:
    """A number in [0, 1]; NaN and infinities are refused."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not in [0, 1]")
    return value


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
    e.add_argument("--data", required=True)
    e.add_argument("--artifacts", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("segment", help="cut a demo into style segments")
    s.add_argument("--data", required=True)
    s.add_argument("--artifacts", required=True)
    s.add_argument("--video", required=True)
    s.add_argument("--threshold", type=fraction, default=0.6,
                   help="cut confidence in [0, 1]")
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
        args.func(args)
    except tuple(EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items()
                    if isinstance(e, cls))
    return 0


if __name__ == "__main__":
    sys.exit(main())
