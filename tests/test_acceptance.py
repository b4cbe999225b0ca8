"""Acceptance gate: one test per release criterion, each printing a
single pass/fail line with its measured numbers.

Criteria
  1  gradient correctness of both training losses
  2  DTW equals brute-force path enumeration
  3  projection -> localization round-trip
  4  style classification accuracy and ablation ordering
  5  dual-objective imitation beats the single-term baseline
  6  two-style segmentation labels and boundary accuracy
  7  closed-loop style recovery with geometric contracts
  8  byte-identical reruns
"""

import filecmp
import time
from pathlib import Path

import numpy as np
import pytest

from skymimic.cli import main as cli_main
from skymimic.dataset import build_video
from skymimic.controller import SubjectLostError, closed_loop_run
from skymimic.geometry import Intrinsics, Pose6D, look_at, \
    project_foreground
from skymimic.controller import localize_subject
from skymimic.imitation import (dtw_align, evaluate_imitation,
                                imitation_loss_and_grad, init_imitation_net,
                                make_action, predict_action)
from oracles import dtw_brute_force, grad_check, imitation_loss
from skymimic.scene import DT, STYLES, check_style_contract
from skymimic.pipeline import demo_conditioning
from skymimic.segmenter import segment
from skymimic.stylenet import (StyleNetConfig, accuracy, init_style_net,
                               style_forward, style_loss, style_loss_and_grad)
from skymimic.training import build_snippet_corpus, make_live_scene, \
    style_examples


def _report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n[{name}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_gradient_correctness(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        cfg = StyleNetConfig(hidden=3, attn_hidden=2, fg_dim=2, bg_dim=2)
        p = init_style_net(cfg, seed)
        seq = rng.normal(0, 1, (3, 4))
        label = int(rng.integers(5))

        def style_loss_only(q):
            _, probs, trace, _ = style_forward(seq, q, cfg)
            return style_loss(probs, label, trace, cfg)[0]

        _, g = style_loss_and_grad(seq, label, p, cfg)
        err = grad_check(style_loss_only, p, g)
        worst = max(worst, err)

        p2 = init_imitation_net(2, 2, seed, hidden1=4, hidden2=3)
        v = rng.normal(0, 1, 2)
        o = rng.normal(0, 1, 2)
        a_prev = make_action(rng.normal(0, 0.3, 3), rng.normal(0, 1, 3),
                             rng.uniform(0.1, 0.9))
        lab_c = make_action(rng.normal(0, 0.3, 3), rng.normal(0, 1, 3),
                            rng.uniform(0.1, 0.9))
        lab_s = make_action(rng.normal(0, 0.3, 3), rng.normal(0, 1, 3),
                            rng.uniform(0.1, 0.9))

        def imitation_loss_only(q):
            pred = predict_action(v, o, a_prev, q)
            return imitation_loss(pred, lab_c, pred, lab_s, lam=0.7)

        _, g2 = imitation_loss_and_grad(v, o, a_prev, lab_c, a_prev, lab_s,
                                        lam=0.7, p=p2)
        err = grad_check(imitation_loss_only, p2, g2)
        worst = max(worst, err)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-4 and dt < 60
    _report(capsys, "criterion-1", ok,
            f"loss gradient checks, 20 seeds: max rel err {worst:.2e} "
            f"(limit 1e-4) in {dt:.1f}s (limit 60s)")


def test_criterion_2_dtw_oracle(capsys):
    t0 = time.perf_counter()
    mismatches = 0
    trials = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        for la in range(1, 7):
            for lb in range(1, 7):
                a = rng.normal(0, 1, (la, 2))
                b = rng.normal(0, 1, (lb, 2))
                fast = dtw_align(a, b)
                slow = dtw_brute_force(a, b)
                trials += 1
                if not (np.isclose(fast.cost, slow.cost)
                        and fast.pairs == slow.pairs):
                    mismatches += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and dt < 60
    _report(capsys, "criterion-2", ok,
            f"DTW vs brute force: {mismatches}/{trials} mismatches "
            f"in {dt:.1f}s (limit 60s)")


def test_criterion_3_geometry_roundtrip(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    K = Intrinsics()
    worst = 0.0
    done = 0
    while done < 1000:
        subj = Pose6D(np.array([rng.uniform(-30, 30), rng.uniform(-30, 30),
                                rng.uniform(0.5, 1.5)]),
                      yaw=rng.uniform(-np.pi, np.pi))
        bearing = rng.uniform(-np.pi, np.pi)
        cam_pos = subj.position + np.array(
            [rng.uniform(4, 30) * np.cos(bearing),
             rng.uniform(4, 30) * np.sin(bearing),
             rng.uniform(0.5, 8.0)])
        cam = look_at(cam_pos, subj.position)
        fg = project_foreground(cam, K, subj, 1.7)
        back = localize_subject(fg, cam, K, 1.7)
        worst = max(worst, float(np.linalg.norm(back - subj.position)))
        done += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6 and dt < 10
    _report(capsys, "criterion-3", ok,
            f"projection/localization round-trip, 1000 configs: "
            f"max error {worst:.2e} m (limit 1e-6) in {dt:.1f}s (limit 10s)")


def test_criterion_4_style_classification(capsys, pipeline):
    test_recs = [r for r in pipeline.records if r.split == "test"]
    test_ex = style_examples(test_recs, pipeline.bundle.fg_encoder,
                             pipeline.bundle.bg_encoder)
    full_p, full_cfg, _ = pipeline.variants["fg+bg+att"]
    acc = accuracy(test_ex, full_p, full_cfg)
    diag = {name: float(np.mean(np.diag(cm)))
            for name, (_, _, cm) in pipeline.variants.items()}
    ordering = (diag["fg+bg+att"] >= diag["fg+bg"] >=
                max(diag["fg-only"], diag["bg-only"]))
    ok = acc >= 0.90 and ordering and pipeline.style_time < 1800
    _report(capsys, "criterion-4", ok,
            f"style accuracy {acc:.3f} on {len(test_ex)} test videos "
            f"(limit 0.90); mean-diagonal ordering "
            f"att={diag['fg+bg+att']:.3f} >= fg+bg={diag['fg+bg']:.3f} >= "
            f"max(fg={diag['fg-only']:.3f}, bg={diag['bg-only']:.3f}): "
            f"{ordering}; variant training {pipeline.style_time:.0f}s "
            f"(limit 1800s)")


def test_criterion_5_dual_loss_trend(capsys, pipeline):
    t0 = time.perf_counter()
    test_recs = [r for r in pipeline.records if r.split == "test"]
    corpus = build_snippet_corpus(test_recs, pipeline.bundle)
    dual = evaluate_imitation(corpus, pipeline.bundle.imitation_params)
    base = evaluate_imitation(corpus, pipeline.baseline)
    wins_w = sum(dual[s]["omega"] <= base[s]["omega"] for s in dual)
    wins_v = sum(dual[s]["v"] <= base[s]["v"] for s in dual)
    dt = time.perf_counter() - t0
    ok = wins_w >= 3 and wins_v >= 3 and dt < 300
    _report(capsys, "criterion-5", ok,
            f"dual loss <= baseline on {wins_w}/5 styles for omega and "
            f"{wins_v}/5 for direction (limit 3/5 each) in {dt:.1f}s "
            f"(limit 300s)")


def test_criterion_6_segmentation(capsys, pipeline):
    t0 = time.perf_counter()
    K = Intrinsics()
    rng = np.random.default_rng(6)
    hits = 0
    for trial in range(100):
        sa, sb = rng.choice(len(STYLES), size=2, replace=False)
        a = build_video(f"c6-{trial}a", STYLES[sa], "test",
                        int(rng.integers(1 << 31)), K,
                        duration_range=(8.0, 15.0))
        b = build_video(f"c6-{trial}b", STYLES[sb], "test",
                        int(rng.integers(1 << 31)), K,
                        duration_range=(8.0, 15.0))
        fg = np.concatenate([a.fg, b.fg])
        bg = np.concatenate([a.bg, b.bg])
        boundary = a.n_frames * DT
        segs = segment(fg, bg, pipeline.bundle)
        if (len(segs) == 2 and segs[0].style == a.style
                and segs[1].style == b.style
                and abs(segs[0].end - boundary) <= 1.0):
            hits += 1
    dt = time.perf_counter() - t0
    ok = hits >= 90 and dt < 600
    _report(capsys, "criterion-6", ok,
            f"two-style segmentation: {hits}/100 with correct labels and "
            f"boundary within 1s (limit 90) in {dt:.1f}s (limit 600s)")


def test_criterion_7_closed_loop_recovery(capsys, pipeline):
    t0 = time.perf_counter()
    test_recs = [r for r in pipeline.records if r.split == "test"]
    rng = np.random.default_rng(7)
    per_style = {}
    contract_fails = 0
    for style in STYLES:
        demos = [r for r in test_recs if r.style == style][:5]
        correct = 0
        for demo in demos:
            v, _, _ = pipeline.bundle.style_feature(demo.fg, demo.bg)
            scene, duration = make_live_scene(style, rng, pipeline.cfg)
            try:
                run = closed_loop_run(v, scene, pipeline.bundle, duration,
                                      demo.actions)
            except SubjectLostError:
                contract_fails += 1
                continue
            if STYLES[pipeline.bundle.classify_features(run.fg, run.bg)] \
                    == style:
                correct += 1
            ok_contract, _ = check_style_contract(style, run.frames,
                                                  strict=False)
            contract_fails += not ok_contract
        per_style[style] = correct / max(len(demos), 1)
    dt = time.perf_counter() - t0
    ok = all(rate >= 0.8 for rate in per_style.values()) \
        and contract_fails == 0 and dt < 1200
    rates = ", ".join(f"{s}={r:.2f}" for s, r in per_style.items())
    _report(capsys, "criterion-7", ok,
            f"closed-loop recovery {rates} (limit 0.80 each); "
            f"{contract_fails} contract violations (limit 0) in "
            f"{dt:.1f}s (limit 1200s)")


def test_criterion_8_determinism(capsys, tmp_path):
    fast = ["--set", "seed=3", "--set", "autoencoder_epochs=1",
            "--set", "style_epochs=1", "--set", "seg_epochs=1",
            "--set", "imitation_epochs=1", "--set", "imitation_steps=10"]
    outputs = []
    for run in ("one", "two"):
        root = tmp_path / run
        data, art, report = root / "data", root / "art", root / "report"
        assert cli_main(["gen-data", "--out", str(data),
                         "--styles", "fly-by,follow"] + fast) == 0
        for stage in ("autoencoder", "style", "imitation"):
            assert cli_main(["train", "--data", str(data), "--out",
                             str(art), "--stage", stage] + fast) == 0
        assert cli_main(["eval", "--data", str(data), "--artifacts",
                         str(art), "--out", str(report)]) == 0
        outputs.append(root)
    differing: list[str] = []
    for path in sorted(outputs[0].rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(outputs[0])
        twin = outputs[1] / rel
        if not (twin.is_file()
                and filecmp.cmp(path, twin, shallow=False)):
            differing.append(str(rel))
    ok = not differing
    _report(capsys, "criterion-8", ok,
            f"rerun determinism: {len(differing)} differing files"
            + (f" ({differing[:3]})" if differing else
               " out of "
               f"{sum(1 for p in outputs[0].rglob('*') if p.is_file())}"))
