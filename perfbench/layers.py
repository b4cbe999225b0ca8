"""Layer boundaries the traced run wraps, and the per-layer metrics
derived from their spans.

Each site names the layer it measures; the attribute it wraps is the
binding the calling module uses (see tracer.py).  README.md lists the
end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import math

from tracer import Site


def _rows_in(args, kwargs, result):
    """LSTM input (T, ..., D): rows = T times the batch."""
    return "rows", math.prod(args[0].shape[:-1])


def _rows_out(args, kwargs, result):
    """LSTM backward returns dxs (T, ..., D) first."""
    return "rows", math.prod(result[0].shape[:-1])


def _steps_in(args, kwargs, result):
    return "steps", math.prod(args[0].shape[:-1])


def _steps_out(args, kwargs, result):
    return "steps", math.prod(result[0].shape[:-1])


def _style_steps(args, kwargs, result):
    """style_forward(seq (T, D), params, cfg): LSTM steps over branches."""
    return "steps", args[0].shape[0] * len(args[2].branches)


def _dtw_cells(args, kwargs, result):
    return "cells", len(args[0]) * len(args[1])


def _loop_steps(args, kwargs, result):
    return "steps", len(result.actions)


# Stage drivers and trainers: the layers a bundle build goes through.
SETUP_SITES = [
    Site("dataset.make_dataset", "dataset", "make_dataset"),
    Site("dataset.load_corpus", "dataset", "load_corpus"),
    Site("dataset.render_motion_field", "dataset", "render_motion_field"),
    Site("dataset.project_foreground", "dataset", "project_foreground"),
    Site("training.train_encoders", "training", "train_encoders"),
    Site("training.train_style_stage", "training", "train_style_stage"),
    Site("training.train_segment_stage", "training", "train_segment_stage"),
    Site("training.train_imitation_stage", "training",
         "train_imitation_stage"),
    Site("training.build_snippet_corpus", "training",
         "build_snippet_corpus"),
    Site("features.train_autoencoder", "training", "train_autoencoder"),
    # the full net is trained through training's binding, the ablation
    # variants through stylenet's own
    Site("stylenet.train_style_net", "training", "train_style_net"),
    Site("stylenet.train_style_net", "stylenet", "train_style_net"),
    Site("stylenet.train_segment_net", "training", "train_segment_net"),
    Site("imitation.train_imitation_net", "training",
         "train_imitation_net"),
]

OP_SITES = SETUP_SITES + [
    Site("features.lstm_forward", "features", "lstm_forward", _rows_in),
    Site("features.lstm_backward", "features", "lstm_backward", _rows_out),
    Site("stylenet.lstm_forward", "stylenet", "lstm_forward", _steps_in),
    Site("stylenet.lstm_backward", "stylenet", "lstm_backward", _steps_out),
    Site("features.adamax_update", "features", "adamax_update"),
    Site("stylenet.adamax_update", "stylenet", "adamax_update"),
    Site("imitation.adamax_update", "imitation", "adamax_update"),
    Site("stylenet.style_loss_and_grad", "stylenet", "style_loss_and_grad"),
    Site("imitation.dtw_align", "imitation", "dtw_align", _dtw_cells),
    Site("imitation.sample_training_pair", "imitation",
         "sample_training_pair"),
    Site("imitation.imitation_loss_and_grad", "imitation",
         "imitation_loss_and_grad"),
    Site("segmenter.segment", "segmenter", "segment"),
    Site("segmenter.prob_curve", "segmenter", "prob_curve"),
    Site("segmenter.style_forward", "segmenter", "style_forward",
         _style_steps),
    Site("pipeline.style_forward", "pipeline", "style_forward"),
    Site("pipeline.style_feature", "pipeline.ModelBundle", "style_feature"),
    Site("controller.closed_loop_run", "controller", "closed_loop_run",
         _loop_steps),
    Site("controller.embed_batch", "controller", "embed_batch"),
    Site("controller.predict_action", "controller", "predict_action"),
    Site("controller.render_motion_field", "controller",
         "render_motion_field"),
    Site("controller.project_foreground", "controller", "project_foreground"),
    Site("controller.localize_subject", "controller", "localize_subject"),
    Site("controller.kalman_step", "controller", "kalman_step"),
    Site("controller.next_waypoint", "controller", "next_waypoint"),
    Site("training.make_live_scene", "training", "make_live_scene"),
]

# Called once or a few times per pass: the median per call adds nothing.
_TOTALS_ONLY = {s.name for s in SETUP_SITES} - {
    "dataset.render_motion_field", "dataset.project_foreground"}

COUNTERS = ["features.lstm_forward.rows", "features.lstm_backward.rows",
            "stylenet.lstm_forward.steps", "stylenet.lstm_backward.steps",
            "segmenter.style_forward.steps", "imitation.dtw_align.cells",
            "controller.closed_loop_run.steps"]

DERIVED = [
    ("imitation.sample_training_pair.useful_ratio", "ratio"),
    ("segmenter.span_queries_per_demo", "count"),
    ("controller.closed_loop_run.self_ms_per_step", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
]


def span_names() -> list[str]:
    return list(dict.fromkeys(s.name for s in OP_SITES))


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.ms"] = "ms"
        if name not in _TOTALS_ONLY:
            units[f"{name}.ms_p50"] = "ms"
    units.update({c: "count" for c in COUNTERS})
    units.update(DERIVED)
    return units


def layer_metrics(tracer, demos: int, overhead_pct: float) -> dict:
    """Per-layer values from the tracer's spans.  A name whose site is
    missing from the program yields no metrics."""
    summary = tracer.summary(span_names())
    out = {}
    for name, st in summary.items():
        out[f"{name}.calls"] = st["calls"]
        out[f"{name}.ms"] = st["ms"]
        if name not in _TOTALS_ONLY:
            out[f"{name}.ms_p50"] = st["ms_p50"]
    for key in COUNTERS:
        if key.rsplit(".", 1)[0] in summary:
            out[key] = tracer.counts.get(key, 0.0)
    pair = summary.get("imitation.sample_training_pair")
    if pair is not None:
        out["imitation.sample_training_pair.useful_ratio"] = (
            pair["returned"] / pair["calls"] if pair["calls"] else 0.0)
    if "segmenter.style_forward" in summary:
        out["segmenter.span_queries_per_demo"] = (
            summary["segmenter.style_forward"]["calls"] / demos
            if demos else 0.0)
    loop = summary.get("controller.closed_loop_run")
    if loop is not None:
        steps = tracer.counts.get("controller.closed_loop_run.steps", 0.0)
        out["controller.closed_loop_run.self_ms_per_step"] = (
            loop["ms"] / steps if steps else 0.0)
    out["trace.overhead_pct"] = overhead_pct
    out["trace.spans"] = len(tracer.spans)
    return out
