"""Style feature extraction and five-way style classification.

Two parallel LSTM branches read the FG and BG halves of the snippet
embedding sequence; two small attention scorers assign each step a
sigmoid gate; the style feature is the concatenation of the per-branch
attention-weighted sums, classified by a linear layer + softmax.

The training loss is cross-entropy plus per-branch attention magnitude
penalties (lambda/T) * sum |beta_t|. Ablation variants drop a branch
and/or the attention gates (gates replaced by mean pooling); single
branch variants double the hidden width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import BG_EMBED, FG_EMBED
from .nn import (AdamaxState, ParamSet, adamax_update, affine,
                 affine_backward, fit, lstm_backward, lstm_forward,
                 lstm_init, mlp_init, sigmoid, softmax)
from .scene import STYLES

N_CLASSES = len(STYLES)
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class StyleNetConfig:
    use_fg: bool = True
    use_bg: bool = True
    use_attention: bool = True
    hidden: int = 64
    attn_hidden: int = 32
    fg_dim: int = FG_EMBED
    bg_dim: int = BG_EMBED
    lambda_fg: float = 0.01
    lambda_bg: float = 0.01

    @property
    def branches(self) -> list[str]:
        out = []
        if self.use_fg:
            out.append("fg")
        if self.use_bg:
            out.append("bg")
        if not out:
            raise ValueError("at least one branch must be enabled")
        return out

    @property
    def feature_dim(self) -> int:
        return self.hidden * len(self.branches)

    def branch_input(self, name: str) -> slice:
        return slice(0, self.fg_dim) if name == "fg" \
            else slice(self.fg_dim, self.fg_dim + self.bg_dim)


VARIANTS = {
    "fg-only": StyleNetConfig(use_bg=False, use_attention=False, hidden=128),
    "bg-only": StyleNetConfig(use_fg=False, use_attention=False, hidden=128),
    "fg+bg": StyleNetConfig(use_attention=False),
    "fg+bg+att": StyleNetConfig(),
}


@dataclass
class AttentionTrace:
    beta: dict  # branch -> (T,) gates
    c: dict     # branch -> (T, hidden) branch outputs


def init_style_net(cfg: StyleNetConfig, seed: int) -> ParamSet:
    rng = np.random.default_rng(seed)
    p = ParamSet(meta={"kind": "style-net", "variant_hidden": cfg.hidden})
    for name in cfg.branches:
        d_in = cfg.fg_dim if name == "fg" else cfg.bg_dim
        for k, v in lstm_init(rng, d_in, cfg.hidden, f"{name}_").items():
            p[k] = v
        if cfg.use_attention:
            for k, v in mlp_init(rng, [cfg.hidden, cfg.attn_hidden, 1],
                                 prefix=f"a{name}_").items():
                p[k] = v
    for k, v in mlp_init(rng, [cfg.feature_dim, N_CLASSES],
                         prefix="cls_").items():
        p[k] = v
    return p


def _branch(seq: np.ndarray, p: ParamSet, cfg: StyleNetConfig, name: str):
    """One branch's causal LSTM over seq and its pooling weights.

    Returns (xs, cs, caches, a1, gate, count): the span [0, k] pools to
    (gate[:k+1] @ cs[:k+1]) / count[k].  With attention, gate is the
    sigmoid score beta_t and count is 1; mean pooling has gate 1 and
    count k + 1.  a1 is the attention scorer's hidden layer (or None).
    """
    xs = seq[:, cfg.branch_input(name)]
    cs, _, _, caches = lstm_forward(xs, p, prefix=f"{name}_")
    T = cs.shape[0]
    if cfg.use_attention:
        a1 = np.tanh(affine(cs, p[f"a{name}_W0"], p[f"a{name}_b0"]))
        s = affine(a1, p[f"a{name}_W1"], p[f"a{name}_b1"])[:, 0]
        return xs, cs, caches, a1, sigmoid(s), np.ones(T)
    return xs, cs, caches, None, np.ones(T), np.arange(1.0, T + 1.0)


def _check_seq(seq: np.ndarray, who: str) -> np.ndarray:
    seq = np.asarray(seq, float)
    if seq.ndim != 2 or seq.shape[0] < 1:
        raise ValueError(f"{who}: need a nonempty (T, D) sequence")
    return seq


def style_forward(seq: np.ndarray, p: ParamSet, cfg: StyleNetConfig):
    """seq (T, fg_dim+bg_dim) -> (v, probs, trace, cache)."""
    seq = _check_seq(seq, "style_forward")
    parts, trace_beta, trace_c, cache = [], {}, {}, {}
    for name in cfg.branches:
        xs, cs, caches, a1, gate, count = _branch(seq, p, cfg, name)
        beta = gate / count[-1]
        v_part = beta @ cs
        parts.append(v_part)
        trace_beta[name] = beta
        trace_c[name] = cs
        cache[name] = (xs, cs, caches, a1, beta)
    v = np.concatenate(parts)
    logits = affine(v, p["cls_W0"], p["cls_b0"])
    probs = softmax(logits)
    cache["v"] = v
    return v, probs, AttentionTrace(trace_beta, trace_c), cache


def prefix_probs(seq: np.ndarray, p: ParamSet,
                 cfg: StyleNetConfig) -> np.ndarray:
    """seq (T, D) -> (T, 5): row k is style_forward(seq[:k+1])'s probs.

    The LSTM is causal and each pooling weight depends only on its own
    step, so one pass gives every prefix's feature as a running sum.
    """
    seq = _check_seq(seq, "prefix_probs")
    parts = []
    for name in cfg.branches:
        _, cs, _, _, gate, count = _branch(seq, p, cfg, name)
        parts.append(np.cumsum(gate[:, None] * cs, axis=0) / count[:, None])
    return softmax(affine(np.concatenate(parts, axis=1),
                          p["cls_W0"], p["cls_b0"]))


def style_loss(probs: np.ndarray, label: int, trace: AttentionTrace,
               cfg: StyleNetConfig) -> tuple[float, bool]:
    """Cross-entropy + attention penalties. Returns (loss, clamped)."""
    p_true = probs[label]
    clamped = p_true < PROB_FLOOR
    loss = -np.log(max(p_true, PROB_FLOOR))
    if cfg.use_attention:
        for name, lam in (("fg", cfg.lambda_fg), ("bg", cfg.lambda_bg)):
            if name in trace.beta:
                b = trace.beta[name]
                loss += lam / len(b) * np.sum(np.abs(b))
    return float(loss), bool(clamped)


def style_loss_and_grad(seq: np.ndarray, label: int, p: ParamSet,
                        cfg: StyleNetConfig):
    """Full loss and its gradient w.r.t. every parameter."""
    v, probs, trace, cache = style_forward(seq, p, cfg)
    loss, _ = style_loss(probs, label, trace, cfg)
    grads = p.zeros_like()
    dlogits = probs.copy()
    dlogits[label] -= 1.0
    dv, dW, db = affine_backward(dlogits, v, p["cls_W0"])
    grads["cls_W0"] += dW
    grads["cls_b0"] += db
    ofs = 0
    T = seq.shape[0]
    for name in cfg.branches:
        xs, cs, caches, a1, beta = cache[name]
        dv_part = dv[ofs:ofs + cfg.hidden]
        ofs += cfg.hidden
        dc = beta[:, None] * dv_part[None, :]
        if cfg.use_attention:
            lam = cfg.lambda_fg if name == "fg" else cfg.lambda_bg
            dbeta = cs @ dv_part + lam / T  # |beta| = beta for sigmoid gates
            ds = dbeta * beta * (1.0 - beta)
            da1, dW1, db1 = affine_backward(ds[:, None], a1,
                                            p[f"a{name}_W1"])
            grads[f"a{name}_W1"] += dW1
            grads[f"a{name}_b1"] += db1
            dz0 = da1 * (1.0 - a1 * a1)
            dc_att, dW0, db0 = affine_backward(dz0, cs, p[f"a{name}_W0"])
            grads[f"a{name}_W0"] += dW0
            grads[f"a{name}_b0"] += db0
            dc = dc + dc_att
        lstm_backward(dc, caches, p, grads, prefix=f"{name}_")
    return loss, grads


def predict_style(seq: np.ndarray, p: ParamSet, cfg: StyleNetConfig) -> int:
    _, probs, _, _ = style_forward(seq, p, cfg)
    return int(np.argmax(probs))


def accuracy(videos, p: ParamSet, cfg: StyleNetConfig) -> float:
    hits = sum(predict_style(seq, p, cfg) == label for seq, label in videos)
    return hits / max(len(videos), 1)


def confusion_matrix(videos, p: ParamSet, cfg: StyleNetConfig) -> np.ndarray:
    """Row-stochastic 5x5 matrix, rows = true style."""
    counts = np.zeros((N_CLASSES, N_CLASSES))
    for seq, label in videos:
        counts[label, predict_style(seq, p, cfg)] += 1
    rows = counts.sum(axis=1, keepdims=True)
    rows[rows == 0] = 1.0
    return counts / rows


def train_style_net(train, val, cfg: StyleNetConfig, epochs: int = 30,
                    seed: int = 0, lr: float = 0.001):
    """train/val: lists of (embedding sequence, label index).

    Returns (params of the best-validation-accuracy epoch, log), where
    log is a list of dicts with epoch, mean train loss and val accuracy.
    """
    return _train_classifier(train, val, cfg, epochs, seed, lr, "style net")


def train_segment_net(train, val, cfg: StyleNetConfig, epochs: int = 60,
                      seed: int = 0, lr: float = 0.001,
                      crop_prob: float = 0.7, min_crop: int = 5):
    """Classifier trained for the segmenter's short-span queries.

    Same architecture and data as train_style_net, but each example is
    randomly cropped to a contiguous sub-span (crop_prob of the time,
    at least min_crop snippets) so the net stays calibrated on the
    partial spans the segmenter scores on either side of a candidate
    cut.  The whole-video classifier is trained separately and is not
    affected.  Returns (params of the best-validation epoch, log).
    """
    return _train_classifier(train, val, cfg, epochs, seed, lr,
                             "segment net", crop=(crop_prob, min_crop))


def _train_classifier(train, val, cfg: StyleNetConfig, epochs: int,
                      seed: int, lr: float, what: str, crop=None):
    """train_style_net, or with crop = (crop_prob, min_crop) the
    segment net."""
    p = init_style_net(cfg, seed)
    state = AdamaxState(p, lr=lr)
    rng = np.random.default_rng(seed + 1)

    def examples():
        for i in rng.permutation(len(train)):
            seq, label = train[i]
            t = seq.shape[0]
            if crop and rng.random() < crop[0] and t > crop[1]:
                w = int(rng.integers(crop[1], t + 1))
                lo = int(rng.integers(t - w + 1))
                seq = seq[lo:lo + w]
            yield seq, label

    return fit(p, examples,
               lambda ex: style_loss_and_grad(ex[0], ex[1], p, cfg),
               lambda grads: adamax_update(p, grads, state), epochs, what,
               validate=lambda q: accuracy(val, q, cfg))


def train_ablation_variants(train, val, test, epochs: int = 30,
                            seed: int = 0, lr: float = 0.001):
    """Train all four baselines on identical data and seeds.

    Returns {variant: (params, config, confusion matrix on test)}.
    """
    out = {}
    for name, cfg in VARIANTS.items():
        p, _ = train_style_net(train, val, cfg, epochs=epochs, seed=seed,
                               lr=lr)
        out[name] = (p, cfg, confusion_matrix(test, p, cfg))
    return out
