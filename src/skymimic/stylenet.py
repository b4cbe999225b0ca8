"""Style feature extraction and five-way style classification.

Two parallel LSTM branches read the FG and BG halves of the snippet
embedding sequence; an attention scorer per branch, a one-hidden-layer
tanh MLP, gives each step a sigmoid gate; the style feature is the
concatenation of the per-branch attention-weighted sums, classified by
a linear layer + softmax.  Both branches, and every span a
`style_forward` call scores, run as one stack of cells in one LSTM step
loop (see `nn.lstm_forward`); the scorers and the classifier run on
`nn.mlp_forward`/`mlp_backward`.

The training loss is cross-entropy plus per-branch attention magnitude
penalties (lambda/T) * sum |beta_t|. Ablation variants drop a branch
and/or the attention gates (gates replaced by mean pooling); single
branch variants double the hidden width.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .features import BG_EMBED, FG_EMBED
from .nn import (AdamaxState, ParamSet, adamax_update, fit, lstm_backward,
                 lstm_forward, lstm_init, mlp_backward, mlp_forward,
                 mlp_init, sigmoid, softmax)
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
    arrays = {}
    for name in cfg.branches:
        d_in = cfg.fg_dim if name == "fg" else cfg.bg_dim
        arrays |= lstm_init(rng, d_in, cfg.hidden, f"{name}_")
        if cfg.use_attention:
            arrays |= mlp_init(rng, [cfg.hidden, cfg.attn_hidden, 1],
                               prefix=f"a{name}_")
    arrays |= mlp_init(rng, [cfg.feature_dim, N_CLASSES], prefix="cls_")
    # drawn in the order above; the branches' Wh lead the layout side by
    # side, so their stacked recurrent block is a view of the vector
    wh = {q + "Wh": arrays[q + "Wh"] for q in _cells(cfg)}
    return ParamSet(wh | arrays,
                    {"kind": "style-net", "config": asdict(cfg)})


def _cells(cfg: StyleNetConfig) -> tuple[str, ...]:
    """The branches' LSTM parameter prefixes, in branch order."""
    return tuple(f"{name}_" for name in cfg.branches)


def _lstm(seq: np.ndarray, p: ParamSet, cfg: StyleNetConfig, starts=None):
    """Every branch's causal LSTM over seq in one stacked step loop.

    The branches' inputs lie side by side in seq, fg's columns before
    bg's, as a stack of cells reads them. Returns lstm_forward's (hs, h,
    c, cache): hs is (T, B, hidden), or (T, S, B, hidden) with one run
    per row of starts, each reading seq from that row on.
    """
    cols = slice(cfg.branch_input(cfg.branches[0]).start,
                 cfg.branch_input(cfg.branches[-1]).stop)
    return lstm_forward(seq[:, cols], p, _cells(cfg), starts=starts)


def _pooling(cs: np.ndarray, p: ParamSet, cfg: StyleNetConfig, name: str):
    """One branch's pooling weights over its LSTM outputs cs (T, hidden).

    Returns (acts, gate, norm); the run pools to (gate @ cs) / norm.
    With attention they are the scorer's mlp_forward cache, the sigmoid
    scores beta_t and 1.0; mean pooling gives (None, ones, T).
    """
    if cfg.use_attention:
        s, acts = mlp_forward(cs, p, 2, prefix=f"a{name}_")
        return acts, sigmoid(s[:, 0]), 1.0
    return None, np.ones(cs.shape[0]), float(cs.shape[0])


def _pool(hs: np.ndarray, p: ParamSet, cfg: StyleNetConfig):
    """One run's hs (T, B, hidden) -> (v, trace, each scorer's cache)."""
    parts, beta, c, acts = [], {}, {}, {}
    for b, name in enumerate(cfg.branches):
        cs = hs[:, b]
        acts[name], gate, norm = _pooling(cs, p, cfg, name)
        beta[name] = gate / norm
        c[name] = cs
        parts.append(beta[name] @ cs)
    return np.concatenate(parts), AttentionTrace(beta, c), acts


def _check_seq(seq: np.ndarray, who: str) -> np.ndarray:
    seq = np.asarray(seq, float)
    if seq.ndim != 2 or seq.shape[0] < 1:
        raise ValueError(f"{who}: need a nonempty (T, D) sequence")
    return seq


def _classify(v: np.ndarray, p: ParamSet) -> np.ndarray:
    return softmax(mlp_forward(v, p, 1, prefix="cls_")[0])


def style_forward(seq: np.ndarray, p: ParamSet, cfg: StyleNetConfig,
                  starts=None):
    """seq (T, fg_dim+bg_dim) -> (v, probs, trace, cache).

    starts, ascending rows of seq, scores the span seq[j:] from each
    start j instead, all in one stacked step loop: v and probs then
    have a row per start and trace is a list with an AttentionTrace per
    start, each with the bits of style_forward(seq[j:]); there is no
    cache (None), since only a single run has a backward.
    """
    seq = _check_seq(seq, "style_forward")
    hs, _, _, lstm_cache = _lstm(seq, p, cfg, starts)
    if starts is None:
        v, trace, acts = _pool(hs, p, cfg)
        return v, _classify(v, p), trace, {"lstm": lstm_cache, "att": acts}
    runs = [_pool(hs[j:, r], p, cfg) for r, j in enumerate(starts)]
    return (np.array([v for v, _, _ in runs]),
            np.array([_classify(v, p) for v, _, _ in runs]),
            [trace for _, trace, _ in runs], None)


def prefix_probs(trace: AttentionTrace, p: ParamSet,
                 cfg: StyleNetConfig) -> np.ndarray:
    """(T, 5) probs of every prefix of a pass: row k is
    style_forward(seq[:k+1])'s probs, where trace is that of
    style_forward(seq) or of a stacked call's run from row 0.

    The LSTM is causal and each pooling weight depends only on its own
    step, so the trace of one pass over seq gives every prefix's
    feature as a running sum: of the gated outputs with attention (the
    trace's beta, whose norm is 1), and with mean pooling of the outputs
    over the prefix's own step count k + 1, where `_pooling`'s norm is
    the whole run's T.
    """
    cum = []
    for name in cfg.branches:
        cs = trace.c[name]
        if cfg.use_attention:
            cum.append(np.cumsum(trace.beta[name][:, None] * cs, axis=0))
        else:
            cum.append(np.cumsum(cs, axis=0)
                       / np.arange(1.0, len(cs) + 1.0)[:, None])
    return _classify(np.concatenate(cum, axis=1), p)


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
    dv = mlp_backward(dlogits, [v], p, 1, grads, prefix="cls_")
    T = seq.shape[0]
    dhs = np.empty((T, len(cfg.branches), cfg.hidden))
    for b, name in enumerate(cfg.branches):
        cs, beta = trace.c[name], trace.beta[name]
        dv_part = dv[b * cfg.hidden:(b + 1) * cfg.hidden]
        dc = beta[:, None] * dv_part[None, :]
        if cfg.use_attention:
            lam = cfg.lambda_fg if name == "fg" else cfg.lambda_bg
            dbeta = cs @ dv_part + lam / T  # |beta| = beta for sigmoid gates
            ds = dbeta * beta * (1.0 - beta)
            dc = dc + mlp_backward(ds[:, None], cache["att"][name], p, 2,
                                   grads, prefix=f"a{name}_")
        dhs[:, b] = dc
    lstm_backward(dhs, cache["lstm"], p, grads, prefix=_cells(cfg))
    return loss, grads


def predict_style(seq: np.ndarray, p: ParamSet, cfg: StyleNetConfig) -> int:
    _, probs, _, _ = style_forward(seq, p, cfg)
    return int(np.argmax(probs))


def accuracy(videos, p: ParamSet, cfg: StyleNetConfig) -> float:
    return confusion_and_accuracy(videos, p, cfg)[1]


def confusion_and_accuracy(videos, p: ParamSet,
                           cfg: StyleNetConfig) -> tuple[np.ndarray, float]:
    """Row-stochastic 5x5 confusion matrix (rows = true style) and the
    accuracy, both from one prediction per video."""
    counts = np.zeros((N_CLASSES, N_CLASSES))
    for seq, label in videos:
        counts[label, predict_style(seq, p, cfg)] += 1
    acc = np.trace(counts) / max(len(videos), 1)
    rows = counts.sum(axis=1, keepdims=True)
    rows[rows == 0] = 1.0
    return counts / rows, float(acc)


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
        out[name] = (p, cfg, confusion_and_accuracy(test, p, cfg)[0])
    return out
