"""Action imitation: DTW matching of same-style snippet sequences, the
two-MLP action predictor, the dual-snippet training loss, and the
per-style evaluation tables.

The predictor maps (style feature, observation embedding, current
action) to the next action. Its raw 7-dim head is post-processed into
a valid action: the angular-velocity block is added to the current
action's rates, the direction block is renormalized (falling back to
the previous action's direction when degenerate), and the scale is
sigmoid-squashed after a learned multiple of the current scale's logit
(the parameter m2_skip, initialised to 1) is added to its raw value.
Both skips make "keep the current action" the default the head departs
from. Without them the head has to rebuild a 0.05-0.35 box height's
logit through its hidden layer, and the predicted scale barely moves
within a video; and it lends shots that do not turn the rates of
shots that do, whose direction looks alike in the camera frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .nn import (AdamaxState, NumericError, ParamSet, adamax_update, fit,
                 mlp_backward, mlp_forward, mlp_init, sigmoid)
from .scene import STYLES

ACTION_DIM = 7
DIR_EPS = 1e-8
SCALE_EPS = 1e-3  # clamp before the logit of the current scale
CONTEXT_DIM = 64


class SamplingError(ValueError):
    pass


def make_action(omega, direction, scale) -> np.ndarray:
    a = np.zeros(ACTION_DIM)
    a[:3] = omega
    d = np.asarray(direction, float)
    a[3:6] = d / np.linalg.norm(d)
    a[6] = min(max(float(scale), 0.0), 1.0)
    return a


# ---------------------------------------------------------------------------
# dynamic time warping

@dataclass
class WarpingPath:
    pairs: list[tuple[int, int]]
    cost: float

    def matches_for(self, i: int) -> list[int]:
        return [j for a, b in self.pairs if a == i for j in [b]]


def dtw_align(seq_a: np.ndarray, seq_b: np.ndarray) -> WarpingPath:
    """Minimal-cost monotone alignment under Euclidean distance (Sakoe &
    Chiba, IEEE TASSP 1978).

    Ties during traceback prefer the diagonal step, then the (1,0)
    step (advancing the first sequence). The cost table is filled with
    Python floats, which add and compare as float64 does.
    """
    a = np.asarray(seq_a, float)
    b = np.asarray(seq_b, float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    n, m = a.shape[0], b.shape[0]
    if n == 0 or m == 0:
        raise ValueError("dtw_align: empty sequence")
    dist = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2).tolist()
    # padded accumulated-cost table: row and column 0 are the border
    D = [[0.0] + [math.inf] * m]
    for d in dist:
        up = D[-1]
        row = [math.inf] * (m + 1)
        for j in range(1, m + 1):
            row[j] = d[j - 1] + min(up[j - 1], up[j], row[j - 1])
        D.append(row)
    pairs = []
    i, j = n - 1, m - 1
    while True:
        pairs.append((i, j))
        if i == 0 and j == 0:
            break
        # predecessors of padded cell (i+1, j+1), preference order:
        # diagonal, then (1,0) (advance i), then (0,1)
        cand = [(D[i][j], i - 1, j - 1), (D[i][j + 1], i - 1, j),
                (D[i + 1][j], i, j - 1)]
        mn = min(val for val, _, _ in cand)
        for val, pi, pj in cand:
            if val == mn:
                i, j = pi, pj
                break
    pairs.reverse()
    return WarpingPath(pairs, float(D[n][m]))


def dtw_brute_force(seq_a: np.ndarray, seq_b: np.ndarray) -> WarpingPath:
    """Exhaustive enumeration of monotone paths; the independent oracle.

    Among minimal-cost paths, picks the one matching the traceback
    tie-break (reversed step sequence minimal in the preference order
    diagonal < (1,0) < (0,1))."""
    a = np.asarray(seq_a, float)
    b = np.asarray(seq_b, float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    n, m = a.shape[0], b.shape[0]
    dist = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    best: list[tuple[float, list]] = []

    def walk(i, j, cost, path):
        cost += dist[i, j]
        path = path + [(i, j)]
        if i == n - 1 and j == m - 1:
            best.append((cost, path))
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, cost, path)
        if i + 1 < n:
            walk(i + 1, j, cost, path)
        if j + 1 < m:
            walk(i, j + 1, cost, path)

    walk(0, 0, 0.0, [])
    min_cost = min(c for c, _ in best)
    rank = {(1, 1): 0, (1, 0): 1, (0, 1): 2}

    def key(path):
        steps = [(path[k + 1][0] - path[k][0], path[k + 1][1] - path[k][1])
                 for k in range(len(path) - 1)]
        return [rank[s] for s in reversed(steps)]

    candidates = [p for c, p in best if c <= min_cost + 1e-12]
    chosen = min(candidates, key=key)
    return WarpingPath(chosen, float(min_cost))


# ---------------------------------------------------------------------------
# imitation network

def init_imitation_net(style_dim: int, obs_dim: int, seed: int,
                       hidden1: int = 128, hidden2: int = 64) -> ParamSet:
    rng = np.random.default_rng(seed)
    p = mlp_init(rng, [style_dim + obs_dim, hidden1, CONTEXT_DIM],
                 prefix="m1_")
    for k, v in mlp_init(rng, [CONTEXT_DIM + ACTION_DIM, hidden2,
                               ACTION_DIM], prefix="m2_").items():
        p[k] = v
    p["m2_skip"] = np.ones(1)
    p.meta["kind"] = "imitation-net"
    p.meta["style_dim"] = style_dim
    p.meta["obs_dim"] = obs_dim
    return p


def _context_forward(v, o, p):
    x = np.concatenate([v, o])
    raw, acts = mlp_forward(x, p, 2, prefix="m1_")
    ctx = np.tanh(raw)
    return ctx, (acts, ctx)


def _scale_logit(a: np.ndarray) -> float:
    s = min(max(float(a[6]), SCALE_EPS), 1.0 - SCALE_EPS)
    return float(np.log(s / (1.0 - s)))


def _head_forward(ctx, a, p):
    x = np.concatenate([ctx, a])
    raw, acts = mlp_forward(x, p, 2, prefix="m2_")
    raw[6] += p["m2_skip"][0] * _scale_logit(a)
    return raw, acts


def _postprocess(raw: np.ndarray, prev_action: np.ndarray):
    """Raw 7-vector -> valid action + cache for backward."""
    omega = prev_action[:3] + raw[:3]
    d = raw[3:6]
    norm = np.linalg.norm(d)
    if norm < DIR_EPS:
        direction = prev_action[3:6].copy()
        norm = 0.0
    else:
        direction = d / norm
    scale = sigmoid(raw[6:7])[0]
    pred = np.concatenate([omega, direction, [scale]])
    return pred, (d, norm, direction, scale)


def _postprocess_backward(dpred: np.ndarray, cache):
    d, norm, direction, scale = cache
    draw = np.zeros(ACTION_DIM)
    draw[:3] = dpred[:3]
    if norm > 0.0:
        dd = dpred[3:6]
        draw[3:6] = (dd - direction * (direction @ dd)) / norm
    draw[6] = dpred[6] * scale * (1.0 - scale)
    return draw


def predict_action(v: np.ndarray, o: np.ndarray, a: np.ndarray,
                   p: ParamSet) -> np.ndarray:
    """Next-action prediction; returns a valid 7-dim action."""
    ctx, _ = _context_forward(v, o, p)
    raw, _ = _head_forward(ctx, a, p)
    pred, _ = _postprocess(raw, a)
    if not np.all(np.isfinite(pred)):
        raise NumericError("predict_action: non-finite output")
    return pred


def imitation_loss(pred_c, label_c, pred_s=None, label_s=None,
                   lam: float = 0.7) -> float:
    """||pred_c - label_c|| + lam * ||pred_s - label_s||."""
    loss = float(np.linalg.norm(pred_c - label_c))
    if pred_s is not None:
        loss += lam * float(np.linalg.norm(pred_s - label_s))
    return loss


def imitation_loss_and_grad(v, o, a_c, label_c, a_s=None, label_s=None,
                            lam: float = 0.7, p: ParamSet = None):
    """Loss and parameter gradients for one (content[, style]) pair.

    Both prediction terms share the context built from (v, o); they
    differ only in the conditioning action.
    """
    grads = p.zeros_like()
    ctx, (acts1, ctx_t) = _context_forward(v, o, p)
    dctx = np.zeros(CONTEXT_DIM)
    loss = 0.0

    def term(a, label, weight):
        nonlocal loss, dctx
        raw, acts2 = _head_forward(ctx, a, p)
        pred, pcache = _postprocess(raw, a)
        err = pred - label
        nrm = np.linalg.norm(err)
        loss += weight * nrm
        if nrm > 1e-12:
            dpred = weight * err / nrm
            draw = _postprocess_backward(dpred, pcache)
            dx2 = mlp_backward(draw, acts2, p, 2, grads, prefix="m2_")
            grads["m2_skip"] += draw[6] * _scale_logit(a)
            dctx += dx2[:CONTEXT_DIM]

    term(a_c, label_c, 1.0)
    if a_s is not None:
        term(a_s, label_s, lam)
    draw1 = dctx * (1.0 - ctx_t * ctx_t)
    mlp_backward(draw1, acts1, p, 2, grads, prefix="m1_")
    return float(loss), grads


# ---------------------------------------------------------------------------
# training pairs and the trainer

@dataclass
class SnippetCorpus:
    """Per-video snippet embeddings plus per-snippet action labels.

    actions[i][t] is the ground-truth action at snippet t's final
    frame; the label for "next action after snippet t" is
    actions[i][t + 1].

    Each (content, style) video pair is DTW-aligned once, on its first
    draw, and its matches are kept for later draws; so fill the lists
    before sampling and do not change them afterwards.
    """
    video_ids: list[str]
    styles: list[str]
    embeddings: list[np.ndarray]   # (T_i, obs_dim)
    actions: list[np.ndarray]      # (T_i, 7)
    style_features: list[np.ndarray]  # (style_dim,) per video
    # (ci, si) -> aligned(ci, si)
    _pairs: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def by_style(self, style: str) -> list[int]:
        return [i for i, s in enumerate(self.styles) if s == style]

    def aligned(self, ci: int, si: int) -> tuple[list[int], dict[int, int]]:
        """(usable, median) for content video ci against style video si:
        median[t] is the median style snippet DTW matches to content
        snippet t, and usable lists, once per path pair, the content
        snippets whose match and own index both have a next-action
        label."""
        hit = self._pairs.get((ci, si))
        if hit is None:
            path = dtw_align(self.embeddings[ci], self.embeddings[si])
            median = median_matches(path)
            t_max = self.embeddings[ci].shape[0] - 2
            s_max = self.embeddings[si].shape[0] - 2
            usable = [i for i, _ in path.pairs
                      if i <= t_max and median[i] <= s_max]
            hit = self._pairs[ci, si] = (usable, median)
        return hit


def median_matches(path: WarpingPath) -> dict[int, int]:
    """For every first-sequence index on the path, the median (lower of
    the middle two) of the second-sequence indices it is matched to."""
    js: dict[int, list[int]] = {}
    for i, j in path.pairs:
        js.setdefault(i, []).append(j)
    return {i: sorted(v)[(len(v) - 1) // 2] for i, v in js.items()}


def sample_training_pair(corpus: SnippetCorpus, style: str,
                         rng: np.random.Generator):
    """Pick a content/style video pair of one style and a DTW-matched
    snippet index pair with valid next-action labels."""
    idxs = corpus.by_style(style)
    if len(idxs) < 2:
        raise SamplingError(
            f"style {style!r} has {len(idxs)} videos; need at least 2")
    ci, si = rng.choice(idxs, size=2, replace=False)
    usable, median = corpus.aligned(int(ci), int(si))
    if not usable:
        raise SamplingError(f"no usable matched snippets for {style!r}")
    t = int(usable[rng.integers(len(usable))])
    t2 = median[t]
    return {
        "content_video": ci,
        "style_video": si,
        "t": t,
        "t_style": t2,
        "obs": corpus.embeddings[ci][t],
        "style_feature": corpus.style_features[si],
        "action_c": corpus.actions[ci][t],
        "label_c": corpus.actions[ci][t + 1],
        "action_s": corpus.actions[si][t2],
        "label_s": corpus.actions[si][t2 + 1],
    }


def train_imitation_net(corpus: SnippetCorpus, epochs: int = 20,
                        steps_per_epoch: int = 200, seed: int = 0,
                        lr: float = 0.001, lam: float = 0.7,
                        dual: bool = True):
    """Returns (params, per-epoch log of mean loss, as nn.fit writes it).

    dual=False drops the DTW-matched style term, the single-task
    baseline used for the loss comparison. A step whose style has no
    usable pair is skipped; an epoch with none raises TrainingError.
    """
    p = init_imitation_net(corpus.style_features[0].shape[0],
                           corpus.embeddings[0].shape[1], seed)
    state = AdamaxState(p, lr=lr)
    rng = np.random.default_rng(seed + 1)

    def pairs():
        for _ in range(steps_per_epoch):
            style = STYLES[int(rng.integers(len(STYLES)))]
            try:
                pair = sample_training_pair(corpus, style, rng)
            except SamplingError:
                continue
            yield pair

    def loss_and_grad(pair):  # a_s=None drops the style term
        return imitation_loss_and_grad(
            pair["style_feature"], pair["obs"], pair["action_c"],
            pair["label_c"], pair["action_s"] if dual else None,
            pair["label_s"], lam=lam, p=p)

    return fit(p, pairs, loss_and_grad,
               lambda grads: adamax_update(p, grads, state), epochs,
               "imitation net")


# ---------------------------------------------------------------------------
# evaluation

def direction_angle(pred_dir: np.ndarray, true_dir: np.ndarray) -> float:
    return float(np.arccos(np.clip(pred_dir @ true_dir, -1.0, 1.0)))


def evaluate_imitation(corpus: SnippetCorpus, p: ParamSet,
                       zero_style: bool = False) -> dict:
    """Per-style prediction errors in the loss-table layout:
    omega MSE (rad/s)^2, direction angular error (rad), scale MSE.

    Each video is evaluated one-shot: the demo is the next same-style
    video in the corpus; zero_style ablates the style feature.
    """
    table = {}
    for style in STYLES:
        idxs = corpus.by_style(style)
        if len(idxs) < 2:
            continue
        errs_w, errs_v, errs_s = [], [], []
        for k, ci in enumerate(idxs):
            si = idxs[(k + 1) % len(idxs)]
            v = corpus.style_features[si]
            if zero_style:
                v = np.zeros_like(v)
            emb = corpus.embeddings[ci]
            acts = corpus.actions[ci]
            for t in range(emb.shape[0] - 1):
                pred = predict_action(v, emb[t], acts[t], p)
                truth = acts[t + 1]
                errs_w.append(np.mean((pred[:3] - truth[:3]) ** 2))
                errs_v.append(direction_angle(pred[3:6], truth[3:6]))
                errs_s.append((pred[6] - truth[6]) ** 2)
        table[style] = {"omega": float(np.mean(errs_w)),
                        "v": float(np.mean(errs_v)),
                        "s": float(np.mean(errs_s))}
    return table
