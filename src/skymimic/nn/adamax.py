"""Adamax optimizer (infinity-norm variant of Adam; Kingma & Ba, "Adam",
ICLR 2015) and the epoch loop every net of the pipeline trains with."""

from __future__ import annotations

import numpy as np

from .layers import TrainingError
from .params import ParamSet

CHUNK = 16384  # elements per pass over the flat vectors: 128 KiB each
BETA1 = 0.9     # first-moment decay
BETA2 = 0.999   # infinity-norm decay
EPS = 1e-8


class AdamaxState:
    """Per-parameter first-moment and infinity-norm accumulators, plus
    two chunk-sized scratch buffers for the update."""

    def __init__(self, params: ParamSet, lr: float = 0.001):
        self.lr = lr
        self.step = 0
        self.m = params.zeros_like()
        self.u = params.zeros_like()
        n = min(params.flat.size, CHUNK)
        self._scratch = (np.empty(n), np.empty(n))


def adamax_update(params: ParamSet, grads: ParamSet,
                  state: AdamaxState) -> None:
    """In-place Adamax step: m <- b1 m + (1-b1) g, u <- max(b2 u, |g|),
    p <- p - lr/(1-b1^t) * m/(u+eps).

    Runs over the flat vectors of params, grads, m and u in chunks of
    CHUNK elements, with the elementwise operations of the formula in
    its order, so every element gets the same bits as a whole-array
    update; the only temporaries are the state's two scratch buffers.
    """
    params.check_mirror(grads)
    params.check_mirror(state.m)
    state.step += 1
    b1, b2, eps = BETA1, BETA2, EPS
    rate = state.lr / (1.0 - b1 ** state.step)
    p, g, m, u = params.flat, grads.flat, state.m.flat, state.u.flat
    s1, s2 = state._scratch
    for lo in range(0, p.size, CHUNK):
        hi = min(lo + CHUNK, p.size)
        pc, gc, mc, uc = p[lo:hi], g[lo:hi], m[lo:hi], u[lo:hi]
        t1, t2 = s1[:hi - lo], s2[:hi - lo]
        mc *= b1
        np.multiply(gc, 1.0 - b1, out=t1)
        mc += t1
        uc *= b2
        np.abs(gc, out=t1)
        np.maximum(uc, t1, out=uc)
        np.multiply(mc, rate, out=t1)
        np.add(uc, eps, out=t2)
        t1 /= t2
        pc -= t1


def fit(p: ParamSet, examples, loss_and_grad, update, epochs: int,
        what: str, validate=None):
    """Train p for `epochs` epochs; returns (params, log).

    Each epoch iterates a fresh examples(); loss_and_grad(example) gives
    (loss, grads), and the loss is checked before update(grads) runs, so
    a trainer may pass a forward cache as grads and run its backward in
    update. fit holds neither the example nor grads once update returns,
    so a step's arrays are freed (or free to be written over) before the
    next example is drawn. A non-finite loss, or an epoch with no
    example, raises TrainingError naming `what`. log has one dict per
    epoch: epoch, mean train_loss and, with validate, val_accuracy =
    validate(p); then the params are a copy of p from the first epoch of
    best accuracy, and otherwise p itself.
    """
    best_acc, best_p = -1.0, p
    log = []
    for epoch in range(epochs):
        losses = []
        for example in examples():
            loss, grads = loss_and_grad(example)
            if not np.isfinite(loss):
                raise TrainingError(f"{what} diverged at epoch {epoch}")
            update(grads)
            losses.append(loss)
            del example, grads
        if not losses:
            raise TrainingError(
                f"{what} had no training example at epoch {epoch}")
        entry = {"epoch": epoch, "train_loss": float(np.mean(losses))}
        if validate is not None:
            acc = entry["val_accuracy"] = validate(p)
            if acc > best_acc:
                best_acc, best_p = acc, p.copy()
        log.append(entry)
    return best_p, log
