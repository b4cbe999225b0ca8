"""Adamax optimizer (infinity-norm variant of Adam)."""

from __future__ import annotations

import numpy as np

from .params import ParamSet


class AdamaxState:
    """Per-parameter first-moment and infinity-norm accumulators."""

    def __init__(self, params: ParamSet, lr: float = 0.001,
                 beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0
        self.m = params.zeros_like()
        self.u = params.zeros_like()


def adamax_update(params: ParamSet, grads: ParamSet,
                  state: AdamaxState) -> None:
    """In-place Adamax step: m <- b1 m + (1-b1) g, u <- max(b2 u, |g|),
    p <- p - lr/(1-b1^t) * m/(u+eps).

    m, u and the parameter arrays are updated in place, in the same
    operation order as the formula, so arrays shared with another
    ParamSet change too (ParamSet.copy() gives an independent one).
    """
    params.check_mirror(grads)
    state.step += 1
    rate = state.lr / (1.0 - state.beta1 ** state.step)
    for k, p in params.items():
        g, m, u = grads[k], state.m[k], state.u[k]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        u *= state.beta2
        np.maximum(u, np.abs(g), out=u)
        step = rate * m
        step /= u + state.eps
        p -= step
