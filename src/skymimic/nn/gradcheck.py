"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

import numpy as np

from .layers import NumericError
from .params import ParamSet


def grad_check(loss, params: ParamSet, analytic: ParamSet,
               eps: float = 1e-5) -> float:
    """loss(params) -> scalar loss; analytic: its gradients at params.

    Perturbs every component of every parameter by +-eps and compares the
    central difference against the analytic gradient. Only the loss is
    evaluated per probe, so pass a forward-only callable. Returns the
    maximum of |analytic - fd| / max(1, |analytic|). The probes perturb
    a copy of params, element by element in place; params is not
    written.
    """
    worst = 0.0
    work = params.copy()
    for k in params:
        ga = analytic[k].ravel()
        flat = work[k].reshape(-1)  # a view: probes perturb work in place
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            lp = loss(work)
            flat[idx] = orig - eps
            lm = loss(work)
            flat[idx] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise NumericError(
                    f"grad_check: non-finite loss probing {k}[{idx}]")
            fd = (lp - lm) / (2.0 * eps)
            err = abs(ga[idx] - fd) / max(1.0, abs(ga[idx]))
            worst = max(worst, err)
    return worst
