"""Test oracles: slow, independent references for fast code in the
package.  `dtw_brute_force` enumerates every warping path for
`imitation.dtw_align`; `imitation_loss` is the mixed objective that
`imitation.imitation_loss_and_grad` differentiates; `grad_check` takes
central finite differences for the analytic gradients;
`project_points_reference` projects a cloud into (N, 2) pixel rows and
`motion_field_reference` masks, compresses and bins those rows, the
references for `geometry.project_points` and
`geometry.render_motion_field`; `flip_bg_reference` mirrors a bg field
through two copies, the reference for `geometry.flip_bg`; and
`snippet_windows_reference` lists a table's snippet windows start by
start, the reference for `features.snippet_ends` and
`features.snippet_stack`'s time-major stack; and
`span_rows_reference` sums one style-net pass's pooled outputs step by
step and classifies each prefix with an affine layer, the reference for
the running-probability tables of a stacked `stylenet.style_forward`."""

from __future__ import annotations

import numpy as np

from skymimic.features import STRIDE, WINDOW, TooShortError
from skymimic.geometry import GRID
from skymimic.imitation import WarpingPath
from skymimic.nn import NumericError, ParamSet, softmax
from skymimic.nn.layers import affine


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


def imitation_loss(pred_c, label_c, pred_s=None, label_s=None,
                   lam: float = 0.7) -> float:
    """||pred_c - label_c|| + lam * ||pred_s - label_s||."""
    loss = float(np.linalg.norm(pred_c - label_c))
    if pred_s is not None:
        loss += lam * float(np.linalg.norm(pred_s - label_s))
    return loss


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


def project_points_reference(cam, K, points):
    """World points (N, 3) to (pixels (N, 2), depths (N,)): the camera
    position subtracted column by column, one gemv per camera axis,
    then focal * x / z + c, the pixels stacked into rows."""
    right, down, forward = cam.axes
    points = np.atleast_2d(points)
    d = np.empty(points.shape)
    for col, p, out in zip(points.T, cam.position, d.T):
        np.subtract(col, p, out=out)
    x, y, z = d @ right, d @ down, d @ forward
    with np.errstate(divide="ignore", invalid="ignore"):
        u = K.focal * x / z + K.cx
        v = K.focal * y / z + K.cy
    return np.stack([u, v], axis=-1), z


def motion_field_reference(proj_t, proj_t1, K):
    """(velocity (GRID, GRID, 2), valid (GRID, GRID)) from two
    `project_points_reference` results: the points in front of both
    cameras and inside the first image, masked on the (N, 2) pixel
    columns, compressed as rows and added into their cells with
    np.add.at.  A non-finite kept pixel raises FloatingPointError."""
    (px0, z0), (px1, z1) = proj_t, proj_t1
    ok = ((z0 > 1e-6) & (z1 > 1e-6)
          & (px0[:, 0] >= 0) & (px0[:, 0] < K.width)
          & (px0[:, 1] >= 0) & (px0[:, 1] < K.height))
    velocity = np.zeros((GRID, GRID, 2))
    valid = np.zeros((GRID, GRID), dtype=bool)
    if not np.any(ok):
        return velocity, valid
    p0, p1 = np.compress(ok, px0, axis=0), np.compress(ok, px1, axis=0)
    if not (np.all(np.isfinite(p0)) and np.all(np.isfinite(p1))):
        raise FloatingPointError("motion_field_reference: non-finite "
                                 "projection")
    disp = (p1 - p0) / np.array([K.width, K.height])
    gx = np.minimum((p0[:, 0] / K.width * GRID).astype(int), GRID - 1)
    gy = np.minimum((p0[:, 1] / K.height * GRID).astype(int), GRID - 1)
    cell = gy * GRID + gx
    counts = np.bincount(cell, minlength=GRID * GRID).astype(float)
    sums = np.zeros((GRID * GRID, 2))
    np.add.at(sums, cell, disp)
    nonzero = counts > 0
    sums[nonzero] /= counts[nonzero, None]
    return sums.reshape(GRID, GRID, 2), nonzero.reshape(GRID, GRID)


def flip_bg_reference(vec: np.ndarray) -> np.ndarray:
    """Horizontal mirror of flattened bg fields: a copy of the input,
    reshaped to the grid, its columns reversed, copied again and the u
    component negated."""
    v = np.array(vec, dtype=float, copy=True).reshape(
        vec.shape[:-1] + (GRID, GRID, 2))
    v = v[..., :, ::-1, :]
    v = v.copy()
    v[..., 0] = -v[..., 0]
    return v.reshape(vec.shape)


def snippet_windows_reference(table: np.ndarray):
    """(starts, windows) of an (n, D) table: a window starts every
    STRIDE rows while WINDOW rows remain, and each row slice is
    np.stack-ed on axis 1 of the (WINDOW, n_windows, D) windows.
    Raises TooShortError when n < WINDOW."""
    n = table.shape[0]
    if n < WINDOW:
        raise TooShortError(f"{n} rows, window {WINDOW}")
    starts = []
    s = 0
    while s + WINDOW <= n:
        starts.append(s)
        s += STRIDE
    return starts, np.stack([table[s:s + WINDOW] for s in starts], axis=1)


def span_rows_reference(beta: dict, c: dict, p: ParamSet, cfg) -> np.ndarray:
    """(T, 5) probs of every prefix of one style-net pass, from its
    per-branch pooling weights beta (T,) and outputs c (T, hidden): row
    k pools steps 0..k, by the gated sum with attention and by the mean
    over k + 1 steps without."""
    cum = [np.cumsum(beta[name][:, None] * c[name], axis=0)
           if cfg.use_attention else np.cumsum(c[name], axis=0)
           / np.arange(1.0, len(c[name]) + 1.0)[:, None]
           for name in cfg.branches]
    return softmax(affine(np.concatenate(cum, axis=1), p["cls_W0"],
                          p["cls_b0"]))
