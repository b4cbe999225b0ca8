"""Poses, pinhole camera model, and the two on-screen observations:
the subject bounding box (+ body orientation) and the background grid
motion field.

World frame: x/y horizontal, z up. A pose's orientation is (roll, yaw,
pitch) with rotation R = Rz(yaw) Ry(pitch) Rx(roll) mapping body axes
to world; body x is the camera's optical axis, positive pitch looks
down. Image axes: u right, v down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

GRID = 8  # motion-field cells per image axis
BODY_WIDTH_RATIO = 0.35  # subject box width as a fraction of body height
_TWO_PI = 2.0 * np.pi


class VisibilityError(ValueError):
    """Subject is behind the camera."""


class OffscreenError(ValueError):
    """Subject box falls fully outside the frame."""


def wrap_angle(a):
    """Wrap to (-pi, pi].

    A finite float (np.float64 included) takes a scalar path and comes
    back as a float: CPython's float `%` follows the same fmod-based
    rule as `np.mod`, so the bits equal the array path's.  Arrays,
    other scalars and non-finite floats go through NumPy, which also
    keeps NumPy's warning on inf and nan.
    """
    if isinstance(a, float) and -math.inf < a < math.inf:
        return math.pi - (math.pi - float(a)) % _TWO_PI
    return np.pi - np.mod(np.pi - np.asarray(a, float), _TWO_PI)


@dataclass
class Pose6D:
    position: np.ndarray  # (3,) meters
    roll: float = 0.0
    yaw: float = 0.0
    pitch: float = 0.0

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.roll = float(wrap_angle(self.roll))
        self.yaw = float(wrap_angle(self.yaw))
        self.pitch = float(wrap_angle(self.pitch))

    @property
    def angles(self) -> np.ndarray:
        return np.array([self.roll, self.yaw, self.pitch])

    @cached_property
    def axes(self) -> np.ndarray:
        """Read-only (3, 3) array of the rows (right, down, forward), the
        camera's unit vectors in world coordinates: -R[:, 1], -R[:, 2]
        and R[:, 0] of the body-to-world rotation R. Built once: no pose
        field changes after `__post_init__`."""
        cr, sr = math.cos(self.roll), math.sin(self.roll)
        cy, sy = math.cos(self.yaw), math.sin(self.yaw)
        cp, sp = math.cos(self.pitch), math.sin(self.pitch)
        Rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
        Ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
        Rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
        R = Rz @ Ry @ Rx
        axes = np.array([-R[:, 1], -R[:, 2], R[:, 0]])
        axes.setflags(write=False)
        return axes


@dataclass
class Intrinsics:
    focal: float = 600.0  # pixels
    width: int = 640
    height: int = 480
    cx: float = 320.0
    cy: float = 240.0

    def __post_init__(self):
        if self.focal <= 0:
            raise ValueError("focal length must be positive")
        if not (0 <= self.cx <= self.width and 0 <= self.cy <= self.height):
            raise ValueError("principal point outside image")


def look_at(position: np.ndarray, target: np.ndarray) -> Pose6D:
    """Pose at `position` with the optical axis through `target`, roll 0."""
    d = np.asarray(target, float) - np.asarray(position, float)
    yaw = np.arctan2(d[1], d[0])
    pitch = -np.arcsin(np.clip(d[2] / np.linalg.norm(d), -1.0, 1.0))
    return Pose6D(np.asarray(position, float), 0.0, yaw, pitch)


class Projection(NamedTuple):
    """A pose's projection of N world points: pixel coordinates u, v and
    depth z, each a contiguous (N,) array, and two (N,) masks, `front`
    (z > 1e-6) and `seen` (in front and inside the image,
    0 <= u < width and 0 <= v < height)."""
    u: np.ndarray
    v: np.ndarray
    z: np.ndarray
    front: np.ndarray
    seen: np.ndarray


def project_points(cam: Pose6D, K: Intrinsics,
                   points: np.ndarray) -> Projection:
    """Project world points (N, 3), or one point (3,), into the image.

    Every point goes through the same arithmetic: the camera position
    subtracted column by column, one gemv per camera axis over the whole
    cloud, then focal * x / z + c.  A point behind the camera gets a
    non-finite or mirrored pixel; the masks say which points a motion
    field may read.  `render_motion_field` reads `seen` of the first
    pose and `front` of the second, so each pose is projected, and its
    masks formed, once.
    """
    right, down, forward = cam.axes
    points = np.atleast_2d(points)
    # column by column: broadcasting the (3,) position over (N, 3) rows
    # costs about half the projection
    d = np.empty(points.shape)
    for col, p, out in zip(points.T, cam.position, d.T):
        np.subtract(col, p, out=out)
    # whole-cloud gemvs: gathering rows first would change the bits
    u = d @ right
    v = d @ down
    z = d @ forward
    with np.errstate(divide="ignore", invalid="ignore"):
        for c, center in ((u, K.cx), (v, K.cy)):
            c *= K.focal   # in place: focal * x / z + cx
            c /= z
            c += center
    front = z > 1e-6
    seen = front & (u >= 0)
    seen &= u < K.width
    seen &= v >= 0
    seen &= v < K.height
    return Projection(u, v, z, front, seen)


def pixel_to_world(cam: Pose6D, K: Intrinsics, u: float, v: float,
                   depth: float) -> np.ndarray:
    """Inverse of project_points for one pixel at a known depth."""
    right, down, forward = cam.axes
    x = (u - K.cx) / K.focal * depth
    y = (v - K.cy) / K.focal * depth
    return cam.position + x * right + y * down + depth * forward


@dataclass
class FgFeature:
    cx: float  # box center, normalized by image width
    cy: float  # box center, normalized by image height
    w: float   # box width / image width
    h: float   # box height / image height
    orientation: float  # subject yaw relative to camera yaw, radians

    def vector(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h, self.orientation])


def project_foreground(cam: Pose6D, K: Intrinsics, subject: Pose6D,
                       subject_height: float) -> FgFeature:
    """On-screen subject box from a thin vertical body model.

    Box height comes from the exact pinhole relation focal*h/depth, so
    localization from the box inverts this projection exactly.

    The one point takes `project_points`' arithmetic on the same
    values: a (1, 3) row through one gemv per camera axis, then the
    pixel math on floats, after the depth check.
    """
    right, down, forward = cam.axes
    d = (subject.position - cam.position)[None, :]
    depth = float((d @ forward)[0])
    if depth <= 0:
        raise VisibilityError(f"subject at depth {depth:.3f} m behind camera")
    u = K.focal * float((d @ right)[0]) / depth + K.cx
    v = K.focal * float((d @ down)[0]) / depth + K.cy
    h_px = K.focal * subject_height / depth
    w_px = K.focal * subject_height * BODY_WIDTH_RATIO / depth
    if (u + w_px / 2 < 0 or u - w_px / 2 > K.width
            or v + h_px / 2 < 0 or v - h_px / 2 > K.height):
        raise OffscreenError(
            f"subject box at ({u:.1f},{v:.1f}) px outside the frame")
    return FgFeature(
        cx=u / K.width,
        cy=v / K.height,
        w=w_px / K.width,
        h=h_px / K.height,
        orientation=float(wrap_angle(subject.yaw - cam.yaw)),
    )


def render_motion_field(prev: Projection, cur: Projection,
                        K: Intrinsics) -> np.ndarray:
    """Mean per-cell pixel displacement of static points between two
    poses, from each pose's `project_points` result for the same points;
    displacement normalized by image size.  Returns the (GRID*GRID*2,)
    row of the grid's cells in row-major order, (du, dv) per cell.
    A point counts when it is seen from the first pose (`prev.seen`) and
    in front of the second (`cur.front`); its four coordinates are
    gathered once.  A counted point whose second pixel is not finite
    raises FloatingPointError.  Cells without points are zero."""
    idx = np.flatnonzero(prev.seen & cur.front)
    if not idx.size:
        return np.zeros(GRID * GRID * 2)
    u0, v0 = prev.u.take(idx), prev.v.take(idx)
    u1, v1 = cur.u.take(idx), cur.v.take(idx)
    # a seen pixel is finite; the second view's may overflow
    if not (np.isfinite(u1).all() and np.isfinite(v1).all()):
        raise FloatingPointError("render_motion_field: non-finite projection")
    du = (u1 - u0) / K.width
    dv = (v1 - v0) / K.height
    gx = np.minimum((u0 / K.width * GRID).astype(int), GRID - 1)
    gy = np.minimum((v0 / K.height * GRID).astype(int), GRID - 1)
    cell = gy * GRID + gx
    counts = np.bincount(cell, minlength=GRID * GRID)
    # bincount adds each cell's weights in point order, as np.add.at does
    sums = np.empty((GRID * GRID, 2))
    for col, w in zip(sums.T, (du, dv)):
        col[:] = np.bincount(cell, weights=w, minlength=GRID * GRID)
    # an empty cell's sums, +0.0, are divided by 1
    sums /= np.maximum(counts, 1.0)[:, None]
    return sums.ravel()


def flip_fg(vec: np.ndarray) -> np.ndarray:
    """Horizontal mirror of an FG feature vector (cx,cy,w,h,orient)."""
    out = np.array(vec, dtype=float, copy=True)
    out[..., 0] = 1.0 - out[..., 0]
    out[..., 4] = wrap_angle(-out[..., 4])
    return out


def flip_bg(vec: np.ndarray) -> np.ndarray:
    """Horizontal mirror of a flattened BG field."""
    v = np.asarray(vec, dtype=float).reshape(
        vec.shape[:-1] + (GRID, GRID, 2))[..., :, ::-1, :].copy()
    v[..., 0] = -v[..., 0]
    return v.reshape(vec.shape)
