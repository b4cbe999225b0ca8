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
from dataclasses import dataclass, field
from functools import cached_property

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

    def camera_axes(self):
        """(right, down, forward) unit vectors in world coordinates, from
        the columns of the body-to-world rotation R: -R[:, 1], -R[:, 2]
        and R[:, 0]. Read-only and built once: no pose field changes
        after `__post_init__`."""
        return self._axes

    @cached_property
    def _axes(self):
        cr, sr = np.cos(self.roll), np.sin(self.roll)
        cy, sy = np.cos(self.yaw), np.sin(self.yaw)
        cp, sp = np.cos(self.pitch), np.sin(self.pitch)
        Rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
        Ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
        Rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
        R = Rz @ Ry @ Rx
        axes = (-R[:, 1], -R[:, 2], R[:, 0])
        for a in axes:
            a.setflags(write=False)
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


def project_points(cam: Pose6D, K: Intrinsics, points: np.ndarray):
    """Project world points (N,3). Returns (pixels (N,2), depths (N,))."""
    right, down, forward = cam.camera_axes()
    points = np.atleast_2d(points)
    # column by column: broadcasting the (3,) position over (N, 3) rows
    # costs about half the projection
    d = np.empty(points.shape)
    for col, p, out in zip(points.T, cam.position, d.T):
        np.subtract(col, p, out=out)
    x = d @ right
    y = d @ down
    z = d @ forward
    with np.errstate(divide="ignore", invalid="ignore"):
        u = K.focal * x / z + K.cx
        v = K.focal * y / z + K.cy
    return np.stack([u, v], axis=-1), z


def pixel_to_world(cam: Pose6D, K: Intrinsics, u: float, v: float,
                   depth: float) -> np.ndarray:
    """Inverse of project_points for one pixel at a known depth."""
    right, down, forward = cam.camera_axes()
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
    right, down, forward = cam.camera_axes()
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


@dataclass
class BgFeature:
    velocity: np.ndarray = field(
        default_factory=lambda: np.zeros((GRID, GRID, 2)))
    valid: np.ndarray = field(
        default_factory=lambda: np.zeros((GRID, GRID), dtype=bool))

    def vector(self) -> np.ndarray:
        return self.velocity.ravel()


def render_motion_field(proj_t, proj_t1, K: Intrinsics) -> BgFeature:
    """Mean per-cell pixel displacement of static points between two
    poses, from each pose's `project_points` result for the same points;
    displacement normalized by image size.  A point counts when it is in
    front of both cameras and inside the first image.  Cells without
    points are zero with valid=False."""
    (px0, z0), (px1, z1) = proj_t, proj_t1
    ok = ((z0 > 1e-6) & (z1 > 1e-6)
          & (px0[:, 0] >= 0) & (px0[:, 0] < K.width)
          & (px0[:, 1] >= 0) & (px0[:, 1] < K.height))
    feature = BgFeature()
    if not np.any(ok):
        return feature
    p0, p1 = np.compress(ok, px0, axis=0), np.compress(ok, px1, axis=0)
    if not (np.all(np.isfinite(p0)) and np.all(np.isfinite(p1))):
        raise FloatingPointError("render_motion_field: non-finite projection")
    disp = (p1 - p0) / np.array([K.width, K.height])
    gx = np.minimum((p0[:, 0] / K.width * GRID).astype(int), GRID - 1)
    gy = np.minimum((p0[:, 1] / K.height * GRID).astype(int), GRID - 1)
    cell = gy * GRID + gx
    counts = np.bincount(cell, minlength=GRID * GRID).astype(float)
    # bincount adds each cell's weights in point order, as np.add.at does
    sums = np.stack([np.bincount(cell, weights=disp[:, k],
                                 minlength=GRID * GRID) for k in (0, 1)],
                    axis=1)
    nonzero = counts > 0
    sums[nonzero] /= counts[nonzero, None]
    feature.velocity = sums.reshape(GRID, GRID, 2)
    feature.valid = nonzero.reshape(GRID, GRID)
    return feature


def flip_fg(vec: np.ndarray) -> np.ndarray:
    """Horizontal mirror of an FG feature vector (cx,cy,w,h,orient)."""
    out = np.array(vec, dtype=float, copy=True)
    out[..., 0] = 1.0 - out[..., 0]
    out[..., 4] = wrap_angle(-out[..., 4])
    return out


def flip_bg(vec: np.ndarray) -> np.ndarray:
    """Horizontal mirror of a flattened BG field."""
    v = np.array(vec, dtype=float, copy=True).reshape(
        vec.shape[:-1] + (GRID, GRID, 2))
    v = v[..., :, ::-1, :]
    v = v.copy()
    v[..., 0] = -v[..., 0]
    return v.reshape(vec.shape)
