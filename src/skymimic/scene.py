"""Synthetic cinematography world: subject paths, per-style camera
trajectory generators, ground-truth action labels, background point
clouds, and geometric contract checkers for the five basic styles.

Styles: fly-through (straight path, no rotation, near-miss of the
subject), fly-by (straight path, camera re-aimed at the subject),
follow (constant camera-to-subject displacement), orbiting (constant
distance, monotonic bearing, aimed at subject), super-dolly (camera
leading the subject, flying backwards, aimed at subject).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (Intrinsics, Pose6D, look_at, project_foreground,
                       wrap_angle)

FPS = 4.0
DT = 1.0 / FPS
STYLES = ["fly-through", "fly-by", "follow", "orbiting", "super-dolly"]

DURATION_MIN = 5.0
DURATION_MAX = 50.0
# a corpus shot's default length range (s) and its subject's height (m)
DURATION_RANGE = (8.0, 20.0)
BODY_HEIGHT = 1.7

# Randomization ranges, sized to keep the subject on screen. Speeds in
# m/s, distances in meters, rates in rad/s.
STYLE_RANGES = {
    "fly-through": {"speed": (1.5, 3.0), "end_dist": (5.5, 7.0),
                    "miss": (1.2, 2.0), "altitude": (1.5, 2.5)},
    "fly-by": {"speed": (3.0, 5.0), "offset": (6.0, 9.0),
               "altitude": (2.0, 6.0)},
    "follow": {"distance": (6.0, 12.0), "altitude": (2.0, 6.0),
               "subject_speed": (1.0, 3.0)},
    "orbiting": {"radius": (6.0, 12.0), "rate": (0.2, 0.35),
                 "altitude": (2.0, 4.0)},
    "super-dolly": {"lead": (6.0, 12.0), "closing": (0.0, 0.12),
                    "altitude": (1.5, 4.0), "subject_speed": (1.0, 2.5)},
}


class GeneratorError(ValueError):
    """Script parameter outside its documented range."""


@dataclass
class SubjectPath:
    """Piecewise-constant-velocity waypoint path on the ground plane."""

    waypoints: np.ndarray  # (K, 2) ground positions
    speed: float           # m/s; 0 means stationary at waypoints[0]
    body_height: float = BODY_HEIGHT

    def __post_init__(self):
        self.waypoints = np.atleast_2d(np.asarray(self.waypoints, float))
        self._seg = np.diff(self.waypoints, axis=0)
        self._seg_len = np.linalg.norm(self._seg, axis=1)
        self._cum = np.concatenate([[0.0], np.cumsum(self._seg_len)])

    def pose_at(self, t: float) -> Pose6D:
        """Body-center pose at time t; yaw follows the motion heading."""
        if self.speed <= 0 or len(self.waypoints) < 2:
            xy = self.waypoints[0]
            heading = 0.0
        else:
            s = min(self.speed * t, self._cum[-1] - 1e-12)
            k = int(np.searchsorted(self._cum[1:], s, side="right"))
            k = min(k, len(self._seg) - 1)
            frac = (s - self._cum[k]) / max(self._seg_len[k], 1e-12)
            xy = self.waypoints[k] + frac * self._seg[k]
            heading = float(np.arctan2(self._seg[k][1], self._seg[k][0]))
        return Pose6D(np.array([xy[0], xy[1], self.body_height / 2.0]),
                      roll=0.0, yaw=heading, pitch=0.0)


@dataclass
class ShotScript:
    style: str
    duration: float
    seed: int
    params: dict
    subject: SubjectPath

    def __post_init__(self):
        if self.style not in STYLES:
            raise GeneratorError(f"unknown style {self.style!r}")
        if not (DURATION_MIN <= self.duration <= DURATION_MAX):
            raise GeneratorError(
                f"duration {self.duration} outside "
                f"[{DURATION_MIN}, {DURATION_MAX}] s")
        ranges = STYLE_RANGES[self.style]
        for key, (lo, hi) in ranges.items():
            if key in self.params and not (lo <= self.params[key] <= hi):
                raise GeneratorError(
                    f"{self.style}: parameter {key}={self.params[key]} "
                    f"outside [{lo}, {hi}]")


@dataclass
class FrameSample:
    timestamp: float
    camera: Pose6D
    subject: Pose6D
    subject_height: float


def _sample(rng, lohi):
    return float(rng.uniform(*lohi))


def random_script(style: str, rng: np.random.Generator,
                  duration_range=DURATION_RANGE,
                  body_height: float = BODY_HEIGHT) -> ShotScript:
    """Draw a ShotScript with parameters inside the documented ranges."""
    duration = _sample(rng, duration_range)
    ranges = STYLE_RANGES[style]
    params = {k: _sample(rng, v) for k, v in ranges.items()}
    origin = rng.uniform(-5.0, 5.0, size=2)
    if style == "follow":
        speed = params["subject_speed"]
        heading = rng.uniform(-np.pi, np.pi)
        pts = [origin]
        total = speed * duration + 5.0
        n_seg = 3
        for _ in range(n_seg):
            step = total / n_seg
            d = np.array([np.cos(heading), np.sin(heading)])
            pts.append(pts[-1] + d * step)
            heading += rng.uniform(-0.5, 0.5)
        subject = SubjectPath(np.array(pts), speed, body_height)
    elif style == "super-dolly":
        speed = params["subject_speed"]
        heading = rng.uniform(-np.pi, np.pi)
        d = np.array([np.cos(heading), np.sin(heading)])
        subject = SubjectPath(
            np.array([origin, origin + d * (speed * duration + 5.0)]),
            speed, body_height)
    else:
        subject = SubjectPath(origin[None, :], 0.0, body_height)
    return ShotScript(style, duration, int(rng.integers(0, 2 ** 31)),
                      params, subject)


def _frame_count(duration: float) -> int:
    return int(round(duration * FPS))


def _camera_rule(script: ShotScript):
    """Make the style's random draws, all from one generator seeded by
    the script, and return the camera rule: (t, subject pose at t) ->
    camera pose."""
    rng = np.random.default_rng(script.seed)
    h = script.subject.body_height
    p = script.params
    style = script.style

    if style == "fly-through":
        target = script.subject.pose_at(0.0).position
        bearing = rng.uniform(-np.pi, np.pi)
        approach = np.array([np.cos(bearing), np.sin(bearing), 0.0])
        perp = np.array([-approach[1], approach[0], 0.0])
        miss = p["miss"] * (1 if rng.random() < 0.5 else -1)
        alt = p["altitude"]
        end = target + perp * miss + np.array([0.0, 0.0, alt - h / 2.0])
        # at clip end the camera is still end_dist short of the near-miss
        d0 = p["end_dist"] + p["speed"] * script.duration
        start = end - approach * d0
        aim = look_at(start, target)
        return lambda t, sp: Pose6D(start + approach * (p["speed"] * t),
                                    aim.roll, aim.yaw, aim.pitch)

    if style == "fly-by":
        target = script.subject.pose_at(0.0).position
        bearing = rng.uniform(-np.pi, np.pi)
        direction = np.array([np.cos(bearing), np.sin(bearing), 0.0])
        perp = np.array([-direction[1], direction[0], 0.0])
        side = 1 if rng.random() < 0.5 else -1
        half = p["speed"] * script.duration / 2.0
        base = (target + perp * (side * p["offset"])
                + np.array([0.0, 0.0, p["altitude"] - h / 2.0]))
        return lambda t, sp: look_at(
            base + direction * (p["speed"] * t - half), sp.position)

    if style == "follow":
        h0 = script.subject.pose_at(0.0).yaw
        back = -np.array([np.cos(h0), np.sin(h0), 0.0])
        offset = back * p["distance"] + np.array(
            [0.0, 0.0, p["altitude"] - h / 2.0])
        return lambda t, sp: look_at(sp.position + offset, sp.position)

    if style == "orbiting":
        radius = p["radius"]
        dz = p["altitude"]
        if dz >= radius:
            raise GeneratorError(
                f"orbiting: altitude {dz} must be below radius {radius}")
        rh = np.sqrt(radius ** 2 - dz ** 2)
        rate = p["rate"] * (1 if rng.random() < 0.5 else -1)
        theta0 = rng.uniform(-np.pi, np.pi)

        def orbit(t, sp):
            th = theta0 + rate * t
            return look_at(sp.position + np.array(
                [rh * np.cos(th), rh * np.sin(th), dz]), sp.position)
        return orbit

    # super-dolly
    def dolly(t, sp):
        ahead = np.array([np.cos(sp.yaw), np.sin(sp.yaw), 0.0])
        lead = p["lead"] - p["closing"] * t
        return look_at(sp.position + ahead * lead
                       + np.array([0.0, 0.0, p["altitude"]]), sp.position)
    return dolly


def generate_style_trajectory(script: ShotScript,
                              n_frames: int | None = None
                              ) -> list[FrameSample]:
    """Ground-truth camera/subject trajectory for one shot, or its
    first n_frames frames: the style's random draws all come before the
    first frame, so a prefix equals the whole trajectory's."""
    camera = _camera_rule(script)
    n = _frame_count(script.duration)
    if n_frames is not None:
        n = min(n, n_frames)
    h = script.subject.body_height
    frames = []
    for t in np.arange(n) * DT:
        sp = script.subject.pose_at(t)
        frames.append(FrameSample(float(t), camera(t, sp), sp, h))
    return frames


# ---------------------------------------------------------------------------
# ground-truth action labels

def action_labels(frames: list[FrameSample], K: Intrinsics) -> np.ndarray:
    """Per-frame 7-vector (omega 3, direction 3, scale 1).

    omega and direction describe the camera motion from frame t to t+1;
    the last frame repeats the previous label. omega is the rate of the
    (roll, yaw, pitch) angles. direction is the unit translation in the
    camera frame of frame t, as (right, down, forward) components, so a
    camera flying straight at its subject has direction (0, 0, 1)
    whatever its world heading. scale is the projected on-screen subject
    height at frame t, clamped to [0, 1].
    """
    n = len(frames)
    out = np.zeros((n, 7))
    prev_dir = None
    for t in range(n):
        cam = frames[t].camera
        if t < n - 1:
            nxt = frames[t + 1].camera
            omega = wrap_angle(nxt.angles - cam.angles) / DT
            delta = cam.axes @ (nxt.position - cam.position)
            norm = np.linalg.norm(delta)
            if norm > 1e-12:
                direction = delta / norm
            elif prev_dir is not None:
                direction = prev_dir
            else:
                direction = np.array([0.0, 0.0, 1.0])
            out[t, :3] = omega
            out[t, 3:6] = direction
            prev_dir = direction
        else:
            out[t, :6] = out[t - 1, :6] if n > 1 else 0.0
        fg = project_foreground(cam, K, frames[t].subject,
                                frames[t].subject_height)
        out[t, 6] = min(max(fg.h, 0.0), 1.0)
    return out


# ---------------------------------------------------------------------------
# background point cloud

def make_point_cloud(rng: np.random.Generator, center=(0.0, 0.0),
                     extent: float = 90.0, n_ground: int = 4000,
                     n_structures: int = 160) -> np.ndarray:
    """Static scene points: ground-plane scatter plus vertical
    structures of 18 points each, so cells above the horizon get
    coverage. Filled into one array, in the order of the draws: ground
    x, ground y, then per structure its base x, base y and height, the
    jitter of its points' x and y, and their heights.

    A structure takes three generator calls: its three base draws, its
    2·18 jitters and its 18 height fractions. Uniform draws are mapped
    as low + (high - low) * u, the form rng.uniform(low, high) applies
    to the same doubles, so the points and the generator's state after
    the call are those of one call per draw."""
    cx, cy = center
    m = 18
    pts = np.empty((n_ground + m * n_structures, 3))
    pts[:n_ground, 0] = rng.uniform(cx - extent, cx + extent, n_ground)
    pts[:n_ground, 1] = rng.uniform(cy - extent, cy + extent, n_ground)
    pts[:n_ground, 2] = 0.0
    x0, y0 = cx - extent, cy - extent
    xspan, yspan = (cx + extent) - x0, (cy + extent) - y0
    for block in pts[n_ground:].reshape(n_structures, m, 3):
        ux, uy, uh = rng.random(3).tolist()
        jitter = rng.normal(0, 0.3, 2 * m)
        np.add(x0 + xspan * ux, jitter[:m], out=block[:, 0])
        np.add(y0 + yspan * uy, jitter[m:], out=block[:, 1])
        # uniform(0, height): 0 + height * u is height * u, u >= 0
        np.multiply(2.0 + 10.0 * uh, rng.random(m), out=block[:, 2])
    return pts


def draw_scene(style: str, rng: np.random.Generator,
               duration_range=DURATION_RANGE,
               body_height: float = BODY_HEIGHT
               ) -> tuple[ShotScript, np.ndarray]:
    """(script, cloud): a shot's script, then the static world around
    its subject's start, drawn from rng in that order."""
    script = random_script(style, rng, duration_range, body_height)
    center = script.subject.pose_at(0.0).position[:2]
    return script, make_point_cloud(rng, center=tuple(center))


# ---------------------------------------------------------------------------
# style contract checkers

def _dir_spread(cams: np.ndarray) -> float:
    """Largest distance of a step's unit direction from the first's."""
    deltas = np.diff(cams, axis=0)
    unit = deltas / np.maximum(
        np.linalg.norm(deltas, axis=1, keepdims=True), 1e-12)
    return float(np.linalg.norm(unit - unit[0], axis=1).max(initial=0.0))


def _max_aim_err(disp: np.ndarray, frames: list[FrameSample]) -> float:
    """Largest yaw by which a camera misses the subject's bearing."""
    return float(max(abs(wrap_angle(np.arctan2(-d[1], -d[0])
                                     - f.camera.yaw))
                     for d, f in zip(disp, frames)))


def check_style_contract(style: str, frames: list[FrameSample],
                         strict: bool = True) -> tuple[bool, dict]:
    """Geometric predicates from the style definitions.

    strict=True uses generator tolerances; strict=False uses the looser
    tolerances a closed-loop recapture must meet.
    """
    cams = np.array([f.camera.position for f in frames])
    subjs = np.array([f.subject.position for f in frames])
    angs = np.array([f.camera.angles for f in frames])
    disp = cams - subjs
    metrics: dict = {}
    tol_aim = 1e-9 if strict else 0.12   # fly-by, orbiting, super-dolly

    if style == "fly-through":
        dang = wrap_angle(np.diff(angs, axis=0))
        metrics["max_ang_step"] = float(np.abs(dang).max()) if len(dang) \
            else 0.0
        metrics["dir_spread"] = _dir_spread(cams)
        metrics["min_dist"] = float(np.linalg.norm(disp, axis=1).min())
        tol_ang = 1e-12 if strict else 0.02
        tol_dir = 1e-9 if strict else 0.15
        ok = (metrics["max_ang_step"] <= tol_ang
              and metrics["dir_spread"] <= tol_dir
              and metrics["min_dist"] <= (10.0 if strict else 14.0))

    elif style == "fly-by":
        metrics["dir_spread"] = _dir_spread(cams)
        metrics["max_aim_err"] = _max_aim_err(disp, frames)
        metrics["yaw_sweep"] = float(
            np.abs(wrap_angle(np.diff(angs[:, 1]))).sum())
        tol_dir = 1e-9 if strict else 0.2
        ok = (metrics["dir_spread"] <= tol_dir
              and metrics["max_aim_err"] <= tol_aim
              and metrics["yaw_sweep"] > 0.05)

    elif style == "follow":
        mean_disp = disp.mean(axis=0)
        metrics["disp_var"] = float(
            np.linalg.norm(disp - mean_disp, axis=1).max())
        metrics["mean_dist"] = float(np.linalg.norm(mean_disp))
        tol = 1e-9 if strict else 0.10 * metrics["mean_dist"]
        ok = metrics["disp_var"] <= tol

    elif style == "orbiting":
        dist = np.linalg.norm(disp, axis=1)
        metrics["radius_mean"] = float(dist.mean())
        metrics["radius_var"] = float(
            (dist.max() - dist.min()) / max(dist.mean(), 1e-9))
        bearing = np.unwrap(np.arctan2(disp[:, 1], disp[:, 0]))
        db = np.diff(bearing)
        metrics["bearing_monotone"] = bool(
            np.all(db > 1e-6) or np.all(db < -1e-6)) if len(db) else False
        metrics["bearing_sweep"] = float(abs(bearing[-1] - bearing[0]))
        metrics["max_aim_err"] = _max_aim_err(disp, frames)
        tol_r = 1e-9 if strict else 0.10
        ok = (metrics["radius_var"] <= tol_r
              and metrics["bearing_monotone"]
              and metrics["max_aim_err"] <= tol_aim
              and metrics["bearing_sweep"] > 0.3)

    elif style == "super-dolly":
        headings = np.array([[np.cos(f.subject.yaw), np.sin(f.subject.yaw)]
                             for f in frames])
        along = np.einsum("ij,ij->i", disp[:, :2], headings)
        metrics["min_lead"] = float(along.min())
        vel = np.diff(cams, axis=0)
        fwd = np.array([f.camera.axes[2] for f in frames[:-1]])
        back = np.einsum("ij,ij->i", vel, fwd)
        metrics["max_forward_component"] = float(back.max()) if len(back) \
            else -1.0
        metrics["max_aim_err"] = _max_aim_err(disp, frames)
        ok = (metrics["min_lead"] > 0
              and metrics["max_forward_component"] < 1e-9
              and metrics["max_aim_err"] <= tol_aim)

    else:
        raise GeneratorError(f"unknown style {style!r}")
    return ok, metrics
