"""Closed-loop filming: convert a predicted action into the next
camera waypoint (subject localization from the bounding box and known
height, constant-velocity Kalman prediction, a spherical step of the
subject-relative geometry driven by the action's angular rates and
target scale) and run the loop in a simulated scene with an ideal
actuator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .features import WINDOW, embed_batch
from .geometry import (Intrinsics, OffscreenError, Pose6D, VisibilityError,
                       FgFeature, pixel_to_world, project_foreground,
                       render_motion_field, wrap_angle)
from .imitation import make_action, predict_action
from .nn import NumericError
from .pipeline import ModelBundle, demo_conditioning
from .scene import DT, FrameSample, SubjectPath

MAX_SPEED = 10.0          # m/s step clamp
MIN_BOX_HEIGHT = 1e-4
SUBJECT_LOST_LIMIT = 2.0  # seconds off-screen before aborting
RATE_SMOOTHING = 0.3      # new-sample weight, executed angular rates
SCALE_SMOOTHING = 0.15    # new-sample weight, executed target scale


class SubjectLostError(RuntimeError):
    pass


def localize_subject(box: FgFeature, drone: Pose6D, K: Intrinsics,
                     subject_height: float) -> np.ndarray:
    """World position of the subject from its box and known height."""
    if box.h <= MIN_BOX_HEIGHT:
        raise ValueError(
            f"subject box height {box.h:.2e} too small to range")
    depth = K.focal * subject_height / (box.h * K.height)
    return pixel_to_world(drone, K, box.cx * K.width, box.cy * K.height,
                          depth)


@dataclass
class SubjectTrack:
    """Constant-velocity Kalman filter over subject position."""

    position: np.ndarray
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    covariance: np.ndarray = field(
        default_factory=lambda: np.diag([1.0] * 3 + [4.0] * 3))
    process_noise: float = 0.5    # m/s^2 equivalent
    measurement_noise: float = 0.1  # m

    @property
    def state(self) -> np.ndarray:
        return np.concatenate([self.position, self.velocity])


def kalman_step(track: SubjectTrack, measurement: np.ndarray,
                dt: float = DT):
    """Predict/update cycle. Returns (updated track, dt-ahead position)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    I3 = np.eye(3)
    F = np.block([[I3, dt * I3], [np.zeros((3, 3)), I3]])
    q = track.process_noise ** 2
    Q = q * np.block([[dt ** 4 / 4 * I3, dt ** 3 / 2 * I3],
                      [dt ** 3 / 2 * I3, dt ** 2 * I3]])
    H = np.hstack([I3, np.zeros((3, 3))])
    R = track.measurement_noise ** 2 * I3
    x = F @ track.state
    P = F @ track.covariance @ F.T + Q
    y = np.asarray(measurement, float) - H @ x
    S = H @ P @ H.T + R
    G = P @ H.T @ np.linalg.inv(S)
    x = x + G @ y
    P = (np.eye(6) - G @ H) @ P
    P = 0.5 * (P + P.T)
    if np.min(np.linalg.eigvalsh(P)) < -1e-9:
        raise NumericError("kalman_step: covariance lost positive "
                           "semidefiniteness")
    updated = SubjectTrack(x[:3], x[3:], P, track.process_noise,
                           track.measurement_noise)
    predicted = (F @ x)[:3]
    return updated, predicted


@dataclass
class Waypoint:
    position: np.ndarray
    roll: float
    yaw: float
    pitch: float

    def pose(self) -> Pose6D:
        return Pose6D(self.position, self.roll, self.yaw, self.pitch)


def next_waypoint(drone: Pose6D, action: np.ndarray,
                  subject: np.ndarray, K: Intrinsics,
                  subject_height: float, dt: float = DT,
                  max_speed: float = MAX_SPEED,
                  subject_next: np.ndarray | None = None) -> Waypoint:
    """One control step of the action in subject-relative coordinates.

    The camera's offset from the subject is held in spherical form
    (range, azimuth, elevation).  The action's target scale fixes the
    new range through the pinhole relation, its angular rates sweep the
    azimuth and elevation, and the camera turns at those same rates, so
    the subject's on-screen position is preserved while the predicted
    action stream reshapes the relative geometry.  The new offset is
    re-anchored on subject_next (the tracker's dt-ahead prediction), so
    the camera travels with a moving subject.
    """
    if subject_next is None:
        subject_next = subject
    omega, target_scale = action[:3], float(action[6])
    r = drone.position - np.asarray(subject, float)
    rho = max(float(np.linalg.norm(r)), 1e-6)
    az = float(np.arctan2(r[1], r[0]))
    el = float(np.arcsin(np.clip(r[2] / rho, -1.0, 1.0)))
    rho_target = K.focal * subject_height \
        / (max(target_scale, MIN_BOX_HEIGHT) * K.height)
    rho += float(np.clip(rho_target - rho, -max_speed * dt, max_speed * dt))
    rho = max(rho, 1.0)
    az += float(omega[1]) * dt
    el = float(np.clip(el + omega[2] * dt, -1.5, 1.5))
    u = np.array([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az),
                  np.sin(el)])
    pos = np.asarray(subject_next, float) + rho * u
    angles = wrap_angle(drone.angles + omega * dt)
    return Waypoint(pos, float(angles[0]), float(angles[1]),
                    float(angles[2]))


@dataclass
class LiveScene:
    """A fresh environment for recapture: subject path + static world."""

    subject: SubjectPath
    cloud: np.ndarray
    intrinsics: Intrinsics
    drone_start: Pose6D
    subject_height: float = 1.7


@dataclass
class RunLog:
    frames: list            # FrameSample per step
    actions: np.ndarray     # (T, 7) commanded actions
    fg: np.ndarray
    bg: np.ndarray
    mask: np.ndarray


def closed_loop_run(style_feature: np.ndarray, scene: LiveScene,
                    bundle: ModelBundle, duration: float,
                    demo_actions: np.ndarray | None = None) -> RunLog:
    """Film the scene for `duration` seconds in the demo's style.

    Ideal actuator: each computed waypoint is reached exactly.  The
    loop first holds the initial camera-to-subject geometry for a
    WINDOW-frame warm-up while observations accumulate, then flies
    from the predicted action stream.  Warm-up frames are calibration
    and are excluded from the returned log.

    When the demo's per-frame actions are given, each prediction is
    conditioned on the demo action at the same fraction of elapsed
    time — the one-shot analogue of the demo-action conditioning the
    dual loss trains on — which anchors the run's rates and pacing to
    the demo's schedule.  Without them the loop feeds back its own
    last prediction, which drifts on styles whose signature is a
    sustained rate.
    """
    if bundle.imitation_params is None:
        raise RuntimeError("bundle has no trained imitation net")
    K = scene.intrinsics
    n_exec = int(round(duration / DT))
    n_total = WINDOW + n_exec
    drone = scene.drone_start
    frames: list[FrameSample] = []
    fg_rows: list[np.ndarray] = []
    bg_rows: list[np.ndarray] = []
    prev_action = None
    smoothed = None
    track = None
    lost = 0.0
    offset0 = drone.position - scene.subject.pose_at(0.0).position
    actions = np.zeros((n_exec, 7))

    for t in range(n_total):
        now = t * DT
        subj = scene.subject.pose_at(now)
        try:
            fg = project_foreground(drone, K, subj, scene.subject_height)
            lost = 0.0
        except (VisibilityError, OffscreenError) as e:
            lost += DT
            if lost > SUBJECT_LOST_LIMIT:
                raise SubjectLostError(
                    f"subject off-screen for {lost:.2f} s at t={now:.2f} s"
                ) from e
            fg = None
        frames.append(FrameSample(now, drone, subj, scene.subject_height))
        if t > 0:
            field_prev = render_motion_field(frames[t - 1].camera, drone, K,
                                             scene.cloud)
            bg_rows.append(np.concatenate([field_prev.vector(),
                                           field_prev.mask_vector()]))
        fg_rows.append(fg.vector() if fg is not None
                       else (fg_rows[-1] if fg_rows else np.zeros(5)))
        if t == n_total - 1:
            break

        if fg is not None:
            measured = localize_subject(fg, drone, K, scene.subject_height)
            if track is None:
                track = SubjectTrack(measured)
                subj_now = subj_next = measured
            else:
                track, subj_next = kalman_step(track, measured)
                subj_now = track.position
        elif track is not None:
            subj_now = track.position
            subj_next = track.position + track.velocity * DT
        else:
            subj_now = subj_next = subj.position

        if prev_action is None and fg is not None:
            prev_action = make_action(
                np.zeros(3), drone.camera_axes()[2], fg.h)

        if t >= WINDOW - 1 and prev_action is not None:
            w_fg = np.stack(fg_rows[t - WINDOW + 1:t + 1])
            bgm = bg_rows[t - WINDOW + 1:t]
            bgm = bgm + [bgm[-1]]  # last row repeats, as in the dataset
            w_bg = np.stack([row[:128] for row in bgm])
            fge = embed_batch(w_fg[None], bundle.fg_encoder)[0]
            bge = embed_batch(w_bg[None], bundle.bg_encoder)[0]
            obs = np.concatenate([fge, bge])
            if demo_actions is not None:
                conditioning = demo_conditioning(demo_actions,
                                                 t - WINDOW + 1, n_exec)
            else:
                conditioning = prev_action
            action = predict_action(style_feature, obs, conditioning,
                                    bundle.imitation_params)
            actions[t - WINDOW + 1] = action
            prev_action = action
            # prediction noise would flip the motion direction frame to
            # frame; execute a smoothed copy, feed the net the raw one
            if smoothed is None:
                smoothed = action.copy()
            else:
                smoothed = smoothed.copy()
                smoothed[:3] += RATE_SMOOTHING * (action[:3] - smoothed[:3])
                smoothed[3:6] = action[3:6]
                smoothed[6] += SCALE_SMOOTHING * (action[6] - smoothed[6])
            wp = next_waypoint(drone, smoothed, subj_now, K,
                               scene.subject_height, subject_next=subj_next)
            drone = wp.pose()
        else:
            # warm-up: hold the initial relative geometry
            target = subj_next + offset0
            drone = Pose6D(target, drone.roll, drone.yaw, drone.pitch)

    # assemble the post-warm-up observation streams gathered during the
    # run; re-projecting would fail on briefly-lost frames
    fg_arr = np.stack(fg_rows[WINDOW:])
    bg_full = bg_rows[WINDOW:] + [bg_rows[-1]]  # last field repeats
    bg_arr = np.stack([row[:128] for row in bg_full])
    mask_arr = np.stack([row[128:] for row in bg_full])
    return RunLog(frames[WINDOW:], actions, fg_arr, bg_arr, mask_arr)
