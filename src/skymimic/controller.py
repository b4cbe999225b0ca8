"""Closed-loop filming: convert a predicted action into the next
camera pose and run the loop in a simulated scene with an ideal
actuator.

Each step localizes the subject from its box and known height, tracks
it with a constant-velocity Kalman filter, and moves the camera
relative to it, after Huang et al., "Through-the-Lens Drone Filming"
(IROS 2018): the target scale sets the range, the angular rates turn
the camera, and the subject keeps its place on screen.  The action's
direction (a unit vector in the camera frame) decides the path between
two shapes.  While the direction turns with the camera, as in an orbit,
the step is spherical: the rates sweep the subject's bearing and
elevation at the range the scale asks for.  While the direction holds
its heading in the world as the camera turns or stands still, as in a
fly-by or a fly-through, the camera flies a straight, level line along
that heading.  See `next_waypoint` for the step and `Executor` for how
the demo schedule is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# embed_batch is not called here: the loop embeds through
# EncoderStream.embed, but the benchmark's tracer still binds
# controller.embed_batch and reports its per-layer metrics
from .features import WINDOW, EncoderStream, embed_batch  # noqa: F401
from .geometry import (Intrinsics, OffscreenError, Pose6D,
                       VisibilityError, FgFeature, pixel_to_world,
                       project_foreground, project_points,
                       render_motion_field, wrap_angle)
from .imitation import ACTION_DIM, DIR_EPS, make_action, predict_action
from .nn import NumericError
from .pipeline import ModelBundle, demo_conditioning
from .scene import DT, FrameSample, ShotScript

MAX_SPEED = 10.0          # m/s step clamp
PROCESS_NOISE = 0.5       # m/s^2 equivalent, of the subject's Kalman filter
MEASUREMENT_NOISE = 0.1   # m, of a localized subject position
MIN_BOX_HEIGHT = 1e-4
SUBJECT_LOST_LIMIT = 2.0  # seconds off-screen before aborting
ACTION_SMOOTHING = 0.3    # new-sample weight of the executed action
RATE_DEADBAND = 0.02      # rad/s; predicted rates below it are not flown
CO_TURN = 0.5             # heading turn / camera turn that makes an orbit
MIN_TURN = 0.1            # rad of camera turn before the ratio is trusted
FRAME_KEEP = 0.8          # share of the half field of view the subject may use


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
    """Constant-velocity Kalman filter over subject position.

    The covariance recursion never reads a measurement: from a given
    covariance the next covariance and the gain are always the same, so
    `kalman_step` takes them from a memo and the covariance a step
    returns is that memo's read-only array.
    """

    position: np.ndarray
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    covariance: np.ndarray = field(
        default_factory=lambda: np.diag([1.0] * 3 + [4.0] * 3))

    @property
    def state(self) -> np.ndarray:
        return np.concatenate([self.position, self.velocity])


# the constant-velocity model (F, Q, H, R) at the loop's DT, read-only
_I3 = np.eye(3)
_F = np.block([[_I3, DT * _I3], [np.zeros((3, 3)), _I3]])
_Q = PROCESS_NOISE ** 2 * np.block([[DT ** 4 / 4 * _I3, DT ** 3 / 2 * _I3],
                                    [DT ** 3 / 2 * _I3, DT ** 2 * _I3]])
_H = np.hstack([_I3, np.zeros((3, 3))])
_R = MEASUREMENT_NOISE ** 2 * _I3
for _m in (_F, _Q, _H, _R):
    _m.setflags(write=False)


@lru_cache(maxsize=128)
def _kalman_gain(covariance: bytes):
    """Read-only (gain, updated covariance) of one step from the
    covariance whose float64 bytes are given, computed once per key.

    From the default covariance the recursion settles into a 2-cycle
    after 48 steps, so every run of the loop hits the same few dozen
    keys.  A covariance that fails the semidefiniteness check raises on
    every call: lru_cache keeps no exceptions.
    """
    P = np.frombuffer(covariance).reshape(6, 6)
    P = _F @ P @ _F.T + _Q
    S = _H @ P @ _H.T + _R
    G = P @ _H.T @ np.linalg.inv(S)
    P = (np.eye(6) - G @ _H) @ P
    P = 0.5 * (P + P.T)
    if np.min(np.linalg.eigvalsh(P)) < -1e-9:
        raise NumericError("kalman_step: covariance lost positive "
                           "semidefiniteness")
    for m in (G, P):
        m.setflags(write=False)
    return G, P


def kalman_step(track: SubjectTrack, measurement: np.ndarray):
    """Predict/update cycle over one DT. Returns (updated track,
    DT-ahead position).

    Only the state update reads the measurement; the gain and the next
    covariance depend on the track's covariance alone and come from
    `_kalman_gain`'s memo.
    """
    G, P = _kalman_gain(np.asarray(track.covariance, float).tobytes())
    x = _F @ track.state
    y = np.asarray(measurement, float) - _H @ x
    x = x + G @ y
    updated = SubjectTrack(x[:3], x[3:], P)
    predicted = (_F @ x)[:3]
    return updated, predicted


def _clip(value, bound):
    """`np.clip(value, -bound, bound)` for one scalar, without NumPy's
    per-call cost: the same value, nan and signed zero included."""
    return min(max(value, -bound), bound)


def next_waypoint(drone: Pose6D, action: np.ndarray,
                  subject: np.ndarray, K: Intrinsics,
                  subject_height: float,
                  subject_next: np.ndarray | None = None,
                  heading: np.ndarray | None = None,
                  hold_aim: bool = False) -> Pose6D:
    """One control step of the action in subject-relative coordinates.

    The action's target scale fixes the new range through the pinhole
    relation; the range moves towards it by at most MAX_SPEED * DT.

    Without a heading the step is spherical: the camera's offset from
    the subject is held as (range, azimuth, elevation), the angular
    rates sweep the azimuth and elevation, and the camera turns at those
    same rates, so the subject keeps its place on screen.

    With a heading (a world-frame horizontal vector) the camera flies a
    straight, level line: it moves along the heading, at the height it
    has above the subject, by the step length that best matches the
    spherical step flown level (the projection of that step on the
    heading), but never less than the projection of the azimuth sweep
    alone and never backwards.  With hold_aim the camera turns by the
    change of the subject's bearing and elevation, so the subject keeps
    its place on screen.  Otherwise it turns at the action's rates,
    corrected by just enough to keep the subject's centre within
    FRAME_KEEP of the half field of view off the optical axis.

    Either way the new offset is re-anchored on subject_next (the
    tracker's DT-ahead prediction), so the camera travels with a moving
    subject.
    """
    if subject_next is None:
        subject_next = subject
    omega, target_scale = action[:3], float(action[6])
    r = drone.position - np.asarray(subject, float)
    rho = max(math.sqrt(r @ r), 1e-6)
    az = float(np.arctan2(r[1], r[0]))
    el = float(np.arcsin(_clip(r[2] / rho, 1.0)))
    rho_target = K.focal * subject_height \
        / (max(target_scale, MIN_BOX_HEIGHT) * K.height)
    rho_new = rho + float(_clip(rho_target - rho, MAX_SPEED * DT))
    rho_new = max(rho_new, 1.0)
    turn = omega * DT
    if heading is None:
        az += turn[1]
        el = float(_clip(el + turn[2], 1.5))
        ce = math.cos(el)
        offset = np.array([rho_new * (ce * math.cos(az)),
                           rho_new * (ce * math.sin(az)),
                           rho_new * math.sin(el)])
    else:
        h = np.array([heading[0], heading[1], 0.0])
        h /= math.sqrt(h @ h)
        hyp = np.hypot(r[0], r[1])
        rh = float(hyp) * rho_new / rho
        az1 = az + turn[1]
        level = np.array([rh * math.cos(az1), rh * math.sin(az1), r[2]])
        sweep = hyp * turn[1] * np.array([-math.sin(az), math.cos(az), 0.0])
        along = max(float((level - r) @ h), float(sweep @ h), 0.0)
        offset = r + min(along, MAX_SPEED * DT) * h
        # the subject's bearing and elevation, as swept by the step
        swept = np.array([np.arctan2(offset[1], offset[0]) - az,
                          np.arcsin(_clip(offset[2]
                                          / math.sqrt(offset @ offset),
                                          1.0)) - el])
        if hold_aim:
            turn[1:] = wrap_angle(swept)
        else:
            # the subject's angles off the optical axis after the turn
            off = wrap_angle(swept - turn[1:] + (az + np.pi - drone.yaw,
                                                 el - drone.pitch))
            keep = FRAME_KEEP * np.arctan(np.array([K.cx, K.cy]) / K.focal)
            turn[1:] += off - np.clip(off, -keep, keep)
    # each angle takes wrap_angle's float path
    return Pose6D(np.asarray(subject_next, float) + offset,
                  *map(wrap_angle, drone.angles + turn))


class Executor:
    """Turns the predicted action stream of one run into camera poses.

    The demo schedule is applied relative to the live shot, not in
    absolute terms:
    - rates are multiplied by kappa, the demo/live duration ratio, since
      the demo is indexed by elapsed fraction but the rates are flown on
      the live clock, so the live shot turns as far as the demo did;
    - the scale is taken relative to the loop's first frame: each
      prediction is multiplied by scale0 (the box height seen there)
      over the first prediction, so the live range follows the demo's
      range ratios from wherever the live shot starts.
    Predictions are smoothed with ACTION_SMOOTHING, and rates below
    RATE_DEADBAND, the imitation net's error on shots that do not turn,
    are flown as zero: otherwise a still camera slowly orbits its
    subject.

    The direction is turned into a world heading by the camera's current
    axes, and the heading's turn is accumulated against the camera's.
    While the heading turns with the camera by CO_TURN of the camera's
    turn or more (after MIN_TURN of camera turn), as in an orbit, the
    step is spherical.  Otherwise the camera flies straight along the
    heading it had when that last began, and holds its aim on the
    subject while it is asked to turn or once it has turned MIN_TURN.
    """

    def __init__(self, scale0: float, kappa: float = 1.0):
        self.scale0 = scale0
        self.kappa = kappa
        self.smoothed: np.ndarray | None = None
        self.scale_ref = 1.0
        self.heading: np.ndarray | None = None
        self.last: tuple[float, float] | None = None
        self.turned = 0.0
        self.moved = 0.0

    def step(self, drone: Pose6D, predicted: np.ndarray,
             subject: np.ndarray, subject_next: np.ndarray, K: Intrinsics,
             subject_height: float) -> Pose6D:
        smoothed = self.smoothed
        if smoothed is None:
            smoothed = self.smoothed = predicted.copy()
            self.scale_ref = self.scale0 / predicted[6]
        else:
            # in place: smoothed + ACTION_SMOOTHING * (predicted - smoothed)
            step = predicted - smoothed
            step *= ACTION_SMOOTHING
            smoothed += step
            d = smoothed[3:6]
            d /= max(math.sqrt(d @ d), DIR_EPS)
        executed = smoothed.copy()
        for i in range(3):
            executed[i] = (0.0 if abs(executed[i]) < RATE_DEADBAND
                           else executed[i]) * self.kappa
        executed[6] = min(executed[6] * self.scale_ref, 1.0)

        world = executed[3:6] @ drone.axes
        bearing = float(np.arctan2(world[1], world[0]))
        if self.last is not None:
            self.turned += wrap_angle(drone.yaw - self.last[0])
            self.moved += wrap_angle(bearing - self.last[1])
        self.last = (drone.yaw, bearing)
        sign = (self.turned > 0.0) - (self.turned < 0.0)
        co_turning = self.moved * sign \
            >= CO_TURN * max(abs(self.turned), MIN_TURN)
        if co_turning or np.hypot(world[0], world[1]) < DIR_EPS:
            self.heading = None
        elif self.heading is None:
            self.heading = world[:2]
        hold_aim = executed[1] != 0.0 or abs(self.turned) >= MIN_TURN
        return next_waypoint(drone, executed, subject, K, subject_height,
                             subject_next=subject_next,
                             heading=self.heading, hold_aim=hold_aim)


@dataclass
class LiveScene:
    """A fresh environment for recapture: the scripted shot (its subject
    path and body height, and the shot the loop should fly), the static
    world and the drone's start pose."""

    script: ShotScript
    cloud: np.ndarray
    intrinsics: Intrinsics
    drone_start: Pose6D


@dataclass
class RunLog:
    frames: list            # FrameSample per step
    actions: np.ndarray     # (T, 7) commanded actions
    fg: np.ndarray
    bg: np.ndarray


def closed_loop_run(style_feature: np.ndarray, scene: LiveScene,
                    bundle: ModelBundle, duration: float,
                    demo_actions: np.ndarray | None = None) -> RunLog:
    """Film the scene for `duration` seconds in the demo's style.

    Ideal actuator: each computed pose is reached exactly.  The loop
    first holds the initial camera-to-subject geometry for a
    WINDOW-frame warm-up while observations accumulate, then flies
    from the predicted action stream through an `Executor`, which
    smooths the predictions, applies the demo schedule relative to the
    live shot and picks the straight or spherical step of
    `next_waypoint`.  Warm-up frames are calibration and are excluded
    from the returned log, which starts after the first flown step.
    Each pose the camera reaches projects the scene's static cloud once,
    WINDOW + duration / DT projections in all; the motion field of a
    step pairs that projection with the one kept from the step before,
    reading the kept one's `seen` mask and the new one's `front` mask.

    The fg rows and bg field rows are kept in arrays of WINDOW +
    duration / DT rows (`EncoderStream`), and each row is projected
    through its encoder's input weights once, when it is stored. Each
    stream keeps the encoder runs of the windows still open and steps
    them together, once per stored row; a step's two embeddings
    (`EncoderStream.embed`) then take one more encoder step each. The
    bg window's last field repeats, as in the dataset, until the next
    pose replaces it, so the runs read a row only once the next one is
    stored. The embeddings equal, to the bit, `embed_batch` on each
    window's rows stacked (WINDOW, 1, D). The returned log's fg and bg
    are views of these arrays.

    When the demo's per-frame actions are given, each prediction is
    conditioned on the demo action at the same fraction of elapsed
    time — the one-shot analogue of the demo-action conditioning the
    dual loss trains on — which anchors the run's pacing to the demo's
    schedule; the rates are then flown faster or slower by the
    demo/live duration ratio, so the live shot turns as far as the
    demo did.  Without them the loop feeds back its own last
    prediction at the live clock, which drifts on styles whose
    signature is a sustained rate.

    A duration with no control step, or demo actions that are not an
    (n >= 1, 7) array, raise ValueError before anything is projected.
    """
    if bundle.imitation_params is None:
        raise RuntimeError("bundle has no trained imitation net")
    K = scene.intrinsics
    subject = scene.script.subject
    body_height = subject.body_height
    n_exec = int(round(duration / DT))
    if n_exec < 1:
        raise ValueError(f"duration {duration!r} s has no control step")
    shape = None if demo_actions is None else np.shape(demo_actions)
    if shape is not None and (len(shape) != 2 or shape[0] < 1
                              or shape[1] != ACTION_DIM):
        raise ValueError(f"demo actions of shape {shape} are not "
                         f"(n >= 1, {ACTION_DIM}) rows")
    n_total = WINDOW + n_exec
    drone = scene.drone_start
    frames: list[FrameSample] = []
    fg_obs = EncoderStream(bundle.fg_encoder, n_total)
    bg_obs = EncoderStream(bundle.bg_encoder, n_total)
    prev_action = None
    track = None
    lost = 0.0
    offset0 = drone.position - subject.pose_at(0.0).position
    actions = np.zeros((n_exec, ACTION_DIM))
    kappa = demo_actions.shape[0] / n_exec if demo_actions is not None \
        else 1.0
    executor = None

    for t in range(n_total):
        now = t * DT
        subj = subject.pose_at(now)
        try:
            fg = project_foreground(drone, K, subj, body_height)
            lost = 0.0
        except (VisibilityError, OffscreenError) as e:
            lost += DT
            if lost > SUBJECT_LOST_LIMIT:
                raise SubjectLostError(
                    f"subject off-screen for {lost:.2f} s at t={now:.2f} s"
                ) from e
            fg = None
        frames.append(FrameSample(now, drone, subj, body_height))
        proj = project_points(drone, K, scene.cloud)
        if t > 0:
            # field t-1 pairs the last pose with this one; until the
            # next pose comes, it also stands in for field t, as the
            # last field of a clip does
            bg_obs.put(t - 1, render_motion_field(proj_prev, proj, K))
            bg_obs.repeat(t)
        proj_prev = proj
        if fg is not None:
            fg_obs.put(t, fg.vector())
        elif t > 0:
            fg_obs.repeat(t)  # hold the last box while the subject is lost
        else:
            fg_obs.put(t, 0.0)
        if t == n_total - 1:
            break

        if fg is not None:
            measured = localize_subject(fg, drone, K, body_height)
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
                np.zeros(3), drone.axes[2], fg.h)

        if t >= WINDOW - 1 and prev_action is not None:
            obs = np.concatenate([fg_obs.embed(t), bg_obs.embed(t)])
            if demo_actions is not None:
                conditioning = demo_conditioning(demo_actions,
                                                 t - WINDOW + 1, n_exec)
            else:
                conditioning = prev_action
            action = predict_action(style_feature, obs, conditioning,
                                    bundle.imitation_params)
            actions[t - WINDOW + 1] = action
            prev_action = action
            if executor is None:
                executor = Executor(fg_obs.rows[t, 3], kappa)
            drone = executor.step(drone, action, subj_now, subj_next, K,
                                  body_height)
        else:
            # warm-up: hold the initial relative geometry
            target = subj_next + offset0
            drone = Pose6D(target, drone.roll, drone.yaw, drone.pitch)

    # the post-warm-up observation streams gathered during the run;
    # re-projecting would fail on briefly-lost frames
    return RunLog(frames[WINDOW:], actions, fg_obs.rows[WINDOW:],
                  bg_obs.rows[WINDOW:])
