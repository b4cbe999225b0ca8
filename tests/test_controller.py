import re

import numpy as np
import pytest

from skymimic.controller import (ACTION_SMOOTHING, CO_TURN, DIR_EPS,
                                 FRAME_KEEP, MAX_SPEED, MEASUREMENT_NOISE,
                                 MIN_BOX_HEIGHT, MIN_TURN, PROCESS_NOISE,
                                 RATE_DEADBAND, Executor, SubjectTrack, _clip,
                                 _kalman_gain, closed_loop_run, kalman_step,
                                 localize_subject, next_waypoint)
from skymimic.dataset import build_video
from skymimic.features import FG_DIM, WINDOW, autoencoder_init
from skymimic.geometry import (Intrinsics, Pose6D, look_at,
                               project_foreground, project_points,
                               render_motion_field, wrap_angle)
from skymimic.imitation import init_imitation_net, make_action
from skymimic.nn import NumericError
from skymimic.pipeline import ModelBundle
from skymimic.stylenet import VARIANTS, init_style_net
from skymimic.training import make_live_scene
from skymimic.scene import (DT, STYLES, FrameSample, action_labels,
                            check_style_contract, generate_style_trajectory,
                            make_point_cloud, random_script)


def test_localize_depth_oracle():
    # normalized box height 0.2125 with focal 600 and a 1.7 m subject
    # inverts to a 10 m depth
    from skymimic.geometry import FgFeature
    box = FgFeature(0.5, 0.5, 0.07, 0.2125, 0.0)
    pos = localize_subject(box, Pose6D(np.zeros(3)), Intrinsics(), 1.7)
    assert np.allclose(pos, [10.0, 0.0, 0.0], atol=1e-9)


def test_localize_projection_roundtrip():
    rng = np.random.default_rng(21)
    K = Intrinsics()
    for _ in range(200):
        subj = Pose6D(np.array([rng.uniform(-20, 20), rng.uniform(-20, 20),
                                rng.uniform(0.5, 1.5)]),
                      yaw=rng.uniform(-np.pi, np.pi))
        cam_pos = subj.position + np.array([
            rng.uniform(5, 25) * np.cos(rng.uniform(-np.pi, np.pi)),
            rng.uniform(5, 25) * np.sin(rng.uniform(-np.pi, np.pi)),
            rng.uniform(1, 6)])
        cam = look_at(cam_pos, subj.position)
        fg = project_foreground(cam, K, subj, 1.7)
        back = localize_subject(fg, cam, K, 1.7)
        assert np.linalg.norm(back - subj.position) <= 1e-6


def test_localize_edge_box_bearing():
    K = Intrinsics()
    cam = Pose6D(np.zeros(3))
    subj = Pose6D(np.array([10.0, 4.0, 0.0]))  # offset to the left edge side
    fg = project_foreground(cam, K, subj, 1.7)
    back = localize_subject(fg, cam, K, 1.7)
    bearing_true = np.arctan2(subj.position[1], subj.position[0])
    bearing_back = np.arctan2(back[1], back[0])
    assert abs(bearing_back - bearing_true) < 1e-9


def test_localize_tiny_box_rejected():
    from skymimic.geometry import FgFeature
    with pytest.raises(ValueError):
        localize_subject(FgFeature(0.5, 0.5, 0.0, 5e-5, 0.0),
                         Pose6D(np.zeros(3)), Intrinsics(), 1.7)


def test_kalman_stationary_subject():
    pos = np.array([3.0, -2.0, 0.85])
    track = SubjectTrack(pos.copy())
    for _ in range(20):
        track, pred = kalman_step(track, pos)
    assert np.linalg.norm(pred - pos) < 1e-6


def test_kalman_constant_velocity():
    vel = np.array([2.0, 0.0, 0.0])
    track = SubjectTrack(np.zeros(3))
    for k in range(1, 21):
        track, pred = kalman_step(track, vel * (k * DT))
    truth_next = vel * (21 * DT)
    assert np.linalg.norm(pred - truth_next) < 1e-3


def test_kalman_covariance_psd_sweep():
    rng = np.random.default_rng(30)
    track = SubjectTrack(np.zeros(3))
    for _ in range(1000):
        z = track.position + rng.normal(0, 0.1, 3)
        track, _ = kalman_step(track, z)
        P = track.covariance
        assert np.allclose(P, P.T)
        assert np.min(np.linalg.eigvalsh(P)) >= -1e-9


def _reference_kalman_step(track, measurement):
    """kalman_step as first written: the model rebuilt on every call."""
    dt = DT
    I3 = np.eye(3)
    F = np.block([[I3, dt * I3], [np.zeros((3, 3)), I3]])
    q = PROCESS_NOISE ** 2
    Q = q * np.block([[dt ** 4 / 4 * I3, dt ** 3 / 2 * I3],
                      [dt ** 3 / 2 * I3, dt ** 2 * I3]])
    H = np.hstack([I3, np.zeros((3, 3))])
    R = MEASUREMENT_NOISE ** 2 * I3
    x = F @ track.state
    P = F @ track.covariance @ F.T + Q
    y = np.asarray(measurement, float) - H @ x
    S = H @ P @ H.T + R
    G = P @ H.T @ np.linalg.inv(S)
    x = x + G @ y
    P = (np.eye(6) - G @ H) @ P
    P = 0.5 * (P + P.T)
    return SubjectTrack(x[:3], x[3:], P), (F @ x)[:3]


def test_kalman_matches_block_reference():
    rng = np.random.default_rng(31)
    track = ref = SubjectTrack(np.zeros(3))
    for k in range(50):
        z = np.array([0.5, -0.2, 0.0]) * k * DT + rng.normal(0, 0.1, 3)
        track, pred = kalman_step(track, z)
        ref, ref_pred = _reference_kalman_step(ref, z)
        assert np.array_equal(pred, ref_pred)
        assert np.array_equal(track.state, ref.state)
        assert np.array_equal(track.covariance, ref.covariance)


def test_kalman_memo_matches_reference_past_the_cycle():
    # the gain memo is keyed by covariance: two filters stepped in
    # turn, one from a caller's covariance, for 80 steps.  The default
    # covariance settles into a 2-cycle at step 48 and is served from
    # the memo after it; every step keeps the reference's bits
    rng = np.random.default_rng(32)
    own = np.diag([0.5, 2.0, 1.0, 9.0, 1.0, 4.0])
    own[0, 3] = own[3, 0] = 0.3
    tracks = [SubjectTrack(np.zeros(3)),
              SubjectTrack(np.full(3, -2.0), covariance=own)]
    refs = list(tracks)
    _kalman_gain.cache_clear()
    for k in range(80):
        for i in range(2):
            z = np.array([0.5, -0.2, 0.1]) * k * DT + rng.normal(0, 0.1, 3)
            tracks[i], pred = kalman_step(tracks[i], z)
            refs[i], ref_pred = _reference_kalman_step(refs[i], z)
            assert np.array_equal(pred, ref_pred)
            assert np.array_equal(tracks[i].state, refs[i].state)
            assert np.array_equal(tracks[i].covariance, refs[i].covariance)
    assert _kalman_gain.cache_info().hits > 0


def test_kalman_memo_is_read_only():
    track = SubjectTrack(np.zeros(3))
    for _ in range(3):
        track, _ = kalman_step(track, np.ones(3))
        with pytest.raises(ValueError):
            track.covariance[0, 0] = 0.0


def test_kalman_bad_covariance_raises_every_call():
    bad = np.diag([1.0] * 3 + [-4.0] * 3)  # velocity variance below 0
    _kalman_gain.cache_clear()
    for _ in range(3):
        with pytest.raises(NumericError):
            kalman_step(SubjectTrack(np.zeros(3), covariance=bad),
                        np.zeros(3))
    assert _kalman_gain.cache_info().currsize == 0


def test_waypoint_identity_when_satisfied():
    K = Intrinsics()
    subj = np.array([10.0, 0.0, 0.0])
    drone = Pose6D(np.zeros(3))
    scale = K.focal * 1.7 / 10.0 / K.height
    action = make_action(np.zeros(3), [0.0, 0.0, 1.0], scale)
    wp = next_waypoint(drone, action, subj, K, 1.7)
    assert np.allclose(wp.position, drone.position)
    assert wp.yaw == drone.yaw and wp.pitch == drone.pitch


def test_waypoint_orientation_integration():
    K = Intrinsics()
    subj = np.array([10.0, 0.0, 0.0])
    drone = Pose6D(np.zeros(3))
    scale = K.focal * 1.7 / 10.0 / K.height
    action = make_action([0.0, 0.2, 0.0], [0.0, 0.0, 1.0], scale)
    wp = next_waypoint(drone, action, subj, K, 1.7)
    assert abs(wp.yaw - 0.05) < 1e-12
    assert wp.roll == 0.0


def test_waypoint_doubling_scale_halves_distance():
    K = Intrinsics()
    d0 = 4.8
    subj = np.array([d0, 0.0, 0.0])
    drone = Pose6D(np.zeros(3))
    scale0 = K.focal * 1.7 / d0 / K.height
    action = make_action(np.zeros(3), [0.0, 0.0, 1.0], 2 * scale0)
    wp = next_waypoint(drone, action, subj, K, 1.7)
    assert abs(wp.position[0] - d0 / 2) / (d0 / 2) < 0.01


def test_waypoint_scale_match_precision():
    rng = np.random.default_rng(31)
    K = Intrinsics()
    for _ in range(50):
        d0 = rng.uniform(6.0, 12.0)
        subj = np.array([d0, 0.0, 0.0])
        drone = Pose6D(np.zeros(3))
        # target scale reachable within the 2.5 m step clamp
        d_target = d0 - rng.uniform(0.0, 2.4)
        target = K.focal * 1.7 / d_target / K.height
        action = make_action(np.zeros(3), [0.0, 0.0, 1.0], target)
        wp = next_waypoint(drone, action, subj, K, 1.7)
        achieved = K.focal * 1.7 / (d0 - wp.position[0]) / K.height
        assert abs(achieved - target) <= 1e-3


def test_waypoint_step_clamped():
    K = Intrinsics()
    subj = np.array([30.0, 0.0, 0.0])
    drone = Pose6D(np.zeros(3))
    action = make_action(np.zeros(3), [0.0, 0.0, 1.0], 1.0)  # huge scale
    wp = next_waypoint(drone, action, subj, K, 1.7)
    assert np.linalg.norm(wp.position - drone.position) <= 10.0 * 0.25 + 1e-9


def test_waypoint_tangential_sweep_preserves_range():
    K = Intrinsics()
    d0 = 8.0
    subj = np.array([d0, 0.0, 0.0])
    drone = Pose6D(np.zeros(3))
    scale = K.focal * 1.7 / d0 / K.height
    action = make_action([0.0, 0.3, 0.0], [0.0, 1.0, 0.0], scale)
    wp = next_waypoint(drone, action, subj, K, 1.7)
    r = wp.position - subj
    assert np.linalg.norm(r) == pytest.approx(d0)
    swept = np.arctan2(r[1], r[0])
    assert swept == pytest.approx(np.pi + 0.3 * 0.25, abs=1e-9) \
        or swept == pytest.approx(-np.pi + 0.3 * 0.25, abs=1e-9)


def test_waypoint_moving_subject_anchor():
    K = Intrinsics()
    subj = np.array([10.0, 0.0, 0.0])
    subj_next = subj + np.array([0.0, 0.5, 0.0])
    drone = Pose6D(np.zeros(3))
    scale = K.focal * 1.7 / 10.0 / K.height
    action = make_action(np.zeros(3), [0.0, 0.0, 1.0], scale)
    wp = next_waypoint(drone, action, subj, K, 1.7, subject_next=subj_next)
    assert np.allclose(wp.position, drone.position + [0.0, 0.5, 0.0])


def test_waypoint_range_floor():
    K = Intrinsics()
    subj = np.array([1.5, 0.0, 0.0])
    drone = Pose6D(np.zeros(3))
    action = make_action(np.zeros(3), [0.0, 0.0, 1.0], 1.0)  # huge scale
    wp = next_waypoint(drone, action, subj, K, 0.5)
    assert np.linalg.norm(wp.position - subj) >= 1.0 - 1e-9


def test_waypoint_heading_flies_straight_and_level():
    K = Intrinsics()
    subj = np.zeros(3)
    drone = look_at(np.array([-20.0, 6.0, 3.0]), subj)
    scale = K.focal * 1.7 / np.linalg.norm(drone.position) / K.height
    action = make_action([0.0, 0.1, 0.0], [0.0, 0.0, 1.0], 1.2 * scale)
    heading = np.array([1.0, 0.0])
    wp = next_waypoint(drone, action, subj, K, 1.7, heading=heading)
    step = wp.position - drone.position
    assert step[0] > 0.0
    assert abs(step[1]) < 1e-12 and abs(step[2]) < 1e-12
    assert wp.yaw == pytest.approx(drone.yaw + 0.1 * DT, abs=1e-12)
    held = next_waypoint(drone, action, subj, K, 1.7, heading=heading,
                         hold_aim=True)
    # the subject stays on the optical axis
    assert np.allclose(held.axes[2],
                       -held.position / np.linalg.norm(held.position),
                       atol=1e-9)


def test_waypoint_line_keeps_subject_framed():
    K = Intrinsics()
    subj = np.array([10.0, 0.0, 0.0])
    drone = Pose6D(np.zeros(3))
    scale = K.focal * 1.7 / 10.0 / K.height
    # a 0.5 rad turn would put the subject 29 degrees off the optical
    # axis; the turn stops where it sits at FRAME_KEEP of the half field
    # of view
    action = make_action([0.0, 2.0, 0.0], [0.0, 0.0, 1.0], scale)
    wp = next_waypoint(drone, action, subj, K, 1.7,
                       heading=np.array([1.0, 0.0]))
    assert wp.position[1] == 0.0 and wp.position[2] == 0.0
    assert wp.yaw == pytest.approx(FRAME_KEEP * np.arctan(K.cx / K.focal))
    free = next_waypoint(drone, action, subj, K, 1.7)
    assert free.yaw == pytest.approx(0.5)


def _next_waypoint_by_arrays(drone, action, subject, K, subject_height,
                             subject_next=None, heading=None,
                             hold_aim=False):
    """next_waypoint with NumPy on every scalar: np.linalg.norm for each
    norm, np.cos and np.sin on floats, and the new angles wrapped as one
    array."""
    if subject_next is None:
        subject_next = subject
    omega, target_scale = action[:3], float(action[6])
    r = drone.position - np.asarray(subject, float)
    rho = max(float(np.linalg.norm(r)), 1e-6)
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
        offset = rho_new * np.array([np.cos(el) * np.cos(az),
                                     np.cos(el) * np.sin(az), np.sin(el)])
    else:
        h = np.array([heading[0], heading[1], 0.0])
        h /= np.linalg.norm(h)
        rh = float(np.hypot(r[0], r[1])) * rho_new / rho
        level = np.array([rh * np.cos(az + turn[1]),
                          rh * np.sin(az + turn[1]), r[2]])
        sweep = np.hypot(r[0], r[1]) * turn[1] \
            * np.array([-np.sin(az), np.cos(az), 0.0])
        along = max(float((level - r) @ h), float(sweep @ h), 0.0)
        offset = r + min(along, MAX_SPEED * DT) * h
        swept = np.array([np.arctan2(offset[1], offset[0]) - az,
                          np.arcsin(_clip(offset[2]
                                          / np.linalg.norm(offset),
                                          1.0)) - el])
        if hold_aim:
            turn[1:] = wrap_angle(swept)
        else:
            off = wrap_angle(swept - turn[1:] + (az + np.pi - drone.yaw,
                                                 el - drone.pitch))
            keep = FRAME_KEEP * np.arctan(np.array([K.cx, K.cy]) / K.focal)
            turn[1:] += off - np.clip(off, -keep, keep)
    return Pose6D(np.asarray(subject_next, float) + offset,
                  *wrap_angle(drone.angles + turn))


class _ExecutorByArrays(Executor):
    """Executor.step with a new smoothed action per step, np.linalg.norm,
    np.sign, the camera axes stacked by np.array at every step, and
    `_next_waypoint_by_arrays`."""

    def step(self, drone, predicted, subject, subject_next, K,
             subject_height):
        if self.smoothed is None:
            self.smoothed = predicted.copy()
            self.scale_ref = self.scale0 / predicted[6]
        else:
            self.smoothed = self.smoothed + ACTION_SMOOTHING \
                * (predicted - self.smoothed)
            self.smoothed[3:6] /= max(np.linalg.norm(self.smoothed[3:6]),
                                      DIR_EPS)
        executed = self.smoothed.copy()
        for i in range(3):
            executed[i] = (0.0 if abs(executed[i]) < RATE_DEADBAND
                           else executed[i]) * self.kappa
        executed[6] = min(executed[6] * self.scale_ref, 1.0)
        world = executed[3:6] @ drone.axes
        bearing = float(np.arctan2(world[1], world[0]))
        if self.last is not None:
            self.turned += float(wrap_angle(drone.yaw - self.last[0]))
            self.moved += float(wrap_angle(bearing - self.last[1]))
        self.last = (drone.yaw, bearing)
        co_turning = self.moved * np.sign(self.turned) \
            >= CO_TURN * max(abs(self.turned), MIN_TURN)
        if co_turning or np.hypot(world[0], world[1]) < DIR_EPS:
            self.heading = None
        elif self.heading is None:
            self.heading = world[:2]
        hold_aim = executed[1] != 0.0 or abs(self.turned) >= MIN_TURN
        return _next_waypoint_by_arrays(
            drone, executed, subject, K, subject_height,
            subject_next=subject_next, heading=self.heading,
            hold_aim=hold_aim)


def _pose_bytes(pose):
    return pose.position.tobytes() + np.array(
        [pose.roll, pose.yaw, pose.pitch]).tobytes()


@pytest.mark.parametrize("mode", ["spherical", "hold aim", "keep framed"])
def test_waypoint_bytes_match_numpy_scalars(mode):
    # random subjects and actions, seen from cameras aimed near them; the
    # line's turns that keep the subject framed include ones the
    # FRAME_KEEP clip cuts and ones it does not
    rng = np.random.default_rng({"spherical": 61, "hold aim": 62,
                                 "keep framed": 63}[mode])
    K = Intrinsics()
    clipped = 0
    for _ in range(400):
        subj = rng.normal(0, 10, 3)
        aim = look_at(subj + rng.normal(0, 8, 3),
                      subj + rng.normal(0, 2, 3))
        drone = Pose6D(aim.position, rng.normal(0, 0.1), aim.yaw,
                       aim.pitch)
        action = make_action(rng.normal(0, 1.5, 3), rng.normal(size=3),
                             rng.uniform(0.01, 0.6))
        kw = dict(subject_next=subj + rng.normal(0, 0.3, 3))
        if mode != "spherical":
            kw.update(heading=rng.normal(size=2),
                      hold_aim=mode == "hold aim")
        got = next_waypoint(drone, action, subj, K, 1.7, **kw)
        want = _next_waypoint_by_arrays(drone, action, subj, K, 1.7, **kw)
        assert _pose_bytes(got) == _pose_bytes(want)
        clipped += abs(wrap_angle(got.yaw - drone.yaw
                                  - action[1] * DT)) > 1e-9
    assert mode != "keep framed" or 100 < clipped < 300


@pytest.mark.parametrize("style", STYLES)
def test_executor_bytes_match_numpy_scalars(style):
    # a scripted shot's own next-frame labels, noised so that the rates
    # cross the deadband and the direction swings, flown from its start
    # pose by both executors; every pose and executor state must match
    K = Intrinsics()
    rng = np.random.default_rng(70)
    shot = generate_style_trajectory(
        random_script(style, np.random.default_rng(71)))
    labels = action_labels(shot, K)
    noisy = labels + rng.normal(0, 0.05, labels.shape) * [1, 1, 1, 3, 3, 3, 0]
    ex, ref = Executor(labels[0, 6], 1.3), _ExecutorByArrays(labels[0, 6], 1.3)
    drone = want = shot[0].camera
    headings = 0
    for t in range(len(shot) - 1):
        args = (shot[t].subject.position, shot[t + 1].subject.position, K,
                shot[t].subject_height)
        drone = ex.step(drone, noisy[t + 1], *args)
        want = ref.step(want, noisy[t + 1], *args)
        assert _pose_bytes(drone) == _pose_bytes(want), t
        assert ex.smoothed.tobytes() == ref.smoothed.tobytes()
        assert np.array([ex.turned, ex.moved, *ex.last]).tobytes() == \
            np.array([ref.turned, ref.moved, *ref.last]).tobytes()
        assert (ex.heading is None) == (ref.heading is None)
        if ex.heading is not None:
            assert ex.heading.tobytes() == ref.heading.tobytes()
            headings += 1
    assert style in ("orbiting", "follow") or headings > 0


def test_executor_scales_rates_and_takes_scale_relative():
    K = Intrinsics()
    subj = np.array([10.0, 0.0, 0.0])
    start = Pose6D(np.zeros(3))
    for rate, turned in ((0.1, 2.0 * 0.1 * DT), (0.01, 0.0)):
        # the first prediction's scale is the reference, so a prediction
        # that never changes holds the range it starts at; rates run
        # kappa times faster, and rates inside the deadband not at all
        ex = Executor(scale0=0.2125, kappa=2.0)
        action = make_action([rate, 0.0, 0.0], [0.0, 0.0, 1.0], 0.5)
        drone = start
        for _ in range(3):
            nxt = ex.step(drone, action, subj, subj, K, 1.7)
            assert np.allclose(nxt.position, start.position)
            assert nxt.roll - drone.roll == pytest.approx(turned)
            drone = nxt


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("seed", range(3))
def test_executor_replays_scripted_shot(style, seed):
    # a shot fed its own next-frame labels from its start pose keeps the
    # loose contract the closed loop must meet; the log starts after the
    # first step, as closed_loop_run's does
    K = Intrinsics()
    shot = generate_style_trajectory(
        random_script(style, np.random.default_rng(500 + seed)))
    labels = action_labels(shot, K)
    drone = shot[0].camera
    ex = Executor(scale0=labels[0, 6])
    flown = []
    for t in range(len(shot) - 1):
        drone = ex.step(drone, labels[t + 1], shot[t].subject.position,
                        shot[t + 1].subject.position, K,
                        shot[t].subject_height)
        flown.append(FrameSample(shot[t + 1].timestamp, drone,
                                 shot[t + 1].subject,
                                 shot[t + 1].subject_height))
    ok, metrics = check_style_contract(style, flown, strict=False)
    assert ok, metrics


def _untrained_bundle_and_demo(style):
    """A freshly initialised bundle, an 8 s demo of `style` and the
    demo's style feature."""
    cfg = VARIANTS["fg+bg+att"]
    bundle = ModelBundle(autoencoder_init("fg", 7), autoencoder_init("bg", 8),
                         init_style_net(cfg, 9), cfg,
                         init_imitation_net(128, 96, 10))
    demo = build_video("demo", style, "test", 3, Intrinsics(),
                       duration_range=(8.0, 8.0))
    v, _, _ = bundle.style_feature(demo.fg, demo.bg)
    return bundle, demo, v


@pytest.mark.parametrize("style", ["fly-by", "orbiting"])
def test_closed_loop_fields_match_per_pair_reference(style):
    # the loop keeps each pose's projection for the next step; its fields
    # must equal ones built from both poses of each logged pair
    bundle, demo, v = _untrained_bundle_and_demo(style)
    scene, _ = make_live_scene(style, np.random.default_rng(5))
    run = closed_loop_run(v, scene, bundle, 4.0, demo.actions)
    K, n = scene.intrinsics, len(run.frames)
    for j in range(n):
        a, b = run.frames[j:j + 2] if j < n - 1 else run.frames[j - 1:]
        field = render_motion_field(project_points(a.camera, K, scene.cloud),
                                    project_points(b.camera, K, scene.cloud),
                                    K)
        assert np.array_equal(run.bg[j], field)


def test_closed_loop_projects_each_pose_once(monkeypatch):
    # one projection per pose reached: the warm-up's WINDOW poses and one
    # per flown step; each serves the field before it and the one after
    from skymimic import controller
    calls = []

    def counted(*args):
        calls.append(args[0])
        return project_points(*args)

    bundle, demo, v = _untrained_bundle_and_demo("orbiting")
    scene, _ = make_live_scene("orbiting", np.random.default_rng(5))
    monkeypatch.setattr(controller, "project_points", counted)
    duration = 4.0
    run = closed_loop_run(v, scene, bundle, duration, demo.actions)
    assert len(calls) == WINDOW + round(duration / DT)
    assert [c.position.tolist() for c in calls[WINDOW:]] == \
        [f.camera.position.tolist() for f in run.frames]


@pytest.mark.parametrize("style", ["fly-by", "orbiting"])
def test_closed_loop_calls_traced_sites_through_module_bindings(
        monkeypatch, style):
    # the benchmark traces these sites by wrapping controller's bindings;
    # a run that never loses its subject projects the box at every pose,
    # fields every pair of poses, localizes at every pose but the last,
    # starts the track at the first, and predicts and flies every step
    from skymimic import controller
    sites = ("predict_action", "next_waypoint", "render_motion_field",
             "project_foreground", "localize_subject", "kalman_step")
    calls = dict.fromkeys(sites, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in sites:
        monkeypatch.setattr(controller, name,
                            counting(name, getattr(controller, name)))
    bundle, demo, v = _untrained_bundle_and_demo(style)
    scene, _ = make_live_scene(style, np.random.default_rng(5))
    duration = 4.0
    run = closed_loop_run(v, scene, bundle, duration, demo.actions)
    n_exec = round(duration / DT)
    n_poses = WINDOW + n_exec
    assert len(run.actions) == n_exec
    assert calls == {"predict_action": n_exec, "next_waypoint": n_exec,
                     "render_motion_field": n_poses - 1,
                     "project_foreground": n_poses,
                     "localize_subject": n_poses - 1,
                     "kalman_step": n_poses - 2}


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("seed", range(3))
def test_live_scene_matches_first_frame_of_whole_trajectory(style, seed):
    # the live scene builds only frame 0 of its scripted shot; its start
    # pose and cloud, and the rng after it, equal the whole shot's, and
    # it keeps the script the same rng draws
    rng, ref_rng = (np.random.default_rng(900 + seed) for _ in range(2))
    scene, duration = make_live_scene(style, rng)
    script = random_script(style, ref_rng, (10.0, 14.0), 1.7)
    first = generate_style_trajectory(script)[0]
    cloud = make_point_cloud(ref_rng,
                             center=tuple(first.subject.position[:2]))
    assert duration == script.duration
    got = scene.script
    assert (got.style, got.duration, got.seed, got.params) == \
        (script.style, script.duration, script.seed, script.params)
    assert np.array_equal(got.subject.waypoints, script.subject.waypoints)
    assert (got.subject.speed, got.subject.body_height) == \
        (script.subject.speed, script.subject.body_height)
    assert np.array_equal(scene.drone_start.position, first.camera.position)
    assert np.array_equal(scene.drone_start.angles, first.camera.angles)
    assert np.array_equal(scene.cloud, cloud)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("style", ["fly-by", "orbiting"])
@pytest.mark.parametrize("with_demo", [True, False])
def test_closed_loop_bit_identical_to_raw_row_windows(monkeypatch, style,
                                                      with_demo):
    # the loop's streams keep every open window's encoder run alive and
    # step it once per row; embedding each window from its raw rows in a
    # fresh embed_batch call instead must not change a bit of the run
    from skymimic import features
    bundle, demo, v = _untrained_bundle_and_demo(style)
    actions = demo.actions if with_demo else None

    def run():
        scene, _ = make_live_scene(style, np.random.default_rng(5))
        return closed_loop_run(v, scene, bundle, 6.0, actions)

    calls = []

    def raw_rows(stream, t):
        channel = "fg" if stream.rows.shape[1] == FG_DIM else "bg"
        calls.append(channel)
        p = bundle.fg_encoder if channel == "fg" else bundle.bg_encoder
        return features.embed_batch(
            np.array(stream.rows[t - WINDOW + 1:t + 1, None]), p)[0]

    fast = run()
    monkeypatch.setattr(features.EncoderStream, "embed", raw_rows)
    slow = run()
    assert len(calls) == 2 * len(fast.actions)
    assert calls.count("fg") == calls.count("bg")
    for name in ("actions", "fg", "bg"):
        assert np.array_equal(getattr(fast, name), getattr(slow, name)), name
    assert len(fast.frames) == len(slow.frames) == len(fast.actions)
    for a, b in zip(fast.frames, slow.frames):
        assert np.array_equal(a.camera.position, b.camera.position)
        assert np.array_equal(a.camera.angles, b.camera.angles)


@pytest.mark.parametrize("duration", [0.0, 0.1, -1.0])
@pytest.mark.parametrize("with_demo", [True, False])
def test_closed_loop_refuses_duration_with_no_control_step(monkeypatch,
                                                           duration,
                                                           with_demo):
    # round(duration / DT) < 1 leaves no step to fly: refused, naming the
    # duration, before a stream is built or a pose flown
    from skymimic import controller
    bundle, demo, v = _untrained_bundle_and_demo("fly-by")
    scene, _ = make_live_scene("fly-by", np.random.default_rng(5))

    def no_stream(*args):
        raise AssertionError("a stream was built")

    monkeypatch.setattr(controller, "EncoderStream", no_stream)
    with pytest.raises(ValueError, match=f"duration {duration!r} s "):
        closed_loop_run(v, scene, bundle, duration,
                        demo.actions if with_demo else None)


@pytest.mark.parametrize("shape", [(0, 7), (7,), (40, 6)])
def test_closed_loop_refuses_demo_actions_not_n_by_7(monkeypatch, shape):
    # demo actions that are not (n >= 1, 7) rows are refused, naming
    # their shape, before any pose is projected or the warm-up flown
    from skymimic import controller
    bundle, _, v = _untrained_bundle_and_demo("fly-by")
    scene, _ = make_live_scene("fly-by", np.random.default_rng(5))

    def no_projection(*args):
        raise AssertionError("a pose was projected")

    monkeypatch.setattr(controller, "project_points", no_projection)
    with pytest.raises(ValueError,
                       match=re.escape(f"demo actions of shape {shape} ")):
        closed_loop_run(v, scene, bundle, 4.0, np.zeros(shape))
