import math

import numpy as np
import pytest

from oracles import (flip_bg_reference, motion_field_reference,
                     project_points_reference)
from skymimic.geometry import (BODY_WIDTH_RATIO, GRID, Intrinsics, Pose6D,
                               VisibilityError, flip_bg,
                               flip_fg, look_at, pixel_to_world,
                               project_foreground, project_points,
                               render_motion_field, wrap_angle)


def test_wrap_angle_range():
    a = wrap_angle(np.array([0.0, np.pi, -np.pi, 3 * np.pi, -2.5 * np.pi]))
    assert np.allclose(a, [0.0, np.pi, np.pi, np.pi, -0.5 * np.pi])
    assert np.all(a > -np.pi) and np.all(a <= np.pi)


def test_scalar_wrap_matches_array_path():
    # canary: a finite float takes CPython's float %, which must round
    # like np.mod on this build, to the bit
    rng = np.random.default_rng(44)
    odd = np.arange(-201, 202, 2) * np.pi
    tiny = 5e-324
    special = np.array([0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi,
                        np.nextafter(np.pi, 4.0), np.nextafter(-np.pi, -4.0),
                        1e300, -1e300, tiny, -tiny, 2.2250738585072014e-308,
                        -2.2250738585072014e-308, 1e-300, 1e16, -1e16])
    values = np.concatenate([
        special, odd, -odd, rng.uniform(-10.0, 10.0, 20000),
        rng.normal(0.0, 1e3, 5000),
        rng.choice([-1.0, 1.0], 5000) * 10.0 ** rng.uniform(-320, 300, 5000)])
    scalar = [wrap_angle(v) for v in values.tolist()]
    assert all(type(w) is float for w in scalar)
    expected = wrap_angle(values)
    assert np.array_equal(np.array(scalar).view(np.int64),
                          expected.view(np.int64))
    # np.float64 is a float too, and takes the same path
    assert all(np.float64(w).view(np.int64) == e
               for w, e in zip(map(wrap_angle, values[:100]),
                               expected[:100].view(np.int64)))
    # nan and inf keep NumPy's path, result and warning
    for v in (np.nan, np.inf, -np.inf):
        with np.errstate(invalid="ignore"):
            got = wrap_angle(v)
            ref = np.pi - np.mod(np.pi - np.asarray(v), 2.0 * np.pi)
        assert type(got) is not float
        assert np.array_equal(np.asarray(got).view(np.int64),
                              np.asarray(ref).view(np.int64))
    with pytest.warns(RuntimeWarning):
        wrap_angle(np.inf)


def test_sqrt_dot_matches_norm_on_3_vectors():
    # canary: the control step takes a 3-vector's norm as
    # math.sqrt(x @ x), which must give np.linalg.norm(x)'s bits
    rng = np.random.default_rng(45)
    n = 100000
    xs = np.concatenate([
        rng.normal(size=(n, 3)), rng.uniform(-1e-3, 1e-3, (n // 10, 3)),
        rng.normal(size=(n // 10, 3)) * 10.0 ** rng.uniform(
            -150, 150, (n // 10, 1)),
        [[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [1e-9, 0.0, 0.0],
         [5e-324, -5e-324, 0.0], [1e150, -1e150, 1e150]]])
    got = np.array([math.sqrt(x @ x) for x in xs])
    want = np.array([np.linalg.norm(x) for x in xs])
    assert got.tobytes() == want.tobytes()
    # an unaligned slice of a wider row, as an action's direction block
    rows = np.zeros((2000, 7))
    rows[:, 3:6] = xs[:2000]
    got = np.array([math.sqrt(r[3:6] @ r[3:6]) for r in rows])
    assert got.tobytes() == want[:2000].tobytes()


@pytest.mark.parametrize("name", ["cos", "sin"])
def test_math_trig_matches_numpy_on_floats(name):
    # canary: the control step and the pose's rotation call math.cos and
    # math.sin on floats, which must give np.cos and np.sin's bits
    rng = np.random.default_rng(46)
    values = np.concatenate([
        [0.0, -0.0, np.pi, -np.pi, np.pi / 2, -np.pi / 2, 2 * np.pi,
         np.nextafter(np.pi, 4.0), 5e-324, -5e-324, 1e-300, 1e16, 1e300],
        rng.uniform(-np.pi, np.pi, 60000), rng.uniform(-50.0, 50.0, 30000),
        rng.normal(0.0, 1e3, 10000)]).tolist()
    scalar, array = getattr(math, name), getattr(np, name)
    got = np.array([scalar(v) for v in values])
    want = np.array([array(v) for v in values])
    assert got.tobytes() == want.tobytes()


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        Intrinsics(focal=-1.0)
    with pytest.raises(ValueError):
        Intrinsics(cx=-5.0)


def test_project_point_on_axis():
    cam = Pose6D(np.zeros(3))
    K = Intrinsics()
    proj = project_points(cam, K, np.array([[10.0, 0.0, 0.0]]))
    assert np.allclose([proj.u[0], proj.v[0]], [K.cx, K.cy])
    assert np.allclose(proj.z[0], 10.0)
    assert proj.front[0] and proj.seen[0]


def test_pixel_to_world_inverts_projection():
    rng = np.random.default_rng(12)
    K = Intrinsics()
    for _ in range(100):
        cam = Pose6D(rng.normal(0, 5, 3), rng.uniform(-0.2, 0.2),
                     rng.uniform(-np.pi, np.pi), rng.uniform(-0.5, 0.5))
        pt = cam.position + rng.uniform(3, 30) * cam.axes[2] \
            + rng.normal(0, 1.0, 3)
        u, v, z, _, _ = project_points(cam, K, pt[None, :])
        if z[0] <= 0.1:
            continue
        back = pixel_to_world(cam, K, u[0], v[0], float(z[0]))
        assert np.allclose(back, pt, atol=1e-9)


def test_foreground_box_height_oracle():
    # hand pinhole computation: 600 * 1.7 / 10 / 480 = 0.2125
    cam = Pose6D(np.zeros(3))
    subj = Pose6D(np.array([10.0, 0.0, 0.0]))
    fg = project_foreground(cam, Intrinsics(), subj, 1.7)
    assert abs(fg.h - 0.2125) < 1e-12
    assert abs(fg.cx - 0.5) < 1e-12 and abs(fg.cy - 0.5) < 1e-12


def test_foreground_box_depth_halved_doubles_height():
    cam = Pose6D(np.zeros(3))
    K = Intrinsics()
    h1 = project_foreground(cam, K, Pose6D(np.array([10.0, 0, 0])), 1.7).h
    h2 = project_foreground(cam, K, Pose6D(np.array([5.0, 0, 0])), 1.7).h
    assert abs(h2 - 2 * h1) < 1e-12


def test_foreground_orientation_facing_camera():
    cam = Pose6D(np.zeros(3), yaw=0.0)
    subj = Pose6D(np.array([8.0, 0.0, 0.0]), yaw=np.pi)
    fg = project_foreground(cam, Intrinsics(), subj, 1.7)
    assert abs(fg.orientation - np.pi) < 1e-12


def test_foreground_matches_project_points():
    # the one-point path does project_points' arithmetic on the same
    # values, so the box equals one built from its result to the bit
    rng = np.random.default_rng(45)
    K = Intrinsics()
    for _ in range(300):
        subj = Pose6D(rng.normal(0, 5, 3), yaw=rng.uniform(-np.pi, np.pi))
        cam = look_at(subj.position + rng.normal(0, 10, 3) + [0, 0, 12],
                      subj.position + rng.normal(0, 0.5, 3))
        fg = project_foreground(cam, K, subj, 1.7)
        proj = project_points(cam, K, subj.position[None, :])
        u, v, depth = float(proj.u[0]), float(proj.v[0]), float(proj.z[0])
        assert (fg.cx, fg.cy) == (u / K.width, v / K.height)
        assert fg.h == K.focal * 1.7 / depth / K.height
        assert fg.w == K.focal * 1.7 * BODY_WIDTH_RATIO / depth / K.width
        assert fg.orientation == float(
            wrap_angle(np.array(subj.yaw - cam.yaw)))


def test_foreground_behind_camera():
    cam = Pose6D(np.zeros(3))
    with pytest.raises(VisibilityError):
        project_foreground(cam, Intrinsics(), Pose6D(np.array([-5.0, 0, 0])),
                           1.7)


def test_motion_field_static_camera_zero():
    rng = np.random.default_rng(1)
    cloud = rng.uniform(-20, 20, size=(500, 3)) + [30, 0, 0]
    cam = Pose6D(np.zeros(3))
    K = Intrinsics()
    proj = project_points(cam, K, cloud)
    f = render_motion_field(proj, proj, K)
    assert f.shape == (128,) and np.allclose(f, 0.0)
    assert _reference_field(cam, cam, K, cloud)[1].any()


def test_motion_field_translation_expands():
    # moving toward the scene: flow points away from the image center
    rng = np.random.default_rng(2)
    cloud = np.column_stack([
        rng.uniform(25, 60, 800),
        rng.uniform(-25, 25, 800),
        rng.uniform(-15, 15, 800),
    ])
    K = Intrinsics()
    cam0 = Pose6D(np.zeros(3))
    cam1 = Pose6D(np.array([1.0, 0.0, 0.0]))
    f = render_motion_field(project_points(cam0, K, cloud),
                            project_points(cam1, K, cloud), K)
    centers = (np.arange(8) + 0.5) / 8.0 - 0.5
    gy, gx = np.meshgrid(centers, centers, indexing="ij")
    radial = np.stack([gx, gy], axis=-1)
    dots = np.einsum("ijk,ijk->ij", f.reshape(8, 8, 2), radial)
    valid = _reference_field(cam0, cam1, K, cloud)[1]
    assert valid.any() and np.all(dots[valid] >= -1e-12)


def test_motion_field_pure_yaw_magnitude():
    rng = np.random.default_rng(3)
    cloud = np.column_stack([
        rng.uniform(40, 80, 2000),
        rng.uniform(-30, 30, 2000),
        rng.uniform(-20, 20, 2000),
    ])
    K = Intrinsics()
    omega = 0.05
    cam0 = Pose6D(np.zeros(3), yaw=0.0)
    cam1 = Pose6D(np.zeros(3), yaw=omega)
    f = render_motion_field(project_points(cam0, K, cloud),
                            project_points(cam1, K, cloud), K)
    # near the image center the horizontal shift is ~ focal * omega px
    center_cells = f.reshape(8, 8, 2)[3:5, 3:5, 0] * K.width
    assert _reference_field(cam0, cam1, K, cloud)[1][3:5, 3:5].all()
    expect = -K.focal * omega  # scene shifts right->left sign per axes
    assert np.allclose(np.abs(center_cells), abs(expect),
                       rtol=0.08)


def test_look_at_points_at_target():
    rng = np.random.default_rng(4)
    for _ in range(50):
        pos = rng.normal(0, 10, 3)
        target = rng.normal(0, 10, 3)
        if np.linalg.norm(target - pos) < 1.0:
            continue
        cam = look_at(pos, target)
        proj = project_points(cam, Intrinsics(), target[None, :])
        assert proj.z[0] > 0
        assert np.allclose([proj.u[0], proj.v[0]], [320.0, 240.0], atol=1e-6)


def test_flip_fg():
    v = np.array([0.3, 0.6, 0.1, 0.2, 0.5])
    out = flip_fg(v)
    assert np.allclose(out, [0.7, 0.6, 0.1, 0.2, -0.5])
    assert np.allclose(flip_fg(out), v)


def test_flip_bg_matches_two_copy_reference():
    # one field, a batch of fields, a (T, 128) table read as a
    # column slice of a wider one, and an empty table
    rng = np.random.default_rng(7)
    wide = rng.normal(size=(30, 133))
    for vec in (rng.normal(size=128), rng.normal(size=(4, 6, 128)),
                wide[:, 5:], np.zeros((0, 128))):
        out = flip_bg(vec)
        assert out.shape == vec.shape and out.flags.c_contiguous
        assert np.array_equal(out, flip_bg_reference(vec))
        assert not np.shares_memory(out, vec)


def test_flip_bg_involution_and_sign():
    rng = np.random.default_rng(6)
    v = rng.normal(size=128)
    fv = flip_bg(v)
    assert np.allclose(flip_bg(fv), v)
    grid = v.reshape(8, 8, 2)
    fgrid = fv.reshape(8, 8, 2)
    assert np.allclose(fgrid[:, ::-1, 0], -grid[..., 0])
    assert np.allclose(fgrid[:, ::-1, 1], grid[..., 1])


def _reference_field(cam_t, cam_t1, K, cloud):
    """The field of the reference projection and field in oracles.py."""
    return motion_field_reference(project_points_reference(cam_t, K, cloud),
                                  project_points_reference(cam_t1, K, cloud),
                                  K)


@pytest.mark.parametrize("n_points", [0, 3, 40, 3000])
def test_motion_field_from_projections_matches_reference(n_points):
    # few points leave most cells empty; many fill nearly all of them
    rng = np.random.default_rng(40 + n_points)
    K = Intrinsics()
    for _ in range(20):
        cloud = rng.uniform(-30, 30, size=(n_points, 3)) + [40.0, 0, 0]
        cam0 = Pose6D(rng.normal(0, 2, 3), rng.uniform(-0.2, 0.2),
                      rng.uniform(-0.6, 0.6), rng.uniform(-0.3, 0.3))
        cam1 = Pose6D(cam0.position + rng.normal(0, 0.5, 3),
                      cam0.roll + rng.normal(0, 0.05),
                      cam0.yaw + rng.normal(0, 0.05),
                      cam0.pitch + rng.normal(0, 0.05))
        f = render_motion_field(project_points(cam0, K, cloud),
                                project_points(cam1, K, cloud), K)
        velocity, valid = _reference_field(cam0, cam1, K, cloud)
        assert np.array_equal(f, velocity.ravel())
        if 0 < n_points <= 40:
            assert not valid.all()


def test_motion_field_no_valid_point():
    # the whole cloud lies behind the first camera; or in front of it,
    # but left of the image
    rng = np.random.default_rng(41)
    K = Intrinsics()
    depth = rng.uniform(10, 50, 400)
    clouds = [rng.uniform(-30, 30, size=(500, 3)) - [40.0, 0, 0],
              np.column_stack([depth, depth * rng.uniform(0.6, 3.0, 400),
                               rng.uniform(-5, 5, 400)])]
    cam0, cam1 = Pose6D(np.zeros(3)), Pose6D(np.array([0.5, 0.0, 0.0]))
    for cloud, in_front in zip(clouds, (False, True)):
        prev, cur = (project_points(c, K, cloud) for c in (cam0, cam1))
        assert prev.front.all() == in_front and not prev.seen.any()
        f = render_motion_field(prev, cur, K)
        velocity, valid = _reference_field(cam0, cam1, K, cloud)
        assert f.shape == (128,) and not f.any()
        assert np.array_equal(f, velocity.ravel()) and not valid.any()


def _field_by_masked_division(prev, cur, K):
    """render_motion_field with its two weight columns joined by np.stack
    and only the cells that hold points divided by their counts, through
    a boolean-mask fancy index."""
    idx = np.flatnonzero(prev.seen & cur.front)
    if not idx.size:
        return np.zeros(GRID * GRID * 2)
    u0, v0 = prev.u.take(idx), prev.v.take(idx)
    u1, v1 = cur.u.take(idx), cur.v.take(idx)
    if not (np.isfinite(u1).all() and np.isfinite(v1).all()):
        raise FloatingPointError("non-finite projection")
    du = (u1 - u0) / K.width
    dv = (v1 - v0) / K.height
    gx = np.minimum((u0 / K.width * GRID).astype(int), GRID - 1)
    gy = np.minimum((v0 / K.height * GRID).astype(int), GRID - 1)
    cell = gy * GRID + gx
    counts = np.bincount(cell, minlength=GRID * GRID).astype(float)
    sums = np.stack([np.bincount(cell, weights=w, minlength=GRID * GRID)
                     for w in (du, dv)], axis=1)
    nonzero = counts > 0
    sums[nonzero] /= counts[nonzero, None]
    return sums.ravel()


def test_motion_field_bytes_match_masked_division():
    # every cell is divided by max(count, 1): an empty cell's +0.0 sums
    # stay +0.0, and a filled cell's quotient is the masked division's;
    # a ground cloud below a level camera leaves the sky cells empty
    rng = np.random.default_rng(48)
    K = Intrinsics()
    ground = np.column_stack([rng.uniform(5, 80, 4000),
                              rng.uniform(-40, 40, 4000),
                              rng.uniform(-0.5, 0.0, 4000)])
    empty = filled = 0
    for trial in range(300):
        n = (3, 40, 3000)[trial % 3]
        cloud = ground if trial % 2 else \
            rng.uniform(-30, 30, size=(n, 3)) + [40.0, 0, 0]
        cam0 = Pose6D(rng.normal(0, 2, 3) + [0.0, 0.0, 3.0],
                      rng.uniform(-0.2, 0.2), rng.uniform(-0.6, 0.6),
                      rng.uniform(-0.3, 0.3))
        cam1 = Pose6D(cam0.position + rng.normal(0, 0.5, 3),
                      cam0.roll + rng.normal(0, 0.05),
                      cam0.yaw + rng.normal(0, 0.05),
                      cam0.pitch + rng.normal(0, 0.05))
        prev, cur = (project_points(c, K, cloud) for c in (cam0, cam1))
        f = render_motion_field(prev, cur, K)
        assert f.tobytes() == _field_by_masked_division(prev, cur, K).tobytes()
        idx = np.flatnonzero(prev.seen & cur.front)
        counts = np.bincount(
            np.minimum((prev.v[idx] / K.height * GRID).astype(int),
                       GRID - 1) * GRID
            + np.minimum((prev.u[idx] / K.width * GRID).astype(int),
                         GRID - 1), minlength=GRID * GRID)
        cells = f.reshape(-1, 2)
        assert not np.signbit(cells[counts == 0]).any()
        empty += int((counts == 0).any() and idx.size > 0)
        filled += int((counts > 0).all())
    assert empty > 100 and filled > 0


# A camera at the origin with every angle 0 has right = -y, down = -z
# and forward = +x in the world, exactly, so a point at depth 15 whose
# world y or z is +-8 or +-6 projects exactly onto an image edge
# (600 * 8 / 15 = 320 = cx, 600 * 6 / 15 = 240 = cy).
_ORIGIN = Pose6D(np.zeros(3))
_NUDGED = Pose6D(np.array([0.3, 0.1, -0.05]), 0.01, 0.02, -0.01)
_EDGE_ROWS = {
    # name: (point, first camera, second camera,
    #        (view, coordinate, exact value) or None, kept)
    "u=0": ([15.0, 8.0, 0.0], _ORIGIN, _NUDGED, (0, "u", 0.0), True),
    "u=W": ([15.0, -8.0, 0.0], _ORIGIN, _NUDGED, (0, "u", 640.0), False),
    "v=0": ([15.0, 0.0, 6.0], _ORIGIN, _NUDGED, (0, "v", 0.0), True),
    "v=H": ([15.0, 0.0, -6.0], _ORIGIN, _NUDGED, (0, "v", 480.0), False),
    "z0=1e-6": ([1e-6, 0.0, 0.0], _ORIGIN, _NUDGED, (0, "z", 1e-6), False),
    "z1=1e-6": ([1e-6, 0.0, 0.0], Pose6D(np.array([-10.0, 0.0, 0.0])),
                _ORIGIN, (1, "z", 1e-6), False),
    "behind second only": ([10.0, 0.0, 0.0], _ORIGIN,
                           Pose6D(np.array([20.0, 0.0, 0.0])), None, False),
}


@pytest.mark.parametrize("name", list(_EDGE_ROWS))
def test_motion_field_edge_rows_match_reference(name):
    point, cam0, cam1, where, kept = _EDGE_ROWS[name]
    K = Intrinsics()
    if where is not None:   # the row lands where its name says
        view, axis, value = where
        cam = (cam0, cam1)[view]
        assert getattr(project_points(cam, K, np.array(point)), axis)[0] \
            == value
    rng = np.random.default_rng(47)
    bulk = rng.uniform(-30, 30, size=(300, 3)) + [40.0, 0, 0]
    for cloud in (np.array([point]), np.vstack([bulk, point])):
        prev, cur = (project_points(c, K, cloud) for c in (cam0, cam1))
        assert (prev.seen & cur.front)[-1] == kept
        f = render_motion_field(prev, cur, K)
        velocity, valid = _reference_field(cam0, cam1, K, cloud)
        assert np.array_equal(f, velocity.ravel())
    assert valid.any()   # the bulk fills cells with or without the row


def test_motion_field_second_view_overflow_raises():
    # seen at the image center from the origin; from a camera turned a
    # quarter to the left the point lies far off-axis at a small depth,
    # and focal * x overflows to inf
    K = Intrinsics()
    rng = np.random.default_rng(49)
    cloud = np.vstack([rng.uniform(-30, 30, size=(50, 3)) + [40.0, 0, 0],
                       [1e306, 0.0, 0.0]])
    turned = Pose6D(np.zeros(3), yaw=np.pi / 2)
    with np.errstate(over="ignore"):
        prev, cur = (project_points(c, K, cloud) for c in (_ORIGIN, turned))
        assert prev.seen[-1] and cur.front[-1] and np.isinf(cur.u[-1])
        with pytest.raises(FloatingPointError):
            render_motion_field(prev, cur, K)
        with pytest.raises(FloatingPointError):
            _reference_field(_ORIGIN, turned, K, cloud)


def test_pose_axes_cached_and_read_only():
    rng = np.random.default_rng(42)
    for _ in range(50):
        cam = Pose6D(rng.normal(0, 5, 3), *rng.uniform(-np.pi, np.pi, 3))
        cr, sr = np.cos(cam.roll), np.sin(cam.roll)
        cy, sy = np.cos(cam.yaw), np.sin(cam.yaw)
        cp, sp = np.cos(cam.pitch), np.sin(cam.pitch)
        R = (np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
             @ np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
             @ np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]]))
        axes = cam.axes
        right, down, forward = axes
        assert np.array_equal(right, -R[:, 1])
        assert np.array_equal(down, -R[:, 2])
        assert np.array_equal(forward, R[:, 0])
        assert cam.axes is axes
    for a in cam.axes:
        with pytest.raises(ValueError):
            a[0] = 1.0


@pytest.mark.parametrize("n_points", [0, 1, 6880])
def test_project_points_matches_broadcast_subtract(n_points):
    rng = np.random.default_rng(43 + n_points)
    K = Intrinsics()
    for _ in range(10):
        cam = Pose6D(rng.normal(0, 5, 3), *rng.uniform(-np.pi, np.pi, 3))
        points = rng.uniform(-40, 40, size=(n_points, 3))
        inputs = [points] + ([points[0]] if n_points == 1 else [])
        for pts in inputs:   # a single (3,) point is one row
            right, down, forward = cam.axes
            d = np.atleast_2d(pts) - cam.position
            x, y, z = d @ right, d @ down, d @ forward
            with np.errstate(divide="ignore", invalid="ignore"):
                u, v = K.focal * x / z + K.cx, K.focal * y / z + K.cy
            front = z > 1e-6
            seen = (front & (u >= 0) & (u < K.width)
                    & (v >= 0) & (v < K.height))
            proj = project_points(cam, K, pts)
            for got, want in zip(proj, (u, v, z, front, seen)):
                assert got.shape == (n_points,) and got.flags.c_contiguous
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
