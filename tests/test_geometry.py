import numpy as np
import pytest

from skymimic.geometry import (BODY_WIDTH_RATIO, Intrinsics, Pose6D,
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


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        Intrinsics(focal=-1.0)
    with pytest.raises(ValueError):
        Intrinsics(cx=-5.0)


def test_project_point_on_axis():
    cam = Pose6D(np.zeros(3))
    K = Intrinsics()
    px, z = project_points(cam, K, np.array([[10.0, 0.0, 0.0]]))
    assert np.allclose(px[0], [K.cx, K.cy])
    assert np.allclose(z[0], 10.0)


def test_pixel_to_world_inverts_projection():
    rng = np.random.default_rng(12)
    K = Intrinsics()
    for _ in range(100):
        cam = Pose6D(rng.normal(0, 5, 3), rng.uniform(-0.2, 0.2),
                     rng.uniform(-np.pi, np.pi), rng.uniform(-0.5, 0.5))
        pt = cam.position + rng.uniform(3, 30) * cam.camera_axes()[2] \
            + rng.normal(0, 1.0, 3)
        px, z = project_points(cam, K, pt[None, :])
        if z[0] <= 0.1:
            continue
        back = pixel_to_world(cam, K, px[0, 0], px[0, 1], float(z[0]))
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
        px, z = project_points(cam, K, subj.position[None, :])
        u, v, depth = float(px[0, 0]), float(px[0, 1]), float(z[0])
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
    proj = project_points(cam, Intrinsics(), cloud)
    f = render_motion_field(proj, proj, Intrinsics())
    assert np.allclose(f.velocity, 0.0)
    assert f.valid.any()


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
    dots = np.einsum("ijk,ijk->ij", f.velocity, radial)
    assert np.all(dots[f.valid] >= -1e-12)


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
    center_cells = f.velocity[3:5, 3:5, 0] * K.width
    assert f.valid[3:5, 3:5].all()
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
        px, z = project_points(cam, Intrinsics(), target[None, :])
        assert z[0] > 0
        assert np.allclose(px[0], [320.0, 240.0], atol=1e-6)


def test_flip_fg():
    v = np.array([0.3, 0.6, 0.1, 0.2, 0.5])
    out = flip_fg(v)
    assert np.allclose(out, [0.7, 0.6, 0.1, 0.2, -0.5])
    assert np.allclose(flip_fg(out), v)


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
    """Motion field as first written: both poses projected here, cells
    filled with np.add.at."""
    px0, z0 = project_points(cam_t, K, cloud)
    px1, z1 = project_points(cam_t1, K, cloud)
    ok = ((z0 > 1e-6) & (z1 > 1e-6)
          & (px0[:, 0] >= 0) & (px0[:, 0] < K.width)
          & (px0[:, 1] >= 0) & (px0[:, 1] < K.height))
    velocity, valid = np.zeros((8, 8, 2)), np.zeros((8, 8), dtype=bool)
    if not np.any(ok):
        return velocity, valid
    p0, p1 = px0[ok], px1[ok]
    disp = (p1 - p0) / np.array([K.width, K.height])
    gx = np.minimum((p0[:, 0] / K.width * 8).astype(int), 7)
    gy = np.minimum((p0[:, 1] / K.height * 8).astype(int), 7)
    cell = gy * 8 + gx
    counts = np.bincount(cell, minlength=64).astype(float)
    sums = np.zeros((64, 2))
    np.add.at(sums, cell, disp)
    nonzero = counts > 0
    sums[nonzero] /= counts[nonzero, None]
    return sums.reshape(8, 8, 2), nonzero.reshape(8, 8)


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
        assert np.array_equal(f.velocity, velocity)
        assert np.array_equal(f.valid, valid)
        if 0 < n_points <= 40:
            assert not f.valid.all()


def test_motion_field_no_valid_point():
    # the whole cloud lies behind the first camera
    rng = np.random.default_rng(41)
    K = Intrinsics()
    cloud = rng.uniform(-30, 30, size=(500, 3)) - [40.0, 0, 0]
    cam0, cam1 = Pose6D(np.zeros(3)), Pose6D(np.array([0.5, 0.0, 0.0]))
    f = render_motion_field(project_points(cam0, K, cloud),
                            project_points(cam1, K, cloud), K)
    velocity, valid = _reference_field(cam0, cam1, K, cloud)
    assert np.array_equal(f.velocity, velocity) and not f.velocity.any()
    assert np.array_equal(f.valid, valid) and not f.valid.any()


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
        right, down, forward = cam.camera_axes()
        assert np.array_equal(right, -R[:, 1])
        assert np.array_equal(down, -R[:, 2])
        assert np.array_equal(forward, R[:, 0])
        assert cam.camera_axes()[0] is right
    for a in cam.camera_axes():
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
            right, down, forward = cam.camera_axes()
            d = np.atleast_2d(pts) - cam.position
            x, y, z = d @ right, d @ down, d @ forward
            with np.errstate(divide="ignore", invalid="ignore"):
                px_ref = np.stack([K.focal * x / z + K.cx,
                                   K.focal * y / z + K.cy], axis=-1)
            px, depth = project_points(cam, K, pts)
            assert px.shape == (n_points, 2) and depth.shape == (n_points,)
            assert np.array_equal(px, px_ref) and np.array_equal(depth, z)
