import numpy as np
import pytest

from oracles import motion_field_reference, project_points_reference
from skymimic import dataset, training
from skymimic.dataset import (CorpusConfig, build_video,
                              features_for_frames, load_corpus, load_video,
                              make_dataset, save_video)
from skymimic.geometry import (Intrinsics, project_foreground,
                               project_points, render_motion_field,
                               wrap_angle)
from skymimic.scene import (DT, STYLES, GeneratorError, ShotScript,
                            SubjectPath, action_labels,
                            check_style_contract, draw_scene,
                            generate_style_trajectory, make_point_cloud,
                            random_script)


def _script(style, seed):
    return random_script(style, np.random.default_rng(seed))


def test_follow_constant_displacement():
    frames = generate_style_trajectory(_script("follow", 1))
    disp = np.array([f.camera.position - f.subject.position for f in frames])
    assert np.max(np.linalg.norm(disp - disp[0], axis=1)) < 1e-9


def test_flythrough_zero_rotation():
    frames = generate_style_trajectory(_script("fly-through", 2))
    angs = np.array([f.camera.angles for f in frames])
    assert np.max(np.abs(np.diff(angs, axis=0))) == 0.0


def test_orbiting_circle_geometry():
    subject = SubjectPath(np.zeros((1, 2)), 0.0)
    script = ShotScript("orbiting", 20.0, 5,
                        {"radius": 8.0, "rate": 0.2, "altitude": 2.0},
                        subject)
    frames = generate_style_trajectory(script)
    dist = np.array([np.linalg.norm(f.camera.position - f.subject.position)
                     for f in frames])
    assert np.max(np.abs(dist - 8.0)) < 1e-9
    disp = np.array([f.camera.position - f.subject.position for f in frames])
    bearing = np.unwrap(np.arctan2(disp[:, 1], disp[:, 0]))
    # 80 frames cover 79 * 0.25 s of the 0.2 rad/s sweep
    assert abs(abs(bearing[-1] - bearing[0]) - 0.2 * (len(frames) - 1) * DT) \
        < 1e-9


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("seed", range(5))
def test_style_contracts(style, seed):
    frames = generate_style_trajectory(_script(style, 100 + seed))
    ok, metrics = check_style_contract(style, frames, strict=True)
    assert ok, metrics


@pytest.mark.parametrize("style", STYLES)
def test_timestamps_and_visibility(style):
    frames = generate_style_trajectory(_script(style, 7))
    ts = np.array([f.timestamp for f in frames])
    assert np.allclose(np.diff(ts), DT)
    # the generator keeps the subject on screen: projecting must succeed
    from skymimic.geometry import project_foreground
    K = Intrinsics()
    for f in frames:
        fg = project_foreground(f.camera, K, f.subject, f.subject_height)
        assert 0.0 <= fg.cx <= 1.0 and 0.0 <= fg.cy <= 1.0


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("seed", range(3))
def test_action_labels_self_consistent(style, seed):
    frames = generate_style_trajectory(_script(style, 200 + seed))
    labels = action_labels(frames, Intrinsics())
    for t in range(len(frames) - 1):
        cam, nxt = frames[t].camera, frames[t + 1].camera
        dang = wrap_angle(nxt.angles - cam.angles)
        assert np.max(np.abs(labels[t, :3] * DT - dang)) < 1e-6
        # direction is in the camera frame of frame t
        delta = cam.axes @ (nxt.position - cam.position)
        n = np.linalg.norm(delta)
        if n > 1e-12:
            assert np.max(np.abs(labels[t, 3:6] - delta / n)) < 1e-9
        assert abs(np.linalg.norm(labels[t, 3:6]) - 1.0) < 1e-9
        assert 0.0 <= labels[t, 6] <= 1.0


def test_script_validation():
    subj = SubjectPath(np.zeros((1, 2)), 0.0)
    with pytest.raises(GeneratorError):
        ShotScript("orbiting", 2.0, 0, {"radius": 8.0}, subj)
    with pytest.raises(GeneratorError):
        ShotScript("orbiting", 20.0, 0, {"radius": 99.0}, subj)
    with pytest.raises(GeneratorError):
        ShotScript("sideways", 20.0, 0, {}, subj)


def test_video_file_roundtrip(tmp_path):
    rec = build_video("fly-by_007", "fly-by", "test", 42,
                      Intrinsics(focal=512.5), duration_range=(8.0, 9.0),
                      subject_height=1.83)
    save_video(tmp_path, rec)
    assert [p.name for p in tmp_path.iterdir()] == ["fly-by_007.bin"]
    back = load_video(tmp_path, "fly-by_007")
    for name in ("video_id", "style", "split", "seed", "duration",
                 "subject_height", "intrinsics"):
        assert getattr(back, name) == getattr(rec, name), name
    for name in ("frames", "fg", "bg", "actions"):
        a, b = getattr(rec, name), getattr(back, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    # fg and bg are column views of one features table
    assert back.fg.base is back.bg.base
    for part in (back.fg, back.bg):
        assert part.strides == (133 * 8, 8)


def test_build_video_feature_shapes():
    rec = build_video("v0", "follow", "train", 42, Intrinsics(),
                      duration_range=(8.0, 10.0))
    T = rec.n_frames
    assert rec.fg.shape == (T, 5)
    assert rec.bg.shape == (T, 128)
    assert rec.actions.shape == (T, 7)
    # coverage guarantee: at least half the grid cells carry data in
    # some field between the video's poses, over the video's own cloud
    rng = np.random.default_rng(42)
    frames = generate_style_trajectory(random_script("follow", rng,
                                                     (8.0, 10.0)))
    cloud = make_point_cloud(rng, center=tuple(frames[0].subject.position[:2]))
    assert np.array_equal([f.camera.position for f in frames],
                          rec.frames[:, 1:4])
    K = Intrinsics()
    proj = [project_points_reference(f.camera, K, cloud) for f in frames]
    valid = [motion_field_reference(a, b, K)[1]
             for a, b in zip(proj, proj[1:])]
    assert np.mean(np.any(valid, axis=0)) >= 0.5


def test_make_dataset_counts_and_split(tmp_path):
    cfg = CorpusConfig(
        counts={s: 3 for s in STYLES},
        test_counts={s: 1 for s in STYLES},
        duration_range=(8.0, 10.0), seed=11)
    recs = make_dataset(cfg, tmp_path / "corpus")
    assert len(recs) == 15
    loaded = load_corpus(tmp_path / "corpus")
    assert len(loaded) == 15
    for style in STYLES:
        group = [r for r in loaded if r.style == style]
        assert len(group) == 3
        assert sum(1 for r in group if r.split == "test") == 1
    seeds = [r.seed for r in loaded]
    assert len(set(seeds)) == len(seeds)


def test_make_dataset_default_counts():
    from skymimic.dataset import DEFAULT_COUNTS, DEFAULT_TEST_COUNTS
    assert sum(DEFAULT_COUNTS.values()) == 150
    assert sum(DEFAULT_TEST_COUNTS.values()) == 49
    # Tab.1 proportions plus the four distributed extras
    assert DEFAULT_COUNTS["fly-by"] == 22
    assert DEFAULT_COUNTS["fly-through"] == 43
    assert DEFAULT_COUNTS["follow"] == 31
    assert DEFAULT_COUNTS["orbiting"] == 29
    assert DEFAULT_COUNTS["super-dolly"] == 25


def test_make_dataset_empty(tmp_path):
    cfg = CorpusConfig(counts={}, test_counts={})
    recs = make_dataset(cfg, tmp_path / "corpus")
    assert recs == []
    assert (tmp_path / "corpus" / "manifest.txt").exists()
    assert load_corpus(tmp_path / "corpus") == []


def test_style_filter(tmp_path):
    cfg = CorpusConfig(counts={s: 2 for s in STYLES},
                       test_counts={s: 1 for s in STYLES},
                       duration_range=(8.0, 9.0))
    recs = make_dataset(cfg, tmp_path / "corpus", styles=["follow"])
    assert all(r.style == "follow" for r in recs)
    assert len(recs) == 2


def test_flip_keeps_label_and_mirrors_features():
    rec = build_video("v0", "fly-by", "train", 9, Intrinsics(),
                      duration_range=(8.0, 9.0))
    fl = rec.flipped()
    assert fl.style == rec.style
    assert np.allclose(fl.fg[:, 0], 1.0 - rec.fg[:, 0])
    assert np.allclose(fl.fg[:, 4], wrap_angle(-rec.fg[:, 4]))
    assert fl.video_id.endswith("~flip")


def test_flip_mirrors_the_turning_action_labels():
    # the roll and yaw rates and the direction's right component change
    # sign; the pitch rate, the down and forward components and the
    # scale keep their bits, and the record itself is not changed
    rec = build_video("v0", "follow", "train", 9, Intrinsics(),
                      duration_range=(8.0, 9.0))
    rec.actions = np.random.default_rng(3).normal(size=rec.actions.shape)
    before = rec.actions.copy()
    fl = rec.flipped()
    assert np.array_equal(fl.actions[:, [0, 1, 3]], -before[:, [0, 1, 3]])
    assert fl.actions[:, [2, 4, 5, 6]].tobytes() \
        == before[:, [2, 4, 5, 6]].tobytes()
    assert rec.actions.tobytes() == before.tobytes()


def test_determinism_of_build():
    a = build_video("v", "orbiting", "train", 77, Intrinsics(),
                    duration_range=(8.0, 9.0))
    b = build_video("v", "orbiting", "train", 77, Intrinsics(),
                    duration_range=(8.0, 9.0))
    assert a.frames.tobytes() == b.frames.tobytes()
    assert a.bg.tobytes() == b.bg.tobytes()
    assert a.actions.tobytes() == b.actions.tobytes()


@pytest.mark.parametrize("style", STYLES)
def test_features_for_frames_match_per_pair_reference(style):
    rng = np.random.default_rng(STYLES.index(style) + 60)
    K = Intrinsics()
    frames = generate_style_trajectory(random_script(style, rng, (8.0, 9.0)))
    cloud = make_point_cloud(rng, center=tuple(frames[0].subject.position[:2]))
    fg, bg = features_for_frames(frames, K, cloud)
    for t, fr in enumerate(frames):
        box = project_foreground(fr.camera, K, fr.subject, fr.subject_height)
        assert np.array_equal(fg[t], box.vector())
        pair = frames[t:t + 2] if t < len(frames) - 1 else frames[t - 1:]
        field = render_motion_field(project_points(pair[0].camera, K, cloud),
                                    project_points(pair[1].camera, K, cloud),
                                    K)
        assert np.array_equal(bg[t], field)


def test_features_for_frames_projects_each_pose_once(monkeypatch):
    # n frames, n projections: each serves the field before it and the
    # one after
    from skymimic import dataset
    calls = []

    def counted(*args):
        calls.append(args[0])
        return project_points(*args)

    rng = np.random.default_rng(61)
    frames = generate_style_trajectory(random_script("fly-by", rng,
                                                     (8.0, 9.0)))
    cloud = make_point_cloud(rng, center=tuple(frames[0].subject.position[:2]))
    monkeypatch.setattr(dataset, "project_points", counted)
    features_for_frames(frames, Intrinsics(), cloud)
    assert len(calls) == len(frames)
    assert all(c is f.camera for c, f in zip(calls, frames))
    assert features_for_frames(frames[:1], Intrinsics(), cloud)[1].shape \
        == (1, 128)
    assert len(calls) == len(frames) + 1


def _reference_point_cloud(rng, center=(0.0, 0.0), extent=90.0,
                           n_ground=4000, n_structures=160):
    """make_point_cloud as first written: per-structure column stacks."""
    cx, cy = center
    ground = np.column_stack([
        rng.uniform(cx - extent, cx + extent, n_ground),
        rng.uniform(cy - extent, cy + extent, n_ground),
        np.zeros(n_ground),
    ])
    pts = [ground]
    for _ in range(n_structures):
        bx = rng.uniform(cx - extent, cx + extent)
        by = rng.uniform(cy - extent, cy + extent)
        height = rng.uniform(2.0, 12.0)
        m = 18
        pts.append(np.column_stack([
            np.full(m, bx) + rng.normal(0, 0.3, m),
            np.full(m, by) + rng.normal(0, 0.3, m),
            rng.uniform(0, height, m),
        ]))
    return np.vstack(pts)


@pytest.mark.parametrize("kwargs", [
    {}, {"n_structures": 0}, {"center": (3.7, -12.25)},
    {"center": (-41.0, 18.5), "n_ground": 10, "n_structures": 7}])
def test_point_cloud_bit_identical_to_reference(kwargs):
    for seed in range(3):
        rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
        cloud = make_point_cloud(rng, **kwargs)
        assert np.array_equal(cloud, _reference_point_cloud(ref_rng,
                                                            **kwargs))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("style", STYLES)
def test_corpus_video_and_live_scene_draw_one_scene(style, monkeypatch):
    # build_video and make_live_scene both draw through draw_scene: from
    # equal generators they get the same script and cloud, the cloud
    # centred on the subject's first frame, and leave the generators in
    # the same state
    draws = []

    def spy(style, rng, *args):
        script, cloud = draw_scene(style, rng, *args)
        draws.append((script, cloud, rng.bit_generator.state))
        return script, cloud

    monkeypatch.setattr(dataset, "draw_scene", spy)
    monkeypatch.setattr(training, "draw_scene", spy)
    rec = build_video("v", style, "train", 77, Intrinsics(), (10.0, 14.0))
    live, duration = training.make_live_scene(
        style, np.random.default_rng(77), duration_range=(10.0, 14.0))
    (s1, c1, state1), (s2, c2, state2) = draws
    assert (s1.style, s1.duration, s1.seed, s1.params) == \
        (s2.style, s2.duration, s2.seed, s2.params)
    assert np.array_equal(s1.subject.waypoints, s2.subject.waypoints)
    assert (s1.subject.speed, s1.subject.body_height) == \
        (s2.subject.speed, s2.subject.body_height)
    assert np.array_equal(c1, c2) and state1 == state2
    assert live.script is s2 and live.cloud is c2
    assert rec.duration == duration == s1.duration
    # the draw order: the script, then the cloud around the subject's
    # position in the first frame of the shot
    rng = np.random.default_rng(77)
    first, = generate_style_trajectory(random_script(style, rng,
                                                     (10.0, 14.0)), 1)
    cloud = make_point_cloud(rng, center=tuple(first.subject.position[:2]))
    assert np.array_equal(c1, cloud)
    assert rng.bit_generator.state == state1


@pytest.mark.parametrize("style", STYLES)
def test_trajectory_prefix_equals_whole(style):
    script = _script(style, 8)
    whole = generate_style_trajectory(script)
    for n in (1, 5):
        part = generate_style_trajectory(script, n_frames=n)
        assert len(part) == n
        for a, b in zip(part, whole):
            assert a.timestamp == b.timestamp
            for pa, pb in ((a.camera, b.camera), (a.subject, b.subject)):
                assert np.array_equal(pa.position, pb.position)
                assert np.array_equal(pa.angles, pb.angles)
    assert len(generate_style_trajectory(script, n_frames=10 ** 6)) \
        == len(whole)
