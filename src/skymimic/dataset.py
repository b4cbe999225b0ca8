"""On-disk corpus of synthetic shots.

Layout: <root>/manifest.txt plus one file per video, <video_id>.bin,
in the ParamSet container format of `nn.params` (a JSON header, then
one float64 block). Its meta holds the video's id, style, split, seed,
duration, subject height and camera intrinsics; its three records are
T-row tables:

frames    T x 13: t, camera (x y z roll yaw pitch), subject (same)
features  T x 133: fg 5, bg 128
actions   T x 7: omega 3 (roll, yaw, pitch rates), direction 3 (unit
          translation to the next frame in the camera frame of this
          frame: right, down, forward), scale 1

Corpora written in the earlier per-video directory layout, or with the
earlier T x 197 features table (whose last 64 columns held per-cell
validity flags that nothing read), are not read; regenerate them with
`skymimic gen-data`.
A video listed in manifest.txt whose file is missing raises
DependencyError; a damaged file raises OSError.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .features import WINDOW
from .geometry import (Intrinsics, flip_bg, flip_fg, project_foreground,
                       project_points, render_motion_field)
from .nn import ParamSet, write_atomic
from .scene import (STYLES, FrameSample, action_labels,
                    generate_style_trajectory, make_point_cloud, random_script)

# Tab.1-proportioned default corpus, scaled to 150 videos (the four
# extras go to the first four styles), with a fixed 49-video test split.
DEFAULT_COUNTS = {"fly-by": 22, "fly-through": 43, "follow": 31,
                  "orbiting": 29, "super-dolly": 25}
DEFAULT_TEST_COUNTS = {"fly-by": 7, "fly-through": 14, "follow": 10,
                       "orbiting": 10, "super-dolly": 8}


class DependencyError(RuntimeError):
    """A required input file, corpus video or trained artifact, is
    missing."""


@dataclass
class VideoRecord:
    video_id: str
    style: str
    split: str
    seed: int
    duration: float
    subject_height: float
    intrinsics: Intrinsics
    frames: np.ndarray    # (T, 13)
    fg: np.ndarray        # (T, 5)
    bg: np.ndarray        # (T, 128)
    actions: np.ndarray   # (T, 7)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    def flipped(self) -> "VideoRecord":
        """Horizontal mirror of the observation streams (labels keep)."""
        return VideoRecord(self.video_id + "~flip", self.style, self.split,
                           self.seed, self.duration, self.subject_height,
                           self.intrinsics, self.frames, flip_fg(self.fg),
                           flip_bg(self.bg), self.actions)


def features_for_frames(frames: list[FrameSample], K: Intrinsics,
                        cloud: np.ndarray):
    """FG/BG observation streams for a trajectory.

    BG at frame t is the motion field between poses t and t+1; the last
    frame repeats the previous field.  Each pose's cloud projection,
    with its masks, is made once and serves both fields it takes part
    in: n projections for n frames.
    """
    n = len(frames)
    fg = np.zeros((n, 5))
    bg = np.zeros((n, 128))
    proj = project_points(frames[0].camera, K, cloud) if n else None
    for t in range(n):
        f = project_foreground(frames[t].camera, K, frames[t].subject,
                               frames[t].subject_height)
        fg[t] = f.vector()
        if t < n - 1:
            proj_next = project_points(frames[t + 1].camera, K, cloud)
            bg[t] = render_motion_field(proj, proj_next, K)
            proj = proj_next
        else:
            bg[t] = bg[t - 1] if n > 1 else 0.0
    return fg, bg


def build_video(video_id: str, style: str, split: str, seed: int,
                K: Intrinsics, duration_range=(8.0, 20.0),
                subject_height: float = 1.7) -> VideoRecord:
    rng = np.random.default_rng(seed)
    script = random_script(style, rng, duration_range, subject_height)
    frames = generate_style_trajectory(script)
    center = frames[0].subject.position[:2]
    cloud = make_point_cloud(rng, center=tuple(center))
    fg, bg = features_for_frames(frames, K, cloud)
    actions = action_labels(frames, K)
    table = np.zeros((len(frames), 13))
    for t, fr in enumerate(frames):
        table[t, 0] = fr.timestamp
        table[t, 1:4] = fr.camera.position
        table[t, 4:7] = fr.camera.angles
        table[t, 7:10] = fr.subject.position
        table[t, 10:13] = fr.subject.angles
    return VideoRecord(video_id, style, split, seed, script.duration,
                       subject_height, K, table, fg, bg, actions)


@dataclass
class CorpusConfig:
    counts: dict = field(default_factory=lambda: dict(DEFAULT_COUNTS))
    test_counts: dict = field(default_factory=lambda: dict(DEFAULT_TEST_COUNTS))
    seed: int = 20240601
    duration_range: tuple = (8.0, 20.0)
    subject_height: float = 1.7
    focal: float = 600.0


def make_dataset(config: CorpusConfig, out_dir: str | Path,
                 styles: list[str] | None = None) -> list[VideoRecord]:
    """Generate the corpus and write it under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    K = Intrinsics(focal=config.focal)
    master = np.random.default_rng(config.seed)
    records = []
    manifest_lines = []
    wanted = styles if styles is not None else STYLES
    for style in STYLES:
        n = config.counts.get(style, 0)
        n_test = config.test_counts.get(style, 0)
        seeds = master.integers(0, 2 ** 31, size=n)
        if style not in wanted:
            continue
        for i in range(n):
            split = "test" if i >= n - n_test else "train"
            vid = f"{style}_{i:03d}"
            rec = build_video(vid, style, split, int(seeds[i]), K,
                              config.duration_range, config.subject_height)
            save_video(out, rec)
            records.append(rec)
            manifest_lines.append(f"{vid} {style} {split} {rec.seed}")
    write_atomic(
        out / "manifest.txt",
        (f"# skymimic corpus seed={config.seed} videos={len(records)} "
         f"styles={','.join(st for st in STYLES if st in wanted)}\n"
         + "".join(line + "\n" for line in manifest_lines)).encode())
    return records


# the VideoRecord fields a video file keeps in its meta, with intrinsics
META_FIELDS = ("video_id", "style", "split", "seed", "duration",
               "subject_height")


def video_path(root: str | Path, video_id: str) -> Path:
    return Path(root) / f"{video_id}.bin"


def save_video(root: Path, rec: VideoRecord) -> None:
    meta = {k: getattr(rec, k) for k in META_FIELDS}
    meta["intrinsics"] = asdict(rec.intrinsics)
    ParamSet({"frames": rec.frames,
              "features": np.concatenate([rec.fg, rec.bg], axis=1),
              "actions": rec.actions},
             meta).save(video_path(root, rec.video_id))


def load_video(root: Path, video_id: str) -> VideoRecord:
    """Read one video file; fg and bg are column views of its features
    table. Raises DependencyError when the file is missing, and OSError
    when it is damaged, lacks a field or holds a table of the wrong
    shape."""
    path = video_path(root, video_id)
    if not path.exists():
        raise DependencyError(f"no {path.name} in {path.parent}")
    try:
        v = ParamSet.load(path)
        widths = {"frames": 13, "features": 133, "actions": 7}
        n, shapes = len(v["frames"]), {k: v[k].shape for k in widths}
        if n < WINDOW or shapes != {k: (n, w) for k, w in widths.items()}:
            raise ValueError(f"tables {shapes} do not fit: each needs the "
                             f"same T >= {WINDOW} rows, widths {widths}")
        feats = v["features"]
        return VideoRecord(
            **{k: v.meta[k] for k in META_FIELDS},
            intrinsics=Intrinsics(**v.meta["intrinsics"]),
            frames=v["frames"], fg=feats[:, :5], bg=feats[:, 5:],
            actions=v["actions"])
    except (OSError, KeyError, TypeError, ValueError) as e:
        raise OSError(f"cannot load video {video_id!r} from {path}: {e}") \
            from e


def listed_ids(root: str | Path) -> list[str]:
    """The video ids root's manifest.txt lists, in order. Raises
    DependencyError when the manifest is missing."""
    path = Path(root) / "manifest.txt"
    if not path.exists():
        raise DependencyError(f"no manifest.txt in {root}")
    lines = (line.strip() for line in path.read_text().splitlines())
    return [line.split()[0] for line in lines
            if line and not line.startswith("#")]


def load_corpus(root: str | Path) -> list[VideoRecord]:
    """Every video listed in root's manifest.txt. Raises DependencyError
    when the manifest or a listed video is missing."""
    return [load_video(Path(root), vid) for vid in listed_ids(root)]
