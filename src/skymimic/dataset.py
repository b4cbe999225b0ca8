"""On-disk corpus of synthetic shots.

Layout: <root>/manifest.txt plus one directory per video containing
meta.json and three binary tables (frames, features, actions). Tables
are little-endian float64 with an 12-byte header: magic b"SMT1",
uint32 rows, uint32 cols.

frames.bin   rows x 13: t, camera (x y z roll yaw pitch), subject (same)
features.bin rows x 197: fg 5, bg 128, validity mask 64
actions.bin  rows x 7: omega 3 (roll, yaw, pitch rates), direction 3
             (unit translation to the next frame in the camera frame
             of this frame: right, down, forward), scale 1
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import (Intrinsics, flip_bg, flip_fg, project_foreground,
                       project_points, render_motion_field)
from .nn.params import ByteReader
from .scene import (STYLES, FrameSample, action_labels,
                    generate_style_trajectory, make_point_cloud, random_script)

TABLE_MAGIC = b"SMT1"

# Tab.1-proportioned default corpus, scaled to 150 videos (the four
# extras go to the first four styles), with a fixed 49-video test split.
DEFAULT_COUNTS = {"fly-by": 22, "fly-through": 43, "follow": 31,
                  "orbiting": 29, "super-dolly": 25}
DEFAULT_TEST_COUNTS = {"fly-by": 7, "fly-through": 14, "follow": 10,
                       "orbiting": 10, "super-dolly": 8}


def write_table(path: Path, data: np.ndarray) -> None:
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    with open(path, "wb") as f:
        f.write(TABLE_MAGIC)
        f.write(struct.pack("<II", data.shape[0], data.shape[1]))
        f.write(data.astype("<f8").tobytes(order="C"))


def write_text_atomic(path: Path, text: str) -> None:
    """Write text to a temporary file in path's directory, then move it
    onto path, so path holds the old text or the new, never a part. The
    temporary file is removed when either step fails."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_table(path: Path) -> np.ndarray:
    """Read a table written by write_table. Raises OSError when the
    file is not a table, ends inside it, or has bytes after it."""
    r = ByteReader(path)
    if r.take(4) != TABLE_MAGIC:
        raise OSError(f"{path}: not a table file")
    rows, cols = r.unpack("<II")
    data = r.floats((rows, cols)).astype(np.float64)
    r.finish(f"a {rows}x{cols} table")
    return data


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
    mask: np.ndarray      # (T, 64)
    actions: np.ndarray   # (T, 7)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    def flipped(self) -> "VideoRecord":
        """Horizontal mirror of the observation streams (labels keep)."""
        fg = flip_fg(self.fg)
        bg, mask = flip_bg(self.bg, self.mask)
        return VideoRecord(self.video_id + "~flip", self.style, self.split,
                           self.seed, self.duration, self.subject_height,
                           self.intrinsics, self.frames, fg, bg, mask,
                           self.actions)


def features_for_frames(frames: list[FrameSample], K: Intrinsics,
                        cloud: np.ndarray):
    """FG/BG observation streams for a trajectory.

    BG at frame t is the motion field between poses t and t+1; the last
    frame repeats the previous field.  Each pose's cloud projection is
    made once and serves both fields it takes part in.
    """
    n = len(frames)
    fg = np.zeros((n, 5))
    bg = np.zeros((n, 128))
    mask = np.zeros((n, 64))
    proj = project_points(frames[0].camera, K, cloud) if n else None
    for t in range(n):
        f = project_foreground(frames[t].camera, K, frames[t].subject,
                               frames[t].subject_height)
        fg[t] = f.vector()
        if t < n - 1:
            proj_next = project_points(frames[t + 1].camera, K, cloud)
            field = render_motion_field(proj, proj_next, K)
            proj = proj_next
            bg[t] = field.vector()
            mask[t] = field.mask_vector()
        else:
            bg[t] = bg[t - 1] if n > 1 else 0.0
            mask[t] = mask[t - 1] if n > 1 else 0.0
    return fg, bg, mask


def build_video(video_id: str, style: str, split: str, seed: int,
                K: Intrinsics, duration_range=(8.0, 20.0),
                subject_height: float = 1.7) -> VideoRecord:
    rng = np.random.default_rng(seed)
    script = random_script(style, rng, duration_range, subject_height)
    frames = generate_style_trajectory(script)
    center = frames[0].subject.position[:2]
    cloud = make_point_cloud(rng, center=tuple(center))
    fg, bg, mask = features_for_frames(frames, K, cloud)
    actions = action_labels(frames, K)
    table = np.zeros((len(frames), 13))
    for t, fr in enumerate(frames):
        table[t, 0] = fr.timestamp
        table[t, 1:4] = fr.camera.position
        table[t, 4:7] = fr.camera.angles
        table[t, 7:10] = fr.subject.position
        table[t, 10:13] = fr.subject.angles
    return VideoRecord(video_id, style, split, seed, script.duration,
                       subject_height, K, table, fg, bg, mask, actions)


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
    write_text_atomic(
        out / "manifest.txt",
        f"# skymimic corpus seed={config.seed} videos={len(records)}\n"
        + "".join(line + "\n" for line in manifest_lines))
    return records


def save_video(root: Path, rec: VideoRecord) -> None:
    d = Path(root) / rec.video_id
    d.mkdir(parents=True, exist_ok=True)
    meta = {
        "video_id": rec.video_id,
        "style": rec.style,
        "split": rec.split,
        "seed": rec.seed,
        "duration": rec.duration,
        "subject_height": rec.subject_height,
        "intrinsics": {"focal": rec.intrinsics.focal,
                       "width": rec.intrinsics.width,
                       "height": rec.intrinsics.height,
                       "cx": rec.intrinsics.cx, "cy": rec.intrinsics.cy},
    }
    with open(d / "meta.json", "w") as f:
        json.dump(meta, f, indent=1, sort_keys=True)
    write_table(d / "frames.bin", rec.frames)
    write_table(d / "features.bin",
                np.concatenate([rec.fg, rec.bg, rec.mask], axis=1))
    write_table(d / "actions.bin", rec.actions)


def load_video(root: Path, video_id: str) -> VideoRecord:
    d = Path(root) / video_id
    try:
        with open(d / "meta.json") as f:
            meta = json.load(f)
        frames = read_table(d / "frames.bin")
        feats = read_table(d / "features.bin")
        actions = read_table(d / "actions.bin")
    except OSError as e:
        raise IOError(f"cannot load video {video_id!r} from {d}: {e}") from e
    ki = meta["intrinsics"]
    return VideoRecord(
        meta["video_id"], meta["style"], meta["split"], meta["seed"],
        meta["duration"], meta["subject_height"],
        Intrinsics(ki["focal"], ki["width"], ki["height"], ki["cx"],
                   ki["cy"]),
        frames, feats[:, :5], feats[:, 5:133], feats[:, 133:197], actions)


def load_corpus(root: str | Path) -> list[VideoRecord]:
    root = Path(root)
    records = []
    with open(root / "manifest.txt") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            vid = line.split()[0]
            records.append(load_video(root, vid))
    return records
