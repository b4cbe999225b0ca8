"""Flat key=value experiment configuration.

Every tunable a run may change lives here with its default, and every
key is read, so a run is fully described by one small text file.  The
format is intentionally plain: one `key = value` pair per line, `#`
comments, no sections. Every value is checked against its range in
`RANGES` whenever a config is made, so no stage starts on a bad one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .nn import write_atomic
from .scene import DURATION_MAX, DURATION_MIN


class ConfigError(ValueError):
    """Malformed config file, unknown/ill-typed key or out-of-range
    value."""


# key: (low, high, whether low itself is allowed); every value must
# also be finite, and duration_min <= duration_max
AT_LEAST_0, AT_LEAST_1 = (0, math.inf, True), (1, math.inf, True)
POSITIVE, SHOT = (0, math.inf, False), (DURATION_MIN, DURATION_MAX, True)
RANGES = {
    "seed": AT_LEAST_0, "duration_min": SHOT, "duration_max": SHOT,
    "subject_height": POSITIVE, "focal": POSITIVE,
    "autoencoder_epochs": AT_LEAST_1, "autoencoder_lr": POSITIVE,
    "style_epochs": AT_LEAST_1, "style_lr": POSITIVE,
    "imitation_epochs": AT_LEAST_1, "imitation_steps": AT_LEAST_1,
    "imitation_lr": POSITIVE, "loss_mix": AT_LEAST_0,
    "seg_epochs": AT_LEAST_1, "seg_crop_prob": (0, 1, True),
    "seg_min_crop": AT_LEAST_1,
}


@dataclass
class ExperimentConfig:
    # data generation
    seed: int = 20240601
    duration_min: float = 8.0
    duration_max: float = 20.0
    subject_height: float = 1.7
    focal: float = 600.0

    # encoders
    autoencoder_epochs: int = 60
    autoencoder_lr: float = 0.001

    # style classifier
    style_epochs: int = 30
    style_lr: float = 0.001

    # imitation network
    imitation_epochs: int = 20
    imitation_steps: int = 200
    imitation_lr: float = 0.001
    loss_mix: float = 0.7

    # segment net (the segmenter's span classifier)
    seg_epochs: int = 60
    seg_crop_prob: float = 0.7
    seg_min_crop: int = 5

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            low, high, closed = RANGES[f.name]
            if not (math.isfinite(value) and value <= high
                    and (low <= value if closed else low < value)):
                raise ConfigError(
                    f"config key {f.name!r} = {value!r} is outside "
                    f"{'[' if closed else '('}{low}, {high}"
                    f"{']' if math.isfinite(high) else ')'}")
        if self.duration_min > self.duration_max:
            raise ConfigError(
                f"config key 'duration_min' = {self.duration_min!r} "
                f"exceeds duration_max = {self.duration_max!r}")

    def save(self, path: str | Path) -> None:
        lines = [f"{k} = {v}" for k, v in asdict(self).items()]
        write_atomic(path, ("\n".join(lines) + "\n").encode())

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        # a non-UTF-8 byte becomes U+FFFD, which no key or value admits
        text = Path(path).read_bytes().decode("utf-8", errors="replace")
        return cls().updated(_parse_pairs(text))

    def updated(self, overrides: dict[str, str]) -> "ExperimentConfig":
        """A copy with string overrides coerced to each field's type."""
        values = asdict(self)
        for key, raw in overrides.items():
            if key not in values:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = _coerce(key, raw, type(values[key]))
        return ExperimentConfig(**values)


def _coerce(key: str, raw, target: type):
    text = str(raw).strip()
    try:
        return target(text)
    except ValueError as exc:
        raise ConfigError(
            f"config key {key!r} expects {target.__name__}, "
            f"got {text!r}") from exc


def _parse_pairs(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        pairs[key] = value
    return pairs


def parse_overrides(items: list[str]) -> dict[str, str]:
    """key=value strings from the command line."""
    pairs: dict[str, str] = {}
    for item in items:
        if "=" not in item:
            raise ConfigError(f"expected key=value, got {item!r}")
        key, value = item.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs
