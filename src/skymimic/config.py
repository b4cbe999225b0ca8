"""Flat key=value experiment configuration.

Every tunable a run may change lives here with its default, and every
key is read, so a run is fully described by one small text file.  The
format is intentionally plain: one `key = value` pair per line, `#`
comments, no sections.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path


class ConfigError(ValueError):
    """Malformed config file or unknown/ill-typed key."""


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

    def save(self, path: str | Path) -> None:
        lines = [f"{k} = {v}" for k, v in asdict(self).items()]
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        cfg = cls()
        return cfg.updated(_parse_pairs(Path(path).read_text()))

    def updated(self, overrides: dict[str, str]) -> "ExperimentConfig":
        """A copy with string overrides coerced to each field's type."""
        values = asdict(self)
        for key, raw in overrides.items():
            if key not in values:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = _coerce(key, raw, type(values[key]))
        return ExperimentConfig(**values)


def _coerce(key: str, raw, target: type):
    if isinstance(raw, target):
        return raw
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
