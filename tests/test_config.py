import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import skymimic
from skymimic import controller, features, segmenter
from skymimic.config import (ConfigError, ExperimentConfig, parse_overrides)
from skymimic.stylenet import StyleNetConfig


def test_defaults():
    cfg = ExperimentConfig()
    assert features.WINDOW == 8
    assert features.STRIDE == 4
    assert StyleNetConfig().lambda_fg == StyleNetConfig().lambda_bg == 0.01
    assert cfg.loss_mix == 0.7
    assert inspect.signature(segmenter.segment).parameters[
        "threshold"].default == 0.6
    assert segmenter.MIN_SEGMENT_SECONDS == 2.0
    assert cfg.style_lr == 0.001
    assert controller.MAX_SPEED == 10.0


def test_save_load_roundtrip(tmp_path):
    cfg = ExperimentConfig(seed=99, loss_mix=0.5, seg_min_crop=3)
    path = tmp_path / "run.cfg"
    cfg.save(path)
    assert ExperimentConfig.load(path) == cfg


def test_every_key_is_read():
    """Each ExperimentConfig field is read as `cfg.<key>`, the name
    every caller gives the experiment config, somewhere in the package
    outside config.py, so a key that nothing reads, which `--set` would
    accept and ignore, cannot come back."""
    package = Path(skymimic.__file__).parent
    read = set()
    for path in package.rglob("*.py"):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "cfg"):
                read.add(node.attr)
    keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert keys - read == set()


def test_load_with_comments_and_blanks(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\n\nseed = 5  # trailing\nstyle_epochs=2\n")
    cfg = ExperimentConfig.load(path)
    assert cfg.seed == 5
    assert cfg.style_epochs == 2
    assert cfg.loss_mix == 0.7  # untouched default


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("warp_factor = 9\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.load(path)


def test_bad_type_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig().updated({"seed": "many"})


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ConfigError):
        ExperimentConfig.load(path)


def test_non_utf8_file_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"seed = 5\xff\n")
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig.load(path)


def test_parse_overrides():
    assert parse_overrides(["a=1", "b = x=y"]) == {"a": "1", "b": "x=y"}
    with pytest.raises(ConfigError):
        parse_overrides(["no-equals"])


@pytest.mark.parametrize("key,value", [
    ("seed", -1), ("duration_min", 4.0), ("duration_max", 51.0),
    ("duration_min", 21.0), ("subject_height", 0.0),
    ("subject_height", float("inf")), ("focal", float("nan")),
    ("autoencoder_epochs", 0), ("autoencoder_lr", 0.0), ("style_epochs", 0),
    ("style_lr", -1.0), ("imitation_epochs", -3), ("imitation_steps", 0),
    ("imitation_lr", -1.0), ("loss_mix", float("nan")), ("loss_mix", -0.1),
    ("seg_epochs", 0), ("seg_crop_prob", 5.0), ("seg_crop_prob", -0.5),
    ("seg_min_crop", 0)])
def test_out_of_range_value_rejected(key, value):
    # every way of making a config checks it, and the error names the key
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig(**{key: value})
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig().updated({key: str(value)})
