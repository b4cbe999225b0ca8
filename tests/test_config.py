import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import skymimic
from skymimic import controller, features, imitation, segmenter, stylenet
from skymimic.cli import build_parser
from skymimic.config import (ConfigError, ExperimentConfig, parse_overrides)
from skymimic.dataset import CORPUS_SEED, CorpusConfig, build_video
from skymimic.geometry import FOCAL, Intrinsics
from skymimic.nn import AdamaxState
from skymimic.scene import (BODY_HEIGHT, DURATION_RANGE, SubjectPath,
                            draw_scene, random_script)
from skymimic.stylenet import StyleNetConfig

# each trainer and the arguments it is handed a config value by: its
# stage driver's `cfg.<key>`, or a trainer's own such argument passed on
CONFIG_FED = {
    features.train_autoencoder: {"epochs", "seed", "lr"},
    stylenet.train_style_net: {"epochs", "seed", "lr"},
    stylenet.train_segment_net: {"epochs", "seed", "lr", "crop_prob",
                                 "min_crop"},
    stylenet.train_ablation_variants: {"epochs", "seed", "lr"},
    imitation.train_imitation_net: {"epochs", "steps_per_epoch", "seed",
                                    "lr", "lam"},
    imitation.imitation_loss_and_grad: {"lam"},
    AdamaxState: {"lr"},
}


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


def _config_fed_arguments() -> set[tuple[str, str]]:
    """(callee, argument) of each call in the package to a CONFIG_FED
    callee whose argument reads an ExperimentConfig key as `cfg.<key>`,
    or, within a CONFIG_FED callee, one of its listed arguments."""
    callees = {fn.__name__: fn for fn in CONFIG_FED}
    keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
    found = set()
    for path in Path(skymimic.__file__).parent.rglob("*.py"):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            own = CONFIG_FED.get(callees.get(func.name), set())

            def fed(node):
                return any(
                    isinstance(n, ast.Attribute) and n.attr in keys
                    and isinstance(n.value, ast.Name) and n.value.id == "cfg"
                    or isinstance(n, ast.Name) and n.id in own
                    for n in ast.walk(node))

            for call in ast.walk(func):
                name = getattr(getattr(call, "func", None), "id", None)
                if not isinstance(call, ast.Call) or name not in callees:
                    continue
                bound = inspect.signature(callees[name]).bind_partial(
                    *map(fed, call.args),
                    **{k.arg: fed(k.value) for k in call.keywords})
                found |= {(name, arg) for arg, is_fed
                          in bound.arguments.items() if is_fed}
    return found


def test_config_fed_trainer_arguments_have_no_default():
    """A trainer argument that its stage driver hands a config value
    has no default of its own to drift from the config's."""
    assert _config_fed_arguments() == {
        (fn.__name__, arg) for fn, args in CONFIG_FED.items()
        for arg in args}
    for fn, args in CONFIG_FED.items():
        params = inspect.signature(fn).parameters
        assert {a for a in args if params[a].default
                is not inspect.Parameter.empty} == set(), fn.__name__


def test_each_data_default_is_its_one_definition():
    """The corpus seed, duration range, body height and focal, and the
    cut threshold, are defined once; every default that carries one is
    that very object."""
    def arg(fn, name):
        return inspect.signature(fn).parameters[name].default

    def field(cls, name):
        return next(f.default for f in dataclasses.fields(cls)
                    if f.name == name)

    for default, definition in [
            (field(ExperimentConfig, "seed"), CORPUS_SEED),
            (field(CorpusConfig, "seed"), CORPUS_SEED),
            (field(ExperimentConfig, "duration_min"), DURATION_RANGE[0]),
            (field(ExperimentConfig, "duration_max"), DURATION_RANGE[1]),
            (field(CorpusConfig, "duration_range"), DURATION_RANGE),
            (arg(build_video, "duration_range"), DURATION_RANGE),
            (arg(random_script, "duration_range"), DURATION_RANGE),
            (arg(draw_scene, "duration_range"), DURATION_RANGE),
            (field(ExperimentConfig, "subject_height"), BODY_HEIGHT),
            (field(CorpusConfig, "subject_height"), BODY_HEIGHT),
            (arg(build_video, "subject_height"), BODY_HEIGHT),
            (arg(random_script, "body_height"), BODY_HEIGHT),
            (arg(draw_scene, "body_height"), BODY_HEIGHT),
            (field(SubjectPath, "body_height"), BODY_HEIGHT),
            (field(ExperimentConfig, "focal"), FOCAL),
            (field(CorpusConfig, "focal"), FOCAL),
            (field(Intrinsics, "focal"), FOCAL),
            (arg(segmenter.segment, "threshold"), segmenter.CUT_THRESHOLD),
            (build_parser().parse_args(
                ["segment", "--data", "d", "--artifacts", "a",
                 "--video", "v"]).threshold, segmenter.CUT_THRESHOLD)]:
        assert default is definition


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
