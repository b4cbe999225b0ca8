import os
import shutil

import numpy as np
import pytest

import skymimic
from skymimic import features
from skymimic.cli import _config_hash, build_parser, main
from skymimic.config import ExperimentConfig
from skymimic.imitation import init_imitation_net
from skymimic.nn import ParamSet
from skymimic.pipeline import STAGES, VARIANT_FILES, VARIANT_TAGS


# the smoke settings the workspace fixture trains every stage with
FAST = ["--set", "autoencoder_epochs=1", "--set", "style_epochs=1",
        "--set", "imitation_epochs=1", "--set", "imitation_steps=10"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny two-style corpus trained end to end at smoke settings."""
    root = tmp_path_factory.mktemp("cli")
    data, art = root / "data", root / "art"
    assert main(["gen-data", "--out", str(data),
                 "--styles", "fly-by,orbiting", "--set", "seed=5"]) == 0
    for stage in STAGES:
        assert main(["train", "--data", str(data), "--out", str(art),
                     "--stage", stage] + FAST) == 0
    return root


def _one_error_line(capsys) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_gen_data_refuses_nonempty(workspace, capsys):
    assert main(["gen-data", "--out", str(workspace / "data")]) == 2
    assert "is not empty" in _one_error_line(capsys)


def test_gen_data_rejects_unknown_style(tmp_path, capsys):
    assert main(["gen-data", "--out", str(tmp_path / "d"),
                 "--styles", "sideways"]) == 2
    assert "sideways" in _one_error_line(capsys)
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("override", ["duration_min=1", "focal=-1",
                                      "subject_height=-1",
                                      "subject_height=0", "seed=-1",
                                      "focal=nan", "subject_height=inf"])
def test_gen_data_rejects_bad_config_value(tmp_path, capsys, override):
    out = tmp_path / "d"
    assert main(["gen-data", "--out", str(out), "--set", override]) == 2
    assert override.split("=")[0] in _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("stage,override", [
    ("style", "seg_min_crop=0"), ("style", "seg_crop_prob=5"),
    ("imitation", "imitation_epochs=-3"), ("imitation", "imitation_lr=-1"),
    ("imitation", "imitation_steps=0"), ("imitation", "loss_mix=nan")])
def test_train_rejects_bad_config_value(workspace, tmp_path, capsys, stage,
                                        override):
    # refused before the stage trains: it writes no net and leaves the
    # other artifacts and the manifest as they were
    art = tmp_path / "art"
    shutil.copytree(workspace / "art", art)
    (art / f"{stage}_net.bin").unlink()
    before = {p: p.read_bytes() for p in art.rglob("*") if p.is_file()}
    fast = ["--set", "style_epochs=1", "--set", "seg_epochs=1",
            "--set", "imitation_epochs=1", "--set", "imitation_steps=10"]
    assert main(_net_argv(workspace, stage, art, None) + fast
                + ["--set", override]) == 2
    assert override.split("=")[0] in _one_error_line(capsys)
    assert {p: p.read_bytes() for p in art.rglob("*")
            if p.is_file()} == before


def test_gen_data_manifest(workspace):
    lines = (workspace / "data" / "manifest.txt").read_text().splitlines()
    assert lines[0].startswith("# skymimic corpus")
    assert len(lines) == 1 + 22 + 29


def _assert_same_files(first, second):
    """first and second hold the same file names with the same bytes."""
    files = sorted(p.relative_to(first) for p in first.rglob("*"))
    assert sorted(p.relative_to(second) for p in second.rglob("*")) \
        == files
    for rel in files:
        assert (first / rel).read_bytes() == (second / rel).read_bytes()


def test_corpus_rebuilds_from_its_config_and_manifest(tmp_path):
    # gen-data records the config it ran with and the manifest names the
    # style subset: those two files alone rebuild the corpus, byte for
    # byte
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["gen-data", "--out", str(first), "--styles", "fly-by",
                 "--set", "duration_max=8"]) == 0
    header = (first / "manifest.txt").read_text().splitlines()[0]
    styles = dict(f.split("=", 1) for f in header.split()[3:])["styles"]
    assert styles == "fly-by"
    assert main(["gen-data", "--out", str(second), "--config",
                 str(first / "config_gen-data.txt"),
                 "--styles", styles]) == 0
    assert (first / "config_gen-data.txt").exists()
    _assert_same_files(first, second)


def test_forced_corpus_over_another_equals_a_fresh_one(tmp_path):
    # --force over another style's corpus removes the videos the old
    # manifest lists and the new one does not, and no other file
    forced, fresh = tmp_path / "forced", tmp_path / "fresh"
    short = ["--set", "duration_max=8"]
    assert main(["gen-data", "--out", str(forced), "--styles", "fly-by"]
                + short) == 0
    (forced / "unlisted.bin").write_bytes(b"not a listed video")
    # an id naming a path outside the corpus directory is not removed
    (tmp_path / "keep.bin").write_bytes(b"outside the corpus")
    with open(forced / "manifest.txt", "a") as f:
        f.write("../keep\n")
    assert main(["gen-data", "--out", str(forced), "--force",
                 "--styles", "orbiting"] + short) == 0
    assert (tmp_path / "keep.bin").read_bytes() == b"outside the corpus"
    assert main(["gen-data", "--out", str(fresh), "--styles", "orbiting"]
                + short) == 0
    (forced / "unlisted.bin").unlink()
    _assert_same_files(forced, fresh)


def test_net_trained_on_other_artifacts_exits_3(workspace, tmp_path,
                                               capsys):
    # each net records the digests of the files its stage read: after a
    # stage is rerun, every later net that read its files is refused,
    # naming the stage to rerun, until that stage is rerun too
    art, out = tmp_path / "art", tmp_path / "out"
    shutil.copytree(workspace / "art", art)

    def train(stage, *sets):
        assert main(_net_argv(workspace, "train", art, None)
                    + ["--stage", stage, *FAST, *sets]) == 0
        capsys.readouterr()

    def refused(command, stage):
        dry = ["--dry-run"] if command == "imitate" else []
        assert main(_net_argv(workspace, command, art, out) + dry) == 3
        err = _one_error_line(capsys)
        assert "trained on another" in err
        assert err.endswith(f"`skymimic train --stage {stage}`")
        assert not out.exists()

    train("autoencoder", "--set", "seed=9")
    for command in ("eval", "segment", "imitate"):
        refused(command, "style")
    train("style")
    # segment reads no imitation net, so a stale one does not stop it
    assert main(_net_argv(workspace, "segment", art, out)) == 0
    capsys.readouterr()
    refused("eval", "imitation")
    train("imitation")
    train("baseline")
    assert main(_net_argv(workspace, "eval", art, out)) == 0


def test_missing_segment_net_exits_3_where_it_is_run(workspace, tmp_path,
                                                    capsys):
    # the segment net is the only span classifier: without it, segment
    # and imitate exit 3 naming the stage that writes it, while eval and
    # the imitation stage, which never run it, succeed
    art, out = tmp_path / "art", tmp_path / "out"
    shutil.copytree(workspace / "art", art)
    (art / "segment_net.bin").unlink()
    for command, extra in (("segment", []), ("imitate", ["--dry-run"])):
        assert main(_net_argv(workspace, command, art, out) + extra) == 3
        err = _one_error_line(capsys)
        assert err.endswith("`skymimic train --stage style` first")
        assert not out.exists()
    assert main(_net_argv(workspace, "imitation", art, None) + FAST) == 0
    assert main(_net_argv(workspace, "eval", art, out)) == 0


def test_train_missing_dependency(workspace, tmp_path):
    rc = main(["train", "--data", str(workspace / "data"),
               "--out", str(tmp_path / "empty"), "--stage", "style"])
    assert rc == 3


@pytest.mark.parametrize("command", ["train", "eval", "segment",
                                     "imitate", "train-listed",
                                     "eval-listed"])
def test_missing_corpus_exits_3_and_writes_nothing(workspace, tmp_path,
                                                   capsys, command):
    # "-listed": the manifest lists a video whose file is missing
    data, art = workspace / "data", str(workspace / "art")
    listed = tmp_path / "listed"
    shutil.copytree(data, listed)
    (listed / "orbiting_001.bin").unlink()
    out = tmp_path / "out"
    argv = {
        "train": ["--data", str(tmp_path / "nodata"), "--out", str(out),
                  "--stage", "autoencoder"],
        "eval": ["--data", str(tmp_path / "nodata"), "--artifacts", art,
                 "--out", str(out)],
        "segment": ["--data", str(data), "--artifacts", art,
                    "--video", "fly-by_999"],
        "imitate": ["--data", str(data), "--artifacts", art,
                    "--video", "fly-by_999", "--out", str(out)],
        "train-listed": ["--data", str(listed), "--out", str(out),
                         "--stage", "autoencoder"],
        "eval-listed": ["--data", str(listed), "--artifacts", art,
                        "--out", str(out)],
    }[command]
    assert main([command.split("-")[0]] + argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: no ")
    if command.endswith("-listed"):
        assert "orbiting_001.bin" in err
    assert not out.exists()


def test_train_unknown_config_key(workspace, tmp_path):
    rc = main(["train", "--data", str(workspace / "data"),
               "--out", str(tmp_path / "art"), "--stage", "autoencoder",
               "--set", "bogus=1"])
    assert rc == 2


def test_train_divergence_exits_4(workspace, tmp_path, monkeypatch, capsys):
    def diverged(batch, p, step=None):
        return float("nan"), None, None

    monkeypatch.setattr(features, "_ae_forward", diverged)
    out = tmp_path / "art"
    rc = main(["train", "--data", str(workspace / "data"), "--out",
               str(out), "--stage", "autoencoder"])
    assert rc == 4
    assert capsys.readouterr().err.startswith("error: autoencoder (fg)")
    assert not (out / "fg_encoder.bin").exists()


@pytest.fixture(scope="module")
def no_train_data(tmp_path_factory):
    """A corpus whose manifest lists only test videos."""
    from skymimic.dataset import CorpusConfig, make_dataset
    data = tmp_path_factory.mktemp("test-only") / "data"
    counts = {"fly-by": 2, "follow": 2}
    make_dataset(CorpusConfig(counts=counts, test_counts=dict(counts),
                              duration_range=(8.0, 9.0)), data)
    return data


@pytest.mark.parametrize("stage,loads,what", [
    ("autoencoder", [], "autoencoder (fg)"),
    ("style", ["fg_encoder", "bg_encoder"], "style net"),
    ("imitation", ["fg_encoder", "bg_encoder", "style_net"],
     "imitation net"),
    ("baseline", ["fg_encoder", "bg_encoder", "style_net"],
     "imitation net")])
def test_train_stage_without_train_video_exits_4(workspace, no_train_data,
                                                 tmp_path, monkeypatch,
                                                 capsys, stage, loads,
                                                 what):
    # each stage finds the nets it loads but no train video to fit: it
    # exits 4 naming its net, without a traceback, before it embeds a
    # video, and writes no net
    art = tmp_path / "art"
    art.mkdir()
    for net in loads:
        shutil.copy(workspace / "art" / f"{net}.bin", art)
    before = sorted(art.rglob("*"))

    def embed(*args):
        raise AssertionError("a video was embedded")

    monkeypatch.setattr(features, "embed_video", embed)
    assert main(["train", "--data", str(no_train_data), "--out", str(art),
                 "--stage", stage]) == 4
    assert _one_error_line(capsys).startswith(
        f"error: {what} had no training example")
    assert sorted(art.rglob("*")) == before


def test_segment_curve_write_is_atomic(workspace, tmp_path, monkeypatch,
                                       capsys):
    # the curve is moved into place whole: when the move fails, segment
    # exits 5, the old curve is intact and no temporary file is left
    curve = tmp_path / "curve.csv"
    curve.write_bytes(b"old curve\n")

    def refuse(src, dst):
        raise OSError(f"cannot move {src} onto {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    argv = _net_argv(workspace, "segment", workspace / "art", None)
    assert main(argv + ["--curve", str(curve)]) == 5
    assert _one_error_line(capsys).startswith("error: cannot move")
    assert curve.read_bytes() == b"old curve\n"
    assert os.listdir(tmp_path) == ["curve.csv"]


def test_segment_truncated_artifact_exits_5(workspace, tmp_path, capsys):
    art = tmp_path / "art"
    shutil.copytree(workspace / "art", art)
    blob = (art / "style_net.bin").read_bytes()
    (art / "style_net.bin").write_bytes(blob[:len(blob) // 2])
    rc = main(["segment", "--data", str(workspace / "data"),
               "--artifacts", str(art), "--video", "fly-by_000"])
    assert rc == 5
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("net", ["style_net", "segment_net", "bg_encoder"])
def test_segment_layout_not_matching_config_exits_5(workspace, tmp_path,
                                                    capsys, net):
    # a style-type net's stored config says hidden=32 while its vectors
    # are hidden=64; the encoder has a full-width decoder Wx, as encoders
    # written before the decoder's Wx lost its rows do
    art = tmp_path / "art"
    shutil.copytree(workspace / "art", art)
    path = art / f"{net}.bin"
    params = ParamSet.load(path)
    if net == "bg_encoder":
        params = ParamSet({k: np.zeros((features.BG_DIM, v.shape[1]))
                           if k == "dec_Wx" else v
                           for k, v in params.items()}, params.meta)
    else:
        params.meta["config"]["hidden"] = 32
    params.save(path)
    rc = main(["segment", "--data", str(workspace / "data"),
               "--artifacts", str(art), "--video", "fly-by_000"])
    assert rc == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and "does not match" in err


def _net_argv(workspace, command, art, out):
    data = str(workspace / "data")
    return {
        "segment": ["segment", "--data", data, "--artifacts", str(art),
                    "--video", "fly-by_000"],
        "imitate": ["imitate", "--data", data, "--artifacts", str(art),
                    "--video", "fly-by_000", "--out", str(out)],
        "eval": ["eval", "--data", data, "--artifacts", str(art),
                 "--out", str(out)],
        "train": ["train", "--data", data, "--out", str(art)],
        "style": ["train", "--data", data, "--out", str(art),
                  "--stage", "style"],
        "imitation": ["train", "--data", data, "--out", str(art),
                      "--stage", "imitation"],
    }[command]


@pytest.mark.parametrize("command", ["segment", "imitate", "eval", "style",
                                     "imitation"])
def test_swapped_encoders_exit_5(workspace, tmp_path, capsys, command):
    # each encoder is checked against its channel's layout on load
    art, out = tmp_path / "art", tmp_path / "out"
    shutil.copytree(workspace / "art", art)
    fg, bg = art / "fg_encoder.bin", art / "bg_encoder.bin"
    blob = fg.read_bytes()
    fg.write_bytes(bg.read_bytes())
    bg.write_bytes(blob)
    manifest = (art / "manifest.txt").read_bytes()
    assert main(_net_argv(workspace, command, art, out)) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: {fg}") and "does not match" in err
    assert not out.exists()
    assert (art / "manifest.txt").read_bytes() == manifest


@pytest.mark.parametrize("command,net", [("imitate", "imitation_net"),
                                         ("eval", "imitation_net"),
                                         ("eval", "imitation_baseline")])
def test_imitation_net_for_another_style_size_exits_5(workspace, tmp_path,
                                                      capsys, command, net):
    # the style net's feature is 128 wide; this net takes 32
    art, out = tmp_path / "art", tmp_path / "out"
    shutil.copytree(workspace / "art", art)
    init_imitation_net(32, features.EMBED_DIM, 0).save(art / f"{net}.bin")
    assert main(_net_argv(workspace, command, art, out)) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: {art / net}.bin")
    assert "does not match" in err
    assert not out.exists()


@pytest.mark.parametrize("net", ["variants/fg_bg.bin",
                                 "imitation_baseline.bin"])
def test_eval_damaged_net_exits_5_and_writes_nothing(workspace, tmp_path,
                                                     capsys, net):
    art, out = tmp_path / "art", tmp_path / "report"
    shutil.copytree(workspace / "art", art)
    blob = (art / net).read_bytes()
    (art / net).write_bytes(blob[:len(blob) // 2])
    assert main(_net_argv(workspace, "eval", art, out)) == 5
    assert capsys.readouterr().err.startswith(f"error: {art / net}: ")
    assert not out.exists()


def _rewrite(edit):
    """Damage that replaces a file's bytes with edit(bytes)."""
    return lambda path: path.write_bytes(edit(path.read_bytes()))


def _retable(table, edit):
    """Damage that replaces one table of a video file with edit(table);
    the file stays a well-formed container."""
    def damage(path):
        video = ParamSet.load(path)
        tables = {k: video[k] for k in video}
        tables[table] = edit(tables[table])
        ParamSet(tables, video.meta).save(path)
    return damage


def _cut(table, rows=None, cols=None):
    """Damage that keeps only the first rows and cols of one table."""
    return _retable(table, lambda a: a[:rows, :cols])


@pytest.mark.parametrize("damage,why", [
    (_rewrite(lambda blob: blob[:len(blob) // 2]), "truncated"),
    (_rewrite(lambda blob: blob + bytes(8)), "trailing"),
    (_rewrite(lambda blob: b"SMT1" + blob[4:]), "not a skymimic container"),
    pytest.param(_cut("features", cols=100), "do not fit",
                 id="features-100-wide"),
    pytest.param(_cut("features", rows=5), "do not fit",
                 id="features-5-rows"),
    pytest.param(_cut("actions", rows=-1), "do not fit",
                 id="actions-one-row-short"),
    # a corpus written before the validity mask was dropped
    pytest.param(_retable("features",
                          lambda a: np.hstack([a, np.ones((len(a), 64))])),
                 "do not fit",
                 id="features-197-wide-old-format"),
])
def test_segment_damaged_corpus_table_exits_5(workspace, tmp_path, capsys,
                                              damage, why):
    # a video is one file holding its frames, features and actions
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    damage(data / "fly-by_000.bin")
    rc = main(["segment", "--data", str(data),
               "--artifacts", str(workspace / "art"), "--video", "fly-by_000"])
    assert rc == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and why in err


def test_eval_outputs(workspace):
    out = workspace / "report"
    rc = main(["eval", "--data", str(workspace / "data"),
               "--artifacts", str(workspace / "art"), "--out", str(out)])
    assert rc == 0
    for name in ("fg-only", "bg-only", "fg_bg", "fg_bg_att"):
        cm = np.loadtxt(out / f"confusion_{name}.csv", delimiter=",")
        assert cm.shape == (5, 5)
    mse = (out / "imitation_mse.csv").read_text().splitlines()
    assert mse[0] == "model,style,omega_mse,dir_angle_rad,scale_mse"
    assert any(line.startswith("baseline,") for line in mse[1:])
    traces = (out / "attention_traces.csv").read_text().splitlines()
    assert traces[0] == "video_id,style,branch,snippet,beta"
    assert len(traces) > 1



def test_eval_embeds_and_predicts_each_test_video_once(workspace, tmp_path,
                                                       monkeypatch):
    from skymimic import pipeline, stylenet
    calls = {"embed": 0, "predict": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(features, "embed_video",
                        counted("embed", features.embed_video))
    monkeypatch.setattr(pipeline, "embed_video",
                        counted("embed", pipeline.embed_video))
    monkeypatch.setattr(stylenet, "predict_style",
                        counted("predict", stylenet.predict_style))
    assert main(["eval", "--data", str(workspace / "data"), "--artifacts",
                 str(workspace / "art"), "--out", str(tmp_path / "r")]) == 0
    n_test = 7 + 10   # fly-by and orbiting test videos
    assert calls == {"embed": n_test, "predict": 4 * n_test}


def test_eval_variant_under_another_name_exits_5(workspace, tmp_path,
                                                 capsys):
    # eval runs fg-only.bin as the fg-only variant
    art, out = tmp_path / "art", tmp_path / "report"
    shutil.copytree(workspace / "art", art)
    shutil.copyfile(art / "style_net.bin", art / "variants" / "fg-only.bin")
    assert main(_net_argv(workspace, "eval", art, out)) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: {art / 'variants' / 'fg-only.bin'}")
    assert "does not match" in err
    assert not out.exists()


@pytest.mark.parametrize("missing", ["variants", "variants/fg_bg.bin"])
def test_eval_missing_variant_exits_3_and_writes_nothing(workspace, tmp_path,
                                                         capsys, missing):
    art, out = tmp_path / "art", tmp_path / "report"
    shutil.copytree(workspace / "art", art)
    target = art / missing
    if target.is_dir():
        shutil.rmtree(target)
    else:
        target.unlink()
    rc = main(["eval", "--data", str(workspace / "data"),
               "--artifacts", str(art), "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.startswith(
        f"error: missing artifact {art / 'variants'}")
    assert not out.exists()


@pytest.mark.parametrize("option", [["--set", "seed=1"],
                                    ["--config", "experiment.cfg"]])
def test_eval_takes_no_config(workspace, tmp_path, option):
    # eval reads no config value, so it offers no way to set one
    out = tmp_path / "report"
    rc = main(["eval", "--data", str(workspace / "data"),
               "--artifacts", str(workspace / "art"), "--out", str(out)]
              + option)
    assert rc == 2
    assert not out.exists()


def test_segment_command(workspace, capsys):
    rc = main(["segment", "--data", str(workspace / "data"),
               "--artifacts", str(workspace / "art"),
               "--video", "fly-by_000",
               "--curve", str(workspace / "curve.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "peak=" in out
    header = (workspace / "curve.csv").read_text().splitlines()[0]
    assert header.startswith("time_s,")


@pytest.mark.parametrize("threshold", ["nan", "inf", "-0.1", "1.5"])
def test_segment_threshold_outside_unit_interval_exits_2(tmp_path, capsys,
                                                         threshold):
    # refused at parse time: the missing corpus is never reached
    curve = tmp_path / "curve.csv"
    rc = main(["segment", "--data", str(tmp_path / "none"),
               "--artifacts", str(tmp_path / "none"), "--video", "x",
               "--threshold", threshold, "--curve", str(curve)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--threshold" in err and "Traceback" not in err
    assert not curve.exists()


@pytest.mark.parametrize("threshold", ["0", "1"])
def test_segment_threshold_bounds_parse(threshold):
    args = build_parser().parse_args(["segment", "--data", "d",
                                      "--artifacts", "a", "--video", "v",
                                      "--threshold", threshold])
    assert args.threshold == float(threshold)


def test_imitate_dry_run(workspace, capsys):
    rc = main(["imitate", "--data", str(workspace / "data"),
               "--artifacts", str(workspace / "art"),
               "--video", "orbiting_000", "--out",
               str(workspace / "runs"), "--dry-run"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "plan:" in out
    assert not (workspace / "runs").exists()


def test_manifest_reproducible(workspace, tmp_path):
    art2 = tmp_path / "art2"
    rc = main(["train", "--data", str(workspace / "data"),
               "--out", str(art2), "--stage", "autoencoder",
               "--set", "autoencoder_epochs=1"])
    assert rc == 0
    a = (workspace / "art" / "fg_encoder.bin").read_bytes()
    # the module fixture trained with the identical settings
    b = (art2 / "fg_encoder.bin").read_bytes()
    assert a == b


def test_train_manifest_keeps_each_stage_line(workspace, tmp_path):
    # the fixture ran every stage, in order
    lines = (workspace / "art" / "manifest.txt").read_text().splitlines()
    assert lines[0] == f"# skymimic artifacts version={skymimic.__version__}"
    assert [line.split(" ")[0] for line in lines[1:]] == list(STAGES)

    art = tmp_path / "art"

    def train(stage, **sets):
        sets = {"autoencoder_epochs": "1", "style_epochs": "1", **sets}
        argv = ["train", "--data", str(workspace / "data"), "--out",
                str(art), "--stage", stage]
        for kv in sets.items():
            argv += ["--set", "=".join(kv)]
        assert main(argv) == 0
        cfg = ExperimentConfig().updated(sets)
        return f"{stage} config_hash={_config_hash(cfg)} seed={cfg.seed}"

    ae_line = train("autoencoder")
    style_line = train("style", seg_epochs="1")
    assert ae_line.split()[1] != style_line.split()[1]
    first = (art / "manifest.txt").read_bytes()
    assert first.decode().splitlines() == [lines[0], ae_line, style_line]
    train("style", seg_epochs="1")
    assert (art / "manifest.txt").read_bytes() == first


def test_artifact_directory_holds_the_table_nets(workspace):
    # every stage has run: the directory holds each net the table
    # lists, the manifest, each stage's config and each variant's
    # confusion CSV, and no other file; the full variant's net is the
    # style net, written once
    art = workspace / "art"
    want = {net for _, writes in STAGES.values() for net in writes}
    want |= {"manifest.txt", *(f"config_{s}.txt" for s in STAGES)}
    want |= {f"variants/{tag}_confusion.csv" for tag in VARIANT_TAGS.values()}
    assert {p.relative_to(art).as_posix() for p in art.rglob("*")
            if p.is_file()} == want
    assert VARIANT_FILES["fg+bg+att"] == "style_net.bin"


def test_each_stage_writes_the_config_it_ran_with(workspace):
    # the fixture trained every stage with --set overrides: each stage's
    # config file loads as the config it ran with, whose hash is the
    # one on its manifest line
    art = workspace / "art"
    hashes = dict(line.split(" ")[:2] for line in
                  (art / "manifest.txt").read_text().splitlines()[1:])
    for stage in STAGES:
        cfg = ExperimentConfig.load(art / f"config_{stage}.txt")
        assert (cfg.autoencoder_epochs, cfg.imitation_steps) == (1, 10)
        assert hashes[stage] == f"config_hash={_config_hash(cfg)}"
    assert ExperimentConfig().autoencoder_epochs != 1


@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_manifest_write_is_atomic(workspace, tmp_path, monkeypatch, capsys,
                                  command):
    # a manifest is moved into place whole: when the move fails, the
    # command exits 5, the old manifest is intact and no temporary
    # file is left behind
    if command == "gen-data":
        out = tmp_path / "data"
        shutil.copytree(workspace / "data", out)
        argv = ["gen-data", "--out", str(out), "--force", "--styles",
                "orbiting", "--set", "seed=5"]
    else:
        out = tmp_path / "art"
        shutil.copytree(workspace / "art", out)
        argv = ["train", "--data", str(workspace / "data"), "--out",
                str(out), "--stage", "autoencoder",
                "--set", "autoencoder_epochs=1"]
    before = (out / "manifest.txt").read_bytes()
    listing = sorted(os.listdir(out))

    def refuse(src, dst):
        raise OSError(f"cannot move {src} onto {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(argv) == 5
    assert capsys.readouterr().err.startswith("error: cannot move")
    assert (out / "manifest.txt").read_bytes() == before
    assert sorted(os.listdir(out)) == listing


def test_readme_cli_lines_parse():
    """Every `skymimic ...` line of README's CLI block parses."""
    import re
    import shlex
    from pathlib import Path

    from skymimic.cli import build_parser

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n+```sh\n(.*?)```", readme, re.S).group(1)
    lines = [re.sub(r"\s#.*", "", line).replace("<id>", "fly-by_000")
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line) for line in lines if line.strip()]
    assert len(commands) >= 5
    parser = build_parser()
    for argv in commands:
        assert argv[0] == "skymimic"
        args = parser.parse_args(argv[1:])
        assert args.func.__name__ == f"cmd_{argv[1].replace('-', '_')}"
