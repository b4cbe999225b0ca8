import os
import shutil

import numpy as np
import pytest

from skymimic import features
from skymimic.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny two-style corpus trained end to end at smoke settings."""
    root = tmp_path_factory.mktemp("cli")
    data, art = root / "data", root / "art"
    fast = ["--set", "autoencoder_epochs=1", "--set", "style_epochs=1",
            "--set", "imitation_epochs=1", "--set", "imitation_steps=10"]
    assert main(["gen-data", "--out", str(data),
                 "--styles", "fly-by,orbiting", "--set", "seed=5"]) == 0
    for stage in ("autoencoder", "style", "imitation", "baseline"):
        assert main(["train", "--data", str(data), "--out", str(art),
                     "--stage", stage] + fast) == 0
    return root


def test_gen_data_refuses_nonempty(workspace):
    assert main(["gen-data", "--out", str(workspace / "data")]) == 2


def test_gen_data_rejects_unknown_style(tmp_path):
    assert main(["gen-data", "--out", str(tmp_path / "d"),
                 "--styles", "sideways"]) == 2


@pytest.mark.parametrize("override", ["duration_min=1", "focal=-1",
                                      "subject_height=-1",
                                      "subject_height=0"])
def test_gen_data_rejects_bad_config_value(tmp_path, capsys, override):
    out = tmp_path / "d"
    assert main(["gen-data", "--out", str(out), "--set", override]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_gen_data_manifest(workspace):
    lines = (workspace / "data" / "manifest.txt").read_text().splitlines()
    assert lines[0].startswith("# skymimic corpus")
    assert len(lines) == 1 + 22 + 29


def test_train_missing_dependency(workspace, tmp_path):
    rc = main(["train", "--data", str(workspace / "data"),
               "--out", str(tmp_path / "empty"), "--stage", "style"])
    assert rc == 3


@pytest.mark.parametrize("command", ["train", "eval", "segment",
                                     "imitate"])
def test_missing_corpus_exits_3_and_writes_nothing(workspace, tmp_path,
                                                   capsys, command):
    data, art = workspace / "data", str(workspace / "art")
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
    }[command]
    assert main([command] + argv) == 3
    assert capsys.readouterr().err.startswith("error: no ")
    assert not out.exists()


def test_train_unknown_config_key(workspace, tmp_path):
    rc = main(["train", "--data", str(workspace / "data"),
               "--out", str(tmp_path / "art"), "--stage", "autoencoder",
               "--set", "bogus=1"])
    assert rc == 2


def test_train_divergence_exits_4(workspace, tmp_path, monkeypatch, capsys):
    def diverged(batch, p):
        return float("nan"), None, None

    monkeypatch.setattr(features, "_ae_forward", diverged)
    out = tmp_path / "art"
    rc = main(["train", "--data", str(workspace / "data"), "--out",
               str(out), "--stage", "autoencoder"])
    assert rc == 4
    assert capsys.readouterr().err.startswith("error: autoencoder (fg)")
    assert not (out / "fg_encoder.bin").exists()


def test_segment_truncated_artifact_exits_5(workspace, tmp_path, capsys):
    art = tmp_path / "art"
    shutil.copytree(workspace / "art", art)
    blob = (art / "style_net.bin").read_bytes()
    (art / "style_net.bin").write_bytes(blob[:len(blob) // 2])
    rc = main(["segment", "--data", str(workspace / "data"),
               "--artifacts", str(art), "--video", "fly-by_000"])
    assert rc == 5
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("damage,why", [
    (lambda blob: blob[:len(blob) // 2], "truncated"),
    (lambda blob: blob + bytes(8), "trailing"),
])
def test_segment_damaged_corpus_table_exits_5(workspace, tmp_path, capsys,
                                              damage, why):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    table = data / "fly-by_000" / "features.bin"
    table.write_bytes(damage(table.read_bytes()))
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
