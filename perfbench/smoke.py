"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/smoke.py

Runs every workload untraced and traced with tiny corpora and checks
that each metric BENCHMARK.json names is printed with its unit, that the
workload's own figures are printed, and that the command refuses to run
without the program's sources.  It checks the output's form only: at
this size training is too short for the loss checks to be meaningful.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_program(run.ROOT)
import workloads  # noqa: E402  (needs the program on sys.path)

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = workloads.Sizes(
    train_videos=3, train_test_every=0, train_ae_epochs=2,
    train_style_epochs=2, train_seg_epochs=2, train_imitation_epochs=2,
    train_imitation_steps=5, bundle_videos=2, bundle_ae_epochs=1,
    bundle_style_epochs=1, bundle_seg_epochs=1, bundle_imitation_epochs=1,
    bundle_imitation_steps=5, segment_demos=3, recapture_demos=3,
    min_ops=3, setup_repeats=2)

FIGURES = {"train": ["train_s"],
           "segment": ["segment_ms_p50", "segment_ms_p90"],
           "recapture": ["recapture_ms_p50", "recapture_ms_p90",
                         "recognize_ms_p50", "control_steps_per_s"]}


def _run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "5",
                     "--seconds", "0", "--trace", str(trace)], sizes=TINY)
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    return lines, result


@pytest.mark.parametrize("workload", sorted(FIGURES))
def test_end_to_end_metrics(capsys, workload):
    lines, result = _run(capsys, workload, 0)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[0] for line in lines[:-1] if line.strip()}
    for name in FIGURES[workload] + ["ops_attempted", "ops_failed", "env"]:
        assert name in printed, name
    env = next(line for line in lines if line.startswith("env "))
    for key in ("nproc=", "python=", "numpy=", "blas=", "blas_threads=",
                "commit="):
        assert key in env


@pytest.mark.parametrize("workload", sorted(FIGURES))
def test_per_layer_metrics(capsys, workload):
    _, result = _run(capsys, workload, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected


def test_refuses_without_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "segment",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
