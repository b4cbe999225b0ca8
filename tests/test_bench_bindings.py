"""The benchmark's layer sites and trainer taps bind module attributes
by name, and skip a name that is gone: a renamed function would drop
its metrics, or the train workload's loss checks, without an error.
These tests read the two tables from perfbench/ and resolve every
entry on the program's modules."""

import importlib
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bench_module(name: str):
    sys.path.insert(0, str(_BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(_BENCH))


def _resolve(dotted: str, attr: str):
    """`module[.Class]` under skymimic, then attr; None when absent."""
    head, *rest = dotted.split(".")
    obj = importlib.import_module(f"skymimic.{head}")
    for part in rest + [attr]:
        obj = getattr(obj, part, None)
    return obj


@pytest.mark.parametrize(
    "site", _bench_module("layers").OP_SITES,
    ids=lambda s: f"{s.module}.{s.attr}")
def test_layer_site_binds_a_callable(site):
    assert callable(_resolve(site.module, site.attr)), \
        f"{site.module}.{site.attr} is gone; {site.name} would be omitted"


_TAPS = _bench_module("workloads").Tap.SITES


@pytest.mark.parametrize("stage", sorted(_TAPS))
def test_trainer_tap_binds_a_callable(stage):
    module, attr = _TAPS[stage]
    assert callable(_resolve(module, attr)), \
        f"{module}.{attr} is gone; the {stage} loss checks would be skipped"
