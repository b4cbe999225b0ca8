"""skymimic benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {train,segment,recapture} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
./src, never from an installed copy, and the command fails without
printing a result when ./src/skymimic is absent.  All files go to a
temporary directory under ./.bench_work that is removed at exit; a
traced run also leaves its spans there.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json; with --trace 1 they are the
per-layer ones, taken from an extra traced pass, plus the tracing
overhead against an untraced pass of the same operations.  The lines
before it give the environment, the workload's own figures and the
recorded (ungated) outcome counts.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1  # at most nproc; one thread keeps runs on a shared box steady
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_norm_ms_p50": "ms",
             "op_norm_ms_p90": "ms"}


class ProgramMissing(RuntimeError):
    pass


@dataclass
class Op:
    seconds: float          # wall time
    problems: list[str]
    error: str | None = None
    extra: dict = field(default_factory=dict)
    norm_ms: float = 0.0    # at the reference speed, see clock.py

    @property
    def failed(self) -> bool:
        return bool(self.problems) or self.error is not None


def pin_blas_threads() -> None:
    """Must run before NumPy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def load_program(root: Path) -> dict:
    """Import skymimic from root/src; returns its modules by name."""
    src = root / "src"
    if not (src / "skymimic" / "__init__.py").is_file():
        raise ProgramMissing(f"no skymimic package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import skymimic
    where = Path(skymimic.__file__).resolve().parent
    if where != (src / "skymimic").resolve():
        raise ProgramMissing(f"skymimic imported from {where}, not {src}")
    names = ["controller", "dataset", "features", "imitation", "pipeline",
             "segmenter", "stylenet", "training"]
    return {n: importlib.import_module(f"skymimic.{n}") for n in names}


def environment(root: Path) -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "commit": commit}


def run_op(workload, k: int, watch) -> Op:
    watch.begin()
    try:
        problems, extra = workload.op(k)
        error = None
    except Exception as e:  # an operation failure, counted and reported
        problems, extra, error = [], {"message": str(e)}, type(e).__name__
    return Op(watch.end(), problems, error, extra)


def measure(workload, watch, seconds: float, min_ops: int, first: int = 0,
            passes: int | None = None, tracer=None) -> list[Op]:
    """Whole passes over the workload's pool, until both `seconds` have
    elapsed and `min_ops` operations ran, or exactly `passes` passes.
    A traced pass re-measures machine speed between operations only, so
    no reference run lands inside a span.  `normalize` fills in norm_ms
    once all of a watch's operations ran."""
    ops: list[Op] = []
    workload.lap = watch.lap if tracer is None else (lambda: None)
    t0 = perf_counter()
    while True:
        for _ in range(workload.pool_size):
            k = first + len(ops)
            if tracer is not None:
                tracer.op = k
            ops.append(run_op(workload, k, watch))
        done = len(ops) // workload.pool_size
        if passes is not None:
            if done >= passes:
                return ops
        elif perf_counter() - t0 >= seconds and len(ops) >= min_ops:
            return ops


def normalize(ops: list[Op], watch) -> None:
    for op, ms in zip(ops, watch.normalized_ms(), strict=True):
        op.norm_ms = ms


def set_up(workload, seed: int, work: Path, repeats: int,
           tracer=None, modules=None) -> list[float]:
    from layers import SETUP_SITES
    from workloads import fresh_dir
    times = []
    for _ in range(repeats):
        if tracer is not None:
            tracer.install(SETUP_SITES, modules)
        t0 = perf_counter()
        try:
            workload.setup(seed, fresh_dir(work / "setup"))
        finally:
            times.append(perf_counter() - t0)
            if tracer is not None:
                tracer.uninstall()
    return times


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q))


def report_failures(ops: list[Op]) -> None:
    bad = [o for o in ops if o.failed]
    for o in bad[:5]:
        why = o.error + ": " + o.extra.get("message", "") if o.error \
            else "; ".join(o.problems)
        print(f"perfbench: operation failed: {why}", file=sys.stderr)
    if len(bad) > 5:
        print(f"perfbench: ... and {len(bad) - 5} more failures",
              file=sys.stderr)


def _natural(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def main(argv=None, sizes=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["train", "segment", "recapture"])
    ap.add_argument("--seed", type=_natural, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    pin_blas_threads()
    try:
        modules = load_program(ROOT)
    except (ProgramMissing, ImportError) as e:
        print(f"perfbench: cannot load the program: {e}", file=sys.stderr)
        return 2
    import workloads
    from clock import Reference, Stopwatch
    from layers import OP_SITES, layer_metrics, metric_units
    from tracer import Tracer

    sizes = sizes or workloads.Sizes()
    workload = workloads.WORKLOADS[args.workload](sizes)
    env = environment(ROOT)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        work = Path(tmp)
        if not args.trace:
            setup_times = set_up(workload, args.seed, work,
                                 sizes.setup_repeats)
            watch = Stopwatch(Reference(*workload.reference_mix))
            ops = measure(workload, watch, args.seconds, workload.min_ops)
            normalize(ops, watch)
            norm = [o.norm_ms for o in ops]
            metrics = {
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "op_norm_ms_p50": percentile(norm, 50),
                "op_norm_ms_p90": percentile(norm, 90),
            }
            units = E2E_UNITS
            print("setup_s runs: " + ", ".join(f"{t:.3f}"
                                               for t in setup_times))
            shown = ops
        else:
            tracer = Tracer()
            set_up(workload, args.seed, work, 1, tracer, modules)
            watch = Stopwatch(Reference(*workload.reference_mix))
            plain = measure(workload, watch, args.seconds / 2, 1)
            tracer.install(OP_SITES, modules)
            try:
                traced = measure(workload, watch, 0, 1, first=len(plain),
                                 passes=1, tracer=tracer)
            finally:
                tracer.uninstall()
            normalize(plain + traced, watch)
            # the same pool entries, untraced and traced
            base = plain[:len(traced)]
            p_plain = statistics.median(o.norm_ms for o in base)
            p_traced = statistics.median(o.norm_ms for o in traced)
            demos = len(traced) if args.workload == "segment" else 0
            metrics = layer_metrics(tracer, demos,
                                    100.0 * (p_traced / p_plain - 1.0))
            units = metric_units()
            spans = ROOT / ".bench_work" / \
                f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(spans)
            print(f"spans: {len(tracer.spans)} written to "
                  f"{spans.relative_to(ROOT)}")
            ops = plain + traced
            shown = plain

    wall = [o.seconds * 1e3 for o in shown]
    print(f"op_ms_p50 {percentile(wall, 50):.6g} ms (wall)")
    print(f"op_ms_p90 {percentile(wall, 90):.6g} ms (wall)")
    print(f"ref_ms_p50 {watch.ref_ms_p50():.6g} ms (reference kernel)")
    for name, (value, unit) in workload.details(shown).items():
        print(f"{name} {value:.6g} {unit}")
    for name, value in workload.outcomes(shown).items():
        print(f"outcome {name} {value}")
    failed = sum(o.failed for o in ops)
    report_failures(ops)
    print(f"ops_attempted {len(ops)} count")
    print(f"ops_failed {failed} count")
    result = {"correct": failed == 0, "attempted": len(ops),
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units if k in metrics}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
