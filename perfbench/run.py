"""Benchmark entry point.

    python3 perfbench/run.py --workload {train_mc,eval_goals,mpc} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout: the harness imports llql from ./src and
writes its scratch files under ./.perfbench_out/<workload>/.  BLAS is held
to one thread.  With --trace 0 the last stdout line is a JSON object with
every end-to-end metric; with --trace 1 it holds every per-layer metric,
from spans recorded around llql's public functions.  Lines before it,
starting with '#', describe the run environment and the output digests;
the full record (errors, per-call rates, digests) goes to run.json in the
output directory.  Exit codes: 0 success, 2 usage or missing sources,
3 the set-up failed.
"""

import os

# before numpy loads: one BLAS thread, as the llql CLI does (but forced,
# so an inherited setting cannot change what is measured)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import json
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("train_mc", "eval_goals", "mpc")
TRACE_SEGMENTS = 6


def parse_args(argv):
    p = argparse.ArgumentParser(description="llql benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_ticks() -> tuple:
    """(steal, total) clock ticks of all CPUs from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def run_environment(np, dtype: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "dtype": dtype,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "llql" / "__init__.py").is_file():
        print(f"error: no llql sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np

    import llql
    import metrics
    import tracing
    import workloads

    if Path(llql.__file__).resolve().parent != SRC / "llql":
        print(f"error: imported llql from {llql.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    # one CPU for the whole run: the workloads are single-threaded, and the
    # external policy child (which inherits this) then answers without a
    # cross-CPU wake-up, whose latency swings widely on a shared VM
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    sizes = workloads.TINY if args.tiny else workloads.FULL
    out_dir = OUT / (args.workload + ("-tiny" if args.tiny else ""))
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    tracer = tracing.Tracer() if args.trace else None
    bench = workloads.Bench(args.workload, args.seed, sizes, out_dir, tracer)
    phase = bench.phase
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "held_out_seed": workloads.HELD_OUT_SEED}
    try:
        if tracer is None:
            for rep in range(sizes.setup_reps):
                bench.setup(rep)
        else:
            with tracer:
                bench.setup(0)
    except Exception:
        print(f"error: set-up failed\n{traceback.format_exc()}", file=sys.stderr)
        return 3

    t_start = time.perf_counter()
    ticks_start = cpu_ticks()
    if tracer is None:
        bench.run_window(args.seconds, [(p, n) for p, n in sizes.probe_rounds if p != phase])
        stats = bench.stats
        values = {
            "setup_s": float(np.median(bench.setup_seconds)),
            "completed_ratio": (bench.attempted - bench.failed) / bench.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for metric_names in workloads.PHASE_METRICS.values():
            for name in metric_names:
                values[name] = stats.median_rate(name)
        result_metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in metrics.END_TO_END}
        record["rates"] = dict(stats.rates)
    else:
        # untraced and traced segments alternate, so that a drift in machine
        # speed during the run largely cancels out of the overhead ratio
        untraced, traced = workloads.Stats(), workloads.Stats()
        for i in range(TRACE_SEGMENTS):
            bench.stats = traced if i % 2 else untraced
            with tracer if i % 2 else contextlib.nullcontext():
                bench.run_window(args.seconds / TRACE_SEGMENTS)
        own = workloads.PHASE_METRICS[phase]
        overhead = untraced.pooled_rate(own) / traced.pooled_rate(own) - 1.0
        extra = {"trace.overhead_ratio": overhead, "trace.missing_names": len(tracer.missing),
                 "experiments.children_reaped": bench.children_reaped}
        layer = tracer.per_layer_metrics([m for m in metrics.PER_LAYER if m[0] not in extra])
        result_metrics = {name: layer.get(name) or {"value": float(extra[name]), "unit": unit}
                          for name, unit, _ in metrics.PER_LAYER}
        tracer.write_spans(out_dir / "spans.csv")
        record.update(missing=tracer.missing, spans=len(tracer),
                      untraced_rates=dict(untraced.rates), traced_rates=dict(traced.rates))

    ticks_end = cpu_ticks()
    steal, total = ticks_end[0] - ticks_start[0], ticks_end[1] - ticks_start[1]
    record.update(
        environment=run_environment(np, bench.dtype),
        # share of machine CPU time the hypervisor gave to other guests
        steal_share=steal / total if total else None,
        measured_seconds=time.perf_counter() - t_start,
        setup_seconds=bench.setup_seconds,
        attempted=bench.attempted, failed=bench.failed, errors=bench.errors,
        check_failures=bench.check_failures, children_reaped=bench.children_reaped,
        digests=bench.digests, metrics=result_metrics,
    )
    (out_dir / "run.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"# environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"# held-out seed {workloads.HELD_OUT_SEED}; children reaped {bench.children_reaped}")
    for key in sorted(bench.digests):
        print(f"# digest {key} {bench.digests[key]}")
    for line in bench.errors + bench.check_failures:
        print(f"# problem {line.splitlines()[-1] if line else line}")
    if tracer is not None and tracer.missing:
        print(f"# missing trace targets {' '.join(tracer.missing)}")
    print(json.dumps({"correct": bench.correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
