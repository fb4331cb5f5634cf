"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload eval_goals --seeds 0-9 [--seconds 30] [--trace 0]

Runs the benchmark once per seed, one run at a time, and prints for each
metric the median over the runs and the spread: the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of the
median.  Also prints the bound from BENCHMARK.json and whether the spread
is below a third of it, and saves every run's result line to
.perfbench_out/spread-<workload>.jsonl, with `digest`: a sha256 over the
run's output digests, which two runs of one commit with one seed share.
Each run's full record (run.json, with the per-call rates) is kept as
.perfbench_out/spread-<workload>/<seed>.json.
"""

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="0-9", type=parse_seeds)
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results = []
    log = ROOT / ".perfbench_out" / f"spread-{args.workload}.jsonl"
    records = log.with_suffix("")
    shutil.rmtree(records, ignore_errors=True)
    records.mkdir(parents=True)
    with open(log, "w") as fh:
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            results.append(result)
            shutil.copy(ROOT / ".perfbench_out" / args.workload / "run.json", records / f"{seed}.json")
            digest = hashlib.sha256("\n".join(sorted(l for l in lines if l.startswith("# digest "))).encode()).hexdigest()
            fh.write(json.dumps({"seed": seed, "digest": digest, **result}) + "\n")
            print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} digest={digest[:16]}", flush=True)

    print(f"{'metric':40s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
        print(f"{name:40s} {median:14.4f} {spread:8.4f} {bound if bound is not None else '':>6} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
