"""Print the resident memory after each step of a benchmark workload, to
show which phase sets a run's peak RSS.

    python tools/rss_phases.py --workload {train_mc,eval_goals,mpc} \
        [--seed N] [--rounds R] [--tiny]

Run from anywhere in a checkout.  Like perfbench/run.py, it holds BLAS to
one thread and pins the process to one CPU.  It then drives
perfbench/workloads.py's `Bench` through its public `setup`, `train_round`,
`eval_round` and `mpc_round`: the set-up reps, then R rounds of the
workload's own phase with the other phases' probe rounds spread evenly
among them, in the order a bench run puts them.  After each step it prints
the step, then VmHWM (the peak so far) and VmRSS from /proc/self/status in
MB.  Compared with a bench run, the process lacks run.py's own imports
(tracing, metrics), so the absolute figures sit a little lower.  Scratch
files go to a temporary directory, removed at exit; nothing is written
under perfbench/.  Exit code 1 if a call failed or an output check did.
"""

from __future__ import annotations

import os

# before numpy loads: one BLAS thread, forced, as run.py does
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def memory_mb() -> tuple:
    """(VmHWM, VmRSS) of this process in MB."""
    fields = {}
    with open("/proc/self/status") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in ("VmHWM", "VmRSS"):
                fields[key] = int(value.split()[0]) / 1024.0  # kB
    return fields["VmHWM"], fields["VmRSS"]


def schedule(own: str, rounds: int, probes) -> list:
    """The phases of `rounds` own rounds with the probe rounds of the other
    phases spread evenly among them, as `Bench.run_window` orders them."""
    steps = [(j / rounds, own) for j in range(rounds)]
    steps += [((i + 0.5) / n, phase) for phase, n in probes if phase != own for i in range(n)]
    return [phase for _, phase in sorted(steps)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="resident memory after each step of a benchmark workload")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rounds", type=int, default=20, help="rounds of the workload's own phase")
    p.add_argument("--tiny", action="store_true", help="the bench's tiny sizes")
    args = p.parse_args(argv)
    if args.seed < 0 or args.rounds < 1:
        p.error("--seed must be >= 0 and --rounds >= 1")

    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sizes = workloads.TINY if args.tiny else workloads.FULL
    print(f"# workload {args.workload} seed {args.seed} rounds {args.rounds}{' tiny' if args.tiny else ''}")
    print("# step VmHWM_MB VmRSS_MB")

    def report(step: str) -> None:
        print("%s %.2f %.2f" % (step, *memory_mb()), flush=True)

    report("start")
    with tempfile.TemporaryDirectory(prefix="rss_phases-") as out:
        bench = workloads.Bench(args.workload, args.seed, sizes, Path(out))
        for rep in range(sizes.setup_reps):
            bench.setup(rep)
            report(f"setup/{rep}")
        rounds = {phase: 0 for phase in workloads.PERIOD}
        run = {"train": bench.train_round, "eval": bench.eval_round, "mpc": bench.mpc_round}
        for phase in schedule(bench.phase, args.rounds, sizes.probe_rounds):
            run[phase](rounds[phase] % workloads.PERIOD[phase])
            report(f"{phase}/{rounds[phase]}")
            rounds[phase] += 1
    for line in bench.errors + bench.check_failures:
        print(f"# problem {line.splitlines()[-1] if line else line}")
    return 1 if bench.failed or bench.check_failures else 0


if __name__ == "__main__":
    sys.exit(main())
