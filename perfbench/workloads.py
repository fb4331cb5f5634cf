"""The benchmark's workloads, driven through llql's public API.

Three closed-loop phases, each a round of calls that starts the next call
only when the previous one has returned:

* ``train``: ``experiments.train_llql_batch`` on mountain car with two seeds
  in one call, then ``experiments.train_ddpg_batch`` for one (seed, reward
  mod) job;
* ``eval``: ``experiments.run_experiment`` once per evaluation mode (greedy,
  constraint, trajectory, adjust, adjust_external) on the set-up model;
* ``mpc``: ``experiments.run_experiment(method="mpc")`` on the set-up model.

A workload runs its own phase for the whole measuring window.  Every run
must report every end-to-end metric, so before the window's main part a
workload also runs a few fixed-size rounds ("probes") of the other two
phases.  The traced run skips the probes: it runs the workload's own phase
in alternating untraced and traced segments, half the window each.

Every call's inputs are a function of the workload seed and of the round
number modulo a short period, so inputs repeat within a run.  Each output
is hashed (training log CSV, model file, evaluation report CSV, none of
which holds wall time), and a repeated input whose hash differs marks the
run incorrect.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import shutil
import signal
import statistics
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Optional

import numpy as np

from llql import baselines, core, envs, experiments, reports

ENV = "mountain_car"
SETUP_SEED = 7
# not used while the benchmark was tuned; check a claimed gain on it too
HELD_OUT_SEED = 97
REWARD_MODS = ("t1", "t2", "t3", "t4", "c1", "c2", "c3", "c4")

PHASE_OF = {"train_mc": "train", "eval_goals": "eval", "mpc": "mpc"}
WORKLOADS = tuple(PHASE_OF)
# rounds after which a phase's inputs repeat
PERIOD = {"train": 2, "eval": 4, "mpc": 4}

EVAL_MODES = ("greedy", "constraint", "trajectory", "adjust", "adjust_external")
PHASE_METRICS = {
    "train": ("train_steps_per_s", "ddpg_train_steps_per_s"),
    "eval": tuple(f"{m}_steps_per_s" for m in EVAL_MODES),
    "mpc": ("mpc_steps_per_s",),
}

# |v| <= 0.02 with margin 0: the KKT synthesis runs on every step with
# v != 0, and binds whenever the greedy action would pass the limit
CONSTRAINT_GOAL = {"kind": "mc_constraint", "bound": 0.02, "margin": 0.0}
# switch position at the left wall: tracking is engaged on every step
TRAJECTORY_GOAL = {"kind": "mc_trajectory", "v_d": 0.025, "switch_position": -1.2}

CHILD_POLICY = Path(__file__).resolve().parent / "child_policy.awk"


@dataclasses.dataclass(frozen=True)
class Sizes:
    setup_horizon: int = 30
    setup_normalizer_samples: int = 20
    setup_reps: int = 5
    train_horizon: int = 20
    train_normalizer_samples: int = 15
    ddpg_horizon: int = 150
    ddpg_normalizer_samples: int = 100
    eval_horizon: int = 150
    eval_runs: int = 2
    mpc_env_horizon: int = 5
    mpc_runs: int = 1
    # None keeps ExperimentSpec's defaults (1000 candidates, 15 steps)
    mpc_candidates: Optional[int] = None
    mpc_plan_horizon: Optional[int] = None
    # rounds of the other phases in a run without tracing
    probe_rounds: tuple = (("train", 5), ("eval", 20), ("mpc", 10))


FULL = Sizes()
# for the smoke test: every code path, in seconds
TINY = Sizes(
    setup_horizon=6, setup_normalizer_samples=4, setup_reps=1,
    train_horizon=6, train_normalizer_samples=4,
    ddpg_horizon=10, ddpg_normalizer_samples=4,
    eval_horizon=5, mpc_env_horizon=2,
    mpc_candidates=20, mpc_plan_horizon=3,
    probe_rounds=(("train", 1), ("eval", 1), ("mpc", 1)),
)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _child_pids() -> set:
    pids: set = set()
    tasks = os.listdir("/proc/self/task")
    found = False
    for task in tasks:
        try:
            with open(f"/proc/self/task/{task}/children") as fh:
                pids.update(int(p) for p in fh.read().split())
            found = True
        except OSError:
            pass
    if found:
        return pids
    me = os.getpid()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            pids.add(int(entry))
    return pids


def reap_children() -> int:
    """Stop and wait for every child of this process; returns how many."""
    pids = _child_pids()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return len(pids)


class Stats:
    """Per-call step rates and totals for one measuring segment."""

    def __init__(self):
        self.rates = defaultdict(list)
        self.steps = defaultdict(int)
        self.seconds = defaultdict(float)

    def add(self, metric: str, steps: int, seconds: float) -> None:
        self.rates[metric].append(steps / seconds)
        self.steps[metric] += steps
        self.seconds[metric] += seconds

    def median_rate(self, metric: str) -> float:
        return statistics.median(self.rates[metric]) if self.rates[metric] else 0.0

    def pooled_rate(self, metrics) -> float:
        steps = sum(self.steps[m] for m in metrics)
        seconds = sum(self.seconds[m] for m in metrics)
        return steps / seconds if seconds > 0 else 0.0


class Bench:
    """One benchmark run: set-up, closed-loop rounds, checks and digests."""

    def __init__(self, workload: str, seed: int, sizes: Sizes, out_dir: Path, tracer=None):
        self.phase = PHASE_OF[workload]
        self.seed = seed
        self.sizes = sizes
        self.out = out_dir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.check_failures: list = []
        self.digests: dict = {}
        self.children_reaped = 0
        self.setup_seconds: list = []
        self.model_path: Optional[Path] = None
        self.dtype: Optional[str] = None
        self.stats = Stats()
        self._run_id = 0
        self._rounds = {phase: 0 for phase in PERIOD}

    # -- helpers -------------------------------------------------------------

    def _fresh_dir(self, name: str) -> Path:
        path = self.out / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def _begin(self) -> None:
        """Mark the spans of the next call as one run."""
        self._run_id += 1
        if self.tracer is not None:
            self.tracer.run_id = self._run_id

    def _checking(self) -> None:
        """Spans recorded while checking outputs get run id -1 (not measured)."""
        if self.tracer is not None:
            self.tracer.run_id = -1

    def _call(self, label: str, n_ops: int, fn):
        """Run one closed-loop call.  Returns (result or None, seconds)."""
        self.attempted += n_ops
        self._begin()
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:  # the run keeps going; the failure is counted and kept
            result = None
            self.failed += n_ops
            self.errors.append(f"{label}: {traceback.format_exc()}")
        seconds = time.perf_counter() - t0
        self._checking()
        self.children_reaped += reap_children()
        return result, seconds

    def _check(self, ok: bool, what: str) -> None:
        if not ok:
            self.check_failures.append(what)

    def _digest(self, key: str, path) -> None:
        digest = sha256_file(path)
        previous = self.digests.setdefault(key, digest)
        self._check(previous == digest, f"{key}: output differs from an earlier call with the same input")

    # -- set-up ---------------------------------------------------------------

    def setup(self, rep: int) -> None:
        """Train, save and reload the fixed-seed model used by eval and mpc."""
        sz = self.sizes
        path = self._fresh_dir(f"setup{rep}") / "model.model"
        self.attempted += 1
        self._begin()
        t0 = time.perf_counter()
        env = envs.make_env(ENV, horizon=sz.setup_horizon)
        cfg = core.TrainConfig(
            episodes=1, seed=SETUP_SEED, normalizer_samples=sz.setup_normalizer_samples
        )
        result = core.train(env, cfg)
        core.save_llql_model(
            path, result.dynamics, result.qmodel,
            meta={"env": env.spec.to_dict(), "config": cfg.to_dict(), "episode": cfg.episodes},
        )
        dyn, q, _ = core.load_llql_model(path)
        self.setup_seconds.append(time.perf_counter() - t0)
        self._checking()
        self._check_log(result.log, "setup", llql=True)
        x = np.array([-0.5, 0.01])
        same = all(
            np.array_equal(a.forward(result.dynamics.normalizer.normalize(x)), b.forward(dyn.normalizer.normalize(x)))
            for a, b in (
                (result.dynamics.f_net, dyn.f_net), (result.dynamics.g_net, dyn.g_net),
                (result.qmodel.v_net, q.v_net), (result.qmodel.h_net, q.h_net), (result.qmodel.d_net, q.d_net),
            )
        )
        self._check(same, "setup: the reloaded model's forward outputs differ from the trained model's")
        self._digest("setup/model", path)
        self.model_path = path
        self.dtype = str(dyn.f_net.dtype)

    def _check_log(self, log, label: str, llql: bool) -> None:
        # DDPG logs carry no short-term loss (l1 is NaN by design)
        for row in log:
            losses = (row.l1, row.l2) if llql else (row.l2,)
            self._check(all(math.isfinite(v) for v in losses), f"{label}: non-finite training loss in {row}")

    def _check_rows(self, rows, runs: int, horizon: int, label: str) -> int:
        self._check(len(rows) == runs, f"{label}: {len(rows)} report rows, expected {runs}")
        for r in rows:
            self._check(1 <= r.steps <= horizon, f"{label}: steps {r.steps} outside [1, {horizon}]")
            self._check(math.isfinite(r.cum_reward), f"{label}: non-finite cum_reward {r.cum_reward}")
        return sum(r.steps for r in rows)

    # -- phases ---------------------------------------------------------------

    def train_round(self, k: int) -> None:
        sz = self.sizes
        seeds = [self.seed * 100 + 2 * k, self.seed * 100 + 2 * k + 1]
        cache = self._fresh_dir("train-cache")
        cfg = core.TrainConfig(episodes=1, normalizer_samples=sz.train_normalizer_samples)
        runs, seconds = self._call(
            "train_llql_batch", len(seeds),
            lambda: experiments.train_llql_batch(ENV, cfg, seeds, cache, workers=1, horizon=sz.train_horizon),
        )
        if runs is not None:
            steps = sum(row.steps for run in runs for row in run.log)
            self.stats.add("train_steps_per_s", steps, seconds)
            for run in runs:
                label = f"llql/{run.seed}"
                self._check_log(run.log, label, llql=True)
                _, q, _ = core.load_llql_model(run.model_path)
                self._check(q is not None, f"{label}: saved model reloads without a value model")
                csv = cache / f"{run.seed}.log.csv"
                core.log_to_csv(run.log, csv)
                self._digest(f"{label}/log", csv)
                self._digest(f"{label}/model", run.model_path)
        shutil.rmtree(cache, ignore_errors=True)

        seed = self.seed * 100 + k
        mod = REWARD_MODS[(self.seed + k) % len(REWARD_MODS)]
        cache = self._fresh_dir("train-cache")
        dcfg = baselines.DdpgConfig(episodes=1, normalizer_samples=sz.ddpg_normalizer_samples)
        out, seconds = self._call(
            "train_ddpg_batch", 1,
            lambda: experiments.train_ddpg_batch(ENV, dcfg, [(seed, mod)], cache, workers=1, horizon=sz.ddpg_horizon),
        )
        if out is not None:
            run = out[(seed, mod)]
            label = f"ddpg/{seed}/{mod}"
            self.stats.add("ddpg_train_steps_per_s", sum(row.steps for row in run.log), seconds)
            self._check_log(run.log, label, llql=False)
            baselines.load_ddpg_model(run.model_path)
            csv = cache / "log.csv"
            core.log_to_csv(run.log, csv)
            self._digest(f"{label}/log", csv)
            self._digest(f"{label}/model", run.model_path)
        shutil.rmtree(cache, ignore_errors=True)

    def _eval_spec(self, mode: str, seed0: int) -> experiments.ExperimentSpec:
        model = str(self.model_path)
        common = dict(env=ENV, eval_runs=self.sizes.eval_runs, eval_seed0=seed0, horizon=self.sizes.eval_horizon)
        if mode == "greedy":
            return experiments.ExperimentSpec(method="llql", model_path=model, **common)
        if mode == "constraint":
            return experiments.ExperimentSpec(method="llql", model_path=model, goal=CONSTRAINT_GOAL, **common)
        if mode == "trajectory":
            return experiments.ExperimentSpec(method="llql", model_path=model, goal=TRAJECTORY_GOAL, **common)
        if mode == "adjust":
            return experiments.ExperimentSpec(
                method="adjust", policy_path=model, dynamics_path=model, goal=CONSTRAINT_GOAL, **common
            )
        if mode == "adjust_external":
            return experiments.ExperimentSpec(
                method="adjust", policy_path=f"cmd:{child_policy_command()}", dynamics_path=model,
                goal=TRAJECTORY_GOAL, **common,
            )
        raise ValueError(mode)

    def _report_round(self, label: str, metric: str, spec, horizon: int) -> None:
        report, seconds = self._call(label, spec.eval_runs, lambda: experiments.run_experiment(spec))
        if report is None:
            return
        steps = self._check_rows(report.rows, spec.eval_runs, horizon, label)
        self.stats.add(metric, steps, seconds)
        path = self.out / "reports" / f"{label.replace('/', '-')}.csv"
        path.parent.mkdir(exist_ok=True)
        reports.write_report_csv(report, path)
        self._digest(label, path)

    def eval_round(self, k: int) -> None:
        seed0 = 10_000 + 1000 * self.seed + 10 * k
        for mode in EVAL_MODES:
            self._report_round(f"{mode}/{seed0}", f"{mode}_steps_per_s", self._eval_spec(mode, seed0), self.sizes.eval_horizon)

    def mpc_round(self, k: int) -> None:
        sz = self.sizes
        seed0 = 20_000 + 1000 * self.seed + 10 * k
        extra = {}
        if sz.mpc_candidates is not None:
            extra["mpc_candidates"] = sz.mpc_candidates
        if sz.mpc_plan_horizon is not None:
            extra["mpc_horizon"] = sz.mpc_plan_horizon
        spec = experiments.ExperimentSpec(
            env=ENV, method="mpc", model_path=str(self.model_path),
            eval_runs=sz.mpc_runs, eval_seed0=seed0, horizon=sz.mpc_env_horizon, **extra,
        )
        self._report_round(f"mpc/{seed0}", "mpc_steps_per_s", spec, sz.mpc_env_horizon)

    def _round(self, phase: str) -> None:
        k = self._rounds[phase] % PERIOD[phase]
        self._rounds[phase] += 1
        {"train": self.train_round, "eval": self.eval_round, "mpc": self.mpc_round}[phase](k)

    def run_window(self, seconds: float, probes=()) -> None:
        """Closed loop for `seconds`: the workload's own phase round after
        round (at least one), with the probe rounds spread evenly over the
        window so that they sample the same machine conditions.  Probe
        rounds are fixed work and all run, even past the window."""
        schedule = sorted(
            ((i + 0.5) / n, phase) for phase, n in probes for i in range(n)
        )
        t0 = time.perf_counter()
        own_rounds = 0
        while True:
            elapsed = (time.perf_counter() - t0) / seconds
            if schedule and elapsed >= schedule[0][0]:
                self._round(schedule.pop(0)[1])
            elif elapsed < 1.0 or own_rounds == 0:
                self._round(self.phase)
                own_rounds += 1
            elif schedule:
                self._round(schedule.pop(0)[1])
            else:
                return

    @property
    def correct(self) -> bool:
        return not self.check_failures


def child_policy_command() -> str:
    """argv (space separated) of the bench-owned JSON-lines policy process.
    `-W interactive` makes mawk read its input a line at a time."""
    awk = shutil.which("mawk")
    if awk is None:
        raise FileNotFoundError("mawk is needed for the adjust_external policy process")
    cmd = f"{awk} -W interactive -f {CHILD_POLICY}"
    if len(cmd.split()) != 5:
        raise ValueError(f"paths with whitespace cannot be passed as a cmd: policy: {cmd!r}")
    return cmd
