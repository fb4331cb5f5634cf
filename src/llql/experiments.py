"""Experiment orchestration: evaluation metrics, comparisons, and sweeps.

Evaluation rolls a controller through seeded episodes and computes the
report columns: steps to goal, success, velocity error against a desired
value, hazard-violation step counts, and cumulative (raw) reward.  The
comparison builders train the baseline variants, the sweep driver reruns a
trained model across a range of short-term goal values, and everything is
deterministic per seed so parallel and serial execution agree.  The
process pool that trains in parallel is imported only when a batch runs
with `workers` > 1, so a process that never runs one does not load
`multiprocessing`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import ConfigError, baselines, control, core
from .envs import UPRIGHT_COS, make_env
from .nets import write_atomic


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class EvalRow:
    """One run's report columns.  The aggregates count runs and successes and
    hold mean_<stat> and std_<stat> of each column with a `stat` name."""

    seed: int
    steps: int = dataclasses.field(metadata={"stat": "steps"})
    success: bool
    vel_error: Optional[float] = dataclasses.field(metadata={"stat": "vel_error"})  # None: no scored state
    s_out: int = dataclasses.field(metadata={"stat": "s_out"})
    cum_reward: float = dataclasses.field(metadata={"stat": "reward"})


@dataclasses.dataclass
class EvalReport:
    rows: list
    env: dict
    meta: dict

    def aggregates(self) -> dict:
        return compute_aggregates(self.rows)


def _mean_std(values) -> tuple:
    if not values:
        return float("nan"), float("nan")
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def compute_aggregates(rows) -> dict:
    agg = {"runs": len(rows), "success": sum(1 for r in rows if r.success)}
    for field in dataclasses.fields(EvalRow):
        if "stat" in field.metadata:
            values = [v for v in (getattr(r, field.name) for r in rows) if v is not None]
            name = field.metadata["stat"]
            agg[f"mean_{name}"], agg[f"std_{name}"] = _mean_std(values)
    return agg


def evaluate(
    env,
    controller: Callable,
    *,
    runs: int = 10,
    seed0: int = 10_000,
    hazard_limit: Optional[float] = None,
    vel_target: Optional[float] = None,
) -> list:
    """Run seeded evaluation episodes in lockstep and compute per-run rows.

    Run j starts from `env.reset(seed0 + j)` and owns a generator seeded
    by that seed.  All live runs step together: `controller(X, k, rngs)`
    returns the actions (n, a) at the rows X (n, s) of the live runs'
    states at step k, given their generators, and `env.step_batch` steps
    every row; a run that reaches the goal leaves the batch.  Each op
    computes a row as it would alone, so every row is the one a run
    stepped alone gives, bit for bit.
    Velocity error is the mean of |state[env.VELOCITY] - vel_target| over
    the visited states that `env.scored` accepts, None when there are none;
    s_out counts the visited states with |state[env.VELOCITY]| > hazard_limit.
    """
    seeds = [seed0 + j for j in range(runs)]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    X = np.array([env.reset(seed) for seed in seeds]).reshape(runs, env.state_dim)
    live = list(range(runs))
    steps, success, s_out = [env.horizon] * runs, [False] * runs, [0] * runs
    total = [0.0] * runs
    vel_errors = [[] for _ in seeds]
    for k in range(env.horizon if runs else 0):
        X, rewards, reached = env.step_batch(X, controller(X, k, [rngs[j] for j in live]))
        scored = env.scored(X).tolist() if vel_target is not None else [False] * len(live)
        for j, reward, v, score, done in zip(live, rewards.tolist(), X[:, env.VELOCITY].tolist(), scored,
                                             reached.tolist()):
            total[j] += reward
            if hazard_limit is not None and abs(v) > hazard_limit:
                s_out[j] += 1
            if score:
                vel_errors[j].append(abs(v - vel_target))
            if done:
                steps[j], success[j] = k + 1, True
        if reached.any():
            X, live = X[~reached], [j for j, done in zip(live, reached) if not done]
            if not live:
                break
    return [
        EvalRow(seed, steps[j], success[j], float(np.mean(vel_errors[j])) if vel_errors[j] else None, s_out[j],
                total[j])
        for j, seed in enumerate(seeds)
    ]


# ---------------------------------------------------------------------------
# Benchmark goal factories
# ---------------------------------------------------------------------------

def mc_velocity_goal(
    v_d: float = 0.025,
    gamma1: float = 1.0,
    gamma2: float = 2000.0,
    switch_position: float = 0.0,
) -> control.TrajectoryGoal:
    """Reach the hilltop at the desired velocity: track [p + v_d, v_d] once
    the car's position passes `switch_position` (long-term policy before)."""

    def target(x, k):
        out = np.array(x, dtype=np.float64)
        out[..., 0] += v_d
        out[..., 1] = v_d
        return out

    return control.TrajectoryGoal(
        target, gamma1, gamma2, active=lambda x, k: x[..., 0] >= switch_position
    )


def mc_speed_limit_goal(bound: float = 0.033, margin: Optional[float] = None) -> control.SymmetricConstraintGoal:
    """Keep |velocity| at or below `bound`, engaging once |v| exceeds `margin`
    (by default the bound itself)."""
    return control.SymmetricConstraintGoal(state_index=1, bound=bound, margin=margin)


def pendulum_upright_velocity_goal(
    gamma1: float = 1.0,
    gamma2: float = 100.0,
    cos_threshold: float = UPRIGHT_COS,
    v_d: float = 0.0,
) -> control.TrajectoryGoal:
    """Drive angular velocity to v_d whenever the pendulum is near upright."""

    def target(x, k):
        out = np.array(x, dtype=np.float64)
        out[..., 2] = v_d
        return out

    return control.TrajectoryGoal(
        target, gamma1, gamma2, active=lambda x, k: x[..., 0] > cos_threshold
    )


def pendulum_speed_limit_goal(bound: float = 5.8, margin: float = 0.0) -> control.SymmetricConstraintGoal:
    """Keep |angular velocity| at or below `bound`; margin 0 keeps the
    projection engaged every step (it is a no-op while the prediction
    already satisfies the bound)."""
    return control.SymmetricConstraintGoal(state_index=2, bound=bound, margin=margin)


GOALS = {
    "mc_trajectory": mc_velocity_goal,
    "mc_constraint": mc_speed_limit_goal,
    "pendulum_trajectory": pendulum_upright_velocity_goal,
    "pendulum_constraint": pendulum_speed_limit_goal,
}


def goal_params(d: dict) -> dict:
    """The flat goal description `d` with every parameter its factory leaves
    out filled in from the factory's signature, which holds the defaults;
    ConfigError for an unknown kind or a parameter the factory does not
    take."""
    kind = d["kind"]
    if kind not in GOALS:
        raise ConfigError(f"unknown goal kind {kind!r}")
    params = inspect.signature(GOALS[kind]).parameters
    unknown = sorted(set(d) - {"kind", *params})
    if unknown:
        raise ConfigError(f"goal {kind} takes no {', '.join(unknown)}; it takes {', '.join(params)}")
    return {"kind": kind, **{name: d.get(name, p.default) for name, p in params.items()}}


def goal_from_dict(d: Optional[dict]):
    """Build a goal from its flat description (as used by the CLI/config)."""
    if d is None:
        return None
    params = goal_params(d)
    return GOALS[params.pop("kind")](**params)


# ---------------------------------------------------------------------------
# Cached training (worker-pool friendly)
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class TrainedRun:
    seed: int
    model_path: str
    final_reward: float
    log: list


def _config_key(prefix: str, payload: dict) -> str:
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]
    return f"{prefix}-{digest}"


def train_and_save(env, method: str, config, model_path, meta: dict, *, reward_mod=None,
                   policy=None, checkpoint_dir=None) -> list:
    """Train one model and write it to `model_path`; returns its episode log.

    `method` is "llql" (TrainConfig, optional checkpoints), "dynamics"
    (TrainConfig, data collected by `policy`, which it requires: a callable,
    or a path or "cmd:<argv>" that `load_policy` loads) or "ddpg"
    (DdpgConfig, optional reward-mod id, recorded in the file).  A reward
    mod for another method than ddpg, or a policy for another than
    dynamics, is a ConfigError, raised before a policy is loaded.  The
    file's metadata is the env spec and config plus `meta`.
    """
    if method not in ("llql", "dynamics", "ddpg"):
        raise ConfigError(f"unknown training method {method!r}")
    if reward_mod is not None and method != "ddpg":
        raise ConfigError(f"method {method} applies no reward mod; only ddpg trains on a shaped reward")
    if policy is None and method == "dynamics":
        raise ConfigError("method dynamics needs a policy to collect its data")
    if policy is not None and method != "dynamics":
        raise ConfigError(f"method {method} takes no policy; only dynamics collects its data with one")
    if isinstance(policy, str):
        policy = load_policy(policy, env)
    meta = {"env": env.spec.to_dict(), "config": config.to_dict(), **meta}
    if method == "ddpg":
        mod = baselines.get_reward_mod(reward_mod) if reward_mod else None
        model, log = baselines.ddpg_train(env, config, mod)
        baselines.save_ddpg_model(model_path, model, meta={**meta, "reward_mod": reward_mod})
        return log
    if method == "llql":
        result = core.train(env, config, checkpoint_dir=checkpoint_dir)
    else:
        result = core.train_dynamics(env, config, policy)
    core.save_llql_model(model_path, result.dynamics, result.qmodel, meta=meta)
    return result.log


def _train_job(job: dict) -> None:
    env = make_env(job["env"], goal_position=job["goal_position"], horizon=job["horizon"])
    cfg, stem = job["config"], Path(job["stem"])
    meta = {"episode": cfg.episodes} if job["method"] == "llql" else {}
    log = train_and_save(env, job["method"], cfg, stem.with_suffix(".model"), meta, reward_mod=job["mod"])
    # the log lands last: a model without its log is not a cache entry
    write_atomic(stem.with_suffix(".log.json"), [json.dumps([dataclasses.asdict(r) for r in log]).encode()])


def _train_cached(method, env_name, config, variants, cache_dir, workers, goal_position, horizon) -> dict:
    """Train each (seed, mod id) variant whose model and log are not yet in
    `cache_dir` (named by a hash of what determines them), in a worker
    pool; returns {variant: TrainedRun}."""
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    stems = {}
    for seed, mod_id in variants:
        cfg = dataclasses.replace(config, seed=seed)
        payload = {"config": cfg.to_dict(), "goal_position": goal_position, "horizon": horizon}
        if method == "llql":
            prefix = f"llql-{env_name}"
        else:
            prefix = f"ddpg-{env_name}-{mod_id or 'plain'}"
            payload["mod"] = mod_id
        stem = cache_dir / _config_key(prefix, payload)
        stems[seed, mod_id] = stem
        if not (stem.with_suffix(".model").exists() and stem.with_suffix(".log.json").exists()):
            jobs.append(
                {
                    "method": method,
                    "env": env_name,
                    "goal_position": goal_position,
                    "horizon": horizon,
                    "config": cfg,
                    "mod": mod_id,
                    "stem": str(stem),
                }
            )
    if workers > 1 and jobs:
        # imported here: the pool's modules cost about 0.5 MB resident in
        # every process that loads this one, and most never run a pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(_train_job, jobs))
    else:
        for job in jobs:
            _train_job(job)
    runs = {}
    for (seed, mod_id), stem in stems.items():
        rows = json.loads(stem.with_suffix(".log.json").read_text())
        log = [core.EpisodeStats(**r) for r in rows]
        runs[seed, mod_id] = TrainedRun(seed, str(stem.with_suffix(".model")), log[-1].cumulative_reward, log)
    return runs


def train_llql_batch(
    env_name: str,
    config: core.TrainConfig,
    seeds,
    cache_dir,
    *,
    workers: int = 1,
    goal_position: float = 0.45,
    horizon: Optional[int] = None,
) -> list:
    """Train one model per seed (cached by config hash), in a worker pool."""
    runs = _train_cached(
        "llql", env_name, config, [(seed, None) for seed in seeds], cache_dir, workers,
        goal_position, horizon,
    )
    return [runs[seed, None] for seed in seeds]


def top_k_runs(runs, k: int) -> list:
    """The k runs with the highest final cumulative reward (ties: lower seed)."""
    return sorted(runs, key=lambda r: (-r.final_reward, r.seed))[:k]


def train_ddpg_batch(
    env_name: str,
    config: baselines.DdpgConfig,
    jobs_spec,  # iterable of (seed, mod_id or None)
    cache_dir,
    *,
    workers: int = 1,
    goal_position: float = 0.45,
    horizon: Optional[int] = None,
) -> dict:
    """Train DDPG variants (cached); returns {(seed, mod_id): TrainedRun}."""
    return _train_cached(
        "ddpg", env_name, config, list(jobs_spec), cache_dir, workers, goal_position, horizon
    )


# ---------------------------------------------------------------------------
# run_experiment: one evaluation pass over a trained/loaded configuration
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class ExperimentSpec:
    env: str
    method: str  # "llql" | "ddpg" | "mpc" | "adjust"
    model_path: Optional[str] = None     # llql/ddpg model, or dynamics for mpc
    policy_path: Optional[str] = None    # for adjust: model file or "cmd:..."
    dynamics_path: Optional[str] = None  # for adjust
    goal: Optional[dict] = None
    reward_mod: Optional[str] = None     # mpc only
    mpc_horizon: int = 15
    mpc_candidates: int = 1000
    eval_runs: int = 10
    eval_seed0: int = 10_000
    goal_position: float = 0.45
    horizon: Optional[int] = None
    hazard_limit: Optional[float] = None
    v_d: Optional[float] = None          # velocity target scored; None: the goal's own v_d, if any


def load_policy(path_or_cmd: str, env):
    """Load a policy for `env`: a model file (llql or ddpg role, trained for
    env's sizes) or "cmd:<argv>" for an external process speaking the
    JSON-lines protocol."""
    if path_or_cmd.startswith("cmd:"):
        return control.ExternalProcessPolicy(path_or_cmd[4:].split())
    mf = core.read_model(path_or_cmd).checked(("llql", "ddpg"), "policy", env)
    if mf.meta["role"] == "ddpg":
        return baselines.ddpg_model_from(mf)
    return control.LlqlPolicy(core.llql_model_from(mf)[1])


def run_experiment(spec: ExperimentSpec) -> EvalReport:
    """Evaluate one configured method, returning the metric report.  An
    unknown method, env or goal, a goal or reward mod the method does not
    apply, mpc off mountain car or adjust without a goal is a ConfigError,
    raised before any model file is read."""
    if spec.method not in ("llql", "ddpg", "mpc", "adjust"):
        raise ConfigError(f"unknown method {spec.method!r}")
    env = make_env(spec.env, goal_position=spec.goal_position, horizon=spec.horizon)
    params = goal_params(spec.goal) if spec.goal is not None else None
    if params is not None and spec.method in ("ddpg", "mpc"):
        raise ConfigError(f"method {spec.method} applies no goal; give the goal to llql or adjust")
    if params is None and spec.method == "adjust":
        raise ConfigError("method adjust needs a goal to adjust its policy to")
    if spec.reward_mod is not None and spec.method != "mpc":
        raise ConfigError(f"method {spec.method} applies no reward mod; only mpc shapes its planning reward")
    if spec.method == "mpc" and spec.env != "mountain_car":
        raise ConfigError(f"method mpc plans on mountain_car models, not {spec.env}")
    goal = goal_from_dict(params)
    meta: dict = {"method": spec.method, "goal": params, "reward_mod": spec.reward_mod}

    if spec.method == "llql":
        mf = core.read_model(spec.model_path).checked(("llql",), "llql model", env)
        dyn, q, _ = core.llql_model_from(mf)
        meta["model"] = spec.model_path
        if goal is None:
            def controller(X, k, rngs):
                return control.long_term_action(q, X, rngs).action
        else:
            controller = control.GoalController(dyn, goal, qmodel=q).act

    elif spec.method == "ddpg":
        mf = core.read_model(spec.model_path).checked(("ddpg",), "ddpg model", env)
        model = baselines.ddpg_model_from(mf)
        meta["model"] = spec.model_path
        meta["trained_reward_mod"] = mf.meta.get("reward_mod")

        def controller(X, k, rngs):
            return model(X)

    elif spec.method == "mpc":
        mod = baselines.get_reward_mod(spec.reward_mod) if spec.reward_mod else None
        reward_fn = baselines.mountain_car_reward_fn(spec.goal_position, mod)
        cfg = baselines.MpcConfig(spec.mpc_horizon, spec.mpc_candidates)
        mf = core.read_model(spec.model_path).checked(("llql", "dynamics"), "dynamics model", env)
        dyn, _, _ = core.llql_model_from(mf)
        meta["model"] = spec.model_path

        def controller(X, k, rngs):  # each run plans from its own generator
            return np.array([baselines.mpc_action(dyn, x, reward_fn, cfg, rng, env.action_low, env.action_high)
                             for x, rng in zip(X, rngs)])

    else:  # adjust
        mf = core.read_model(spec.dynamics_path).checked(("llql", "dynamics"), "dynamics model", env)
        dyn, q, _ = core.llql_model_from(mf)
        meta["dynamics"] = spec.dynamics_path
        meta["policy"] = spec.policy_path
        if spec.policy_path == spec.dynamics_path:  # one file read and one build serve both
            mf.checked(("llql", "ddpg"), "policy")
            policy = control.LlqlPolicy(q)
        else:
            policy = load_policy(spec.policy_path, env)
        controller = control.GoalController(
            dyn, goal, policy=policy, action_low=env.action_low, action_high=env.action_high,
        ).act

    v_d = spec.v_d if spec.v_d is not None else (params or {}).get("v_d")
    rows = evaluate(env, controller, runs=spec.eval_runs, seed0=spec.eval_seed0,
                    hazard_limit=spec.hazard_limit, vel_target=v_d)
    return EvalReport(rows=rows, env=env.spec.to_dict(), meta=meta)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def sweep_short_term(model_path: str, kind: str, values, *, runs: int = 10, seed0: int = 10_000,
                     **options) -> list:
    """Evaluate a trained mountain-car model across short-term goal values.

    kind "constraint" sweeps the speed limit; kind "trajectory" sweeps the
    desired hilltop velocity, and `options` (gamma1, gamma2, ...) go to its
    goal.  Returns one row per value with mean/std steps to goal and the
    success count over `runs` episodes each.
    """
    out = []
    for value in values:
        if kind == "constraint":
            goal = {"kind": "mc_constraint", **options, "bound": value, "margin": value}
        elif kind == "trajectory":
            goal = {"kind": "mc_trajectory", **options, "v_d": value}
        else:
            raise ValueError(f"unknown sweep kind {kind!r}")
        spec = ExperimentSpec(env="mountain_car", method="llql", model_path=model_path, goal=goal,
                              eval_runs=runs, eval_seed0=seed0)
        agg = run_experiment(spec).aggregates()
        out.append({
            "value": float(value), "mean_steps": agg["mean_steps"], "std_steps": agg["std_steps"],
            "success": agg["success"], "runs": agg["runs"],
        })
    return out
