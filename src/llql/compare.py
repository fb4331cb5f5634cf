"""Builders for the four benchmark comparison tables.

Mountain car: the agent versus DDPG-with-shaped-rewards and random-shooting
MPC, for a desired hilltop velocity (trajectory) and a speed limit
(constraint).  Pendulum: locally trained policies stand in for the
published pre-trained checkpoints (the substitution is recorded in the
table metadata), with and without the runtime adjustment layer.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from . import baselines, core, experiments, reports
from .envs import make_env

TRAJECTORY_COLUMNS = ["method", "reward_mod", "vel_error", "steps", "success", "runs"]
CONSTRAINT_COLUMNS = ["method", "reward_mod", "s_out", "steps", "success", "runs"]
PENDULUM_TRAJ_COLUMNS = ["policy", "vel_error", "vel_error_adjusted", "reward", "reward_adjusted"]
PENDULUM_CONS_COLUMNS = ["policy", "s_out", "s_out_adjusted", "reward", "reward_adjusted"]


def _best_ddpg(runs_by_key, mod_id):
    candidates = [run for (seed, mod), run in runs_by_key.items() if mod == mod_id]
    return experiments.top_k_runs(candidates, 1)[0]


def _row_from_report(report, method, mod, kind) -> dict:
    agg = report.aggregates()
    row = {
        "method": method,
        "reward_mod": mod or "-",
        "steps": agg["mean_steps"],
        "success": agg["success"],
        "runs": agg["runs"],
    }
    if kind == "trajectory":
        row["vel_error"] = agg["mean_vel_error"]
    else:
        row["s_out"] = agg["mean_s_out"]
    return row


def build_mountain_car_table(
    kind: str,
    cache_dir,
    out_dir,
    *,
    workers: int = 2,
    llql_seeds=tuple(range(20)),
    ddpg_seeds=(0, 1, 2),
    runs: int = 10,
    v_d: float = 0.025,
    gamma1: float = 1.0,
    gamma2: float = 2000.0,
    hazard: float = 0.035,
    margin: float = 0.033,
    mpc_mods=("t1",),
    mpc_horizon: int = 15,
    mpc_candidates: int = 1000,
    llql_config: Optional[core.TrainConfig] = None,
    ddpg_config: Optional[baselines.DdpgConfig] = None,
) -> tuple:
    """Build the trajectory or constraint comparison rows for mountain car."""
    cache_dir = Path(cache_dir)
    llql_config = llql_config or core.TrainConfig()
    ddpg_config = ddpg_config or baselines.DdpgConfig()
    mods = ["t1", "t2", "t3", "t4"] if kind == "trajectory" else ["c1", "c2", "c3", "c4"]
    if kind == "constraint":
        mpc_mods = tuple(m if m.startswith("c") else "c1" for m in mpc_mods)

    llql_runs = experiments.train_llql_batch(
        "mountain_car", llql_config, llql_seeds, cache_dir, workers=workers
    )
    best = experiments.top_k_runs(llql_runs, 1)[0]
    ddpg_runs = experiments.train_ddpg_batch(
        "mountain_car", ddpg_config,
        [(seed, mod) for mod in mods for seed in ddpg_seeds],
        cache_dir, workers=workers,
    )

    rows = []
    for mod in mods:
        run = _best_ddpg(ddpg_runs, mod)
        spec = experiments.ExperimentSpec(
            env="mountain_car", method="ddpg", model_path=run.model_path,
            eval_runs=runs,
            hazard_limit=hazard if kind == "constraint" else None,
            v_d=v_d if kind == "trajectory" else None,
        )
        rows.append(_row_from_report(experiments.run_experiment(spec), "ddpg", mod, kind))

    mpc_rows = []
    for mod in mpc_mods:
        spec = experiments.ExperimentSpec(
            env="mountain_car", method="mpc", model_path=best.model_path,
            reward_mod=mod, eval_runs=runs,
            mpc_horizon=mpc_horizon, mpc_candidates=mpc_candidates,
            hazard_limit=hazard if kind == "constraint" else None,
            v_d=v_d if kind == "trajectory" else None,
        )
        mpc_rows.append(experiments.run_experiment(spec))
    pooled = [r for rep in mpc_rows for r in rep.rows]
    pooled_report = experiments.EvalReport(pooled, mpc_rows[0].env, mpc_rows[0].meta)
    row = _row_from_report(pooled_report, "mpc", ",".join(mpc_mods), kind)
    rows.append(row)

    if kind == "trajectory":
        goal = {"kind": "mc_trajectory", "v_d": v_d, "gamma1": gamma1, "gamma2": gamma2}
    else:
        goal = {"kind": "mc_constraint", "bound": margin, "margin": margin}
    spec = experiments.ExperimentSpec(
        env="mountain_car", method="llql", model_path=best.model_path, goal=goal,
        eval_runs=runs,
        hazard_limit=hazard if kind == "constraint" else None,
        v_d=v_d if kind == "trajectory" else None,
    )
    rows.append(_row_from_report(experiments.run_experiment(spec), "llql", None, kind))

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = TRAJECTORY_COLUMNS if kind == "trajectory" else CONSTRAINT_COLUMNS
    table_path = out_dir / f"{kind}.csv"
    reports.write_table(rows, columns, table_path)
    curves_path = out_dir / "curves.csv"
    reports.write_curves({"llql": llql_runs}, curves_path)
    return rows, [table_path, curves_path]


# ---------------------------------------------------------------------------
# Pendulum adjustment tables
# ---------------------------------------------------------------------------


def _train_pendulum_subjects(cache_dir, workers, llql_config, ddpg_config):
    """Locally trained stand-ins for published pre-trained policies."""
    llql_runs = experiments.train_llql_batch(
        "pendulum", llql_config, (0,), cache_dir, workers=workers
    )
    ddpg_runs = experiments.train_ddpg_batch(
        "pendulum", ddpg_config, [(0, None)], cache_dir, workers=workers
    )
    return {"llql": llql_runs[0], "ddpg": ddpg_runs[(0, None)]}


def _pendulum_dynamics(cache_dir, collector_path: str, config: core.TrainConfig) -> str:
    """Fit a pendulum dynamics model on data collected by a subject policy."""
    key = experiments._config_key(
        "dyn-pendulum", {"config": config.to_dict(), "collector": Path(collector_path).name}
    )
    path = Path(cache_dir) / f"{key}.model"
    if not path.exists():
        experiments.train_and_save(
            make_env("pendulum"), "dynamics", config, path, {"collector": str(collector_path)},
            policy=experiments.load_policy(collector_path),
        )
    return str(path)


def build_pendulum_tables(
    cache_dir,
    out_dir,
    *,
    workers: int = 2,
    runs: int = 10,
    hazard: float = 6.0,
    bound: float = 5.8,
    gamma1: float = 1.0,
    gamma2: float = 100.0,
    cos_threshold: float = 0.99,
    which: str = "both",
    llql_config: Optional[core.TrainConfig] = None,
    ddpg_config: Optional[baselines.DdpgConfig] = None,
    dynamics_config: Optional[core.TrainConfig] = None,
) -> tuple:
    """Adjustment-layer tables on pendulum with locally trained subjects."""
    cache_dir = Path(cache_dir)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    llql_config = llql_config or core.TrainConfig(episodes=100)
    ddpg_config = ddpg_config or baselines.DdpgConfig(episodes=150)
    dynamics_config = dynamics_config or core.TrainConfig(episodes=50)

    subjects = _train_pendulum_subjects(cache_dir, workers, llql_config, ddpg_config)
    dyn_path = _pendulum_dynamics(cache_dir, subjects["ddpg"].model_path, dynamics_config)
    env_spec = make_env("pendulum").spec.to_dict()

    traj_rows, cons_rows = [], []
    for name, run in subjects.items():
        policy = experiments.load_policy(run.model_path)
        traj_goal = {
            "kind": "pendulum_trajectory", "v_d": 0.0,
            "gamma1": gamma1, "gamma2": gamma2, "cos_threshold": cos_threshold,
        }
        cons_goal = {"kind": "pendulum_constraint", "bound": bound, "margin": 0.0}

        if which in ("both", "trajectory"):
            base = experiments.evaluate(
                make_env("pendulum"), lambda seed: policy, runs=runs,
                vel_index=2, vel_target=0.0, vel_mode="active_mean",
                vel_active=lambda x, k: x[0] > cos_threshold,
            )
            adj_spec = experiments.ExperimentSpec(
                env="pendulum", method="adjust", policy_path=run.model_path,
                dynamics_path=dyn_path, goal=traj_goal, eval_runs=runs, v_d=0.0,
            )
            adj = experiments.run_experiment(adj_spec).rows
            traj_rows.append(
                {
                    "policy": name,
                    "vel_error": experiments.compute_aggregates(base)["mean_vel_error"],
                    "vel_error_adjusted": experiments.compute_aggregates(adj)["mean_vel_error"],
                    "reward": experiments.compute_aggregates(base)["mean_reward"],
                    "reward_adjusted": experiments.compute_aggregates(adj)["mean_reward"],
                }
            )

        if which in ("both", "constraint"):
            base = experiments.evaluate(
                make_env("pendulum"), lambda seed: policy, runs=runs,
                hazard_index=2, hazard_limit=hazard,
            )
            adj_spec = experiments.ExperimentSpec(
                env="pendulum", method="adjust", policy_path=run.model_path,
                dynamics_path=dyn_path, goal=cons_goal, eval_runs=runs,
                hazard_limit=hazard,
            )
            adj = experiments.run_experiment(adj_spec).rows
            cons_rows.append(
                {
                    "policy": name,
                    "s_out": experiments.compute_aggregates(base)["mean_s_out"],
                    "s_out_adjusted": experiments.compute_aggregates(adj)["mean_s_out"],
                    "reward": experiments.compute_aggregates(base)["mean_reward"],
                    "reward_adjusted": experiments.compute_aggregates(adj)["mean_reward"],
                }
            )

    paths = []
    note = {
        "note": "policies are locally trained stand-ins for published pre-trained checkpoints",
        "subjects": {k: v.model_path for k, v in subjects.items()},
        "dynamics": dyn_path,
        "env": env_spec,
    }
    if which in ("both", "trajectory"):
        p = out_dir / "pendulum_trajectory.csv"
        reports.write_table(traj_rows, PENDULUM_TRAJ_COLUMNS, p)
        paths.append(p)
    if which in ("both", "constraint"):
        p = out_dir / "pendulum_constraint.csv"
        reports.write_table(cons_rows, PENDULUM_CONS_COLUMNS, p)
        paths.append(p)
    meta_path = out_dir / "pendulum_meta.json"
    meta_path.write_text(json.dumps(note, sort_keys=True, indent=2) + "\n")
    paths.append(meta_path)
    return (traj_rows, cons_rows), paths


def build_table(name: str, cache_dir, out_dir, *, workers=2, llql_seeds=tuple(range(20)),
                ddpg_seeds=(0, 1, 2), runs=10, mpc_horizon=15, mpc_candidates=1000):
    """Dispatch for the CLI `compare` subcommand; returns written paths."""
    if name in ("trajectory", "constraint"):
        _, paths = build_mountain_car_table(
            name, cache_dir, out_dir, workers=workers, llql_seeds=llql_seeds,
            ddpg_seeds=ddpg_seeds, runs=runs,
            mpc_horizon=mpc_horizon, mpc_candidates=mpc_candidates,
        )
        return paths
    if name in ("pendulum_trajectory", "pendulum_constraint"):
        which = name.split("_", 1)[1]
        _, paths = build_pendulum_tables(
            cache_dir, out_dir, workers=workers, runs=runs, which=which,
        )
        return paths
    raise ValueError(f"unknown table {name!r}")
