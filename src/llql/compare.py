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

# The tables' settings.  Mountain car: the desired hilltop velocity and its
# tracking weights; the speed limit, engaged at the limit itself; the |v|
# that counts as a hazard in s_out.
MC_V_D = 0.025
MC_GAMMA1, MC_GAMMA2 = 1.0, 2000.0
MC_MARGIN = 0.033
MC_HAZARD = 0.035
# Pendulum: the speed limit; the |angular velocity| that counts as a
# hazard; the velocity goal's tracking weights.
PENDULUM_BOUND = 5.8
PENDULUM_HAZARD = 6.0
PENDULUM_GAMMA1, PENDULUM_GAMMA2 = 1.0, 100.0

# Per table: the goal of the LLQL (mountain car) or adjusted (pendulum)
# rows, the spec fields that score every row, and the metric column.
TABLES = {
    "trajectory": (
        {"kind": "mc_trajectory", "v_d": MC_V_D, "gamma1": MC_GAMMA1, "gamma2": MC_GAMMA2},
        {"v_d": MC_V_D}, "vel_error",
    ),
    "constraint": (
        {"kind": "mc_constraint", "bound": MC_MARGIN, "margin": MC_MARGIN},
        {"hazard_limit": MC_HAZARD}, "s_out",
    ),
    "pendulum_trajectory": (
        {"kind": "pendulum_trajectory", "v_d": 0.0, "gamma1": PENDULUM_GAMMA1, "gamma2": PENDULUM_GAMMA2},
        {"v_d": 0.0}, "vel_error",
    ),
    "pendulum_constraint": (
        {"kind": "pendulum_constraint", "bound": PENDULUM_BOUND, "margin": 0.0},
        {"hazard_limit": PENDULUM_HAZARD}, "s_out",
    ),
}
# the reward mods of the mountain-car tables' DDPG rows and MPC row
DDPG_MODS = {"trajectory": ("t1", "t2", "t3", "t4"), "constraint": ("c1", "c2", "c3", "c4")}
MPC_MOD = {"trajectory": "t1", "constraint": "c1"}


def _best_ddpg(runs_by_key, mod_id):
    candidates = [run for (seed, mod), run in runs_by_key.items() if mod == mod_id]
    return experiments.top_k_runs(candidates, 1)[0]


def build_mountain_car_table(
    kind: str,
    cache_dir,
    out_dir,
    *,
    workers: int = 2,
    llql_seeds=tuple(range(20)),
    ddpg_seeds=(0, 1, 2),
    runs: int = 10,
    mpc_horizon: int = 15,
    mpc_candidates: int = 1000,
    llql_config: Optional[core.TrainConfig] = None,
    ddpg_config: Optional[baselines.DdpgConfig] = None,
) -> tuple:
    """Build the trajectory or constraint comparison rows for mountain car."""
    goal, scoring, column = TABLES[kind]
    llql_runs = experiments.train_llql_batch(
        "mountain_car", llql_config or core.TrainConfig(), llql_seeds, cache_dir, workers=workers
    )
    best = experiments.top_k_runs(llql_runs, 1)[0]
    ddpg_runs = experiments.train_ddpg_batch(
        "mountain_car", ddpg_config or baselines.DdpgConfig(),
        [(seed, mod) for mod in DDPG_MODS[kind] for seed in ddpg_seeds],
        cache_dir, workers=workers,
    )
    mpc = {"reward_mod": MPC_MOD[kind], "mpc_horizon": mpc_horizon, "mpc_candidates": mpc_candidates}
    rows = []
    for method, mod, fields in [
        *(("ddpg", mod, {"model_path": _best_ddpg(ddpg_runs, mod).model_path}) for mod in DDPG_MODS[kind]),
        ("mpc", MPC_MOD[kind], {"model_path": best.model_path, **mpc}),
        ("llql", None, {"model_path": best.model_path, "goal": goal}),
    ]:
        spec = experiments.ExperimentSpec(
            env="mountain_car", method=method, eval_runs=runs, **scoring, **fields
        )
        agg = experiments.run_experiment(spec).aggregates()
        rows.append({
            "method": method, "reward_mod": mod or "-", column: agg[f"mean_{column}"],
            "steps": agg["mean_steps"], "success": agg["success"], "runs": agg["runs"],
        })

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table_path = out_dir / f"{kind}.csv"
    reports.write_table(rows, ["method", "reward_mod", column, "steps", "success", "runs"], table_path)
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
        env = make_env("pendulum")
        experiments.train_and_save(
            env, "dynamics", config, path, {"collector": str(collector_path)},
            policy=experiments.load_policy(collector_path, env),
        )
    return str(path)


def build_pendulum_tables(
    cache_dir,
    out_dir,
    *,
    workers: int = 2,
    runs: int = 10,
    which: str = "both",
    llql_config: Optional[core.TrainConfig] = None,
    ddpg_config: Optional[baselines.DdpgConfig] = None,
    dynamics_config: Optional[core.TrainConfig] = None,
) -> tuple:
    """Adjustment-layer tables on pendulum with locally trained subjects:
    one row per subject, without and with the adjustment layer.  Returns
    ({table name: rows}, written paths)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    subjects = _train_pendulum_subjects(
        cache_dir, workers, llql_config or core.TrainConfig(episodes=100),
        ddpg_config or baselines.DdpgConfig(episodes=150),
    )
    dyn_path = _pendulum_dynamics(
        cache_dir, subjects["ddpg"].model_path, dynamics_config or core.TrainConfig(episodes=50)
    )
    kinds = ("trajectory", "constraint") if which == "both" else (which,)
    tables = {f"pendulum_{kind}": [] for kind in kinds}
    for name, run in subjects.items():
        for table, rows in tables.items():
            goal, scoring, column = TABLES[table]
            common = dict(env="pendulum", eval_runs=runs, **scoring)
            base, adjusted = (experiments.run_experiment(spec).aggregates() for spec in (
                experiments.ExperimentSpec(method=name, model_path=run.model_path, **common),
                experiments.ExperimentSpec(method="adjust", policy_path=run.model_path,
                                           dynamics_path=dyn_path, goal=goal, **common),
            ))
            rows.append({
                "policy": name, column: base[f"mean_{column}"],
                f"{column}_adjusted": adjusted[f"mean_{column}"],
                "reward": base["mean_reward"], "reward_adjusted": adjusted["mean_reward"],
            })

    paths = []
    for table, rows in tables.items():
        column = TABLES[table][2]
        paths.append(out_dir / f"{table}.csv")
        columns = ["policy", column, f"{column}_adjusted", "reward", "reward_adjusted"]
        reports.write_table(rows, columns, paths[-1])
    note = {
        "note": "policies are locally trained stand-ins for published pre-trained checkpoints",
        "subjects": {k: v.model_path for k, v in subjects.items()},
        "dynamics": dyn_path,
        "env": make_env("pendulum").spec.to_dict(),
    }
    meta_path = out_dir / "pendulum_meta.json"
    meta_path.write_text(json.dumps(note, sort_keys=True, indent=2) + "\n")
    paths.append(meta_path)
    return tables, paths
