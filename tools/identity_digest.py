"""Print one sha256 per output family of llql, to check that a change keeps
its results bitwise identical.

    PYTHONPATH=src python tools/identity_digest.py [--tiny]

Run it on two checkouts (same machine, same numpy) and compare the lines;
`--tiny` shrinks every size so that the whole run takes about a second.
The families:

- `train/<env>/<dtype>`: the LLQL (with checkpoints), dynamics-only and
  DDPG (with a catalog reward mod on mountain car) training logs and
  model-file bytes;
- `synthesis`: the coefficients and the output of every synthesis op on
  3,000 states of the bench set-up model (mountain car, seed 7, one
  30-step episode), each state a one-row batch, under the speed limit as
  a `SymmetricConstraintGoal`, plus `predict_next_batch` on all of them at
  once;
- `synthesis/pendulum`: the same on a pendulum set-up model trained the
  same way, whose states have three components, so the trajectory solve's
  normal equation sums four products where mountain car's sums three;
- `reports`: the `run_experiment` report CSVs for greedy, constraint,
  trajectory, adjust, adjust_external and mpc on that model;
- `sweep`: the `sweep_short_term` CSVs of both kinds on that model, two
  goal values each, over the env's full horizon;
- `ddpg_eval`: the `run_experiment` report CSVs of a DDPG set-up model
  (one 30-step episode, seed 7) on each env, and of adjust with the
  pendulum one as policy on the pendulum set-up model, under the speed
  limit;
- `scoring`: the `run_experiment` report CSVs and `report.json` files (work
  directory replaced by a fixed string) of greedy, DDPG, trajectory-goal
  and adjust-under-constraint rows on each env, each scored with two
  (`hazard_limit`, `v_d`) pairs; mountain car's hilltop is lowered so that
  some runs reach it and score their velocity;
- `lockstep`: the `run_experiment` report CSVs of greedy, constraint,
  trajectory, adjust, adjust_external and DDPG on mountain car with its
  hilltop lowered so that the runs of one evaluation end at different
  steps, of mpc at two runs, and of pendulum greedy and adjust (the
  set-up model as its own policy) under the speed limit; several runs per
  evaluation, each scored with a hazard limit and a velocity target;
- `long`: the training logs and model-file bytes of one float32
  mountain-car LLQL episode of 700 steps (3,500 Adam steps per bank, well
  past the ~750 steps after which a dead unit's first moment sits in
  subnormal floats) and of one float32 DDPG run of 3,000 steps (3,000 Adam
  steps per net); at `--tiny` sizes the DDPG run takes 20 steps, past the
  optimizer's first flush of stuck moments at step 16.

It needs nothing beyond llql's own dependencies; the external policy of
adjust_external is a bang-bang sign(v) child run by this interpreter.
"""

from __future__ import annotations

import os

# one BLAS thread, as the CLI runs, so digests do not depend on the thread count
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import logging  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from llql import baselines, control, core, experiments, reports  # noqa: E402
from llql.envs import make_env  # noqa: E402

ENVS = ("mountain_car", "pendulum")
DTYPES = ("float32", "float64")
CONSTRAINT_GOAL = {"kind": "mc_constraint", "bound": 0.02, "margin": 0.0}
TRAJECTORY_GOAL = {"kind": "mc_trajectory", "v_d": 0.025, "switch_position": -1.2}
CHILD_POLICY = """\
import json, sys
for line in sys.stdin:
    v = json.loads(line)["state"][-1]
    print(json.dumps({"action": [1.0 if v >= 0 else -1.0]}), flush=True)
"""


@dataclasses.dataclass(frozen=True)
class Sizes:
    hidden: tuple = (200, 200)
    episodes: int = 2
    horizon: int = 40
    normalizer_samples: int = 30
    setup_horizon: int = 30
    setup_normalizer_samples: int = 20
    states: int = 3000
    eval_horizon: int = 150
    mpc_horizon: int = 5
    mpc_candidates: int = 1000
    mpc_plan: int = 15
    sweep_runs: int = 2
    lockstep_runs: int = 5
    long_horizon: int = 700
    long_ddpg_horizon: int = 3000


FULL = Sizes()
TINY = Sizes(hidden=(8, 8), episodes=2, horizon=6, normalizer_samples=4, setup_horizon=6,
             setup_normalizer_samples=4, states=30, eval_horizon=5, mpc_horizon=2,
             mpc_candidates=20, mpc_plan=3, sweep_runs=1, lockstep_runs=3, long_horizon=8,
             long_ddpg_horizon=20)
SWEEP_VALUES = {"constraint": (0.02, 0.05), "trajectory": (0.0, 0.025)}
# per env: the (hazard_limit, v_d) pairs, the trajectory and constraint goals,
# and the env settings of the scoring family
SCORING = {
    "mountain_car": ([(0.005, 0.025), (0.01, 0.0)], TRAJECTORY_GOAL, CONSTRAINT_GOAL,
                     {"goal_position": -0.45}),
    "pendulum": ([(2.0, 0.0), (6.0, 0.5)], {"kind": "pendulum_trajectory"}, {"kind": "pendulum_constraint"}, {}),
}


def _feed(h, obj) -> None:
    """Hash `obj` (arrays, numbers, strings, dataclasses, sequences) by value."""
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        _feed(h, [getattr(obj, f.name) for f in dataclasses.fields(obj)])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    else:
        h.update(repr(obj).encode())


def _feed_files(h, paths) -> None:
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())


def train_digest(env_name: str, dtype: str, sz: Sizes, work: Path) -> str:
    env = make_env(env_name, horizon=sz.horizon)
    cfg = core.TrainConfig(episodes=sz.episodes, hidden_sizes=sz.hidden, dtype=dtype, seed=3,
                           normalizer_samples=sz.normalizer_samples, checkpoint_every=1)
    out = work / f"train-{env_name}-{dtype}"
    out.mkdir()
    h = hashlib.sha256()
    log = experiments.train_and_save(env, "llql", cfg, out / "llql.model", {}, checkpoint_dir=out / "ckpt")
    core.log_to_csv(log, out / "llql.csv")
    rng = np.random.default_rng(5)
    policy = lambda x: rng.uniform(env.action_low, env.action_high)  # noqa: E731
    log = experiments.train_and_save(env, "dynamics", cfg, out / "dynamics.model", {}, policy=policy)
    core.log_to_csv(log, out / "dynamics.csv")
    dcfg = baselines.DdpgConfig(episodes=sz.episodes, hidden_sizes=sz.hidden, dtype=dtype, seed=4,
                                normalizer_samples=sz.normalizer_samples)
    # the catalog's reward mods shape mountain car's position and velocity
    mod = "t1" if env_name == "mountain_car" else None
    log = experiments.train_and_save(env, "ddpg", dcfg, out / "ddpg.model", {}, reward_mod=mod)
    core.log_to_csv(log, out / "ddpg.csv")
    _feed_files(h, [p for p in out.rglob("*") if p.is_file()])
    return h.hexdigest()


def setup_model(sz: Sizes, work: Path, env_name: str = "mountain_car") -> Path:
    """The bench set-up model (mountain car, seed 7, one short episode), or
    the same set-up on another env."""
    env = make_env(env_name, horizon=sz.setup_horizon)
    cfg = core.TrainConfig(episodes=1, seed=7, hidden_sizes=sz.hidden,
                           normalizer_samples=sz.setup_normalizer_samples)
    path = work / f"setup-{env_name}.model"
    experiments.train_and_save(env, "llql", cfg, path, {"episode": 1})
    return path


def ddpg_setup_model(sz: Sizes, work: Path, env_name: str) -> Path:
    """A DDPG model trained as `setup_model` trains the LLQL one."""
    env = make_env(env_name, horizon=sz.setup_horizon)
    cfg = baselines.DdpgConfig(episodes=1, seed=7, hidden_sizes=sz.hidden,
                               normalizer_samples=sz.setup_normalizer_samples)
    path = work / f"ddpg-{env_name}.model"
    experiments.train_and_save(env, "ddpg", cfg, path, {})
    return path


def _mountain_car_case(rng, n: int):
    """States, policy actions, speed limit, trajectory target and gamma2."""
    X = np.column_stack([rng.uniform(-1.2, 0.6, n), rng.uniform(-0.07, 0.07, n)])
    U_n = rng.uniform(-1.0, 1.0, size=(n, 1))
    limit = control.SymmetricConstraintGoal(state_index=1, bound=0.02, margin=0.0)
    return X, U_n, limit, lambda x: np.array([x[0] + 0.025, 0.025]), 2000.0


def _pendulum_case(rng, n: int):
    """As `_mountain_car_case`, with the pendulum's speed limit and its
    upright-velocity target."""
    theta = rng.uniform(-np.pi, np.pi, n)
    X = np.column_stack([np.cos(theta), np.sin(theta), rng.uniform(-8.0, 8.0, n)])
    U_n = rng.uniform(-2.0, 2.0, size=(n, 1))
    return X, U_n, experiments.pendulum_speed_limit_goal(), lambda x: np.array([x[0], x[1], 0.0]), 100.0


SYNTHESIS_CASES = {"mountain_car": _mountain_car_case, "pendulum": _pendulum_case}


def synthesis_digest(model: Path, sz: Sizes, env_name: str = "mountain_car") -> str:
    dyn, q, _ = core.load_llql_model(model)
    X, U_n, limit, target, gamma2 = SYNTHESIS_CASES[env_name](np.random.default_rng(11), sz.states)
    low, high = q.action_low, q.action_high
    h = hashlib.sha256()
    _feed(h, dyn.predict_next_batch(X, U_n))
    for x, u_n in zip(X[:, None], U_n[:, None]):  # one-row batches
        x_d = target(x[0])[None]
        _feed(h, [
            dyn.coefficients(x), q.coefficients(x),
            control.long_term_action(q, x, np.random.default_rng(0)),
            control.trajectory_action(q, dyn, x, x_d, 1.0, gamma2, np.random.default_rng(0)),
            control.constraint_action(q, dyn, x, limit, np.random.default_rng(0)),
            control.approx_trajectory_action(u_n, dyn, x, x_d, 1.0, gamma2, action_low=low, action_high=high),
            control.approx_constraint_action(u_n, dyn, x, limit, action_low=low, action_high=high),
        ])
    return h.hexdigest()


def reports_digest(model: Path, sz: Sizes, work: Path) -> str:
    child = work / "child_policy.py"
    child.write_text(CHILD_POLICY)
    common = dict(env="mountain_car", eval_runs=2, horizon=sz.eval_horizon)
    model = str(model)
    specs = {
        "greedy": experiments.ExperimentSpec(method="llql", model_path=model, **common),
        "constraint": experiments.ExperimentSpec(method="llql", model_path=model, goal=CONSTRAINT_GOAL, **common),
        "trajectory": experiments.ExperimentSpec(method="llql", model_path=model, goal=TRAJECTORY_GOAL, **common),
        "adjust": experiments.ExperimentSpec(method="adjust", policy_path=model, dynamics_path=model,
                                             goal=CONSTRAINT_GOAL, **common),
        "adjust_external": experiments.ExperimentSpec(
            method="adjust", policy_path=f"cmd:{sys.executable} {child}", dynamics_path=model,
            goal=TRAJECTORY_GOAL, **common),
        "mpc": experiments.ExperimentSpec(
            env="mountain_car", method="mpc", model_path=model, eval_runs=1, horizon=sz.mpc_horizon,
            mpc_candidates=sz.mpc_candidates, mpc_horizon=sz.mpc_plan),
    }
    h = hashlib.sha256()
    for name, spec in specs.items():
        path = work / f"{name}.csv"
        reports.write_report_csv(experiments.run_experiment(spec), path)
        _feed_files(h, [path])
    return h.hexdigest()


def sweep_digest(model: Path, sz: Sizes, work: Path) -> str:
    h = hashlib.sha256()
    for kind, values in SWEEP_VALUES.items():
        path = work / f"sweep-{kind}.csv"
        reports.write_sweep(experiments.sweep_short_term(str(model), kind, values, runs=sz.sweep_runs), path)
        _feed_files(h, [path])
    return h.hexdigest()


def ddpg_eval_digest(policies: dict, pendulum_model: Path, sz: Sizes, work: Path) -> str:
    h = hashlib.sha256()
    specs = {
        env_name: experiments.ExperimentSpec(env=env_name, method="ddpg", model_path=policy, eval_runs=2,
                                             horizon=sz.eval_horizon)
        for env_name, policy in policies.items()
    }
    specs["adjust"] = experiments.ExperimentSpec(
        env="pendulum", method="adjust", policy_path=policies["pendulum"], dynamics_path=str(pendulum_model),
        goal={"kind": "pendulum_constraint"}, eval_runs=2, horizon=sz.eval_horizon)
    for name, spec in specs.items():
        path = work / f"ddpg-{name}.csv"
        reports.write_report_csv(experiments.run_experiment(spec), path)
        _feed_files(h, [path])
    return h.hexdigest()


def scoring_digest(models: dict, policies: dict, sz: Sizes, work: Path) -> str:
    h = hashlib.sha256()
    out = work / "scoring"
    for env_name, (pairs, trajectory, constraint, settings) in SCORING.items():
        model, policy = str(models[env_name]), policies[env_name]
        for i, (hazard_limit, v_d) in enumerate(pairs):
            common = dict(env=env_name, eval_runs=3, horizon=sz.eval_horizon, hazard_limit=hazard_limit,
                          v_d=v_d, **settings)
            specs = {
                "greedy": experiments.ExperimentSpec(method="llql", model_path=model, **common),
                "ddpg": experiments.ExperimentSpec(method="ddpg", model_path=policy, **common),
                "trajectory": experiments.ExperimentSpec(method="llql", model_path=model, goal=trajectory,
                                                         **common),
                "adjust": experiments.ExperimentSpec(method="adjust", policy_path=policy, dynamics_path=model,
                                                     goal=constraint, **common),
            }
            for name, spec in specs.items():
                csv_path, json_path = reports.emit_report(experiments.run_experiment(spec), out,
                                                          basename=f"{env_name}-{i}-{name}")
                _feed_files(h, [csv_path])
                h.update(json_path.name.encode())
                h.update(json_path.read_text().replace(str(work), "<work>").encode())
    return h.hexdigest()


def lockstep_digest(models: dict, ddpg_policy: str, sz: Sizes, work: Path) -> str:
    child = work / "child_policy.py"
    child.write_text(CHILD_POLICY)
    model, pendulum = str(models["mountain_car"]), str(models["pendulum"])
    car = dict(env="mountain_car", eval_runs=sz.lockstep_runs, horizon=sz.eval_horizon, goal_position=-0.45,
               hazard_limit=0.01, v_d=0.025)
    specs = {
        "greedy": experiments.ExperimentSpec(method="llql", model_path=model, **car),
        "constraint": experiments.ExperimentSpec(method="llql", model_path=model, goal=CONSTRAINT_GOAL, **car),
        "trajectory": experiments.ExperimentSpec(method="llql", model_path=model, goal=TRAJECTORY_GOAL, **car),
        "adjust": experiments.ExperimentSpec(method="adjust", policy_path=model, dynamics_path=model,
                                             goal=CONSTRAINT_GOAL, **car),
        "adjust_external": experiments.ExperimentSpec(
            method="adjust", policy_path=f"cmd:{sys.executable} {child}", dynamics_path=model,
            goal=TRAJECTORY_GOAL, **car),
        "ddpg": experiments.ExperimentSpec(method="ddpg", model_path=ddpg_policy, **car),
        "mpc": experiments.ExperimentSpec(
            env="mountain_car", method="mpc", model_path=model, eval_runs=2, horizon=sz.mpc_horizon,
            goal_position=-0.45, mpc_candidates=sz.mpc_candidates, mpc_horizon=sz.mpc_plan),
    }
    swing = dict(env="pendulum", eval_runs=sz.lockstep_runs, horizon=sz.eval_horizon, hazard_limit=2.0, v_d=0.0)
    specs["pendulum-greedy"] = experiments.ExperimentSpec(method="llql", model_path=pendulum, **swing)
    specs["pendulum-adjust"] = experiments.ExperimentSpec(
        method="adjust", policy_path=pendulum, dynamics_path=pendulum, goal={"kind": "pendulum_constraint"},
        **swing)
    h = hashlib.sha256()
    for name, spec in specs.items():
        path = work / f"lockstep-{name}.csv"
        reports.write_report_csv(experiments.run_experiment(spec), path)
        _feed_files(h, [path])
    return h.hexdigest()


def long_digest(sz: Sizes, work: Path) -> str:
    out = work / "long"
    out.mkdir()
    env = make_env("mountain_car", horizon=sz.long_horizon)
    cfg = core.TrainConfig(episodes=1, hidden_sizes=sz.hidden, seed=5, normalizer_samples=sz.normalizer_samples)
    core.log_to_csv(experiments.train_and_save(env, "llql", cfg, out / "llql.model", {}), out / "llql.csv")
    env = make_env("mountain_car", horizon=sz.long_ddpg_horizon)
    dcfg = baselines.DdpgConfig(episodes=1, hidden_sizes=sz.hidden, seed=6, normalizer_samples=sz.normalizer_samples)
    core.log_to_csv(experiments.train_and_save(env, "ddpg", dcfg, out / "ddpg.model", {}), out / "ddpg.csv")
    h = hashlib.sha256()
    _feed_files(h, out.iterdir())
    return h.hexdigest()


def digests(sz: Sizes) -> dict:
    """{family: sha256 hex digest} for every output family."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for env_name in ENVS:
            for dtype in DTYPES:
                out[f"train/{env_name}/{dtype}"] = train_digest(env_name, dtype, sz, work)
        model = setup_model(sz, work)
        out["synthesis"] = synthesis_digest(model, sz)
        pendulum = setup_model(sz, work, "pendulum")
        out["synthesis/pendulum"] = synthesis_digest(pendulum, sz, "pendulum")
        out["reports"] = reports_digest(model, sz, work)
        out["sweep"] = sweep_digest(model, sz, work)
        policies = {env_name: str(ddpg_setup_model(sz, work, env_name)) for env_name in ENVS}
        out["ddpg_eval"] = ddpg_eval_digest(policies, pendulum, sz, work)
        models = {"mountain_car": model, "pendulum": pendulum}
        out["scoring"] = scoring_digest(models, policies, sz, work)
        out["lockstep"] = lockstep_digest(models, policies["mountain_car"], sz, work)
        out["long"] = long_digest(sz, work)
    return out


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = p.parse_args(argv)
    logging.getLogger("llql").setLevel(logging.ERROR)  # clip warnings from the reports
    for family, digest in digests(TINY if args.tiny else FULL).items():
        print(f"{family} {digest}")


if __name__ == "__main__":
    main()
