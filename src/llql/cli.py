"""Command-line interface.

Subcommands: train, eval, adjust, compare, sweep.  Config files are flat
`key = value` text (one pair per line, `#` comments); keys must match the
target config's fields.  Exit codes: 0 success, 2 configuration or file
error (including a truncated or malformed model file, a model file of
another role than its use needs or trained for another env's state and
action sizes, a goal option the goal does not take, a goal option other
than --v-d without --goal, a goal, reward mod or env that the method
would ignore or cannot run, and a compare option that the table would
ignore), 3 runtime failure.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import dataclasses
import sys
from pathlib import Path


class ConfigError(Exception):
    pass


def parse_config_file(path) -> dict:
    """Parse a flat key=value config file into a {key: str} dict."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    out = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        out[key] = value
    return out


def _coerce(value: str, target_type):
    if target_type is bool:
        low = value.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {value!r}")
    if target_type is tuple:
        return tuple(int(v) for v in value.replace(",", " ").split())
    return target_type(value)


def build_config(cls, overrides: dict):
    """Instantiate a config dataclass from string overrides, each coerced to
    the type of its field's default (every field has a typed default)."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in overrides.items():
        if key not in fields:
            raise ConfigError(
                f"unknown config key {key!r} for {cls.__name__}; "
                f"valid keys: {', '.join(sorted(fields))}"
            )
        try:
            kwargs[key] = _coerce(value, type(fields[key].default))
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("LLQL_OUTPUT_DIR") or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# the goal options of the eval and adjust subcommands; each goal takes some
# of them (experiments.GOALS), and its factory's signature holds the defaults
GOAL_OPTIONS = ("v_d", "gamma1", "gamma2", "switch_position", "bound", "margin")


def _given(args, names) -> dict:
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _goal_dict_from_args(args, env_name: str):
    if args.goal == "none":
        # --v-d alone is the velocity target a goal-less run is scored against
        stray = _given(args, GOAL_OPTIONS[1:])
        if stray:
            options = ", ".join("--" + name.replace("_", "-") for name in stray)
            raise ConfigError(f"{options} needs --goal trajectory or --goal constraint")
        return None
    prefix = "mc" if env_name == "mountain_car" else "pendulum"
    return {"kind": f"{prefix}_{args.goal}", **_given(args, GOAL_OPTIONS)}


def _reward_mod(args, method: str, env_name: str):
    """`--reward-mod`, which only `--method <method>` applies, on mountain car."""
    from .baselines import reward_mod_catalog

    if args.reward_mod is None:
        return None
    if args.method != method:
        raise ConfigError(f"--reward-mod needs --method {method}")
    if env_name != "mountain_car":
        raise ConfigError(f"the reward mods shape mountain_car rewards, not {env_name}")
    ids = [mod.id for mod in reward_mod_catalog()]
    if args.reward_mod not in ids:
        raise ConfigError(f"unknown reward mod {args.reward_mod!r}; the mods are {', '.join(ids)}")
    return args.reward_mod


def _require_file(path, what: str) -> str:
    if path is None:
        raise ConfigError(f"missing required {what}")
    if not Path(path).exists():
        raise ConfigError(f"{what} not found: {path}")
    return str(path)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    from . import baselines, core, experiments
    from .envs import make_env

    reward_mod = _reward_mod(args, "ddpg", args.env)
    overrides = parse_config_file(args.config) if args.config else {}
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    out = _out_dir(args)
    env = make_env(args.env, goal_position=args.goal_position, horizon=args.horizon)

    if args.method == "ddpg":
        cfg = build_config(baselines.DdpgConfig, overrides)
        log = experiments.train_and_save(
            env, "ddpg", cfg, out / "model.model", {}, reward_mod=reward_mod
        )
    else:
        cfg = build_config(core.TrainConfig, overrides)
        policy = None
        if args.method == "dynamics":
            policy = experiments.load_policy(_require_file(args.policy, "policy"), env)
        log = experiments.train_and_save(
            env, args.method, cfg, out / "model.model", {"episode": cfg.episodes},
            policy=policy, checkpoint_dir=out if cfg.checkpoint_every else None,
        )
    core.log_to_csv(log, out / "log.csv")
    print(f"wrote {out / 'model.model'} and {out / 'log.csv'}")
    return 0


def _model_env_name(path: str) -> tuple:
    """(env name, env spec) from the model file's header; the run that
    follows reads its parameters."""
    from .nets import load_header

    (env_spec,) = load_header(path).meta_entries("env")
    return env_spec.get("name"), env_spec


def cmd_eval(args) -> int:
    from . import experiments, reports

    model = _require_file(args.model, "model path")
    env_name, env_spec = _model_env_name(model)
    if args.method == "mpc" and env_name != "mountain_car":
        raise ConfigError(f"--method mpc runs on mountain_car models, not {env_name}")
    goal_position = args.goal_position
    if goal_position is None:
        goal_position = env_spec.get("goal_position") or 0.45
    spec = experiments.ExperimentSpec(
        env=env_name,
        method=args.method,
        model_path=model,
        goal=_goal_dict_from_args(args, env_name),
        reward_mod=_reward_mod(args, "mpc", env_name),
        mpc_horizon=args.mpc_horizon,
        mpc_candidates=args.mpc_candidates,
        eval_runs=args.runs,
        eval_seed0=args.seed0,
        goal_position=goal_position,
        horizon=args.horizon,
        hazard_limit=args.hazard,
        v_d=args.v_d,
    )
    report = experiments.run_experiment(spec)
    out = _out_dir(args)
    written = reports.emit_report(report, out, basename=args.basename)
    agg = report.aggregates()
    print(f"success {agg['success']}/{agg['runs']}, mean steps {agg['mean_steps']:.1f}")
    for p in written:
        print(f"wrote {p}")
    return 0


def cmd_adjust(args) -> int:
    from . import experiments, reports

    dynamics = _require_file(args.dynamics, "dynamics model path")
    policy = args.policy
    if policy is None:
        raise ConfigError("missing required policy (model path or cmd:...)")
    if not policy.startswith("cmd:"):
        policy = _require_file(policy, "policy model path")
    env_name, env_spec = _model_env_name(dynamics)
    goal = _goal_dict_from_args(args, env_name)
    if goal is None:
        raise ConfigError("adjust requires --goal trajectory or --goal constraint")
    spec = experiments.ExperimentSpec(
        env=env_name,
        method="adjust",
        policy_path=policy,
        dynamics_path=dynamics,
        goal=goal,
        eval_runs=args.runs,
        eval_seed0=args.seed0,
        goal_position=env_spec.get("goal_position") or 0.45,
        horizon=args.horizon,
        hazard_limit=args.hazard,
        v_d=args.v_d,
    )
    report = experiments.run_experiment(spec)
    out = _out_dir(args)
    written = reports.emit_report(report, out, basename=args.basename)
    for p in written:
        print(f"wrote {p}")
    return 0


def cmd_compare(args) -> int:
    from . import compare

    out = _out_dir(args)
    cache = Path(args.cache) if args.cache else out / "cache"
    common = dict(workers=args.workers, runs=args.runs)
    # options of the mountain-car tables only; the builder holds their defaults
    given = _given(args, ("llql_seeds", "ddpg_seeds", "mpc_horizon", "mpc_candidates"))
    if args.table in ("trajectory", "constraint"):
        for name in ("llql_seeds", "ddpg_seeds"):
            if name in given:
                given[name] = tuple(range(given[name]))
        _, paths = compare.build_mountain_car_table(args.table, cache, out, **given, **common)
    elif given:
        options = ", ".join("--" + name.replace("_", "-") for name in given)
        raise ConfigError(f"{options} needs --table trajectory or --table constraint")
    else:
        _, paths = compare.build_pendulum_tables(cache, out, which=args.table.split("_", 1)[1], **common)
    for p in paths:
        print(f"wrote {p}")
    return 0


def cmd_sweep(args) -> int:
    from . import experiments, reports

    model = _require_file(args.model, "model path")
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --values list: {exc}") from exc
    rows = experiments.sweep_short_term(
        model, args.kind, values, runs=args.runs, seed0=args.seed0, **_given(args, ("gamma1", "gamma2"))
    )
    out = _out_dir(args)
    path = out / "sweep.csv"
    reports.write_sweep(rows, path)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_goal_args(p):
    p.add_argument("--goal", choices=["none", "trajectory", "constraint"], default="none")
    p.add_argument("--v-d", dest="v_d", type=float, default=None)
    p.add_argument("--gamma1", type=float, default=None)
    p.add_argument("--gamma2", type=float, default=None)
    p.add_argument("--switch-position", dest="switch_position", type=float, default=None)
    p.add_argument("--bound", type=float, default=None)
    p.add_argument("--margin", type=float, default=None)
    p.add_argument("--hazard", type=float, default=None, help="|state| limit for counting s_out")


def _add_eval_args(p):
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=10_000)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--basename", default="report")
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llql",
        description="Locally linear Q-learning: training, evaluation, and comparisons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--method", choices=["llql", "ddpg", "dynamics"], default="llql")
    p.add_argument("--env", choices=["mountain_car", "pendulum"], required=True)
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--goal-position", dest="goal_position", type=float, default=0.45)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--reward-mod", dest="reward_mod", default=None)
    p.add_argument("--policy", default=None, help="data-collection policy for --method dynamics")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model, optionally with a goal")
    p.add_argument("--model", required=False)
    p.add_argument("--method", choices=["llql", "ddpg", "mpc"], default="llql")
    p.add_argument("--reward-mod", dest="reward_mod", default=None)
    p.add_argument("--mpc-horizon", dest="mpc_horizon", type=int, default=15)
    p.add_argument("--mpc-candidates", dest="mpc_candidates", type=int, default=1000)
    p.add_argument("--goal-position", dest="goal_position", type=float, default=None)
    _add_goal_args(p)
    _add_eval_args(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("adjust", help="apply a short-term goal to a pre-trained policy")
    p.add_argument("--policy", required=False, help="policy model path or cmd:<argv>")
    p.add_argument("--dynamics", required=False, help="dynamics model path")
    _add_goal_args(p)
    _add_eval_args(p)
    p.set_defaults(fn=cmd_adjust)

    p = sub.add_parser("compare", help="reproduce a comparison table")
    p.add_argument(
        "--table",
        choices=["trajectory", "constraint", "pendulum_trajectory", "pendulum_constraint"],
        required=True,
    )
    p.add_argument("--cache", default=None)
    p.add_argument("--workers", type=int, default=2)
    mc_only = "mountain-car tables only; default: the table builder's"
    p.add_argument("--llql-seeds", dest="llql_seeds", type=int, default=None, help=mc_only)
    p.add_argument("--ddpg-seeds", dest="ddpg_seeds", type=int, default=None, help=mc_only)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--mpc-horizon", dest="mpc_horizon", type=int, default=None, help=mc_only)
    p.add_argument("--mpc-candidates", dest="mpc_candidates", type=int, default=None, help=mc_only)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("sweep", help="sweep a short-term goal value on a trained model")
    p.add_argument("--model", required=False)
    p.add_argument("--kind", choices=["constraint", "trajectory"], required=True)
    p.add_argument("--values", required=True, help="comma-separated goal values")
    p.add_argument("--gamma1", type=float, default=None)
    p.add_argument("--gamma2", type=float, default=None)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=10_000)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    from .experiments import GoalError
    from .nets import ModelFileError

    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError, ModelFileError, GoalError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure contract
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
