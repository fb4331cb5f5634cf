import dataclasses
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from llql import ConfigError, baselines, cli, compare, control, core, experiments, nets, reports
from llql.control import LlqlPolicy
from llql.cli import build_config, main, parse_config_file
from llql.experiments import EvalReport, EvalRow, compute_aggregates, evaluate, goal_from_dict
from llql.envs import MountainCar, make_env
from llql.nets import ModelFileError, load_model, save_model


def rows_fixture():
    return [
        EvalRow(seed=1, steps=90, success=True, vel_error=0.002, s_out=0, cum_reward=91.0),
        EvalRow(seed=2, steps=120, success=True, vel_error=0.004, s_out=3, cum_reward=88.5),
        EvalRow(seed=3, steps=1000, success=False, vel_error=None, s_out=7, cum_reward=-55.0),
    ]


def report_fixture():
    return EvalReport(rows_fixture(), MountainCar().spec.to_dict(), {"method": "llql"})


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def test_aggregates_recomputable_from_rows():
    rows = rows_fixture()
    agg = compute_aggregates(rows)
    assert agg["runs"] == 3
    assert agg["success"] == 2
    assert abs(agg["mean_steps"] - np.mean([90, 120, 1000])) < 1e-12
    assert abs(agg["std_steps"] - np.std([90, 120, 1000])) < 1e-12
    assert abs(agg["mean_vel_error"] - 0.003) < 1e-12  # over measured rows only
    assert abs(agg["mean_s_out"] - np.mean([0, 3, 7])) < 1e-12
    assert abs(agg["mean_reward"] - np.mean([91.0, 88.5, -55.0])) < 1e-12


def test_evaluate_metrics_on_scripted_policy():
    env = MountainCar(horizon=50)

    def full_throttle(X, k, rngs):
        return np.ones((len(X), 1))

    rows = evaluate(env, full_throttle, runs=3, seed0=123, hazard_limit=0.002, vel_target=0.0)
    assert len(rows) == 3
    for row in rows:
        assert row.steps == 50 and not row.success
        assert row.s_out > 0  # full throttle exceeds the tiny hazard limit
        assert row.vel_error is None  # never reached the goal
        assert row.cum_reward == pytest.approx(-0.1 * 50)


def test_evaluate_scores_mountain_car_velocity_at_the_hilltop():
    # a hilltop at the left wall: the first step reaches it and is scored
    env = MountainCar(goal_position=-1.2, horizon=10)
    rows = evaluate(env, lambda X, k, rngs: np.zeros((len(X), 1)), runs=1, seed0=5, vel_target=0.01)
    x = env.step(env.reset(5), np.array([0.0])).next_state
    assert rows[0].steps == 1 and rows[0].success
    assert rows[0].vel_error == abs(x[1] - 0.01) > 0


def test_evaluate_zero_runs_gives_empty_report():
    env = MountainCar(horizon=10)
    rows = evaluate(env, lambda X, k, rngs: np.zeros((len(X), 1)), runs=0)
    assert rows == []
    agg = compute_aggregates(rows)
    assert agg["runs"] == 0 and agg["success"] == 0


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def test_report_csv_shape(tmp_path):
    report = EvalReport(rows_fixture()[:1], MountainCar().spec.to_dict(), {})
    reports.write_report_csv(report, tmp_path / "r.csv")
    lines = (tmp_path / "r.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == "seed,steps,success,vel_error,s_out,cum_reward"


def test_report_formats_agree_and_are_byte_stable(tmp_path):
    report = report_fixture()
    paths = reports.emit_report(report, tmp_path, basename="report")
    first = [p.read_bytes() for p in paths]
    paths2 = reports.emit_report(report, tmp_path, basename="report")
    assert [p.read_bytes() for p in paths2] == first

    data = json.loads((tmp_path / "report.json").read_text())
    csv_rows = (tmp_path / "report.csv").read_text().splitlines()[1:]
    assert len(data["rows"]) == len(csv_rows)
    for row, line in zip(data["rows"], csv_rows):
        cells = line.split(",")
        assert int(cells[0]) == row["seed"]
        assert float(cells[5]) == row["cum_reward"]
    assert data["aggregates"] == compute_aggregates(report.rows)


def test_empty_report_emits_header_only(tmp_path):
    report = EvalReport([], MountainCar().spec.to_dict(), {})
    reports.write_report_csv(report, tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_text().splitlines() == [
        "seed,steps,success,vel_error,s_out,cum_reward"
    ]


def synthetic_logs(n, final_rewards):
    logs = []
    for i in range(n):
        rows = [
            core.EpisodeStats(e + 1, float(r), 100, 0.1, 0.2, 0.5, -1)
            for e, r in enumerate([0.0, final_rewards[i]])
        ]
        logs.append(rows)
    return logs


def test_curves_use_top_five_of_twenty(tmp_path):
    finals = list(range(20))
    logs = synthetic_logs(20, [float(f) for f in finals])
    runs = [experiments.TrainedRun(i, f"m{i}", log[-1].cumulative_reward, log) for i, log in enumerate(logs)]
    reports.write_curves({"llql": runs}, tmp_path / "curves.csv")
    lines = (tmp_path / "curves.csv").read_text().splitlines()
    assert lines[0] == "episode,mean_reward,std_reward,method"
    last = lines[-1].split(",")
    # top five finals are 15..19, mean 17
    assert float(last[1]) == pytest.approx(17.0)
    assert last[3] == "llql"


def test_sweep_table_roundtrip(tmp_path):
    rows = [
        {"value": 0.07, "mean_steps": 90.0, "std_steps": 2.0, "success": 10, "runs": 10},
        {"value": 0.03, "mean_steps": 140.0, "std_steps": 9.0, "success": 10, "runs": 10},
    ]
    reports.write_sweep(rows, tmp_path / "sweep.csv")
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("0.07,90.0,2.0,10,10")


def test_write_sweep_empty(tmp_path):
    reports.write_sweep([], tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv").read_text() == "value,mean_steps,std_steps,success,runs\n"


# ---------------------------------------------------------------------------
# Experiment plumbing
# ---------------------------------------------------------------------------


def test_goal_from_dict_variants():
    assert goal_from_dict(None) is None
    g = goal_from_dict({"kind": "mc_trajectory", "v_d": 0.02})
    assert g.active(np.array([0.1, 0.0]), 0)
    assert not g.active(np.array([-0.1, 0.0]), 0)
    c = goal_from_dict({"kind": "mc_constraint", "bound": 0.03, "margin": 0.03})
    assert c.bound == 0.03
    p = goal_from_dict({"kind": "pendulum_constraint"})
    assert p.state_index == 2
    with pytest.raises(ValueError):
        goal_from_dict({"kind": "nope"})


def test_speed_limit_margin_defaults_to_the_bound():
    for goal in (goal_from_dict({"kind": "mc_constraint", "bound": 0.02}), experiments.mc_speed_limit_goal(0.02)):
        assert goal.margin == 0.02
        assert goal.active(np.array([-0.5, 0.03]), 0)  # the limit is already broken
        assert not goal.active(np.array([-0.5, 0.015]), 0)
    assert goal_from_dict({"kind": "mc_constraint"}).margin == 0.033


def tiny_train_config(**kw):
    defaults = dict(episodes=1, hidden_sizes=(8, 8), normalizer_samples=10,
                    short_batch=4, long_batch=4)
    defaults.update(kw)
    return core.TrainConfig(**defaults)


def test_train_llql_batch_caches(tmp_path):
    cfg = tiny_train_config()
    runs = experiments.train_llql_batch(
        "mountain_car", cfg, [0, 1], tmp_path, workers=1, horizon=10
    )
    assert len(runs) == 2
    mtimes = [Path(r.model_path).stat().st_mtime_ns for r in runs]
    runs2 = experiments.train_llql_batch(
        "mountain_car", cfg, [0, 1], tmp_path, workers=1, horizon=10
    )
    assert [Path(r.model_path).stat().st_mtime_ns for r in runs2] == mtimes  # cache hit
    assert runs2[0].final_reward == runs[0].final_reward


def test_batches_in_a_worker_pool_write_the_files_of_serial_training(tmp_path):
    # each job derives all its randomness from its own seed, so the process
    # that runs it does not change a byte of its model or its log
    cfg = tiny_train_config()
    dcfg = tiny_ddpg_config()
    files = {}
    for workers in (1, 2):
        cache = tmp_path / str(workers)
        experiments.train_llql_batch("mountain_car", cfg, [0, 1], cache, workers=workers, horizon=6)
        experiments.train_ddpg_batch("mountain_car", dcfg, [(0, None), (1, "t1")], cache, workers=workers, horizon=6)
        files[workers] = {p.name: p.read_bytes() for p in cache.iterdir()}
    assert len(files[1]) == 8
    assert files[2] == files[1]


def test_importing_every_llql_module_loads_no_process_pool():
    # a fresh interpreter: this one may have run a pool already
    code = (
        "import importlib, pkgutil, sys, llql\n"
        "names = [m.name for m in pkgutil.iter_modules(llql.__path__)]\n"
        "for name in names: importlib.import_module('llql.' + name)\n"
        "print(' '.join(names))\n"
        "print(' '.join(m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules))\n"
    )
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env,
                         timeout=60).stdout.split("\n")
    assert {"experiments", "cli", "compare", "nets"} <= set(out[0].split())
    assert out[1] == ""


def test_top_k_runs_tie_break():
    runs = [
        experiments.TrainedRun(seed=3, model_path="a", final_reward=5.0, log=[]),
        experiments.TrainedRun(seed=1, model_path="b", final_reward=5.0, log=[]),
        experiments.TrainedRun(seed=2, model_path="c", final_reward=9.0, log=[]),
    ]
    top = experiments.top_k_runs(runs, 2)
    assert [r.seed for r in top] == [2, 1]


def test_top_k_selection_and_tie_break():
    finals = [5.0, 9.0, 9.0, 1.0, 7.0, 9.0]
    runs = [experiments.TrainedRun(seed, "m", final, []) for seed, final in enumerate(finals)]
    assert [r.seed for r in experiments.top_k_runs(runs, 3)] == [1, 2, 5]  # ties: lower seed


def test_cached_training_retrains_after_a_failed_log_write(tmp_path, monkeypatch):
    cfg = tiny_train_config()
    trainings = []
    real_train = core.train
    monkeypatch.setattr(core, "train", lambda *a, **kw: trainings.append(1) or real_train(*a, **kw))

    real_replace = os.replace

    def fail_on_log(src, dst):
        if str(dst).endswith(".log.json"):
            raise OSError("killed while writing the log")
        real_replace(src, dst)

    with monkeypatch.context() as m:
        m.setattr(os, "replace", fail_on_log)
        with pytest.raises(OSError):
            experiments.train_llql_batch("mountain_car", cfg, [0], tmp_path, horizon=10)
    assert not list(tmp_path.glob("*.log.json"))  # the model alone is no cache entry
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

    runs = experiments.train_llql_batch("mountain_car", cfg, [0], tmp_path, horizon=10)
    assert len(trainings) == 2
    assert runs[0].log == core.train(MountainCar(horizon=10), cfg).log


def test_log_csv_of_direct_and_cached_training_agree(tmp_path):
    cfg = tiny_train_config(episodes=2)
    direct = core.train(MountainCar(horizon=10), cfg)
    cached = experiments.train_llql_batch("mountain_car", cfg, [cfg.seed], tmp_path, horizon=10)
    core.log_to_csv(direct.log, tmp_path / "direct.csv")
    core.log_to_csv(cached[0].log, tmp_path / "cached.csv")
    text = (tmp_path / "direct.csv").read_text()
    assert text == (tmp_path / "cached.csv").read_text()
    for line in text.splitlines()[1:]:
        [float(cell) for cell in line.split(",")]


@pytest.mark.parametrize("env_name", ["mountain_car", "pendulum"])
def test_report_csv_numeric_cells_parse(tmp_path, env_name):
    # full force along the velocity reaches the hilltop and swings the pendulum upright
    env = make_env(env_name, horizon=200)
    def pump(X, k, rngs):
        return np.where(X[:, [env.VELOCITY]] >= 0, env.action_high[0], env.action_low[0])

    rows = evaluate(env, pump, runs=2, hazard_limit=0.01, vel_target=0.0)
    reports.write_report_csv(EvalReport(rows, env.spec.to_dict(), {}), tmp_path / "r.csv")
    for line in (tmp_path / "r.csv").read_text().splitlines()[1:]:
        seed, steps, success, vel_error, s_out, cum_reward = line.split(",")
        assert success in ("true", "false")
        [float(cell) for cell in (seed, steps, vel_error, s_out, cum_reward)]


def test_run_experiment_llql_and_dim_check(tmp_path):
    cfg = tiny_train_config()
    runs = experiments.train_llql_batch(
        "mountain_car", cfg, [0], tmp_path, workers=1, horizon=10
    )
    spec = experiments.ExperimentSpec(
        env="mountain_car", method="llql", model_path=runs[0].model_path,
        eval_runs=2, horizon=10,
    )
    report = experiments.run_experiment(spec)
    assert len(report.rows) == 2
    assert report.env["name"] == "mountain_car"

    bad = experiments.ExperimentSpec(
        env="pendulum", method="llql", model_path=runs[0].model_path, eval_runs=1
    )
    with pytest.raises(ValueError, match="incompatible"):
        experiments.run_experiment(bad)


def test_run_experiment_adjust_with_goal(tmp_path):
    cfg = tiny_train_config()
    runs = experiments.train_llql_batch(
        "mountain_car", cfg, [0], tmp_path, workers=1, horizon=10
    )
    spec = experiments.ExperimentSpec(
        env="mountain_car", method="adjust",
        policy_path=runs[0].model_path, dynamics_path=runs[0].model_path,
        goal={"kind": "mc_constraint", "bound": 0.033, "margin": 0.033},
        eval_runs=1, horizon=10, hazard_limit=0.035,
    )
    report = experiments.run_experiment(spec)
    assert report.rows[0].s_out == 0


@pytest.mark.parametrize("role", ["llql", "ddpg"])
def test_load_policy_reads_the_model_file_once(tmp_path, monkeypatch, role):
    env = MountainCar(horizon=10)
    path = tmp_path / f"{role}.model"
    meta = {"env": env.spec.to_dict()}
    if role == "llql":
        result = core.train(env, tiny_train_config())
        core.save_llql_model(path, result.dynamics, result.qmodel, meta)
        reference = LlqlPolicy(core.load_llql_model(path)[1])
    else:
        cfg = baselines.DdpgConfig(episodes=1, hidden_sizes=(8, 8), normalizer_samples=10, batch=4)
        baselines.save_ddpg_model(path, baselines.ddpg_train(env, cfg)[0], meta)
        reference = baselines.load_ddpg_model(path)[0]
    reads = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(path):
            reads.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    policy = experiments.load_policy(str(path), env)
    assert len(reads) == 1
    X = np.array([[-0.5, 0.01]])
    assert np.array_equal(policy(X), reference(X))


def test_adjust_reads_a_shared_model_file_once(tmp_path, monkeypatch):
    env = MountainCar(horizon=10)
    path = tmp_path / "llql.model"
    result = core.train(env, tiny_train_config())
    core.save_llql_model(path, result.dynamics, result.qmodel, {"env": env.spec.to_dict()})
    spec = experiments.ExperimentSpec(
        env="mountain_car", method="adjust", policy_path=str(path), dynamics_path=str(path),
        goal={"kind": "mc_constraint", "bound": 0.02}, eval_runs=2, horizon=10,
    )
    expected = experiments.run_experiment(spec).rows
    reads = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(path):
            reads.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    assert experiments.run_experiment(spec).rows == expected
    assert len(reads) == 1


def test_adjust_builds_a_shared_model_once(tmp_path, monkeypatch):
    env = MountainCar(horizon=10)
    result = core.train(env, tiny_train_config())
    llql, dynamics = tmp_path / "llql.model", tmp_path / "dynamics.model"
    core.save_llql_model(llql, result.dynamics, result.qmodel, {"env": env.spec.to_dict()})
    core.save_llql_model(dynamics, result.dynamics, None, {"env": env.spec.to_dict()})
    builds = []
    real_model_from = core.llql_model_from

    def counting_model_from(mf):
        builds.append(mf)
        return real_model_from(mf)

    monkeypatch.setattr(core, "llql_model_from", counting_model_from)
    for path in (llql, dynamics):
        spec = experiments.ExperimentSpec(
            env="mountain_car", method="adjust", policy_path=str(path), dynamics_path=str(path),
            goal={"kind": "mc_constraint", "bound": 0.02}, eval_runs=2, horizon=10,
        )
        if path == llql:
            experiments.run_experiment(spec)
            assert len(builds) == 1
        else:  # a file without a value model is no policy
            with pytest.raises(ValueError, match="role 'dynamics' is not a loadable policy"):
                experiments.run_experiment(spec)


# ---------------------------------------------------------------------------
# Config files and CLI
# ---------------------------------------------------------------------------


def test_parse_config_file(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text("episodes = 3\n# comment\nsigma0=0.4\nhidden_sizes = 8,8\n\n")
    assert parse_config_file(p) == {"episodes": "3", "sigma0": "0.4", "hidden_sizes": "8,8"}


def test_parse_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        parse_config_file(tmp_path / "missing.cfg")
    p = tmp_path / "bad.cfg"
    p.write_text("episodes 3\n")
    with pytest.raises(ConfigError):
        parse_config_file(p)


def test_build_config_types_and_unknown_keys():
    cfg = build_config(core.TrainConfig, {"episodes": "3", "sigma0": "0.4", "hidden_sizes": "8,8"})
    assert cfg.episodes == 3 and cfg.sigma0 == 0.4 and cfg.hidden_sizes == (8, 8)
    with pytest.raises(ConfigError, match="unknown config key"):
        build_config(core.TrainConfig, {"episodez": "3"})
    with pytest.raises(ConfigError):
        build_config(core.TrainConfig, {"episodes": "three"})
    with pytest.raises(ConfigError):
        build_config(core.TrainConfig, {"discount": "1.7"})  # dataclass validation


@pytest.mark.parametrize("cls", [core.TrainConfig, baselines.DdpgConfig])
def test_every_config_field_has_a_typed_default_that_its_text_rebuilds(cls):
    # build_config coerces a value to the type of its field's default
    text = {}
    for field in dataclasses.fields(cls):
        assert type(field.default) in (int, float, str, bool, tuple), field.name
        default = field.default
        text[field.name] = ",".join(map(str, default)) if isinstance(default, tuple) else str(default)
    assert build_config(cls, text) == cls()


def test_cli_help_exits_zero(capsys):
    assert main(["train", "--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_cli_unknown_flag_exits_two(capsys):
    assert main(["train", "--bogus"]) == 2


def test_cli_eval_missing_model_exits_two(tmp_path, capsys):
    code = main(["eval", "--model", str(tmp_path / "nope.model")])
    assert code == 2
    assert "nope.model" in capsys.readouterr().err


def test_cli_eval_truncated_model_exits_two(tmp_path, capsys):
    runs = experiments.train_llql_batch(
        "mountain_car", tiny_train_config(), [0], tmp_path, workers=1, horizon=10
    )
    truncated = tmp_path / "truncated.model"
    truncated.write_bytes(Path(runs[0].model_path).read_bytes()[:-100])
    assert main(["eval", "--model", str(truncated), "--out", str(tmp_path)]) == 2
    assert "truncated.model" in capsys.readouterr().err


@pytest.mark.parametrize("header", [
    {"format": "llql-model-v1"},
    {"format": "llql-model-v1", "normalizer": None, "meta": {},
     "nets": [{"name": "f", "dtype": "float64"}]},
])
def test_cli_eval_malformed_model_header_exits_two(tmp_path, capsys, header):
    path = tmp_path / "malformed.model"
    data = json.dumps(header).encode()
    path.write_bytes(len(data).to_bytes(8, "little") + data)
    assert main(["eval", "--model", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "malformed.model" in err and "malformed model header" in err


def test_cli_adjust_requires_goal(tmp_path, capsys):
    code = main(["adjust", "--policy", "cmd:true", "--dynamics", str(tmp_path / "no.model")])
    assert code == 2


def test_cli_train_eval_sweep_round_trip(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        "episodes = 1\nhidden_sizes = 8,8\nnormalizer_samples = 10\n"
        "short_batch = 4\nlong_batch = 4\n"
    )
    out = tmp_path / "run"
    code = main([
        "train", "--env", "mountain_car", "--config", str(cfg), "--seed", "0",
        "--horizon", "12", "--out", str(out),
    ])
    assert code == 0
    assert (out / "model.model").exists() and (out / "log.csv").exists()

    code = main([
        "eval", "--model", str(out / "model.model"), "--runs", "2",
        "--horizon", "12", "--out", str(out),
    ])
    assert code == 0
    assert (out / "report.csv").exists() and (out / "report.json").exists()

    code = main([
        "sweep", "--model", str(out / "model.model"), "--kind", "constraint",
        "--values", "0.07,0.05", "--runs", "1", "--out", str(out),
    ])
    assert code == 0
    assert (out / "sweep.csv").read_text().count("\n") == 3


def test_cli_output_dir_env_override(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("episodes = 1\nhidden_sizes = 8,8\nnormalizer_samples = 5\n"
                   "short_batch = 2\nlong_batch = 2\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("LLQL_OUTPUT_DIR", str(tmp_path / "envout"))
    code = main([
        "train", "--env", "mountain_car", "--config", str(cfg), "--horizon", "6",
    ])
    assert code == 0
    assert (tmp_path / "envout" / "model.model").exists()


def test_cli_train_bad_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("not_a_key = 1\n")
    code = main(["train", "--env", "mountain_car", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "not_a_key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method, line, message", [
    ("llql", "normalizer_samples = 0", "normalizer_samples must be >= 2"),
    ("llql", "normalizer_samples = 1", "normalizer_samples must be >= 2"),
    ("ddpg", "normalizer_samples = 0", "normalizer_samples must be >= 2"),
    ("ddpg", "normalizer_samples = 1", "normalizer_samples must be >= 2"),
    ("ddpg", "episodes = 0", "episodes must be >= 1"),
    ("ddpg", "discount = 1.5", "discount must lie in (0, 1)"),
    ("ddpg", "batch = 0", "batch must be >= 1"),
    ("llql", "tau = 2.0", "tau must lie in [0, 1]"),
    ("ddpg", "tau = 2.0", "tau must lie in [0, 1]"),
    ("llql", "lr_long = -0.001", "lr_long must be positive and finite"),
    ("llql", "lr_short = 0", "lr_short must be positive and finite"),
    ("llql", "lr_short_after = inf", "lr_short_after must be positive and finite"),
    ("llql", "lr_short_switch_step = -3", "lr_short_switch_step must be >= 0"),
    ("ddpg", "critic_lr = -1", "critic_lr must be positive and finite"),
    ("ddpg", "actor_lr = 0", "actor_lr must be positive and finite"),
    *((method, line, message) for method in ("llql", "ddpg") for line, message in (
        ("hidden_sizes = 0", "hidden_sizes must all be >= 1"),
        ("hidden_sizes = 4,0", "hidden_sizes must all be >= 1"),
        ("dtype = int32", "dtype int32 is not a float type"),
        ("dtype = banana", "data type 'banana' not understood"),
        ("buffer_capacity = 0", "buffer_capacity must be >= 1"),
        ("sigma0 = nan", "sigma0 must be positive and finite"),
        ("sigma0 = 0", "sigma0 must be positive and finite"),
        ("seed = -1", "seed must be >= 0"),
    )),
    ("llql", "delta = nan", "delta must be positive and finite"),
    ("llql", "delta = -0.001", "delta must be positive and finite"),
])
def test_cli_train_bad_config_value_exits_two(tmp_path, capsys, method, line, message):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"hidden_sizes = 4,4\n{line}\n")
    code = main(["train", "--method", method, "--env", "mountain_car", "--horizon", "5", "--config", str(cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method, policy, message", [
    ("llql", "{llql}", "method llql takes no policy"),
    ("ddpg", "{llql}", "method ddpg takes no policy"),
    ("llql", "{missing}", "method llql takes no policy"),
    ("llql", "cmd:true", "method llql takes no policy"),
    ("dynamics", None, "method dynamics needs a policy"),
])
def test_cli_train_policy_the_method_ignores_or_needs_exits_two(tmp_path, capsys, monkeypatch, gate_models, method,
                                                                 policy, message):
    # the check comes first: no policy file is read and no policy process starts
    monkeypatch.setattr(control.subprocess, "Popen", None)
    argv = ["train", "--method", method, "--env", "mountain_car", *tiny_run_args(tmp_path, "train")]
    if policy is not None:
        argv += ["--policy", policy.format(missing=tmp_path / "missing.model", **gate_models)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def zero_policy(X):
    return np.zeros((len(X), 1))


@pytest.mark.parametrize("method, kwargs, message", [
    ("llql", dict(reward_mod="c1"), "method llql applies no reward mod"),
    ("dynamics", dict(reward_mod="c1", policy=zero_policy), "method dynamics applies no reward mod"),
    ("llql", dict(policy=zero_policy), "method llql takes no policy"),
    ("ddpg", dict(policy=zero_policy), "method ddpg takes no policy"),
    ("dynamics", {}, "method dynamics needs a policy"),
    ("sarsa", {}, "unknown training method 'sarsa'"),
])
def test_train_and_save_rejects_an_argument_the_method_ignores_or_lacks(tmp_path, method, kwargs, message):
    config = baselines.DdpgConfig() if method == "ddpg" else core.TrainConfig()
    with pytest.raises(ConfigError, match=message):
        experiments.train_and_save(MountainCar(horizon=5), method, config, tmp_path / "m.model", {}, **kwargs)
    assert not (tmp_path / "m.model").exists()


# ---------------------------------------------------------------------------
# One evaluation path: DDPG, goal parameters, velocity targets, model meta
# ---------------------------------------------------------------------------


def tiny_ddpg_config(**kw):
    return baselines.DdpgConfig(**{**dict(episodes=1, hidden_sizes=(8, 8), normalizer_samples=10, batch=4), **kw})


def saved_model(path, env, method="llql"):
    """Train a tiny model of `method` on `env` and save it with its env spec."""
    if method == "ddpg":
        baselines.save_ddpg_model(path, baselines.ddpg_train(env, tiny_ddpg_config())[0], {"env": env.spec.to_dict()})
    else:
        result = core.train(env, tiny_train_config())
        core.save_llql_model(path, result.dynamics, result.qmodel, {"env": env.spec.to_dict()})
    return str(path)


def per_run_rows(env, controller, runs, seed0, hazard_limit, vel_target):
    """The evaluation loop before lockstep, kept as the reference: one run
    at a time, one state at a time as a one-row batch, each run with its
    own generator."""
    rows = []
    for seed in range(seed0, seed0 + runs):
        rng = np.random.default_rng(seed)
        x = env.reset(seed)
        total, steps, success, s_out, vel_errors = 0.0, 0, False, 0, []
        for k in range(env.horizon):
            sr = env.step(x, controller(x[None], k, [rng])[0])
            total += sr.reward
            steps = k + 1
            x = sr.next_state
            v = float(x[env.VELOCITY])
            if hazard_limit is not None and abs(v) > hazard_limit:
                s_out += 1
            if vel_target is not None and env.scored(x):
                vel_errors.append(abs(v - vel_target))
            if sr.reached:
                success = True
                break
        rows.append(EvalRow(seed, steps, success, float(np.mean(vel_errors)) if vel_errors else None, s_out, total))
    return rows


def controllers(env, model_path, ddpg_path):
    """Each evaluation mode's controller, built as `run_experiment` builds it."""
    dyn, q, _ = core.load_llql_model(model_path)
    name = env.spec.name
    trajectory = goal_from_dict({"kind": "mc_trajectory", "v_d": 0.01, "switch_position": -0.5}
                                if name == "mountain_car" else {"kind": "pendulum_trajectory"})
    constraint = goal_from_dict({"kind": "mc_constraint", "bound": 0.005, "margin": 0.0}
                                if name == "mountain_car" else {"kind": "pendulum_constraint", "bound": 1.0})
    low, high = env.action_low, env.action_high
    ddpg = baselines.load_ddpg_model(ddpg_path)[0]
    out = {
        "greedy": lambda X, k, rng: control.long_term_action(q, X, rng).action,
        "ddpg": lambda X, k, rng: ddpg(X),
    }
    for mode, goal, kwargs in (
        ("trajectory", trajectory, dict(qmodel=q)),
        ("constraint", constraint, dict(qmodel=q)),
        ("adjust_trajectory", trajectory, dict(policy=LlqlPolicy(q), action_low=low, action_high=high)),
        ("adjust_constraint", constraint, dict(policy=ddpg, action_low=low, action_high=high)),
    ):
        out[mode] = control.GoalController(dyn, goal, **kwargs).act
    if name == "mountain_car":
        reward_fn = baselines.mountain_car_reward_fn(env.goal_position)
        cfg = baselines.MpcConfig(horizon=3, candidates=20)

        def mpc(X, k, rngs):
            return np.array([baselines.mpc_action(dyn, x, reward_fn, cfg, r, low, high) for x, r in zip(X, rngs)])

        out["mpc"] = mpc
    return out


@pytest.mark.parametrize("env", [MountainCar(goal_position=-0.45, horizon=60), make_env("pendulum", horizon=40)],
                         ids=["mountain_car", "pendulum"])
def test_lockstep_evaluate_equals_the_per_run_loop_bitwise(tmp_path, env):
    model = saved_model(tmp_path / "llql.model", env)
    ddpg = saved_model(tmp_path / "ddpg.model", env, "ddpg")
    scoring = [(0.01, 0.0), (None, None)] if env.spec.name == "mountain_car" else [(1.0, 0.0), (None, None)]
    rows = []
    for mode, controller in controllers(env, model, ddpg).items():
        for hazard_limit, vel_target in scoring:
            got = evaluate(env, controller, runs=5, seed0=70, hazard_limit=hazard_limit, vel_target=vel_target)
            assert got == per_run_rows(env, controller, 5, 70, hazard_limit, vel_target), mode
            rows += got
    # the runs of one evaluation end at different steps, and every column is exercised
    if env.spec.name == "mountain_car":
        assert len({r.steps for r in rows}) > 3 and any(r.success for r in rows)
    assert any(r.vel_error is None for r in rows) and any(r.vel_error is not None for r in rows)
    assert any(r.s_out for r in rows)


@pytest.mark.parametrize("changes, message", [
    (dict(method="llql", reward_mod="c1"), "method llql applies no reward mod"),
    (dict(method="ddpg", reward_mod="c1"), "method ddpg applies no reward mod"),
    (dict(method="adjust", reward_mod="c1", goal={"kind": "mc_constraint"}), "method adjust applies no reward mod"),
    (dict(method="mpc", reward_mod="c9"), "unknown reward mod 'c9'; the mods are t1, "),
    (dict(method="mpc", env="pendulum"), "method mpc plans on mountain_car models, not pendulum"),
    (dict(method="mpc", goal={"kind": "mc_constraint"}), "method mpc applies no goal"),
    (dict(method="adjust"), "method adjust needs a goal"),
    (dict(method="llql", goal={"kind": "mc_constraint", "bound": 0.0}), "bound must be positive"),
    (dict(method="llql", goal={"kind": "mc_trajectory", "gamma1": -1.0}), "gamma1 and gamma2"),
    (dict(method="llql", goal={"kind": "mc_sideways"}), "unknown goal kind"),
    (dict(method="llql", env="cartpole"), "unknown environment 'cartpole'"),
    (dict(method="sarsa"), "unknown method 'sarsa'"),
])
def test_run_experiment_rejects_a_run_the_method_cannot_make_before_reading_a_model(tmp_path, changes, message):
    missing = str(tmp_path / "missing.model")  # reading it would raise FileNotFoundError
    spec = experiments.ExperimentSpec(**{
        **dict(env="mountain_car", model_path=missing, policy_path=missing, dynamics_path=missing, eval_runs=1,
               horizon=10),
        **changes,
    })
    with pytest.raises(ConfigError, match=message):
        experiments.run_experiment(spec)


def test_run_experiment_ddpg_rows_equal_a_rollout_of_the_model(tmp_path):
    env = MountainCar(horizon=15)
    path = saved_model(tmp_path / "ddpg.model", env, "ddpg")
    spec = experiments.ExperimentSpec(env="mountain_car", method="ddpg", model_path=path, eval_runs=3,
                                      horizon=15, eval_seed0=40)
    model = baselines.load_ddpg_model(path)[0]
    expected = []
    for seed in range(40, 43):
        x, total = env.reset(seed), 0.0
        for k in range(env.horizon):
            step = env.step(x, model(x[None])[0])
            x, total = step.next_state, total + step.reward
            if step.reached:
                break
        expected.append(EvalRow(seed, k + 1, step.reached, None, 0, total))
    assert experiments.run_experiment(spec).rows == expected


def test_cli_eval_ddpg_exits_zero(tmp_path, capsys):
    cfg = tmp_path / "ddpg.cfg"
    cfg.write_text("episodes = 1\nhidden_sizes = 8,8\nnormalizer_samples = 10\nbatch = 4\n")
    out = tmp_path / "run"
    assert main(["train", "--method", "ddpg", "--env", "mountain_car", "--config", str(cfg),
                 "--horizon", "12", "--out", str(out)]) == 0
    assert main(["eval", "--method", "ddpg", "--model", str(out / "model.model"), "--runs", "2",
                 "--horizon", "12", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["rows"]) == 2 and report["meta"]["method"] == "ddpg"


def tiny_run_args(tmp_path, command):
    """Options that keep a `command` run tiny, should it start."""
    if command == "eval":
        return ["--runs", "1", "--horizon", "3", "--mpc-candidates", "4"]
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("episodes = 1\nhidden_sizes = 8,8\nnormalizer_samples = 10\n")
    return ["--config", str(cfg), "--horizon", "5"]


def tiny_cli_argv(tmp_path, command) -> list:
    """A tiny `command` run on mountain car, on a saved model unless it trains."""
    model = saved_model(tmp_path / "m.model", MountainCar(horizon=10)) if command != "train" else None
    tiny_eval = tiny_run_args(tmp_path, "eval")
    return {
        "train": ["train", "--env", "mountain_car", *tiny_run_args(tmp_path, "train")],
        "eval": ["eval", "--model", model, *tiny_eval],
        "mpc": ["eval", "--method", "mpc", "--model", model, *tiny_eval],
        "adjust": ["adjust", "--policy", model, "--dynamics", model, "--goal", "constraint", *tiny_eval[:4]],
        "sweep": ["sweep", "--model", model, "--kind", "constraint", "--values", "0.02", "--runs", "1"],
        "compare": ["compare", "--table", "constraint", "--runs", "1"],
    }[command]


@pytest.mark.parametrize("command, option, value", [
    ("train", "--horizon", "0"),
    ("eval", "--horizon", "0"),
    ("eval", "--horizon", "-5"),
    ("eval", "--runs", "0"),
    ("eval", "--runs", "-3"),
    ("mpc", "--mpc-candidates", "0"),
    ("mpc", "--mpc-horizon", "-1"),
    ("adjust", "--runs", "0"),
    ("sweep", "--runs", "0"),
    ("compare", "--llql-seeds", "0"),
    ("compare", "--ddpg-seeds", "0"),
    ("compare", "--mpc-candidates", "0"),
    ("compare", "--workers", "0"),
])
def test_cli_count_option_below_one_exits_two(tmp_path, capsys, monkeypatch, command, option, value):
    # should the option pass, the table fails fast instead of training its seeds
    monkeypatch.setattr(compare, "build_mountain_car_table", None)
    assert main([*tiny_cli_argv(tmp_path, command), option, value, "--out", str(tmp_path / "out")]) == 2
    assert f"argument {option}: must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, option", [
    ("train", "--seed"), ("eval", "--seed0"), ("adjust", "--seed0"), ("sweep", "--seed0"),
])
def test_cli_negative_seed_exits_two(tmp_path, capsys, command, option):
    assert main([*tiny_cli_argv(tmp_path, command), option, "-1", "--out", str(tmp_path / "out")]) == 2
    assert f"argument {option}: must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "adjust"])
def test_cli_evaluates_a_model_trained_for_a_goal_at_zero_against_that_goal(tmp_path, capsys, command):
    # a goal at 0 is falsy, so only a missing goal may take the default
    out = tmp_path / "run"
    assert main(["train", "--env", "mountain_car", *tiny_run_args(tmp_path, "train"), "--goal-position", "0",
                 "--out", str(out)]) == 0
    model = str(out / "model.model")
    argv = {
        "eval": ["eval", "--model", model],
        "adjust": ["adjust", "--policy", model, "--dynamics", model, "--goal", "constraint"],
    }[command]
    assert main([*argv, "--runs", "1", "--horizon", "3", "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["env"]["goal_position"] == 0.0


@pytest.mark.parametrize("method", ["ddpg", "mpc"])
def test_cli_eval_goal_with_ddpg_or_mpc_exits_two(tmp_path, capsys, method):
    path = saved_model(tmp_path / "m.model", MountainCar(horizon=10), "ddpg" if method == "ddpg" else "llql")
    assert main(["eval", "--method", method, "--model", path, "--goal", "constraint",
                 *tiny_run_args(tmp_path, "eval"), "--out", str(tmp_path)]) == 2
    assert "applies no goal" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command, method", [("eval", "llql"), ("eval", "ddpg"), ("train", "llql"),
                                             ("train", "dynamics")])
def test_cli_reward_mod_the_method_ignores_exits_two(tmp_path, capsys, command, method):
    if command == "eval":
        argv = ["eval", "--model", saved_model(tmp_path / "m.model", MountainCar(horizon=10), method)]
    else:
        argv = ["train", "--env", "mountain_car"]
    assert main([*argv, *tiny_run_args(tmp_path, command), "--method", method, "--reward-mod", "c1",
                 "--out", str(tmp_path / "out")]) == 2
    assert f"method {method} applies no reward mod" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "train"])
def test_cli_unknown_reward_mod_exits_two(tmp_path, capsys, command):
    if command == "eval":
        path = saved_model(tmp_path / "m.model", MountainCar(horizon=10))
        argv = ["eval", "--method", "mpc", "--model", path]
    else:
        argv = ["train", "--method", "ddpg", "--env", "mountain_car"]
    assert main([*argv, *tiny_run_args(tmp_path, command), "--reward-mod", "c9",
                 "--out", str(tmp_path / "out")]) == 2
    assert "unknown reward mod 'c9'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_train_pendulum_ddpg_with_a_reward_mod_exits_two(tmp_path, capsys):
    # the mods would read sin(theta) as the car's velocity
    assert main(["train", "--method", "ddpg", "--env", "pendulum", "--reward-mod", "c1",
                 *tiny_run_args(tmp_path, "train"), "--out", str(tmp_path / "out")]) == 2
    assert "not pendulum" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_eval_mpc_on_a_pendulum_model_exits_two(tmp_path, capsys):
    path = saved_model(tmp_path / "pendulum.model", make_env("pendulum", horizon=10))
    assert main(["eval", "--method", "mpc", "--model", path, *tiny_run_args(tmp_path, "eval"),
                 "--out", str(tmp_path / "out")]) == 2
    assert "not pendulum" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("goal_options, message", [
    (["--goal", "constraint", "--bound", "-1"], "bound must be positive"),
    (["--goal", "constraint", "--bound", "0"], "bound must be positive"),
    (["--goal", "trajectory", "--gamma1", "-1"], "gamma1 and gamma2 must be non-negative"),
    (["--goal", "trajectory", "--gamma1", "0", "--gamma2", "0"], "not both zero"),
    (["--goal", "constraint", "--bound", "nan"], "bound must be positive"),
    (["--goal", "trajectory", "--gamma2", "nan"], "gamma1 and gamma2 must be non-negative"),
])
@pytest.mark.parametrize("command", ["eval", "adjust"])
def test_cli_goal_value_out_of_range_exits_two(tmp_path, capsys, gate_models, command, goal_options, message):
    model = gate_models["llql"]
    argv = ["eval", "--model", model] if command == "eval" else ["adjust", "--policy", model, "--dynamics", model]
    assert main([*argv, *goal_options, "--runs", "1", "--horizon", "3", "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_eval_model_of_an_unknown_env_exits_two(tmp_path, capsys, gate_models):
    mf = load_model(gate_models["llql"])
    path = tmp_path / "cartpole.model"
    save_model(path, mf.nets, mf.normalizer, {**mf.meta, "env": {**mf.meta["env"], "name": "cartpole"}})
    assert main(["eval", "--model", str(path), "--runs", "1", "--out", str(tmp_path / "out")]) == 2
    assert "unknown environment 'cartpole'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_goal_from_dict_rejects_a_parameter_its_goal_does_not_take():
    with pytest.raises(ValueError, match="bnd"):
        goal_from_dict({"kind": "mc_constraint", "bnd": 0.02})
    with pytest.raises(ValueError, match="switch_position"):
        goal_from_dict({"kind": "pendulum_trajectory", "switch_position": 0.0})


def test_goal_params_fill_in_the_factory_defaults():
    assert experiments.goal_params({"kind": "mc_constraint", "bound": 0.02}) == {
        "kind": "mc_constraint", "bound": 0.02, "margin": None,
    }
    assert experiments.goal_params({"kind": "pendulum_trajectory"}) == {
        "kind": "pendulum_trajectory", "gamma1": 1.0, "gamma2": 100.0, "cos_threshold": 0.99, "v_d": 0.0,
    }


@pytest.mark.parametrize("argv", [
    ["--goal", "constraint", "--gamma2", "5"],
    ["--goal", "trajectory", "--bound", "0.02"],
])
def test_cli_eval_goal_option_the_goal_does_not_take_exits_two(tmp_path, capsys, argv):
    path = saved_model(tmp_path / "llql.model", MountainCar(horizon=10))
    assert main(["eval", "--model", path, "--runs", "1", "--horizon", "5", "--out", str(tmp_path), *argv]) == 2
    assert "takes no" in capsys.readouterr().err


def test_cli_eval_goal_option_without_a_goal_exits_two(tmp_path, capsys):
    path = saved_model(tmp_path / "llql.model", MountainCar(horizon=10))
    argv = ["eval", "--model", path, "--runs", "1", "--horizon", "5", "--out", str(tmp_path)]
    for options in (["--bound", "0.001"], ["--gamma2", "5", "--switch-position", "0.1"]):
        assert main([*argv, *options]) == 2
        assert "needs --goal" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
    # the velocity target alone scores a greedy run
    assert main([*argv, "--v-d", "0.02"]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["meta"]["goal"] is None


def test_cli_sweep_without_a_value_exits_two(tmp_path, capsys):
    # with no value to run, a missing model file would go unread
    assert main(["sweep", "--model", str(tmp_path / "missing.model"), "--kind", "constraint", "--values", ",",
                 "--out", str(tmp_path / "out")]) == 2
    assert "--values names no goal value" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_sweep_gamma_on_a_constraint_sweep_exits_two(tmp_path, capsys):
    path = saved_model(tmp_path / "llql.model", MountainCar(horizon=10))
    assert main(["sweep", "--model", path, "--kind", "constraint", "--values", "0.05", "--gamma2", "5",
                 "--runs", "1", "--out", str(tmp_path)]) == 2


def test_cli_eval_report_meta_records_every_goal_parameter(tmp_path):
    path = saved_model(tmp_path / "llql.model", MountainCar(horizon=10))
    assert main(["eval", "--model", path, "--goal", "trajectory", "--gamma2", "500", "--runs", "1",
                 "--horizon", "5", "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "report.json").read_text())["meta"]
    assert meta["goal"] == {"kind": "mc_trajectory", "v_d": 0.025, "gamma1": 1.0, "gamma2": 500.0,
                            "switch_position": 0.0}


@pytest.mark.parametrize("command", ["eval", "adjust"])
def test_cli_pendulum_trajectory_scores_velocity_against_the_goals_target(tmp_path, command):
    path = saved_model(tmp_path / "pendulum.model", make_env("pendulum", horizon=10))
    common = dict(env="pendulum", goal={"kind": "pendulum_trajectory"}, eval_runs=3, horizon=30)
    if command == "eval":
        argv = ["eval", "--model", path]
        spec = experiments.ExperimentSpec(method="llql", model_path=path, v_d=0.0, **common)
    else:
        argv = ["adjust", "--policy", path, "--dynamics", path]
        spec = experiments.ExperimentSpec(method="adjust", policy_path=path, dynamics_path=path, v_d=0.0, **common)
    assert main([*argv, "--goal", "trajectory", "--runs", "3", "--horizon", "30", "--out", str(tmp_path)]) == 0
    expected = experiments.run_experiment(spec).rows
    assert any(row.vel_error is not None for row in expected)  # the pendulum passed upright
    rows = json.loads((tmp_path / "report.json").read_text())["rows"]
    assert [EvalRow(**row) for row in rows] == expected


@pytest.mark.parametrize("role", ["llql", "dynamics", "ddpg"])
def test_model_files_hold_the_whole_blob_encoding_of_their_nets(tmp_path, role):
    """Saving writes each layer as it comes; the bytes are those of the
    nets' flat vectors concatenated and encoded at once."""
    env = MountainCar(horizon=10)
    path = tmp_path / f"{role}.model"
    if role == "ddpg":
        model = baselines.ddpg_train(env, tiny_ddpg_config())[0]
        baselines.save_ddpg_model(path, model, {"env": env.spec.to_dict()})
        saved = {"actor": model.actor, "critic": model.critic}
    else:
        result = core.train(env, tiny_train_config())
        q = result.qmodel if role == "llql" else None
        core.save_llql_model(path, result.dynamics, q, {"env": env.spec.to_dict()})
        saved = {"f": result.dynamics.f_net, "g": result.dynamics.g_net}
        if q is not None:
            saved.update(v=q.v_net, h=q.h_net, d=q.d_net)
    data = path.read_bytes()
    (header_len,) = struct.unpack("<Q", data[:8])
    assert [net["name"] for net in json.loads(data[8 : 8 + header_len])["nets"]] == list(saved)
    blob = np.concatenate([net.flat_params.astype(np.float64) for net in saved.values()]).astype("<f8").tobytes()
    assert data[8 + header_len :] == blob


def counting_loads(monkeypatch) -> list:
    """The path of every `nets.load_model` call from now on, wherever an llql
    module binds that function."""
    real, paths = nets.load_model, []

    def counting(path, *args, **kwargs):
        paths.append(str(path))
        return real(path, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "llql" or name.startswith("llql.")) and getattr(module, "load_model", None) is real:
            monkeypatch.setattr(module, "load_model", counting)
    return paths


@pytest.mark.parametrize("command", ["eval", "adjust"])
def test_cli_run_reads_the_model_parameters_once(tmp_path, monkeypatch, command):
    path = saved_model(tmp_path / "m.model", MountainCar(horizon=10))
    argv = ["eval", "--model", path] if command == "eval" else ["adjust", "--policy", path, "--dynamics", path]
    reads = counting_loads(monkeypatch)
    assert main([*argv, "--goal", "constraint", "--runs", "1", "--horizon", "3", "--out", str(tmp_path)]) == 0
    assert reads == [path]


def without_meta(path, key):
    """A copy of model file `path` whose meta lacks `key`."""
    mf = load_model(path)
    copy = Path(path).with_name(f"no-{key}-{Path(path).name}")
    save_model(copy, mf.nets, mf.normalizer, {k: v for k, v in mf.meta.items() if k != key})
    return str(copy)


@pytest.mark.parametrize("key", ["env", "delta"])
@pytest.mark.parametrize("command", ["eval", "adjust"])
def test_cli_model_meta_without_env_or_delta_exits_two(tmp_path, capsys, key, command):
    bad = without_meta(saved_model(tmp_path / "llql.model", MountainCar(horizon=10)), key)
    argv = ["eval", "--model", bad] if command == "eval" else ["adjust", "--policy", bad, "--dynamics", bad]
    assert main([*argv, "--goal", "constraint", "--runs", "1", "--horizon", "5", "--out", str(tmp_path)]) == 2
    assert f"model meta has no {key}" in capsys.readouterr().err


def test_cli_adjust_ddpg_policy_without_env_exits_two(tmp_path, capsys):
    env = MountainCar(horizon=10)
    dynamics = saved_model(tmp_path / "llql.model", env)
    policy = without_meta(saved_model(tmp_path / "ddpg.model", env, "ddpg"), "env")
    assert main(["adjust", "--policy", policy, "--dynamics", dynamics, "--goal", "constraint", "--runs", "1",
                 "--horizon", "5", "--out", str(tmp_path)]) == 2
    assert "model meta has no env" in capsys.readouterr().err


def test_model_from_without_env_raises_model_file_error(tmp_path):
    env = MountainCar(horizon=10)
    for method, model_from in (("llql", core.llql_model_from), ("ddpg", baselines.ddpg_model_from)):
        bad = without_meta(saved_model(tmp_path / f"{method}.model", env, method), "env")
        with pytest.raises(ModelFileError, match="no env"):
            model_from(core.read_model(bad))


# ---------------------------------------------------------------------------
# The model-file gate: a file of another role or env exits 2
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gate_models(tmp_path_factory):
    """One tiny model file per role on mountain car, and an LLQL file on the
    pendulum: {name: path}."""
    root = tmp_path_factory.mktemp("gate")
    env = MountainCar(horizon=10)
    result = core.train(env, tiny_train_config())
    paths = {name: str(root / f"{name}.model") for name in ("llql", "dynamics")}
    core.save_llql_model(paths["llql"], result.dynamics, result.qmodel, {"env": env.spec.to_dict()})
    core.save_llql_model(paths["dynamics"], result.dynamics, None, {"env": env.spec.to_dict()})
    paths["ddpg"] = saved_model(root / "ddpg.model", env, "ddpg")
    paths["pendulum"] = saved_model(root / "pendulum.model", make_env("pendulum", horizon=10))
    return paths


@pytest.mark.parametrize("argv, culprit, fault", [
    (["eval", "--method", "ddpg", "--model", "{llql}"], "llql", "role 'llql'"),
    (["eval", "--model", "{dynamics}"], "dynamics", "role 'dynamics'"),
    (["eval", "--model", "{dynamics}", "--goal", "constraint"], "dynamics", "role 'dynamics'"),
    (["adjust", "--policy", "{dynamics}", "--dynamics", "{llql}", "--goal", "constraint"], "dynamics",
     "role 'dynamics' is not a loadable policy"),
    (["adjust", "--policy", "{pendulum}", "--dynamics", "{llql}", "--goal", "constraint"], "pendulum",
     "trained for pendulum"),
    (["train", "--method", "dynamics", "--env", "pendulum", "--policy", "{llql}"], "llql",
     "trained for mountain_car"),
    (["sweep", "--model", "{pendulum}", "--kind", "constraint", "--values", "0.05"], "pendulum",
     "trained for pendulum"),
    (["eval", "--model", "{ddpg}"], "ddpg", "role 'ddpg'"),
    (["eval", "--method", "mpc", "--model", "{ddpg}"], "ddpg", "role 'ddpg'"),
    (["adjust", "--policy", "{llql}", "--dynamics", "{ddpg}", "--goal", "constraint"], "ddpg", "role 'ddpg'"),
], ids=["eval-ddpg-on-llql", "eval-on-dynamics", "eval-constraint-on-dynamics", "adjust-policy-dynamics",
        "adjust-policy-pendulum", "train-dynamics-policy-mountain-car", "sweep-pendulum", "eval-on-ddpg",
        "eval-mpc-on-ddpg", "adjust-dynamics-ddpg"])
def test_cli_model_file_of_another_role_or_env_exits_two(tmp_path, capsys, gate_models, argv, culprit, fault):
    argv = [arg.format(**gate_models) for arg in argv]
    out = tmp_path / "out"
    tiny = tiny_run_args(tmp_path, argv[0]) if argv[0] in ("eval", "train") else ["--runs", "1"]
    assert main([*argv, *tiny, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert gate_models[culprit] in err and fault in err
    if "trained for" in fault:
        assert "incompatible" in err
    assert not out.exists()


def test_load_llql_model_of_a_ddpg_file_raises_model_file_error(gate_models):
    with pytest.raises(ModelFileError, match="role 'ddpg' is not a loadable dynamics model"):
        core.load_llql_model(gate_models["ddpg"])
