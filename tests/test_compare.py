"""The four comparison tables, built end to end at tiny sizes."""

import pytest

from llql import baselines, cli, compare, core

LLQL = core.TrainConfig(episodes=1, hidden_sizes=(8, 8), normalizer_samples=10, short_iters=1,
                        long_iters=1, short_batch=4, long_batch=4)
DDPG = baselines.DdpgConfig(episodes=1, hidden_sizes=(8, 8), normalizer_samples=10, batch=4)


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """One training cache for the module: the tables share their subjects."""
    return tmp_path_factory.mktemp("cache")


def csv_rows(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), [dict(zip(header.split(","), row.split(","))) for row in rows]


@pytest.mark.parametrize("kind,column", [("trajectory", "vel_error"), ("constraint", "s_out")])
def test_mountain_car_table_has_a_row_per_method(cache, tmp_path, kind, column):
    rows, paths = compare.build_mountain_car_table(
        kind, cache, tmp_path, workers=1, llql_seeds=(0,), ddpg_seeds=(0,), runs=1,
        mpc_horizon=2, mpc_candidates=4, llql_config=LLQL, ddpg_config=DDPG,
    )
    assert paths == [tmp_path / f"{kind}.csv", tmp_path / "curves.csv"]
    header, written = csv_rows(paths[0])
    assert header == ["method", "reward_mod", column, "steps", "success", "runs"]
    mods = compare.DDPG_MODS[kind]
    assert [(r["method"], r["reward_mod"]) for r in written] == (
        [("ddpg", mod) for mod in mods] + [("mpc", compare.MPC_MOD[kind]), ("llql", "-")]
    )
    assert all(r["runs"] == "1" for r in written)
    if kind == "constraint":
        assert all(r["s_out"] != "" for r in written)  # every row is scored


@pytest.mark.parametrize("kind,column", [("trajectory", "vel_error"), ("constraint", "s_out")])
def test_pendulum_table_has_a_row_per_subject(cache, tmp_path, kind, column):
    tables, paths = compare.build_pendulum_tables(
        cache, tmp_path, workers=1, runs=1, which=kind,
        llql_config=LLQL, ddpg_config=DDPG, dynamics_config=LLQL,
    )
    table = f"pendulum_{kind}"
    assert list(tables) == [table]
    assert paths == [tmp_path / f"{table}.csv", tmp_path / "pendulum_meta.json"]
    header, written = csv_rows(paths[0])
    assert header == ["policy", column, f"{column}_adjusted", "reward", "reward_adjusted"]
    assert [r["policy"] for r in written] == ["llql", "ddpg"]
    assert all(r["reward"] != "" and r["reward_adjusted"] != "" for r in written)


def test_cli_compare_passes_its_options_to_each_table_builder(tmp_path, monkeypatch, capsys):
    calls = []

    def mountain_car(kind, cache_dir, out_dir, **kwargs):
        calls.append((kind, cache_dir, out_dir, kwargs))
        return [], [out_dir / f"{kind}.csv"]

    def pendulum(cache_dir, out_dir, **kwargs):
        calls.append(("pendulum", cache_dir, out_dir, kwargs))
        return {}, [out_dir / "pendulum.csv"]

    monkeypatch.setattr(compare, "build_mountain_car_table", mountain_car)
    monkeypatch.setattr(compare, "build_pendulum_tables", pendulum)
    options = ["--workers", "1", "--llql-seeds", "4", "--ddpg-seeds", "2", "--runs", "5",
               "--mpc-horizon", "3", "--mpc-candidates", "7", "--out", str(tmp_path)]
    for table in ("trajectory", "constraint", "pendulum_trajectory", "pendulum_constraint"):
        assert cli.main(["compare", "--table", table, *options]) == 0
    mc = dict(workers=1, runs=5, llql_seeds=(0, 1, 2, 3), ddpg_seeds=(0, 1), mpc_horizon=3, mpc_candidates=7)
    cache = tmp_path / "cache"
    assert calls == [
        ("trajectory", cache, tmp_path, mc),
        ("constraint", cache, tmp_path, mc),
        ("pendulum", cache, tmp_path, dict(workers=1, runs=5, which="trajectory")),
        ("pendulum", cache, tmp_path, dict(workers=1, runs=5, which="constraint")),
    ]
    assert capsys.readouterr().out.count("wrote ") == 4
