"""Smoke test of the benchmark: tiny sizes, every metric present, no timing gates."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd=ROOT, tiny=True):
    cmd = [sys.executable, str(Path(cwd) / SPEC["command"][1]), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(metrics.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == ["train_mc", "eval_goals", "mpc"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["train_mc", "eval_goals", "mpc"])
def test_every_metric_is_reported(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if trace:
        assert result["metrics"]["trace.missing_names"]["value"] == 0
        # the external policy child is never closed by run_experiment; the harness reaps it
        if workload == "eval_goals":
            assert result["metrics"]["experiments.children_reaped"]["value"] >= 1
    else:
        assert result["metrics"]["completed_ratio"]["value"] == 1.0


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("eval_goals", 0, cwd=tmp_path, tiny=False)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_tracer_patches_by_name_and_reports_missing_targets():
    from llql import baselines, core, nets

    original = nets.soft_update
    tracer = tracing.Tracer(("nets.soft_update", "nets.Mlp.forward", "nets.NoSuchThing.run", "nosuchmodule.f"))
    with tracer:
        assert core.soft_update is baselines.soft_update is nets.soft_update is not original
        net = nets.Mlp.create((2, 4, 1), np.random.default_rng(0))
        core.soft_update(net.copy(), net, 0.5)
        net.forward([0.1, 0.2])
    assert tracer.missing == ["nets.NoSuchThing.run", "nosuchmodule.f"]
    assert core.soft_update is original and "forward" in vars(nets.Mlp)
    assert not hasattr(nets.Mlp.forward, "__wrapped__")
    values = tracer.per_layer_metrics([
        ("nets.soft_update.calls", "count", "higher"),
        ("nets.Mlp.forward.b1.calls", "count", "higher"),
        ("nets.NoSuchThing.run.calls", "count", "higher"),
    ])
    assert [v["value"] for v in values.values()] == [1.0, 1.0, 0.0]
