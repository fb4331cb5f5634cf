"""Smoke test of tools/rss_phases.py at the bench's tiny sizes."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "rss_phases.py"


@pytest.mark.parametrize("workload, own", [("train_mc", "train"), ("eval_goals", "eval"), ("mpc", "mpc")])
def test_rss_phases_prints_the_memory_after_every_step(workload, own):
    out = subprocess.run(
        [sys.executable, str(TOOL), "--workload", workload, "--tiny", "--rounds", "2"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    rows = [line.split() for line in out.splitlines() if not line.startswith("#")]
    steps = [row[0] for row in rows]
    probes = [f"{phase}/0" for phase in ("train", "eval", "mpc") if phase != own]
    assert steps[:2] == ["start", "setup/0"]
    assert sorted(steps[2:]) == sorted([f"{own}/0", f"{own}/1", *probes])
    hwm, rss = ([float(row[i]) for row in rows] for i in (1, 2))
    assert all(0 < r <= h for h, r in zip(hwm, rss))
    assert hwm == sorted(hwm)
