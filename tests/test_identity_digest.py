"""Smoke test of tools/identity_digest.py at tiny sizes."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "identity_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("identity_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_identity_digest_prints_one_repeatable_digest_per_family():
    tool = load_tool()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, str(TOOL), "--tiny"], capture_output=True, text=True, check=True, env=env, timeout=120
    ).stdout
    printed = dict(line.split() for line in out.splitlines())
    families = [f"train/{name}/{dtype}" for name in tool.ENVS for dtype in tool.DTYPES]
    assert list(printed) == families + ["synthesis", "synthesis/pendulum", "reports", "sweep", "ddpg_eval", "scoring",
                                        "lockstep", "long"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for digest in printed.values())
    assert len(set(printed.values())) == len(printed)
    # the same inputs in another process give the same digests
    assert tool.digests(tool.TINY) == printed
