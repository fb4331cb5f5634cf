"""Byte-stable emission of reports, learning curves, and sweep tables.

All floats are written with `repr`, which round-trips exactly, so any two
emissions of the same data are byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .experiments import EvalReport, EvalRow, top_k_runs


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report_csv(report: EvalReport, path) -> None:
    lines = [",".join(f.name for f in dataclasses.fields(EvalRow))]
    lines += [",".join(_fmt(v) for v in dataclasses.astuple(r)) for r in report.rows]
    Path(path).write_text("\n".join(lines) + "\n")


def write_report_json(report: EvalReport, path) -> None:
    payload = {
        "env": report.env,
        "meta": report.meta,
        "rows": [dataclasses.asdict(r) for r in report.rows],
        "aggregates": report.aggregates(),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def emit_report(report: EvalReport, out_dir, basename: str = "report") -> list:
    """Write the report as `<basename>.csv` and `<basename>.json`."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path, json_path = out_dir / f"{basename}.csv", out_dir / f"{basename}.json"
    write_report_csv(report, csv_path)
    write_report_json(report, json_path)
    return [csv_path, json_path]


def write_curves(runs_by_method: dict, path) -> None:
    """Per-episode mean/std reward curves over the top 5 runs per method
    (the paper's top-5 protocol)."""
    lines = ["episode,mean_reward,std_reward,method"]
    for method in sorted(runs_by_method):
        chosen = [run.log for run in top_k_runs(runs_by_method[method], 5)]
        episodes = min(len(log) for log in chosen)
        for e in range(episodes):
            rewards = np.asarray([log[e].cumulative_reward for log in chosen])
            lines.append(
                f"{e + 1},{repr(float(rewards.mean()))},{repr(float(rewards.std()))},{method}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


def write_sweep(rows, path) -> None:
    write_table(rows, ["value", "mean_steps", "std_steps", "success", "runs"], path)


def write_table(rows: list, columns: list, path) -> None:
    """Generic comparison table: list of dicts -> CSV with given columns."""
    lines = [",".join(columns)]
    for r in rows:
        lines.append(",".join(_fmt(r.get(c)) for c in columns))
    Path(path).write_text("\n".join(lines) + "\n")
