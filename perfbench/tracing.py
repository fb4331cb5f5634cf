"""Span tracing of llql's public functions, installed from outside the package.

`Tracer.install()` replaces each target (a public function or method named
`module.attr[.attr]` relative to the `llql` package) with a wrapper that
records one span per call: name, start, end, parent span, run id, input
rows and self time.  Functions imported by name into other modules (for
example `soft_update` in `core` and `baselines`) are patched in every
`llql` module that binds them.  A target that no longer exists, or is no
longer a plain function, is listed in `Tracer.missing` instead of failing, so the harness keeps working when a
later change removes or renames a function.

Spans stay in memory in flat arrays and are written out by `write_spans`
when the run ends; `per_layer_metrics` turns them into the benchmark's
per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import sys
import time
from array import array

import numpy as np

PACKAGE = "llql"

# Every traced function.  Order does not matter; names are relative to the
# package and follow the metric names.
TARGETS = (
    "nets.Mlp.forward",
    "nets.Mlp.forward_cached",
    "nets.Mlp.backward_cached",
    "nets.Adam.step",
    "nets.soft_update",
    "nets.Normalizer.normalize",
    "nets.save_model",
    "nets.load_model",
    "linalg.pinv_action",
    "linalg.pinv_action_batch",
    "linalg.solve_least_squares",
    "envs.MountainCar.step",
    "envs.MountainCar.reset",
    "core.ReplayBuffer.add",
    "core.ReplayBuffer.sample",
    "core.QModel.coefficients",
    "core.DynamicsModel.coefficients",
    "core.DynamicsModel.predict_next_batch",
    "core.train",
    "control.long_term_action",
    "control.trajectory_action",
    "control.constraint_action",
    "control.approx_trajectory_action",
    "control.approx_constraint_action",
    "control.GoalController.act",
    "control.LlqlPolicy.__call__",
    "control.ExternalProcessPolicy.__call__",
    "baselines.ddpg_train",
    "baselines.mpc_action",
    "experiments.evaluate",
    "experiments.run_experiment",
    "experiments.train_llql_batch",
    "experiments.train_ddpg_batch",
)

# (position of the batch argument, counting self) for functions whose cost
# depends on the number of input rows
ROWS_ARG = {
    "nets.Mlp.forward": 1,
    "nets.Mlp.forward_cached": 1,
    "nets.Mlp.backward_cached": 2,
}

# batch buckets by input rows: b1 = 1, b10 = 2-31, b100 = 32-511, b1000 = 512+
BUCKET_NAMES = ("b1", "b10", "b100", "b1000")
BUCKET_UPPER = (1, 31, 511)


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return int(shape[0]) if len(shape) == 2 else 1


def _mlp_macs(net) -> int:
    sizes = net.layer_sizes
    return sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))


class Tracer:
    """Records spans for the targets while installed."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.missing: list = []
        self.run_id = 0
        self._names: list = []
        self._name_ids: dict = {}
        self._patches: list = []  # (owner, attribute, original raw value)
        self._stack: list = []
        self._ids = itertools.count()
        self.span_id = array("q")
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.rows = array("q")
        self.self_ns = array("q")
        self.ok = array("b")
        self.counters: dict = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for target in self.targets:
            if not self._install_one(target):
                self.missing.append(target)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _install_one(self, target: str) -> bool:
        modname, *path = target.split(".")
        try:
            module = importlib.import_module(f"{PACKAGE}.{modname}")
        except ImportError:
            return False
        owner = module
        for attr in path[:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return False
        attr = path[-1]
        try:
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            return False
        if not inspect.isfunction(raw):
            return False
        wrapper = self._wrap(raw, target)
        if isinstance(owner, type):
            # a method: patching the class covers every caller
            self._patch(owner, attr, raw, wrapper)
        else:
            # a function: patch every llql module that binds it by name
            for mod in [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]:
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, name, value, wrapper)
        return True

    def _patch(self, owner, attr, raw, new) -> None:
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    # -- recording ----------------------------------------------------------

    def _wrap(self, func, target: str):
        name_id = self._name_ids.setdefault(target, len(self._names))
        if name_id == len(self._names):
            self._names.append(target)
        clock = time.perf_counter_ns
        stack = self._stack
        ids = self._ids
        rows_at = ROWS_ARG.get(target)
        after = _AFTER.get(target)
        rec = self._record

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                result = func(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                rows = _rows(args[rows_at]) if rows_at is not None and len(args) > rows_at else 1
                rec(sid, name_id, t0, t1, parent, rows, dur - frame[1], ok)
            if after is not None and self.run_id >= 0:
                after(self, args, result)
            return result

        return functools.update_wrapper(wrapper, func)

    def _record(self, sid, name_id, t0, t1, parent, rows, self_ns, ok) -> None:
        self.span_id.append(sid)
        self.name_id.append(name_id)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(parent)
        self.run.append(self.run_id)
        self.rows.append(rows)
        self.self_ns.append(self_ns)
        self.ok.append(ok)

    def count(self, key: str, value=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    # -- output -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.span_id)

    def write_spans(self, path) -> None:
        """One CSV line per span; times are perf_counter nanoseconds."""
        with open(path, "w") as fh:
            fh.write("span,name,start_ns,end_ns,parent,run,rows,self_ns,ok\n")
            names = self._names
            for i in range(len(self.span_id)):
                fh.write(
                    f"{self.span_id[i]},{names[self.name_id[i]]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.run[i]},{self.rows[i]},{self.self_ns[i]},{self.ok[i]}\n"
                )

    def per_layer_metrics(self, specs) -> dict:
        """Evaluate `specs`, a list of (metric name, unit, better), on the spans."""
        # spans recorded while the harness checked outputs (run id -1) are left out
        keep = np.frombuffer(self.run, dtype=np.int64) >= 0
        name_ids = np.frombuffer(self.name_id, dtype=np.int64)[keep]
        rows = np.frombuffer(self.rows, dtype=np.int64)[keep]
        dur_us = (np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64))[keep] / 1e3
        self_ms = np.frombuffer(self.self_ns, dtype=np.int64)[keep] / 1e6
        bucket_idx = np.searchsorted(np.array(BUCKET_UPPER), rows, side="left")
        index = {n: i for i, n in enumerate(self._names)}
        out = {}
        for metric, unit, _better in specs:
            out[metric] = {
                "value": self._metric_value(metric, index, name_ids, bucket_idx, dur_us, self_ms),
                "unit": unit,
            }
        return out

    def _metric_value(self, metric, index, name_ids, bucket_idx, dur_us, self_ms) -> float:
        if metric in COUNTERS:
            return float(self.counters.get(metric, 0))
        target, stat = metric.rsplit(".", 1)
        bucket = None
        head, _, last = target.rpartition(".")
        if last in BUCKET_NAMES:
            target, bucket = head, BUCKET_NAMES.index(last)
        if target not in index:
            return 0.0
        sel = name_ids == index[target]
        if bucket is not None:
            sel &= bucket_idx == bucket
        n = int(sel.sum())
        if stat == "calls":
            return float(n)
        if stat == "self_ms":
            return float(self_ms[sel].sum())
        if stat in ("us_p50", "us_p90"):
            if n == 0:
                return 0.0
            return float(np.percentile(dur_us[sel], 50 if stat == "us_p50" else 90))
        if stat == "bytes":
            return float(self.counters.get(f"{target}.bytes", 0) / n) if n else 0.0
        if stat == "active_ratio":
            return float(self.counters.get(f"{target}.active", 0) / n) if n else 0.0
        if stat == "gflop_per_s":
            total_s = float(dur_us[sel].sum()) / 1e6
            flops = self.counters.get(f"{target}.flops", 0)
            return flops / total_s / 1e9 if total_s > 0 else 0.0
        raise ValueError(f"unknown per-layer statistic in {metric!r}")


# -- counters read from arguments and results ---------------------------------


def _count_fallback(tracer, args, result):
    if getattr(result, "fallback", None) is not None:
        tracer.count("control.fallbacks")


def _count_constraint(name):
    def after(tracer, args, result):
        if getattr(result, "active", False):
            tracer.count(f"{name}.active")
        if getattr(result, "clip_violates", False):
            tracer.count("control.clip_violations")

    return after


def _count_file_bytes(name):
    def after(tracer, args, result):
        try:
            tracer.count(f"{name}.bytes", os.path.getsize(args[0]))
        except (OSError, IndexError, TypeError):
            pass

    return after


def _count_mpc_flops(tracer, args, result):
    """FLOPs computed from the layer sizes: 2 per multiply-add of the f and g
    forwards, over every candidate and horizon step (biases and ReLUs left out)."""
    try:
        dyn, cfg = args[0], args[3]
        macs = _mlp_macs(dyn.f_net) + _mlp_macs(dyn.g_net)
        tracer.count("baselines.mpc_action.flops", 2 * macs * cfg.candidates * cfg.horizon)
    except (AttributeError, IndexError):
        pass


_AFTER = {
    "control.long_term_action": _count_fallback,
    "control.trajectory_action": _count_fallback,
    "control.approx_trajectory_action": _count_fallback,
    "control.constraint_action": _count_constraint("control.constraint_action"),
    "control.approx_constraint_action": _count_constraint("control.approx_constraint_action"),
    "nets.save_model": _count_file_bytes("nets.save_model"),
    "nets.load_model": _count_file_bytes("nets.load_model"),
    "baselines.mpc_action": _count_mpc_flops,
}
# metrics that are plain counts across several functions
COUNTERS = ("control.clip_violations", "control.fallbacks")
