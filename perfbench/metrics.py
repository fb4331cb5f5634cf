"""Names, units and directions of the benchmark's metrics.

BENCHMARK.json lists the same metrics; the smoke test checks that the two
agree.  End-to-end metrics carry the bound by which a change may worsen
them; per-layer metrics have no bound.
"""

from __future__ import annotations

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("train_steps_per_s", "1/s", "higher", 0.25),
    ("ddpg_train_steps_per_s", "1/s", "higher", 0.25),
    ("greedy_steps_per_s", "1/s", "higher", 0.25),
    ("constraint_steps_per_s", "1/s", "higher", 0.25),
    ("trajectory_steps_per_s", "1/s", "higher", 0.25),
    ("adjust_steps_per_s", "1/s", "higher", 0.25),
    ("adjust_external_steps_per_s", "1/s", "higher", 0.25),
    ("mpc_steps_per_s", "1/s", "higher", 0.25),
    ("completed_ratio", "ratio", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.2),
)

_STAT = {
    "calls": ("count", "higher"),
    "self_ms": ("ms", "lower"),
    "us_p50": ("us", "lower"),
    "us_p90": ("us", "lower"),
    "bytes": ("bytes", "lower"),
    "active_ratio": ("ratio", "higher"),
    "gflop_per_s": ("GFLOP/s", "higher"),
}
ALL = ("calls", "self_ms", "us_p50", "us_p90")
LATENCY = ("calls", "us_p50", "us_p90")
SELF = ("calls", "self_ms")

# (span name with optional batch bucket, statistics); grouped by the
# end-to-end metric they should move (see README.md)
_LAYOUT = (
    # training: train_steps_per_s, ddpg_train_steps_per_s
    ("nets.Mlp.forward_cached.b10", ALL),
    ("nets.Mlp.forward_cached.b100", ALL),
    ("nets.Mlp.backward_cached.b10", ALL),
    ("nets.Mlp.backward_cached.b100", ALL),
    ("nets.Adam.step", ALL),
    ("nets.soft_update", ALL),
    ("linalg.pinv_action_batch", ALL),
    ("core.ReplayBuffer.sample", ALL),
    ("core.ReplayBuffer.add", ("calls", "self_ms", "us_p50")),
    ("core.train", SELF),
    ("baselines.ddpg_train", ("self_ms",)),
    # evaluation: the five eval-mode *_steps_per_s
    ("nets.Mlp.forward.b1", ALL),
    ("core.QModel.coefficients", ALL),
    ("core.DynamicsModel.coefficients", ALL),
    ("linalg.pinv_action", ALL),
    ("linalg.solve_least_squares", ALL),
    ("control.long_term_action", ALL),
    ("control.constraint_action", ALL + ("active_ratio",)),
    ("control.trajectory_action", ALL),
    ("control.approx_constraint_action", ALL + ("active_ratio",)),
    ("control.approx_trajectory_action", ALL),
    ("control.GoalController.act", LATENCY),
    ("control.LlqlPolicy.__call__", LATENCY),
    # the external-policy round trip: adjust_external_steps_per_s
    ("control.ExternalProcessPolicy.__call__", LATENCY),
    # MPC: mpc_steps_per_s
    ("nets.Mlp.forward.b1000", ALL),
    ("core.DynamicsModel.predict_next_batch", ALL),
    ("baselines.mpc_action", LATENCY + ("gflop_per_s",)),
    # set-up: setup_s
    ("nets.save_model", ("calls", "us_p50", "bytes")),
    ("nets.load_model", ("calls", "us_p50", "bytes")),
    # loop glue: every *_steps_per_s, by a small share
    ("envs.MountainCar.step", ("calls", "self_ms", "us_p50")),
    ("envs.MountainCar.reset", SELF),
    ("nets.Normalizer.normalize", ("calls", "self_ms", "us_p50")),
    ("experiments.evaluate", SELF),
    ("experiments.run_experiment", SELF),
    ("experiments.train_llql_batch", SELF),
    ("experiments.train_ddpg_batch", SELF),
)

# counts read from returned results and from the run itself
_EXTRA = (
    ("control.clip_violations", "count", "lower"),
    ("control.fallbacks", "count", "lower"),
    ("experiments.children_reaped", "count", "lower"),
    ("trace.missing_names", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

PER_LAYER = tuple(
    (f"{span}.{stat}", *_STAT[stat]) for span, stats in _LAYOUT for stat in stats
) + _EXTRA
