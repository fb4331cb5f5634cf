"""Locally linear Q-learning for continuous control.

A model-based Q-learning agent whose one-step dynamics model and locally
linear advantage function admit closed-form action synthesis.  Trained
models can track short-term trajectories and satisfy state constraints at
run time without retraining, and an approximation layer retrofits the same
adjustments onto any pre-trained policy.
"""

__version__ = "0.1.0"


class ConfigError(ValueError):
    """A bad option, config value, goal or model file, raised by the rule
    that owns the check; the CLI exits 2 on it."""
