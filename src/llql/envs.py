"""Seedable continuous mountain-car and pendulum environments.

Both environments reimplement the physics and reward conventions of the
classic control benchmarks so that runs are deterministic and fully
reproducible without any simulator dependency.  An environment is its
`EnvSpec`, built once, plus its physics: `step_batch`, a pure function of
(states, actions) that lockstep evaluation calls on the states of all its
live runs at once, and `step`, its one-row case.  No state is kept between
calls, so `reset` is a function of the seed alone; the loops that step an
environment own its time limit, `horizon`.  The physics runs row by row in
Python floats, which is also cheaper than numpy at a few rows, and
`math.atan2` has other last bits than `np.arctan2` on some inputs.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Optional

import numpy as np

from . import ConfigError


# the pendulum is upright, where its velocity error is scored, while cos(theta) > UPRIGHT_COS
UPRIGHT_COS = 0.99


class InvalidActionError(ValueError):
    """Raised when an action contains NaN or infinite entries."""


@dataclasses.dataclass(frozen=True)
class EnvSpec:
    """Static description of an environment, embedded in run reports."""

    name: str
    state_dim: int
    action_dim: int
    horizon: int
    action_low: tuple
    action_high: tuple
    goal_position: Optional[float]
    constants: dict

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        for key, value in self.constants.items():
            if not value > 0:
                raise ConfigError(f"physics constant {key!r} must be positive")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class StepResult:
    next_state: np.ndarray
    reward: float
    reached: bool  # the goal; never on the pendulum


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return math.pi - (math.pi - theta) % (2.0 * math.pi)


def _validate_actions(actions, n: int, dim: int) -> list:
    """The actions of n states as n lists of dim Python floats."""
    u = np.asarray(actions, dtype=np.float64)
    if u.size != n * dim:
        raise InvalidActionError(f"{n} state(s) need {dim} action component(s) each, got shape {u.shape}")
    rows = u.reshape(n, dim).tolist()
    if not all(map(math.isfinite, itertools.chain.from_iterable(rows))):
        raise InvalidActionError(f"action is not finite: {u}")
    return rows


class _Env:
    """An environment's facts, read from its spec, and `step`, the one-row
    case of its `step_batch`."""

    def __init__(self, spec: EnvSpec):
        self.spec = spec
        self.state_dim, self.action_dim, self.horizon = spec.state_dim, spec.action_dim, spec.horizon
        self.action_low, self.action_high = np.array(spec.action_low), np.array(spec.action_high)
        self.goal_position = spec.goal_position

    def step(self, state: np.ndarray, action) -> StepResult:
        states, rewards, reached = self.step_batch(np.asarray(state, dtype=np.float64)[None], action)
        return StepResult(states[0], float(rewards[0]), bool(reached[0]))


class MountainCar(_Env):
    """Continuous-action mountain car.

    State is [position, velocity] with position in [-1.2, 0.6] and velocity
    in [-0.07, 0.07].  The force action is clipped to [-1, 1].  Per-step
    reward is -0.1 * u**2, with +100 added on the step that first reaches
    the goal position.
    """

    VELOCITY = 1  # the state component that is the velocity
    MIN_POSITION = -1.2
    MAX_POSITION = 0.6
    MAX_SPEED = 0.07
    POWER = 0.0015
    GRAVITY = 0.0025

    def __init__(self, goal_position: float = 0.45, horizon: int = 1000):
        super().__init__(EnvSpec(
            name="mountain_car",
            state_dim=2,
            action_dim=1,
            horizon=int(horizon),
            action_low=(-1.0,),
            action_high=(1.0,),
            goal_position=float(goal_position),
            constants={"power": self.POWER, "gravity": self.GRAVITY, "max_speed": self.MAX_SPEED},
        ))

    def reset(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        position = rng.uniform(-0.6, -0.4)
        return np.array([position, 0.0])

    def scored(self, state: np.ndarray):
        """Whether a state, or each of the rows of states, is at the hilltop,
        where velocity error counts."""
        return np.asarray(state)[..., 0] >= self.goal_position

    def step_batch(self, states: np.ndarray, actions):
        """(next states, rewards, goal reached) of each row of `states`
        (n, 2) under its row of `actions` (n, 1)."""
        forces = _validate_actions(actions, len(states), 1)
        next_states, rewards, reached = [], [], []
        for (position, velocity), (u,) in zip(np.asarray(states, dtype=np.float64).tolist(), forces):
            force = min(max(u, -1.0), 1.0)
            velocity += force * self.POWER - self.GRAVITY * math.cos(3.0 * position)
            velocity = min(max(velocity, -self.MAX_SPEED), self.MAX_SPEED)
            position = min(max(position + velocity, self.MIN_POSITION), self.MAX_POSITION)
            if position == self.MIN_POSITION:
                velocity = 0.0
            reached.append(position >= self.goal_position)
            next_states.append((position, velocity))
            rewards.append(-0.1 * force * force + (100.0 if reached[-1] else 0.0))
        return np.array(next_states).reshape(len(forces), 2), np.array(rewards), np.array(reached, dtype=bool)


class Pendulum(_Env):
    """Torque-controlled pendulum swing-up.

    The observed state is [cos(theta), sin(theta), theta_dot] with angular
    velocity clipped to [-8, 8] and torque clipped to [-2, 2].  Reward is
    -(wrap(theta)**2 + 0.1 * theta_dot**2 + 0.001 * u**2); there is no
    terminal goal, so every episode runs to the horizon.
    """

    VELOCITY = 2  # the state component that is the velocity
    MAX_SPEED = 8.0
    MAX_TORQUE = 2.0
    DT = 0.05
    G = 10.0
    M = 1.0
    L = 1.0

    def __init__(self, horizon: int = 200):
        super().__init__(EnvSpec(
            name="pendulum",
            state_dim=3,
            action_dim=1,
            horizon=int(horizon),
            action_low=(-self.MAX_TORQUE,),
            action_high=(self.MAX_TORQUE,),
            goal_position=None,
            constants={
                "dt": self.DT,
                "g": self.G,
                "m": self.M,
                "l": self.L,
                "max_speed": self.MAX_SPEED,
                "max_torque": self.MAX_TORQUE,
            },
        ))

    def reset(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        theta = rng.uniform(-math.pi, math.pi)
        theta_dot = rng.uniform(-1.0, 1.0)
        return np.array([math.cos(theta), math.sin(theta), theta_dot])

    def scored(self, state: np.ndarray):  # where velocity error counts: upright
        return np.asarray(state)[..., 0] > UPRIGHT_COS

    def step_batch(self, states: np.ndarray, actions):
        """(next states, rewards, goal reached: never) of each row of
        `states` (n, 3) under its row of `actions` (n, 1)."""
        torques = _validate_actions(actions, len(states), 1)
        next_states, rewards = [], []
        for (cos_theta, sin_theta, theta_dot), (u,) in zip(np.asarray(states, dtype=np.float64).tolist(), torques):
            torque = min(max(u, -self.MAX_TORQUE), self.MAX_TORQUE)
            theta = math.atan2(sin_theta, cos_theta)
            rewards.append(-(wrap_angle(theta) ** 2 + 0.1 * theta_dot**2 + 0.001 * torque**2))
            accel = 3.0 * self.G / (2.0 * self.L) * math.sin(theta) + 3.0 * torque / (self.M * self.L**2)
            theta_dot = min(max(theta_dot + accel * self.DT, -self.MAX_SPEED), self.MAX_SPEED)
            theta = theta + theta_dot * self.DT
            next_states.append((math.cos(theta), math.sin(theta), theta_dot))
        return np.array(next_states).reshape(len(torques), 3), np.array(rewards), np.zeros(len(torques), dtype=bool)


def make_env(name: str, *, goal_position: float = 0.45, horizon: Optional[int] = None):
    """Construct an environment by name ("mountain_car" or "pendulum")."""
    if name == "mountain_car":
        return MountainCar(goal_position=goal_position, horizon=1000 if horizon is None else horizon)
    if name == "pendulum":
        return Pendulum(horizon=200 if horizon is None else horizon)
    raise ConfigError(f"unknown environment {name!r}")
