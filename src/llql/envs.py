"""Seedable continuous mountain-car and pendulum environments.

Both environments reimplement the physics and reward conventions of the
classic control benchmarks so that runs are deterministic and fully
reproducible without any simulator dependency.  `step` is a pure function
of (state, action) apart from an internal step counter used for horizon
truncation.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Optional

import numpy as np


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
            raise ValueError("horizon must be >= 1")
        for key, value in self.constants.items():
            if not value > 0:
                raise ValueError(f"physics constant {key!r} must be positive")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class StepResult:
    next_state: np.ndarray
    reward: float
    done: bool
    step_index: int


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return math.pi - (math.pi - theta) % (2.0 * math.pi)


def _validate_action(action, dim: int) -> np.ndarray:
    u = np.asarray(action, dtype=np.float64).reshape(-1)
    if u.shape != (dim,):
        raise InvalidActionError(f"action must have {dim} component(s), got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise InvalidActionError(f"action is not finite: {u}")
    return u


class MountainCar:
    """Continuous-action mountain car.

    State is [position, velocity] with position in [-1.2, 0.6] and velocity
    in [-0.07, 0.07].  The force action is clipped to [-1, 1].  Per-step
    reward is -0.1 * u**2, with +100 added on the step that first reaches
    the goal position.  Episodes truncate after `horizon` steps.
    """

    VELOCITY = 1  # the state component that is the velocity
    MIN_POSITION = -1.2
    MAX_POSITION = 0.6
    MAX_SPEED = 0.07
    POWER = 0.0015
    GRAVITY = 0.0025

    def __init__(self, goal_position: float = 0.45, horizon: int = 1000):
        self.goal_position = float(goal_position)
        self.horizon = int(horizon)
        self.action_low = np.array([-1.0])
        self.action_high = np.array([1.0])
        self._k = 0

    @property
    def state_dim(self) -> int:
        return 2

    @property
    def action_dim(self) -> int:
        return 1

    @property
    def spec(self) -> EnvSpec:
        return EnvSpec(
            name="mountain_car",
            state_dim=2,
            action_dim=1,
            horizon=self.horizon,
            action_low=(-1.0,),
            action_high=(1.0,),
            goal_position=self.goal_position,
            constants={"power": self.POWER, "gravity": self.GRAVITY, "max_speed": self.MAX_SPEED},
        )

    def reset(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        position = rng.uniform(-0.6, -0.4)
        self._k = 0
        return np.array([position, 0.0])

    def goal_reached(self, state: np.ndarray) -> bool:
        return bool(state[0] >= self.goal_position)

    scored = goal_reached  # where velocity error counts

    def step(self, state: np.ndarray, action) -> StepResult:
        u = _validate_action(action, 1)[0]
        force = min(max(u, -1.0), 1.0)
        position, velocity = float(state[0]), float(state[1])

        velocity += force * self.POWER - self.GRAVITY * math.cos(3.0 * position)
        velocity = min(max(velocity, -self.MAX_SPEED), self.MAX_SPEED)
        position += velocity
        position = min(max(position, self.MIN_POSITION), self.MAX_POSITION)
        if position == self.MIN_POSITION:
            velocity = 0.0

        next_state = np.array([position, velocity])
        reached = self.goal_reached(next_state)
        reward = -0.1 * force * force + (100.0 if reached else 0.0)
        self._k += 1
        done = reached or self._k >= self.horizon
        return StepResult(next_state, float(reward), done, self._k)


class Pendulum:
    """Torque-controlled pendulum swing-up.

    The observed state is [cos(theta), sin(theta), theta_dot] with angular
    velocity clipped to [-8, 8] and torque clipped to [-2, 2].  Reward is
    -(wrap(theta)**2 + 0.1 * theta_dot**2 + 0.001 * u**2); there is no
    terminal goal, so episodes end only at the horizon.
    """

    VELOCITY = 2  # the state component that is the velocity
    MAX_SPEED = 8.0
    MAX_TORQUE = 2.0
    DT = 0.05
    G = 10.0
    M = 1.0
    L = 1.0

    def __init__(self, horizon: int = 200):
        self.horizon = int(horizon)
        self.action_low = np.array([-self.MAX_TORQUE])
        self.action_high = np.array([self.MAX_TORQUE])
        self._k = 0

    @property
    def state_dim(self) -> int:
        return 3

    @property
    def action_dim(self) -> int:
        return 1

    @property
    def goal_position(self):
        return None

    @property
    def spec(self) -> EnvSpec:
        return EnvSpec(
            name="pendulum",
            state_dim=3,
            action_dim=1,
            horizon=self.horizon,
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
        )

    def reset(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        theta = rng.uniform(-math.pi, math.pi)
        theta_dot = rng.uniform(-1.0, 1.0)
        self._k = 0
        return np.array([math.cos(theta), math.sin(theta), theta_dot])

    def goal_reached(self, state: np.ndarray) -> bool:
        return False

    def scored(self, state: np.ndarray) -> bool:  # where velocity error counts: upright
        return bool(state[0] > UPRIGHT_COS)

    def step(self, state: np.ndarray, action) -> StepResult:
        u = _validate_action(action, 1)[0]
        torque = min(max(u, -self.MAX_TORQUE), self.MAX_TORQUE)
        theta = math.atan2(float(state[1]), float(state[0]))
        theta_dot = float(state[2])

        reward = -(
            wrap_angle(theta) ** 2 + 0.1 * theta_dot**2 + 0.001 * torque**2
        )

        accel = 3.0 * self.G / (2.0 * self.L) * math.sin(theta) + 3.0 * torque / (
            self.M * self.L**2
        )
        theta_dot = theta_dot + accel * self.DT
        theta_dot = min(max(theta_dot, -self.MAX_SPEED), self.MAX_SPEED)
        theta = theta + theta_dot * self.DT

        next_state = np.array([math.cos(theta), math.sin(theta), theta_dot])
        self._k += 1
        done = self._k >= self.horizon
        return StepResult(next_state, float(reward), done, self._k)


def make_env(name: str, *, goal_position: float = 0.45, horizon: Optional[int] = None):
    """Construct an environment by name ("mountain_car" or "pendulum")."""
    if name == "mountain_car":
        return MountainCar(goal_position=goal_position, horizon=horizon or 1000)
    if name == "pendulum":
        return Pendulum(horizon=horizon or 200)
    raise ValueError(f"unknown environment {name!r}")
