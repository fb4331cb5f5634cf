"""Closed-form action synthesis from the locally linear models.

The long-term action minimizes the advantage residual ||h(x) + d(x) u||
by a ridge-regularized least-squares solve.  Short-term goals reshape the
synthesis without retraining:

* trajectory goals stack a weighted tracking residual
  gamma2 * (x_d - x - delta * (f + g u)) on top of the weighted advantage
  residual gamma1 * (h + d u) and solve the joint least-squares system
  (`_track`);
* constraint goals project the greedy action onto the half-space of
  actions whose predicted component satisfies a one-sided bound, in the
  metric d^T d of the advantage residual; the KKT multiplier has a closed
  form, and complementary slackness decides whether it binds (`_project`).

The approximation layer is the same synthesis with the advantage residual
replaced by ||u - u_N||, that is (h, d) = (-u_N, I), where u_N is a
pre-trained policy's action: it needs only the dynamics model, and its
constraint adjustment is the minimum-norm projection of u_N.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import select
import subprocess
import time
from typing import Callable, Optional

import numpy as np

from . import linalg
from .core import DynamicsModel, QModel, EPS_D

logger = logging.getLogger(__name__)

EPS_KKT = 1e-12


class UncontrollableConstraintError(RuntimeError):
    """The action has (numerically) no influence on the constrained component."""


# ---------------------------------------------------------------------------
# Short-term goal declarations
# ---------------------------------------------------------------------------


def _always_active(x, k) -> bool:
    return True


@dataclasses.dataclass
class TrajectoryGoal:
    """Track a desired next state while the activation predicate holds.

    `target(x, k)` returns the desired next state for the step taken from
    state x at step index k; gamma1 weights the long-term residual and
    gamma2 the tracking residual.
    """

    target: Callable
    gamma1: float
    gamma2: float
    active: Callable = _always_active

    def __post_init__(self):
        if self.gamma1 < 0 or self.gamma2 < 0 or (self.gamma1 == 0 and self.gamma2 == 0):
            raise ValueError("gamma1 and gamma2 must be non-negative, not both zero")


@dataclasses.dataclass
class ConstraintGoal:
    """One-sided bound on one predicted state component.

    `direction` is "upper" for x[i] <= bound or "lower" for x[i] >= bound.
    `margin` is the activation threshold used by hybrid switching (the
    controller engages once the component passes the margin, which sits
    slightly inside the hazardous bound).
    """

    state_index: int
    bound: float
    direction: str = "upper"
    margin: Optional[float] = None
    active: Optional[Callable] = None

    def __post_init__(self):
        if self.direction not in ("upper", "lower"):
            raise ValueError("direction must be 'upper' or 'lower'")
        if self.margin is None:
            self.margin = self.bound
        if self.active is None:
            if self.direction == "upper":
                self.active = lambda x, k: x[self.state_index] > self.margin
            else:
                self.active = lambda x, k: x[self.state_index] < self.margin

    @property
    def sign(self) -> float:
        """+1 for an upper bound, -1 for a lower one (which reflects to upper)."""
        return 1.0 if self.direction == "upper" else -1.0


@dataclasses.dataclass
class SymmetricConstraintGoal:
    """Two-sided speed-style limit |x[i]| <= bound.

    Realized as two one-sided constraints; at each step the side nearer the
    current value is the single active candidate.
    """

    state_index: int
    bound: float
    margin: Optional[float] = None

    def __post_init__(self):
        if self.bound <= 0:
            raise ValueError("symmetric bound must be positive")
        if self.margin is None:
            self.margin = self.bound

    def active(self, x, k) -> bool:
        return abs(x[self.state_index]) > self.margin

    def resolve(self, x) -> ConstraintGoal:
        if x[self.state_index] >= 0:
            return ConstraintGoal(self.state_index, self.bound, "upper", self.margin)
        return ConstraintGoal(self.state_index, -self.bound, "lower", -self.margin)


# ---------------------------------------------------------------------------
# Synthesis results
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class ActionResult:
    action: np.ndarray      # clipped to bounds when bounds are known
    action_raw: np.ndarray  # unclipped least-squares solution
    fallback: Optional[str] = None


@dataclasses.dataclass
class KktSolution:
    lambda_star: float
    action: np.ndarray
    action_raw: np.ndarray
    predicted: float          # constrained component predicted at action_raw
    predicted_clipped: float  # same, at the clipped action
    active: bool
    clip_violates: bool


def _clip(u: np.ndarray, low, high) -> np.ndarray:
    if low is None or high is None:
        return u.copy()
    return np.clip(u, low, high)


# ---------------------------------------------------------------------------
# Long-term and trajectory synthesis
# ---------------------------------------------------------------------------


def long_term_action(q: QModel, x: np.ndarray, rng: np.random.Generator) -> ActionResult:
    """Greedy action: least-squares minimizer of ||h(x) + d(x) u||.

    Falls back to a uniform random in-bounds action when the gain d(x) is
    numerically zero (the model predicts the action has no effect).
    """
    _, h, d = q.coefficients(x)
    if np.linalg.norm(d) < EPS_D:
        u = rng.uniform(q.action_low, q.action_high)
        return ActionResult(u, u.copy(), fallback="degenerate-gain")
    u_raw = linalg.pinv_action(h, d)
    return ActionResult(_clip(u_raw, q.action_low, q.action_high), u_raw)


def _track(h, d, dyn: DynamicsModel, x, x_d_next, gamma1: float, gamma2: float):
    """Minimize ||gamma1 (h + d u)||^2 + ||gamma2 (x_d - x - delta (f + g u))||^2
    by one stacked least-squares solve; None when the solve is not finite."""
    f, g = dyn.coefficients(x)
    x = np.asarray(x, dtype=np.float64)
    x_d_next = np.asarray(x_d_next, dtype=np.float64)
    M = np.vstack([gamma1 * d, -gamma2 * dyn.delta * g])
    z = np.concatenate([-gamma1 * h, gamma2 * (x + dyn.delta * f - x_d_next)])
    u = linalg.solve_least_squares(M, z)
    return u if np.all(np.isfinite(u)) else None


def trajectory_action(
    q: QModel,
    dyn: DynamicsModel,
    x: np.ndarray,
    x_d_next: np.ndarray,
    gamma1: float,
    gamma2: float,
    rng: np.random.Generator,
) -> ActionResult:
    """Blend the greedy objective with tracking a desired next state.

    Solves the stacked least-squares system minimizing
    ||gamma1 (h + d u)||^2 + ||gamma2 (x_d - x - delta (f + g u))||^2.
    """
    _, h, d = q.coefficients(x)
    u_raw = _track(h, d, dyn, x, x_d_next, gamma1, gamma2)
    if u_raw is None:
        logger.warning("trajectory synthesis was singular; falling back to the long-term action")
        result = long_term_action(q, x, rng)
        return ActionResult(result.action, result.action_raw, fallback="singular")
    return ActionResult(_clip(u_raw, q.action_low, q.action_high), u_raw)


def approx_trajectory_action(
    u_n: np.ndarray,
    dyn: DynamicsModel,
    x: np.ndarray,
    x_d_next: np.ndarray,
    gamma1: float,
    gamma2: float,
    *,
    action_low=None,
    action_high=None,
) -> ActionResult:
    """Trajectory adjustment around a pre-trained policy's action u_n.

    Minimizes ||gamma1 (u - u_n)||^2 + ||gamma2 (x_d - x - delta (f + g u))||^2
    using only the dynamics model: the agent's trajectory synthesis with
    (h, d) = (-u_n, I).  gamma2 = 0 returns u_n unchanged.
    """
    u_n = np.asarray(u_n, dtype=np.float64).reshape(-1)
    if gamma2 == 0.0:
        return ActionResult(_clip(u_n, action_low, action_high), u_n.copy())
    u_raw = _track(-u_n, np.eye(u_n.size), dyn, x, x_d_next, gamma1, gamma2)
    if u_raw is None:
        logger.warning("trajectory adjustment was singular; keeping the policy action")
        return ActionResult(_clip(u_n, action_low, action_high), u_n.copy(), fallback="singular")
    return ActionResult(_clip(u_raw, action_low, action_high), u_raw)


# ---------------------------------------------------------------------------
# Constraint synthesis (KKT)
# ---------------------------------------------------------------------------


def _project(u0, w, dg, x, f, g, delta: float, goal: ConstraintGoal, low, high) -> KktSolution:
    """KKT solution u = u0 - lambda* w of min (u - u0)^T W (u - u0) subject
    to x_i + delta (f_i + g_i u) <= c, where dg = delta g_i and w = W^-1 dg
    (both reflected for a lower bound, which then reads as an upper one):
    lambda* = max(0, (x_i + delta f_i + dg . u0 - c) / (dg . w)), so a
    binding bound puts the raw action's predicted component exactly on c.
    Also flags a binding bound that clipping to [low, high] breaks."""
    i, sign = goal.state_index, goal.sign
    predicted0 = sign * float(x[i]) + delta * (sign * float(f[i])) + float(dg @ u0)
    c = sign * goal.bound
    if predicted0 <= c:
        lam, active, u_raw = 0.0, False, u0.copy()
    else:
        lam, active = (predicted0 - c) / float(dg @ w), True
        u_raw = u0 - lam * w
    predicted = float(x[i] + delta * (f[i] + g[i, :] @ u_raw))
    u = _clip(u_raw, low, high)
    predicted_clipped = float(x[i] + delta * (f[i] + g[i, :] @ u))
    clip_violates = bool(active and sign * predicted_clipped > c + 1e-9)
    if clip_violates:
        logger.warning(
            "action clipping broke the constraint: predicted %s=%.6g vs bound %.6g",
            i, predicted_clipped, goal.bound,
        )
    return KktSolution(lam, u, u_raw, predicted, predicted_clipped, active, clip_violates)


def constraint_action(
    q: QModel,
    dyn: DynamicsModel,
    x: np.ndarray,
    goal: ConstraintGoal,
    rng: np.random.Generator,
) -> KktSolution:
    """Greedy action subject to a bound on one predicted state component.

    The KKT solution of min 1/2 ||h + d u||^2 + ridge/2 ||u||^2 s.t.
    x_i + delta (f_i + g_i u) <= c is the greedy action projected onto the
    bound in the metric W = d^T d + ridge I: u = u0 - lambda* W^-1 delta g_i
    with u0 = `pinv_action(h, d)`.
    """
    _, h, d = q.coefficients(x)
    f, g = dyn.coefficients(x)
    if np.linalg.norm(d) < EPS_D:
        raise UncontrollableConstraintError(
            "advantage gain d(x) is numerically zero; constrained synthesis is undefined"
        )
    dg = goal.sign * dyn.delta * g[goal.state_index]
    w = linalg.ridge_solve(d.T @ d, dg)
    gain = float(dg @ w)
    if abs(gain) < EPS_KKT:
        raise UncontrollableConstraintError(
            f"constraint on state component {goal.state_index} is uncontrollable "
            f"(delta g_i . W^-1 delta g_i = {gain:.3e})"
        )
    return _project(linalg.pinv_action(h, d), w, dg, x, f, g, dyn.delta, goal, q.action_low, q.action_high)


def approx_constraint_action(
    u_n: np.ndarray,
    dyn: DynamicsModel,
    x: np.ndarray,
    goal: ConstraintGoal,
    *,
    action_low=None,
    action_high=None,
) -> KktSolution:
    """Project a pre-trained policy's action onto the constraint half-space.

    u = u_n - lambda* delta g_i^T with
    lambda* = (x_i + delta f_i - c + delta g_i u_n) / (delta g_i . delta g_i),
    clamped to 0 when the predicted component already satisfies the bound:
    the agent's constraint synthesis with (h, d) = (-u_n, I) and no ridge.
    """
    u_n = np.asarray(u_n, dtype=np.float64).reshape(-1)
    f, g = dyn.coefficients(x)
    dg = goal.sign * dyn.delta * g[goal.state_index]
    if np.linalg.norm(dg) < EPS_KKT:
        raise UncontrollableConstraintError(
            f"constraint on state component {goal.state_index} is uncontrollable "
            f"(||delta g_i|| = {np.linalg.norm(dg):.3e})"
        )
    return _project(u_n, dg, dg, x, f, g, dyn.delta, goal, action_low, action_high)


# ---------------------------------------------------------------------------
# Hybrid dispatch
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Decision:
    action: np.ndarray
    branch: str
    detail: object


class GoalController:
    """Per-step dispatch between a base policy and goal-aware synthesis.

    The base action comes from the trained value model (long-term greedy)
    when `qmodel` is given, or from `policy` (any callable state -> action)
    in the approximation setting.  While the goal's activation predicate
    holds, actions come from the matching goal-aware synthesis op; once the
    goal expires the controller reverts to the base policy.  A step on which
    the constraint is uncontrollable takes the base action, on branch
    "fallback", instead of ending the episode.
    """

    def __init__(
        self,
        dyn: DynamicsModel,
        goal,
        *,
        qmodel: Optional[QModel] = None,
        policy: Optional[Callable] = None,
        action_low=None,
        action_high=None,
        rng: Optional[np.random.Generator] = None,
    ):
        if (qmodel is None) == (policy is None):
            raise ValueError("provide exactly one of qmodel or policy")
        self.dyn = dyn
        self.goal = goal
        self.qmodel = qmodel
        self.policy = policy
        self.action_low = qmodel.action_low if qmodel is not None else action_low
        self.action_high = qmodel.action_high if qmodel is not None else action_high
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.branch_counts: dict = {}

    def _base(self, x) -> Decision:
        if self.qmodel is not None:
            res = long_term_action(self.qmodel, x, self.rng)
            return Decision(res.action, "long_term", res)
        u = np.asarray(self.policy(x), dtype=np.float64).reshape(-1)
        return Decision(_clip(u, self.action_low, self.action_high), "policy", None)

    def act(self, x: np.ndarray, k: int) -> Decision:
        goal = self.goal
        if goal is None or not goal.active(x, k):
            decision = self._base(x)
        elif isinstance(goal, TrajectoryGoal):
            target = np.asarray(goal.target(x, k), dtype=np.float64)
            if self.qmodel is not None:
                res = trajectory_action(
                    self.qmodel, self.dyn, x, target, goal.gamma1, goal.gamma2, self.rng
                )
            else:
                u_n = np.asarray(self.policy(x), dtype=np.float64).reshape(-1)
                res = approx_trajectory_action(
                    u_n, self.dyn, x, target, goal.gamma1, goal.gamma2,
                    action_low=self.action_low, action_high=self.action_high,
                )
            decision = Decision(res.action, "trajectory", res)
        else:
            resolved = goal.resolve(x) if isinstance(goal, SymmetricConstraintGoal) else goal
            u_n = None if self.policy is None else np.asarray(self.policy(x), dtype=np.float64).reshape(-1)
            try:
                if u_n is None:
                    sol = constraint_action(self.qmodel, self.dyn, x, resolved, self.rng)
                else:
                    sol = approx_constraint_action(
                        u_n, self.dyn, x, resolved,
                        action_low=self.action_low, action_high=self.action_high,
                    )
            except UncontrollableConstraintError as exc:
                logger.warning("%s; taking the base action", exc)
                base = self._base(x).action if u_n is None else _clip(u_n, self.action_low, self.action_high)
                decision = Decision(base, "fallback", exc)
            else:
                decision = Decision(sol.action, "constraint", sol)
        self.branch_counts[decision.branch] = self.branch_counts.get(decision.branch, 0) + 1
        return decision


class LlqlPolicy:
    """Greedy policy view of a trained value model (callable state -> action)."""

    def __init__(self, qmodel: QModel, rng: Optional[np.random.Generator] = None):
        self.qmodel = qmodel
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return long_term_action(self.qmodel, x, self.rng).action


# ---------------------------------------------------------------------------
# External policy protocol
# ---------------------------------------------------------------------------


class ExternalProcessPolicy:
    """Pre-trained policy behind a child process speaking JSON lines.

    Each query writes {"state": [...]} terminated by a newline to the
    child's stdin and expects one {"action": [...]} line on its stdout
    within `timeout` seconds.
    """

    def __init__(self, argv, timeout: float = 1.0):
        self.timeout = timeout
        self._proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0
        )
        self._pending = b""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        request = json.dumps({"state": [float(v) for v in np.asarray(x).reshape(-1)]})
        self._proc.stdin.write(request.encode("utf-8") + b"\n")
        self._proc.stdin.flush()
        line = self._read_line()
        response = json.loads(line)
        return np.asarray(response["action"], dtype=np.float64).reshape(-1)

    def _read_line(self) -> bytes:
        deadline = time.monotonic() + self.timeout
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"policy process did not answer within {self.timeout}s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                raise TimeoutError(f"policy process did not answer within {self.timeout}s")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError("policy process closed its output stream")
            self._pending += chunk
        line, self._pending = self._pending.split(b"\n", 1)
        return line

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=2)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
