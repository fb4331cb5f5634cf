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

A row whose synthesis is undefined (a singular tracking solve, a zero
advantage gain, an uncontrollable constraint) takes the base action inside
the op: the greedy action for the agent, the clipped u_N for the
approximation layer.  Every op returns an `ActionResult` whose `fallback`
masks those rows.  The constraint ops return a `KktResult`, which adds
per-row arrays: the multiplier `lambda_star`, the constrained component
`predicted` at the raw and `predicted_clipped` at the clipped action, and
the masks `binding` and `clip_broke` (a binding bound that clipping
broke).  `GoalController.act` dispatches each row to the base action or to
the goal's synthesis op and returns the actions (n, a); its
`branch_counts` count the rows each branch took, an op's fallback rows on
branch "fallback".

Every op, `GoalController.act` and every policy here take rows of
states (n, dim) and nothing else; a 1-D state raises ValueError, and one
state is the one-row batch `x[None]`.  Lockstep evaluation passes the
states of all its live runs at once.  Each row is computed as it would be
alone, bit for bit: the models evaluate it as a one-row batch, and every
product over an action or state axis is a stacked matmul whose slice is
the product one row runs (`np.vecdot` runs per row the dot product a 1-D
`a @ b` runs).  A randomized fallback draws from the row's own generator.
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

from . import ConfigError, linalg
from .core import DynamicsModel, QModel, EPS_D, row_norms

logger = logging.getLogger(__name__)

EPS_KKT = 1e-12

# ---------------------------------------------------------------------------
# Short-term goal declarations
#
# A goal's callables receive rows of states, for which they return one
# value per row.
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
        if not (self.gamma1 >= 0 and self.gamma2 >= 0) or self.gamma1 == self.gamma2 == 0:  # NaN fails
            raise ConfigError("gamma1 and gamma2 must be non-negative, not both zero")


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

    def __post_init__(self):
        if self.direction not in ("upper", "lower"):
            raise ConfigError("direction must be 'upper' or 'lower'")
        if self.margin is None:
            self.margin = self.bound

    @property
    def sign(self) -> float:
        """+1 for an upper bound, -1 for a lower one (which reflects to upper)."""
        return 1.0 if self.direction == "upper" else -1.0

    def active(self, x, k):
        return self.sign * x[..., self.state_index] > self.sign * self.margin

    def upper(self, X: np.ndarray) -> tuple:
        """(sign, c) for each row of X: the bound read as sign * x[i] <= c."""
        return np.full(len(X), self.sign), np.full(len(X), self.sign * self.bound)


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
        if not self.bound > 0:  # NaN fails
            raise ConfigError("symmetric bound must be positive")
        if self.margin is None:
            self.margin = self.bound

    def active(self, x, k):
        return np.abs(x[..., self.state_index]) > self.margin

    def upper(self, X: np.ndarray) -> tuple:
        """(sign, c) for each row of X: the side nearer the row's value, read
        as sign * x[i] <= c; the lower side x[i] >= -bound reflects to sign
        -1 and c = bound."""
        sign = np.where(X[:, self.state_index] >= 0, 1.0, -1.0)
        return sign, np.full(len(X), float(self.bound))


# ---------------------------------------------------------------------------
# Synthesis results
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class ActionResult:
    """An op's actions, (n, a) for n rows.  `fallback` masks the rows whose
    synthesis was undefined (a goal op's rows that took the base action, the
    long-term op's random draws), or is None when no row fell back."""

    action: np.ndarray      # clipped to bounds when bounds are known
    action_raw: np.ndarray  # unclipped least-squares solution
    fallback: Optional[np.ndarray] = None


@dataclasses.dataclass(kw_only=True)
class KktResult(ActionResult):
    """A constraint op's actions and its KKT quantities, one per row; a
    fallback row's multiplier is 0 and its bound does not bind."""

    lambda_star: np.ndarray
    predicted: np.ndarray          # constrained component predicted at action_raw
    predicted_clipped: np.ndarray  # same, at the clipped action
    binding: np.ndarray            # u0 breaks the bound, so the projection moves it
    clip_broke: np.ndarray         # a binding bound that clipping broke


def _clip(u: np.ndarray, low, high) -> np.ndarray:
    if low is None or high is None:
        return u.copy()
    return np.clip(u, low, high)


def _rows(x, rng=None) -> tuple:
    """(x as rows (n, dim) in float64, one generator per row); `rng` is one
    generator for every row, or one per row.  Raises ValueError unless x
    is 2-D."""
    X = np.asarray(x, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected rows of states shaped (n, dim), got shape {X.shape}")
    rngs = [rng] * len(X) if rng is None or isinstance(rng, np.random.Generator) else list(rng)
    return X, rngs


# ---------------------------------------------------------------------------
# Long-term and trajectory synthesis
# ---------------------------------------------------------------------------


def _fell_back(bad: np.ndarray, what: str) -> Optional[np.ndarray]:
    """The fallback mask `bad`, logged in one warning with its row count, or
    None when no row fell back."""
    if not bad.any():
        return None
    logger.warning("%s (%d of %d rows)", what, bad.sum(), len(bad))
    return bad


def _greedy_raw(H, D, low, high, rngs) -> tuple:
    """(U_raw, degenerate): the unclipped long-term action of each row of
    (H, D), or where the gain is numerically zero a uniform random in-bounds
    one drawn from the row's generator, and the mask of those rows."""
    U_raw = linalg.pinv_action_batch(H, D)
    degenerate = row_norms(D) < EPS_D
    for j in np.flatnonzero(degenerate):
        U_raw[j] = rngs[j].uniform(low, high)
    return U_raw, degenerate


def _greedy(H, D, low, high, rngs) -> ActionResult:
    """The long-term action of each row of (H, D) (`_greedy_raw`), its
    degenerate rows marked as fallback."""
    U_raw, degenerate = _greedy_raw(H, D, low, high, rngs)
    return ActionResult(_clip(U_raw, low, high), U_raw, degenerate if degenerate.any() else None)


def long_term_action(q: QModel, x: np.ndarray, rng) -> ActionResult:
    """Greedy action: least-squares minimizer of ||h(x) + d(x) u||.

    Falls back to a uniform random in-bounds action when the gain d(x) is
    numerically zero (the model predicts the action has no effect).  `x`
    is rows; `rng` one generator, or one per row.
    """
    X, rngs = _rows(x, rng)
    _, H, D = q.coefficients(X)
    return _greedy(H, D, q.action_low, q.action_high, rngs)


def _track(H, D, dyn: DynamicsModel, X, X_d, gamma1: float, gamma2: float) -> np.ndarray:
    """Minimize ||gamma1 (h + d u)||^2 + ||gamma2 (x_d - x - delta (f + g u))||^2
    on each row by one stacked least-squares solve; a row whose solve is
    singular is not finite."""
    F, G = dyn.coefficients(X)
    X_d = np.asarray(X_d, dtype=np.float64).reshape(X.shape)
    M = np.concatenate([gamma1 * D, -gamma2 * dyn.delta * G], axis=1)
    Z = np.concatenate([-gamma1 * H, gamma2 * (X + dyn.delta * F - X_d)], axis=1)
    return linalg.solve_least_squares(M, Z)


def trajectory_action(
    q: QModel,
    dyn: DynamicsModel,
    x: np.ndarray,
    x_d_next: np.ndarray,
    gamma1: float,
    gamma2: float,
    rng,
) -> ActionResult:
    """Blend the greedy objective with tracking a desired next state.

    Solves the stacked least-squares system minimizing
    ||gamma1 (h + d u)||^2 + ||gamma2 (x_d - x - delta (f + g u))||^2; a
    row whose solve is singular takes the long-term action.  `x` and
    `x_d_next` are rows; `rng` one generator, or one per row.
    """
    X, rngs = _rows(x, rng)
    _, H, D = q.coefficients(X)
    U_raw = _track(H, D, dyn, X, x_d_next, gamma1, gamma2)
    U = _clip(U_raw, q.action_low, q.action_high)
    bad = _fell_back(~np.isfinite(U_raw).all(axis=1),
                     "trajectory synthesis was singular; falling back to the long-term action")
    if bad is not None:
        base = _greedy(H[bad], D[bad], q.action_low, q.action_high, [r for r, b in zip(rngs, bad) if b])
        U[bad], U_raw[bad] = base.action, base.action_raw
    return ActionResult(U, U_raw, bad)


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
    (h, d) = (-u_n, I).  gamma2 = 0 returns u_n unchanged, and so does a
    singular solve.  `x`, `x_d_next` and `u_n` are rows.
    """
    X = _rows(x)[0]
    U_n = np.asarray(u_n, dtype=np.float64).reshape(len(X), -1)
    if gamma2 == 0.0:
        return ActionResult(_clip(U_n, action_low, action_high), U_n.copy())
    eye = np.broadcast_to(np.eye(U_n.shape[1]), (len(X),) + (U_n.shape[1],) * 2)
    U_raw = _track(-U_n, eye, dyn, X, x_d_next, gamma1, gamma2)
    bad = _fell_back(~np.isfinite(U_raw).all(axis=1), "trajectory adjustment was singular; keeping the policy action")
    if bad is not None:
        U_raw[bad] = U_n[bad]
    return ActionResult(_clip(U_raw, action_low, action_high), U_raw, bad)


# ---------------------------------------------------------------------------
# Constraint synthesis (KKT)
# ---------------------------------------------------------------------------


def _project(U0, W, DG, gain, fallback, X, F, G, delta: float, i: int, sign, c, low, high) -> KktResult:
    """KKT solution u = u0 - lambda* w of min (u - u0)^T W (u - u0) subject
    to x_i + delta (f_i + g_i u) <= c, per row, where dg = delta g_i,
    w = W^-1 dg and gain = dg . w (dg and w reflected by `sign`, so a lower
    bound reads as an upper one): lambda* = max(0, (x_i + delta f_i +
    dg . u0 - c) / gain), so a binding bound puts the raw action's
    predicted component exactly on c.  The rows in the `fallback` mask keep
    u0, their base action.  Also flags a binding bound that clipping to
    [low, high] breaks, in one warning."""
    x_i, f_i = X[:, i], F[:, i]
    predicted0 = sign * x_i + delta * (sign * f_i) + np.vecdot(DG, U0)
    binding = ~(predicted0 <= c)
    if fallback is not None:
        binding &= ~fallback
    lam = np.divide(predicted0 - c, gain, out=np.zeros(len(U0)), where=binding)
    U_raw = np.where(binding[:, None], U0 - lam[:, None] * W, U0)
    U = _clip(U_raw, low, high)
    Gi = G[:, i, :]
    predicted = x_i + delta * (f_i + np.vecdot(Gi, U_raw))
    predicted_clipped = x_i + delta * (f_i + np.vecdot(Gi, U))
    clip_broke = binding & (sign * predicted_clipped > c + 1e-9)
    if clip_broke.any():
        j = clip_broke.argmax()
        logger.warning(
            "action clipping broke the constraint on %d of %d rows: first predicted %s=%.6g vs bound %.6g",
            clip_broke.sum(), len(U), i, predicted_clipped[j], sign[j] * c[j],
        )
    return KktResult(U, U_raw, fallback, lambda_star=lam, predicted=predicted, predicted_clipped=predicted_clipped,
                     binding=binding, clip_broke=clip_broke)


def constraint_action(
    q: QModel,
    dyn: DynamicsModel,
    x: np.ndarray,
    goal,
    rng,
) -> KktResult:
    """Greedy action subject to a bound on one predicted state component.

    The KKT solution of min 1/2 ||h + d u||^2 + ridge/2 ||u||^2 s.t.
    x_i + delta (f_i + g_i u) <= c is the greedy action projected onto the
    bound in the metric W = d^T d + ridge I: u = u0 - lambda* W^-1 delta g_i
    with u0 = `pinv_action(h, d)`.  `goal` is a ConstraintGoal, or a
    SymmetricConstraintGoal whose side each row picks.  A row whose gain
    d(x) or delta g_i . W^-1 delta g_i is numerically zero takes the
    long-term action.  `x` is rows; `rng` one generator, or one per row.
    """
    X, rngs = _rows(x, rng)
    _, H, D = q.coefficients(X)
    F, G = dyn.coefficients(X)
    i = goal.state_index
    sign, c = goal.upper(X)
    DG = (sign * dyn.delta)[:, None] * G[:, i, :]
    W = linalg.ridge_solve(np.swapaxes(D, 1, 2) @ D, DG)
    gain = np.vecdot(DG, W)
    U0, degenerate = _greedy_raw(H, D, q.action_low, q.action_high, rngs)
    fallback = _fell_back(degenerate | (np.abs(gain) < EPS_KKT),
                          f"constraint synthesis on state component {i} was undefined; "
                          "falling back to the long-term action")
    return _project(U0, W, DG, gain, fallback, X, F, G, dyn.delta, i, sign, c, q.action_low, q.action_high)


def approx_constraint_action(
    u_n: np.ndarray,
    dyn: DynamicsModel,
    x: np.ndarray,
    goal,
    *,
    action_low=None,
    action_high=None,
) -> KktResult:
    """Project a pre-trained policy's action onto the constraint half-space.

    u = u_n - lambda* delta g_i^T with
    lambda* = (x_i + delta f_i - c + delta g_i u_n) / (delta g_i . delta g_i),
    clamped to 0 when the predicted component already satisfies the bound:
    the agent's constraint synthesis with (h, d) = (-u_n, I) and no ridge.
    A row whose ||delta g_i|| is numerically zero keeps u_n.  `goal`, `x`
    and the result are as in `constraint_action`.
    """
    X = _rows(x)[0]
    U_n = np.asarray(u_n, dtype=np.float64).reshape(len(X), -1)
    F, G = dyn.coefficients(X)
    i = goal.state_index
    sign, c = goal.upper(X)
    DG = (sign * dyn.delta)[:, None] * G[:, i, :]
    gain = np.vecdot(DG, DG)
    fallback = _fell_back(np.sqrt(gain) < EPS_KKT,  # `np.linalg.norm` of each row's dg
                          f"constraint on state component {i} is uncontrollable; keeping the policy action")
    return _project(U_n, DG, DG, gain, fallback, X, F, G, dyn.delta, i, sign, c, action_low, action_high)


# ---------------------------------------------------------------------------
# Hybrid dispatch
# ---------------------------------------------------------------------------


class GoalController:
    """Per-step dispatch between a base policy and goal-aware synthesis.

    The base action comes from the trained value model (long-term greedy)
    when `qmodel` is given, or from `policy` (any callable rows -> actions)
    in the approximation setting.  While the goal's activation predicate
    holds, actions come from the matching goal-aware synthesis op; once the
    goal expires the controller reverts to the base policy.  A row whose
    synthesis is undefined takes the base action inside the op, on branch
    "fallback", instead of ending the episode.  Rows are dispatched each to
    its own branch, and each branch's rows go through their op together;
    `branch_counts` counts the rows each branch took.
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
    ):
        if (qmodel is None) == (policy is None):
            raise ValueError("provide exactly one of qmodel or policy")
        self.dyn = dyn
        self.goal = goal
        self.qmodel = qmodel
        self.policy = policy
        self.action_low = qmodel.action_low if qmodel is not None else action_low
        self.action_high = qmodel.action_high if qmodel is not None else action_high
        self.branch_counts: dict = {}

    def act(self, x: np.ndarray, k: int, rng) -> np.ndarray:
        """The actions (n, a) at the rows of x at step k.  `rng` is one
        generator, or one per row; the agent's long-term action draws from
        it where its gain is zero.  The goal's callables and the policy are
        called once, on all the rows."""
        X, rngs = _rows(x, rng)
        goal, agent = self.goal, self.qmodel is not None
        on = np.zeros(len(X), dtype=bool)
        if goal is not None:
            on[:] = goal.active(X, k)
        U_n = None if agent else np.asarray(self.policy(X), dtype=np.float64).reshape(len(X), -1)
        parts, counts = [], {}  # (rows, their actions); rows per branch
        if not on.all():
            rows = np.flatnonzero(~on)
            parts.append((rows, long_term_action(self.qmodel, X[rows], [rngs[j] for j in rows]).action if agent
                          else _clip(U_n[rows], self.action_low, self.action_high)))
            counts["long_term" if agent else "policy"] = len(rows)
        rows = np.flatnonzero(on)
        if rows.size:
            bounds, rngs_on = dict(action_low=self.action_low, action_high=self.action_high), [rngs[j] for j in rows]
            if isinstance(goal, TrajectoryGoal):
                branch, target = "trajectory", np.asarray(goal.target(X, k), dtype=np.float64).reshape(X.shape)[rows]
                args = (self.dyn, X[rows], target, goal.gamma1, goal.gamma2)
                res = (trajectory_action(self.qmodel, *args, rngs_on) if agent
                       else approx_trajectory_action(U_n[rows], *args, **bounds))
            else:
                branch = "constraint"
                res = (constraint_action(self.qmodel, self.dyn, X[rows], goal, rngs_on) if agent
                       else approx_constraint_action(U_n[rows], self.dyn, X[rows], goal, **bounds))
            parts.append((rows, res.action))
            counts["fallback"] = 0 if res.fallback is None else int(res.fallback.sum())
            counts[branch] = len(rows) - counts["fallback"]
        for name, n in counts.items():
            if n:
                self.branch_counts[name] = self.branch_counts.get(name, 0) + n
        if len(parts) == 1:  # every row on one op, in order
            return parts[0][1]
        action = np.empty((len(X), parts[0][1].shape[1]))
        for rows, actions in parts:
            action[rows] = actions
        return action


class LlqlPolicy:
    """Greedy policy view of a trained value model (callable rows ->
    actions); one generator, seeded 0, serves every row's fallback."""

    def __init__(self, qmodel: QModel):
        self.qmodel = qmodel
        self.rng = np.random.default_rng(0)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return long_term_action(self.qmodel, x, self.rng).action


# ---------------------------------------------------------------------------
# External policy protocol
# ---------------------------------------------------------------------------


class ExternalProcessPolicy:
    """Pre-trained policy behind a child process speaking JSON lines.

    Each state is one {"state": [...]} line on the child's stdin, answered
    by one {"action": [...]} line on its stdout within `timeout` seconds.
    Rows of states are pipelined: up to `PIPELINE` request lines go in one
    write, then their answers are read in order.  The bound keeps a write
    below a pipe's capacity, so a child that answers as it reads can never
    block on a full output pipe while this process blocks on a full input
    pipe.
    """

    PIPELINE = 64

    def __init__(self, argv, timeout: float = 1.0):
        self.timeout = timeout
        self._proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0
        )
        self._pending = b""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        X = _rows(x)[0]
        actions = []
        for start in range(0, len(X), self.PIPELINE):
            chunk = X[start : start + self.PIPELINE]
            self._proc.stdin.write(b"".join(json.dumps({"state": row}).encode("utf-8") + b"\n"
                                            for row in chunk.tolist()))
            self._proc.stdin.flush()
            actions += [json.loads(self._read_line())["action"] for _ in chunk]
        return np.asarray(actions, dtype=np.float64).reshape(len(X), -1)

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
