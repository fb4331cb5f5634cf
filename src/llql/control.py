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

`GoalController.act` dispatches each row to the base action or to the
goal's synthesis op and returns the actions (n, a); its `branch_counts`
count the rows each branch took, "fallback" included.  The ops return
richer results: an `ActionResult`, or one `KktSolution` (or error) per row.

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

from . import linalg
from .core import DynamicsModel, QModel, EPS_D, row_norms

logger = logging.getLogger(__name__)

EPS_KKT = 1e-12


class UncontrollableConstraintError(RuntimeError):
    """The action has (numerically) no influence on the constrained component."""


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

    def __post_init__(self):
        if self.direction not in ("upper", "lower"):
            raise ValueError("direction must be 'upper' or 'lower'")
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
        if self.bound <= 0:
            raise ValueError("symmetric bound must be positive")
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
    """An op's actions, (n, a) for n rows.  `fallback` is None when no row
    fell back, else one reason (or None) per row."""

    action: np.ndarray      # clipped to bounds when bounds are known
    action_raw: np.ndarray  # unclipped least-squares solution
    fallback: Optional[list] = None


@dataclasses.dataclass
class KktSolution:
    """One row's constraint synthesis; an op returns one per row."""

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


def _greedy(H, D, low, high, rngs) -> ActionResult:
    """The long-term action of each row of (H, D), or a uniform random
    in-bounds one drawn from the row's generator where the gain is
    numerically zero."""
    U_raw = linalg.pinv_action_batch(H, D)
    U = _clip(U_raw, low, high)
    degenerate = row_norms(D) < EPS_D
    if not degenerate.any():
        return ActionResult(U, U_raw)
    fallback = [None] * len(D)
    for j in np.flatnonzero(degenerate):
        U[j] = U_raw[j] = rngs[j].uniform(low, high)
        fallback[j] = "degenerate-gain"
    return ActionResult(U, U_raw, fallback)


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


def _singular(U_raw: np.ndarray, what: str) -> np.ndarray:
    """The rows of a tracking solve that are not finite, logged in one
    warning."""
    bad = ~np.isfinite(U_raw).all(axis=1)
    if bad.any():
        logger.warning("%s (%d of %d rows)", what, bad.sum(), len(bad))
    return bad


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
    bad = _singular(U_raw, "trajectory synthesis was singular; falling back to the long-term action")
    if not bad.any():
        return ActionResult(U, U_raw)
    base = _greedy(H[bad], D[bad], q.action_low, q.action_high, [r for r, b in zip(rngs, bad) if b])
    U[bad], U_raw[bad] = base.action, base.action_raw
    return ActionResult(U, U_raw, ["singular" if b else None for b in bad])


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
    bad = _singular(U_raw, "trajectory adjustment was singular; keeping the policy action")
    U_raw[bad] = U_n[bad]
    fallback = ["singular" if b else None for b in bad] if bad.any() else None
    return ActionResult(_clip(U_raw, action_low, action_high), U_raw, fallback)


# ---------------------------------------------------------------------------
# Constraint synthesis (KKT)
# ---------------------------------------------------------------------------


def _project(U0, W, DG, gain, X, F, G, delta: float, i: int, sign, c, low, high) -> list:
    """KKT solution u = u0 - lambda* w of min (u - u0)^T W (u - u0) subject
    to x_i + delta (f_i + g_i u) <= c, per row, where dg = delta g_i,
    w = W^-1 dg and gain = dg . w (dg and w reflected by `sign`, so a lower
    bound reads as an upper one): lambda* = max(0, (x_i + delta f_i +
    dg . u0 - c) / gain), so a binding bound puts the raw action's
    predicted component exactly on c.  Also flags a binding bound that
    clipping to [low, high] breaks, in one warning.  Returns one
    KktSolution per row.  The products over the action axis are stacked;
    the per-row scalars are Python floats, which cost less than numpy calls
    at a few rows."""
    sign, c, x_i, f_i = sign.tolist(), c.tolist(), X[:, i].tolist(), F[:, i].tolist()
    active, lam = [], []
    for s_j, c_j, x_j, f_j, dg_u0, gain_j in zip(sign, c, x_i, f_i, np.vecdot(DG, U0).tolist(), gain.tolist()):
        predicted0 = s_j * x_j + delta * (s_j * f_j) + dg_u0
        active.append(not predicted0 <= c_j)
        lam.append((predicted0 - c_j) / gain_j if active[-1] else 0.0)
    U_raw = np.where(np.array(active)[:, None], U0 - np.array(lam)[:, None] * W, U0)
    U = _clip(U_raw, low, high)
    Gi = G[:, i, :]
    solutions = []
    for j, (g_u_raw, g_u) in enumerate(zip(np.vecdot(Gi, U_raw).tolist(), np.vecdot(Gi, U).tolist())):
        predicted = x_i[j] + delta * (f_i[j] + g_u_raw)
        predicted_clipped = x_i[j] + delta * (f_i[j] + g_u)
        clip_violates = active[j] and sign[j] * predicted_clipped > c[j] + 1e-9
        solutions.append(KktSolution(lam[j], U[j], U_raw[j], predicted, predicted_clipped, active[j], clip_violates))
    violated = [j for j, sol in enumerate(solutions) if sol.clip_violates]
    if violated:
        j = violated[0]
        logger.warning(
            "action clipping broke the constraint on %d of %d rows: first predicted %s=%.6g vs bound %.6g",
            len(violated), len(solutions), i, solutions[j].predicted_clipped, sign[j] * c[j],
        )
    return solutions


def _solutions(undefined: np.ndarray, error: Callable, project: Callable) -> list:
    """Each row's KktSolution, from `project(rows)` on the rows where the
    synthesis is defined, or where `undefined`, its error `error(j)`."""
    if not undefined.any():
        return project(slice(None))
    results = [error(j) if bad else None for j, bad in enumerate(undefined.tolist())]
    ok = np.flatnonzero(~undefined)
    for j, sol in zip(ok, project(ok) if ok.size else ()):
        results[j] = sol
    return results


def constraint_action(
    q: QModel,
    dyn: DynamicsModel,
    x: np.ndarray,
    goal,
) -> list:
    """Greedy action subject to a bound on one predicted state component.

    The KKT solution of min 1/2 ||h + d u||^2 + ridge/2 ||u||^2 s.t.
    x_i + delta (f_i + g_i u) <= c is the greedy action projected onto the
    bound in the metric W = d^T d + ridge I: u = u0 - lambda* W^-1 delta g_i
    with u0 = `pinv_action(h, d)`.  `goal` is a ConstraintGoal, or a
    SymmetricConstraintGoal whose side each row picks.  `x` is rows; the
    result is one KktSolution per row, or an UncontrollableConstraintError
    where the synthesis is undefined.
    """
    X = _rows(x)[0]
    _, H, D = q.coefficients(X)
    F, G = dyn.coefficients(X)
    i = goal.state_index
    sign, c = goal.upper(X)
    DG = (sign * dyn.delta)[:, None] * G[:, i, :]
    W = linalg.ridge_solve(np.swapaxes(D, 1, 2) @ D, DG)
    gain = np.vecdot(DG, W)
    degenerate = row_norms(D) < EPS_D

    def error(j):
        if degenerate[j]:
            return UncontrollableConstraintError(
                "advantage gain d(x) is numerically zero; constrained synthesis is undefined"
            )
        return UncontrollableConstraintError(
            f"constraint on state component {i} is uncontrollable "
            f"(delta g_i . W^-1 delta g_i = {gain[j]:.3e})"
        )

    return _solutions(degenerate | (np.abs(gain) < EPS_KKT), error, lambda r: _project(
        linalg.pinv_action_batch(H[r], D[r]), W[r], DG[r], gain[r], X[r], F[r], G[r], dyn.delta, i, sign[r],
        c[r], q.action_low, q.action_high))


def approx_constraint_action(
    u_n: np.ndarray,
    dyn: DynamicsModel,
    x: np.ndarray,
    goal,
    *,
    action_low=None,
    action_high=None,
) -> list:
    """Project a pre-trained policy's action onto the constraint half-space.

    u = u_n - lambda* delta g_i^T with
    lambda* = (x_i + delta f_i - c + delta g_i u_n) / (delta g_i . delta g_i),
    clamped to 0 when the predicted component already satisfies the bound:
    the agent's constraint synthesis with (h, d) = (-u_n, I) and no ridge.
    `goal`, `x` and the result are as in `constraint_action`.
    """
    X = _rows(x)[0]
    U_n = np.asarray(u_n, dtype=np.float64).reshape(len(X), -1)
    F, G = dyn.coefficients(X)
    i = goal.state_index
    sign, c = goal.upper(X)
    DG = (sign * dyn.delta)[:, None] * G[:, i, :]
    gain = np.vecdot(DG, DG)
    norms = np.sqrt(gain)  # `np.linalg.norm` of each row's dg

    def error(j):
        return UncontrollableConstraintError(
            f"constraint on state component {i} is uncontrollable (||delta g_i|| = {norms[j]:.3e})"
        )

    return _solutions(norms < EPS_KKT, error, lambda r: _project(
        U_n[r], DG[r], DG[r], gain[r], X[r], F[r], G[r], dyn.delta, i, sign[r], c[r], action_low, action_high))


# ---------------------------------------------------------------------------
# Hybrid dispatch
# ---------------------------------------------------------------------------


class GoalController:
    """Per-step dispatch between a base policy and goal-aware synthesis.

    The base action comes from the trained value model (long-term greedy)
    when `qmodel` is given, or from `policy` (any callable rows -> actions)
    in the approximation setting.  While the goal's activation predicate
    holds, actions come from the matching goal-aware synthesis op; once the
    goal expires the controller reverts to the base policy.  A step on
    which the constraint is uncontrollable takes the base action, on branch
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

    def _base(self, X, U_n, rngs, rows) -> tuple:
        """(actions, branch) of the base action on `rows` of X."""
        if self.qmodel is not None:
            return long_term_action(self.qmodel, X[rows], [rngs[j] for j in rows]).action, "long_term"
        return _clip(U_n[rows], self.action_low, self.action_high), "policy"

    def act(self, x: np.ndarray, k: int, rng) -> np.ndarray:
        """The actions (n, a) at the rows of x at step k.  `rng` is one
        generator, or one per row; the agent's long-term fallback draws from
        it.  The goal's callables and the policy are called once, on all
        the rows."""
        X, rngs = _rows(x, rng)
        goal = self.goal
        on = np.zeros(len(X), dtype=bool)
        if goal is not None:
            on[:] = goal.active(X, k)
        U_n = None if self.policy is None else np.asarray(self.policy(X), dtype=np.float64).reshape(len(X), -1)
        parts = []  # (rows, their actions, branch)
        if not on.all():
            rows = np.flatnonzero(~on)
            parts.append((rows, *self._base(X, U_n, rngs, rows)))
        rows = np.flatnonzero(on)
        if rows.size and isinstance(goal, TrajectoryGoal):
            target = np.asarray(goal.target(X, k), dtype=np.float64).reshape(X.shape)[rows]
            if self.qmodel is not None:
                res = trajectory_action(self.qmodel, self.dyn, X[rows], target, goal.gamma1, goal.gamma2,
                                        [rngs[j] for j in rows])
            else:
                res = approx_trajectory_action(
                    U_n[rows], self.dyn, X[rows], target, goal.gamma1, goal.gamma2,
                    action_low=self.action_low, action_high=self.action_high,
                )
            parts.append((rows, res.action, "trajectory"))
        elif rows.size:
            if self.qmodel is not None:
                sols = constraint_action(self.qmodel, self.dyn, X[rows], goal)
            else:
                sols = approx_constraint_action(
                    U_n[rows], self.dyn, X[rows], goal, action_low=self.action_low, action_high=self.action_high,
                )
            failed = np.array([isinstance(sol, UncontrollableConstraintError) for sol in sols])
            if not failed.all():
                kept = [sol.action for sol, bad in zip(sols, failed) if not bad]
                parts.append((rows[~failed], np.array(kept), "constraint"))
            if failed.any():
                logger.warning("%s; taking the base action (%d of %d rows)", sols[failed.argmax()], failed.sum(),
                               len(X))
                parts.append((rows[failed], self._base(X, U_n, rngs, rows[failed])[0], "fallback"))
        for rows, _, name in parts:
            self.branch_counts[name] = self.branch_counts.get(name, 0) + len(rows)
        if len(parts) == 1:  # every row on one branch, in order
            return parts[0][1]
        action = np.empty((len(X), parts[0][1].shape[1]))
        for rows, actions, _ in parts:
            action[rows] = actions
        return action


class LlqlPolicy:
    """Greedy policy view of a trained value model (callable rows ->
    actions); its one generator serves every row's fallback."""

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
