import dataclasses
import json
import sys
import textwrap

import numpy as np
import pytest

from llql import control
from llql.baselines import DdpgModel
from llql.control import (
    ConstraintGoal,
    ExternalProcessPolicy,
    GoalController,
    LlqlPolicy,
    SymmetricConstraintGoal,
    TrajectoryGoal,
    UncontrollableConstraintError,
    approx_constraint_action,
    approx_trajectory_action,
    constraint_action,
    long_term_action,
    trajectory_action,
)
from llql.core import DynamicsModel, QModel
from llql.nets import HeadBank, Mlp, Normalizer


def constant_bank(in_dim, outputs, shapes):
    """A bank of heads without hidden layers that output the given constants
    for any input."""
    bank = HeadBank.create(in_dim, (), shapes, np.random.default_rng(0))
    for head, values in zip(bank.heads, outputs):
        head.weights[0][...] = 0.0
        head.biases[0][...] = np.asarray(values, dtype=np.float64).reshape(-1)
    return bank


def make_qmodel(v, h, d, state_dim=1, low=-10.0, high=10.0):
    d = np.atleast_2d(np.asarray(d, dtype=np.float64))
    m, a = d.shape
    bank = constant_bank(state_dim, (v, h, d), QModel.head_shapes(a))
    return QModel(bank, Normalizer.identity(state_dim), np.full(a, low), np.full(a, high))


def make_dynamics(f, g, delta=0.001, state_dim=None, action_dim=None):
    f = np.atleast_1d(np.asarray(f, dtype=np.float64))
    g = np.atleast_2d(np.asarray(g, dtype=np.float64))
    state_dim = state_dim or len(f)
    action_dim = action_dim or g.shape[1]
    bank = constant_bank(state_dim, (f, g), DynamicsModel.head_shapes(state_dim, action_dim))
    return DynamicsModel(bank, delta, Normalizer.identity(state_dim))


def rng():
    return np.random.default_rng(0)


# ---------------------------------------------------------------------------
# Long-term action
# ---------------------------------------------------------------------------


def test_long_term_scalar_pseudo_inverse():
    q = make_qmodel(v=0.0, h=[2.0], d=[[1.0]])
    res = long_term_action(q, np.zeros((1, 1)), rng())
    assert res.action_raw[0, 0] == pytest.approx(-2.0, abs=1e-8)


def test_long_term_zero_offset_gives_zero_action():
    q = make_qmodel(v=0.0, h=[0.0, 0.0], d=np.array([[2.0, 0.3], [-0.4, 1.5]]), state_dim=2)
    res = long_term_action(q, np.zeros((1, 2)), rng())
    assert np.allclose(res.action_raw, 0.0, atol=1e-12)


def test_long_term_degenerate_gain_falls_back_to_random():
    q = make_qmodel(v=0.0, h=[1.0], d=[[0.0]], low=-1.0, high=1.0)
    res = long_term_action(q, np.zeros((1, 1)), rng())
    assert res.fallback == ["degenerate-gain"]
    assert -1.0 <= res.action[0, 0] <= 1.0


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_long_term_residual_orthogonality():
    rnd = np.random.default_rng(1)
    for _ in range(100):
        # well-conditioned gains: singular values in [1, 2]
        d = rotation(rnd.uniform(0, 7)) @ np.diag(rnd.uniform(1.0, 2.0, 2)) @ rotation(rnd.uniform(0, 7))
        h = rnd.uniform(-3, 3, size=2)
        q = make_qmodel(v=0.0, h=h, d=d, state_dim=2)
        u = long_term_action(q, np.zeros((1, 2)), rng()).action_raw[0]
        assert np.linalg.norm(d.T @ (h + d @ u)) < 1e-8


def test_long_term_beats_action_grid():
    rnd = np.random.default_rng(2)
    grid_1d = np.linspace(-3.0, 3.0, 201)
    grid = np.array(np.meshgrid(grid_1d, grid_1d)).reshape(2, -1).T
    for _ in range(20):
        d = rnd.uniform(0.4, 2.0, size=(2, 2)) + np.eye(2)
        h = rnd.uniform(-2, 2, size=2)
        q = make_qmodel(v=0.0, h=h, d=d, state_dim=2)
        u = long_term_action(q, np.zeros((1, 2)), rng()).action_raw[0]
        best_grid = np.linalg.norm(h + grid @ d.T, axis=1).min()
        assert np.linalg.norm(h + d @ u) <= best_grid + 1e-6


# ---------------------------------------------------------------------------
# Trajectory action
# ---------------------------------------------------------------------------


def test_trajectory_reduces_to_long_term_as_gamma2_vanishes():
    q = make_qmodel(v=0.0, h=[1.3], d=[[0.8]])
    dyn = make_dynamics([0.5], [[2.0]])
    x = np.zeros((1, 1))
    res = trajectory_action(q, dyn, x, np.array([[0.01]]), 1.0, 1e-12, rng())
    ref = long_term_action(q, x, rng())
    assert res.action_raw[0, 0] == pytest.approx(ref.action_raw[0, 0], abs=1e-6)


def test_trajectory_pure_tracking_limit():
    # delta*g of order one so the ridge term is negligible
    q = make_qmodel(v=0.0, h=[1.0], d=[[1.0]])
    dyn = make_dynamics([3.0], [[1500.0]], delta=0.001)
    x = np.array([[0.2]])
    target = np.array([[0.35]])
    res = trajectory_action(q, dyn, x, target, 0.0, 1.0, rng())
    assert dyn.predict_next_batch(x, res.action_raw)[0, 0] == pytest.approx(target[0, 0], abs=1e-6)


def test_trajectory_scalar_hand_quadratic():
    # minimize (1*(1 + u))^2 + (1*(0.001 - 0.001 u))^2 over u
    q = make_qmodel(v=0.0, h=[1.0], d=[[1.0]])
    dyn = make_dynamics([0.0], [[1.0]], delta=0.001)
    res = trajectory_action(q, dyn, np.zeros((1, 1)), np.array([[0.001]]), 1.0, 1.0, rng())
    expected = (-1.0 + 1e-6) / (1.0 + 1e-6)
    assert res.action_raw[0, 0] == pytest.approx(expected, abs=1e-9)


def test_trajectory_singular_coefficients_fall_back():
    q = make_qmodel(v=0.0, h=[1.0], d=[[1.0]])
    dyn = make_dynamics([np.inf], [[1.0]])
    res = trajectory_action(q, dyn, np.zeros((1, 1)), np.array([[0.01]]), 1.0, 1.0, rng())
    assert res.fallback == ["singular"]
    assert res.action_raw[0, 0] == pytest.approx(-1.0, abs=1e-8)


def test_trajectory_continuity_in_weights():
    q = make_qmodel(v=0.0, h=[0.7], d=[[1.1]])
    dyn = make_dynamics([0.4], [[900.0]])
    x = np.array([[0.05]])
    target = np.array([[0.06]])
    a = trajectory_action(q, dyn, x, target, 1.0, 2.0, rng()).action_raw[0, 0]
    b = trajectory_action(q, dyn, x, target, 1.0, 2.0 + 1e-9, rng()).action_raw[0, 0]
    assert abs(a - b) < 1e-6


# ---------------------------------------------------------------------------
# Constraint action (KKT)
# ---------------------------------------------------------------------------


def test_constraint_inactive_clamps_to_long_term():
    q = make_qmodel(v=0.0, h=[0.1], d=[[1.0]])
    dyn = make_dynamics([0.0], [[1.0]])
    goal = ConstraintGoal(state_index=0, bound=1.0, direction="upper")
    (sol,) = constraint_action(q, dyn, np.zeros((1, 1)), goal)
    assert sol.lambda_star == 0.0
    assert not sol.active
    ref = long_term_action(q, np.zeros((1, 1)), rng())
    assert sol.action_raw[0] == pytest.approx(ref.action_raw[0, 0], abs=1e-12)


def test_constraint_hand_example():
    # h=0, d=1, f=0, g=1, delta=1e-3, x=0, c=-5e-4: lambda*=500, u=-0.5
    q = make_qmodel(v=0.0, h=[0.0], d=[[1.0]])
    dyn = make_dynamics([0.0], [[1.0]])
    goal = ConstraintGoal(state_index=0, bound=-0.0005, direction="upper")
    (sol,) = constraint_action(q, dyn, np.zeros((1, 1)), goal)
    assert sol.active
    assert sol.lambda_star == pytest.approx(500.0, rel=1e-6)
    assert sol.action_raw[0] == pytest.approx(-0.5, rel=1e-6)
    assert sol.predicted == pytest.approx(-0.0005, abs=1e-10)


def test_constraint_complementary_slackness_random():
    rnd = np.random.default_rng(3)
    for _ in range(100):
        h = rnd.uniform(-2, 2, size=1)
        d = rnd.uniform(0.3, 2.0, size=(1, 1)) * rnd.choice([-1, 1])
        f = rnd.uniform(-3, 3, size=1)
        g = rnd.uniform(0.5, 3.0, size=(1, 1)) * rnd.choice([-1, 1])
        x = rnd.uniform(-1, 1, size=(1, 1))
        c = rnd.uniform(-1, 1)
        q = make_qmodel(v=0.0, h=h, d=d)
        dyn = make_dynamics(f, g)
        goal = ConstraintGoal(state_index=0, bound=c, direction="upper")
        (sol,) = constraint_action(q, dyn, x, goal)
        assert sol.lambda_star == 0.0 or abs(sol.predicted - c) <= 1e-8
        # never worsens feasibility
        unconstrained = long_term_action(q, x, rng()).action_raw
        if dyn.predict_next_batch(x, unconstrained)[0, 0] > c:
            assert sol.predicted <= c + 1e-8


def test_constraint_matches_numeric_oracle():
    rnd = np.random.default_rng(4)
    for _ in range(50):
        h = rnd.uniform(-2, 2)
        d = rnd.uniform(0.4, 2.0) * rnd.choice([-1, 1])
        f = rnd.uniform(-2, 2)
        g = rnd.uniform(0.5, 2.0) * rnd.choice([-1, 1])
        x = rnd.uniform(-0.5, 0.5)
        c = x + rnd.uniform(-0.02, 0.02)  # keeps the feasible set inside the grid
        q = make_qmodel(v=0.0, h=[h], d=[[d]])
        dyn = make_dynamics([f], [[g]])
        goal = ConstraintGoal(state_index=0, bound=c, direction="upper")
        (sol,) = constraint_action(q, dyn, np.array([[x]]), goal)
        # dense 1-D minimization of 0.5*(h+d*u)^2 s.t. x + delta*(f+g*u) <= c
        us = np.linspace(-50, 50, 2_000_001)
        feasible = x + 0.001 * (f + g * us) <= c + 1e-12
        costs = 0.5 * (h + d * us) ** 2
        best = us[feasible][np.argmin(costs[feasible])]
        assert sol.action_raw[0] == pytest.approx(best, abs=1e-4)
        obj_gap = 0.5 * (h + d * sol.action_raw[0]) ** 2 - 0.5 * (h + d * best) ** 2
        assert obj_gap <= 1e-5


def test_constraint_lower_bound_reflection():
    q = make_qmodel(v=0.0, h=[0.0], d=[[1.0]])
    dyn = make_dynamics([0.0], [[1.0]])
    goal = ConstraintGoal(state_index=0, bound=0.0005, direction="lower")
    (sol,) = constraint_action(q, dyn, np.zeros((1, 1)), goal)
    assert sol.active
    assert sol.predicted == pytest.approx(0.0005, abs=1e-10)
    assert sol.action_raw[0] == pytest.approx(0.5, rel=1e-6)


def test_constraint_uncontrollable_is_an_error_row():
    q = make_qmodel(v=0.0, h=[1.0], d=[[1.0]], state_dim=2)
    dyn = make_dynamics([0.0, 0.0], np.array([[0.0], [1.0]]), state_dim=2)
    goal = ConstraintGoal(state_index=0, bound=-1.0, direction="upper")
    (sol,) = constraint_action(q, dyn, np.zeros((1, 2)), goal)
    assert isinstance(sol, UncontrollableConstraintError) and "uncontrollable" in str(sol)


def test_constraint_degenerate_gain_is_an_error_row():
    q = make_qmodel(v=0.0, h=[1.0], d=[[0.0]])
    dyn = make_dynamics([0.0], [[1.0]])
    goal = ConstraintGoal(state_index=0, bound=-1.0, direction="upper")
    (sol,) = constraint_action(q, dyn, np.zeros((1, 1)), goal)
    assert isinstance(sol, UncontrollableConstraintError) and "numerically zero" in str(sol)


def test_constraint_clip_violation_flag():
    # satisfying the bound needs u = -50, far outside [-1, 1]
    q = make_qmodel(v=0.0, h=[0.0], d=[[1.0]], low=-1.0, high=1.0)
    dyn = make_dynamics([0.0], [[1.0]])
    goal = ConstraintGoal(state_index=0, bound=-0.05, direction="upper")
    (sol,) = constraint_action(q, dyn, np.zeros((1, 1)), goal)
    assert sol.clip_violates
    assert sol.action[0] == -1.0
    assert sol.predicted == pytest.approx(-0.05, abs=1e-10)


# ---------------------------------------------------------------------------
# Approximation layer
# ---------------------------------------------------------------------------


def test_approx_trajectory_gamma2_zero_identity():
    dyn = make_dynamics([0.3], [[1.2]])
    u_n = np.array([[0.123456789]])
    res = approx_trajectory_action(u_n, dyn, np.zeros((1, 1)), np.array([[0.5]]), 1.0, 0.0)
    assert res.action_raw[0, 0] == u_n[0, 0]  # bitwise
    assert res.action[0, 0] == u_n[0, 0]


def test_approx_trajectory_pure_tracking():
    dyn = make_dynamics([2.0], [[1200.0]], delta=0.001)
    x = np.array([[0.1]])
    target = np.array([[0.4]])
    res = approx_trajectory_action(np.array([[0.0]]), dyn, x, target, 0.0, 1.0)
    assert dyn.predict_next_batch(x, res.action_raw)[0, 0] == pytest.approx(0.4, abs=1e-6)


def test_approx_trajectory_scalar_hand_quadratic():
    # u_N=0.5, f=0, g=1, delta=1e-3, x=0, x_d=0.002, gamma1=1, gamma2=1e6
    dyn = make_dynamics([0.0], [[1.0]], delta=0.001)
    res = approx_trajectory_action(
        np.array([[0.5]]), dyn, np.zeros((1, 1)), np.array([[0.002]]), 1.0, 1e6
    )
    expected = 2000000.5 / 1000001.0
    assert res.action_raw[0, 0] == pytest.approx(expected, abs=1e-6)


def test_approx_constraint_inactive_is_identity():
    dyn = make_dynamics([0.0], [[1.0]])
    goal = ConstraintGoal(state_index=0, bound=0.01, direction="upper")
    u_n = np.array([[0.5]])
    (sol,) = approx_constraint_action(u_n, dyn, np.zeros((1, 1)), goal)
    assert not sol.active
    assert sol.lambda_star == 0.0
    assert sol.action_raw[0] == u_n[0, 0]  # bitwise
    assert sol.action[0] == u_n[0, 0]


def test_approx_constraint_boundary_fixed_point():
    # prediction exactly on the bound: lambda* = 0, action unchanged
    dyn = make_dynamics([0.0], [[1.0]])
    goal = ConstraintGoal(state_index=0, bound=0.001, direction="upper")
    u_n = np.array([[1.0]])
    (sol,) = approx_constraint_action(u_n, dyn, np.zeros((1, 1)), goal)
    assert sol.lambda_star == 0.0
    assert sol.action_raw[0] == u_n[0, 0]


def test_approx_constraint_hand_example():
    # x=0, f=0, g=1, delta=1e-3, c=4e-4, u_N=1 -> lambda*=600, u=0.4
    dyn = make_dynamics([0.0], [[1.0]], delta=0.001)
    goal = ConstraintGoal(state_index=0, bound=0.0004, direction="upper")
    (sol,) = approx_constraint_action(np.array([[1.0]]), dyn, np.zeros((1, 1)), goal)
    assert sol.active
    assert sol.lambda_star == pytest.approx(600.0, rel=1e-9)
    assert sol.action_raw[0] == pytest.approx(0.4, rel=1e-9)
    assert sol.predicted == pytest.approx(0.0004, abs=1e-12)


def test_approx_constraint_is_halfspace_projection():
    rnd = np.random.default_rng(5)
    for _ in range(100):
        f = rnd.uniform(-2, 2, size=2)
        g = rnd.uniform(-2, 2, size=(2, 2)) + np.eye(2)
        dyn = make_dynamics(f, g, delta=0.01)
        x = rnd.uniform(-1, 1, size=(1, 2))
        u_n = rnd.uniform(-2, 2, size=(1, 2))
        c = rnd.uniform(-0.5, 0.5)
        goal = ConstraintGoal(state_index=0, bound=c, direction="upper")
        (sol,) = approx_constraint_action(u_n, dyn, x, goal)
        assert sol.predicted <= c + 1e-8
        if sol.active:
            # projection: the correction is parallel to delta*g_i and lands on the boundary
            assert abs(sol.predicted - c) <= 1e-8
            corr = sol.action_raw - u_n[0]
            dg = 0.01 * g[0]
            cross = corr - (corr @ dg) / (dg @ dg) * dg
            assert np.linalg.norm(cross) < 1e-10


# ---------------------------------------------------------------------------
# Hybrid dispatch
# ---------------------------------------------------------------------------


def mc_like_models():
    q = make_qmodel(v=0.0, h=[0.5], d=[[1.0]], state_dim=2, low=-1.0, high=1.0)
    dyn = make_dynamics([0.0, 0.0], np.array([[1.0], [1.0]]), state_dim=2)
    return q, dyn


def test_hybrid_trajectory_switches_on_position():
    q, dyn = mc_like_models()
    goal = TrajectoryGoal(
        target=lambda X, k: np.column_stack([X[:, 0] + 0.025, np.full(len(X), 0.025)]),
        gamma1=1.0, gamma2=2000.0,
        active=lambda X, k: X[:, 0] >= 0.0,
    )
    ctl = GoalController(dyn, goal, qmodel=q)
    left = np.array([[-0.5, 0.03]])
    assert np.array_equal(ctl.act(left, 0, rng()), long_term_action(q, left, rng()).action)
    assert ctl.branch_counts == {"long_term": 1}
    ctl.act(np.array([[0.1, 0.03]]), 1, rng())
    assert ctl.branch_counts == {"long_term": 1, "trajectory": 1}


def test_hybrid_constraint_switches_on_speed():
    q, dyn = mc_like_models()
    goal = SymmetricConstraintGoal(state_index=1, bound=0.033, margin=0.033)
    ctl = GoalController(dyn, goal, qmodel=q)
    ctl.act(np.array([[-0.5, 0.02]]), 0, rng())
    assert ctl.branch_counts == {"long_term": 1}
    fast = np.array([[-0.5, 0.034]])
    action = ctl.act(fast, 1, rng())
    assert ctl.branch_counts == {"long_term": 1, "constraint": 1}
    (sol,) = constraint_action(q, dyn, fast, goal)
    assert sol.active and np.array_equal(action[0], sol.action)


def test_hybrid_constraint_picks_nearer_side():
    q, dyn = mc_like_models()
    goal = SymmetricConstraintGoal(state_index=1, bound=0.033)
    ctl = GoalController(dyn, goal, qmodel=q)
    down = np.array([[-0.5, -0.04]])
    action = ctl.act(down, 0, rng())
    assert ctl.branch_counts == {"constraint": 1}
    (sol,) = constraint_action(q, dyn, down, goal)
    assert np.array_equal(action[0], sol.action) and sol.predicted >= -0.033 - 1e-8


def test_goal_expiry_reverts_to_base():
    q, dyn = mc_like_models()
    goal = TrajectoryGoal(
        target=lambda X, k: np.zeros_like(X),
        gamma1=1.0, gamma2=1.0,
        active=lambda X, k: k < 5,
    )
    ctl = GoalController(dyn, goal, qmodel=q)
    ctl.act(np.zeros((1, 2)), 4, rng())
    assert ctl.branch_counts == {"trajectory": 1}
    ctl.act(np.zeros((1, 2)), 5, rng())
    assert ctl.branch_counts == {"trajectory": 1, "long_term": 1}


def test_hybrid_policy_mode_uses_approximation():
    _, dyn = mc_like_models()
    calls = []

    def policy(X):
        calls.append(X.copy())
        return np.array([[0.7]])

    goal = SymmetricConstraintGoal(state_index=1, bound=0.033, margin=0.0)
    ctl = GoalController(
        dyn, goal, policy=policy, action_low=np.array([-1.0]), action_high=np.array([1.0]),
    )
    ctl.act(np.array([[-0.5, 0.02]]), 0, rng())
    assert ctl.branch_counts == {"constraint": 1}
    assert calls  # the policy supplied u_N


def test_uncontrollable_step_falls_back_to_the_base_action():
    # the bound on velocity is broken, but g has no effect on it
    dyn = make_dynamics([0.0, 0.0], np.array([[1.0], [0.0]]), state_dim=2)
    q = make_qmodel(v=0.0, h=[0.5], d=[[1.0]], state_dim=2, low=-1.0, high=1.0)
    goal = SymmetricConstraintGoal(state_index=1, bound=0.033, margin=0.0)
    x = np.array([[-0.5, 0.05]])
    agent = GoalController(dyn, goal, qmodel=q)
    approx = GoalController(
        dyn, goal, policy=lambda X: np.array([[1.5]]), action_low=np.array([-1.0]), action_high=np.array([1.0]),
    )
    for ctl, base, (error,) in (
        (agent, long_term_action(q, x, rng()).action, constraint_action(q, dyn, x, goal)),
        (approx, np.array([[1.0]]), approx_constraint_action(np.array([[1.5]]), dyn, x, goal)),
    ):
        assert isinstance(error, UncontrollableConstraintError)
        assert np.array_equal(ctl.act(x, 0, rng()), base)
        assert ctl.branch_counts == {"fallback": 1}
        ctl.act(np.array([[-0.5, 0.0]]), 1, rng())  # v = 0 is inside the margin
        assert ctl.branch_counts == {"fallback": 1, "long_term" if ctl is agent else "policy": 1}


def test_goal_controller_requires_exactly_one_source():
    q, dyn = mc_like_models()
    with pytest.raises(ValueError):
        GoalController(dyn, None, qmodel=q, policy=lambda x: x)
    with pytest.raises(ValueError):
        GoalController(dyn, None)


def test_llql_policy_callable():
    q = make_qmodel(v=0.0, h=[2.0], d=[[1.0]], low=-1.0, high=1.0)
    policy = LlqlPolicy(q)
    assert policy(np.zeros((1, 1)))[0, 0] == -1.0  # -2 clipped


# ---------------------------------------------------------------------------
# Rows: an op or a controller on rows computes each row as it would alone
# ---------------------------------------------------------------------------


def same(a, b) -> bool:
    """Whether two results (or two errors) are equal, arrays bit for bit."""
    if isinstance(a, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(*([getattr(r, f.name) for f in dataclasses.fields(r)] for r in (a, b)))
    )


def random_models(state_dim, seed):
    """Value and dynamics models on small random float32 banks, whose
    coefficients vary from state to state."""
    rnd = np.random.default_rng(seed)
    q = QModel(
        HeadBank.create(state_dim, (8, 8), QModel.head_shapes(1), rnd, np.float32),
        Normalizer(rnd.normal(size=state_dim), rnd.uniform(0.5, 2.0, state_dim)), np.array([-1.0]), np.array([1.0]),
    )
    dyn = DynamicsModel(
        HeadBank.create(state_dim, (8, 8), DynamicsModel.head_shapes(state_dim, 1), rnd, np.float32), 0.05,
        Normalizer.identity(state_dim),
    )
    return q, dyn


def nearer_side(goal, x) -> ConstraintGoal:
    """The one-sided constraint of a symmetric limit nearer the value of x."""
    if x[goal.state_index] >= 0:
        return ConstraintGoal(goal.state_index, goal.bound, "upper", goal.margin)
    return ConstraintGoal(goal.state_index, -goal.bound, "lower", -goal.margin)


@pytest.mark.parametrize("goal", [ConstraintGoal(1, -0.02, "lower"), SymmetricConstraintGoal(1, 0.02, margin=0.0)],
                         ids=["lower", "symmetric"])
def test_synthesis_on_rows_equals_one_row_calls_bitwise(goal):
    q, dyn = random_models(2, 3)
    rnd = np.random.default_rng(4)
    X = rnd.normal(size=(12, 2))
    U_n, T = rnd.uniform(-1.5, 1.5, (12, 1)), X + rnd.normal(scale=0.1, size=X.shape)
    low, high = q.action_low, q.action_high

    def ops(x, u_n, target, goal, gen):
        return {
            "long_term": long_term_action(q, x, gen),
            "trajectory": trajectory_action(q, dyn, x, target, 1.0, 50.0, gen),
            "approx_trajectory": approx_trajectory_action(u_n, dyn, x, target, 1.0, 50.0,
                                                          action_low=low, action_high=high),
            "constraint": constraint_action(q, dyn, x, goal),
            "approx_constraint": approx_constraint_action(u_n, dyn, x, goal, action_low=low, action_high=high),
        }

    rows = ops(X, U_n, T, goal, [np.random.default_rng(j) for j in range(len(X))])
    for j in range(len(X)):
        side = nearer_side(goal, X[j]) if isinstance(goal, SymmetricConstraintGoal) else goal
        one_row = slice(j, j + 1)
        for name, one in ops(X[one_row], U_n[one_row], T[one_row], side, np.random.default_rng(j)).items():
            got = rows[name]
            if isinstance(got, list):
                assert same(got[j], one[0]), name
            else:
                assert np.array_equal(got.action[j], one.action[0])
                assert np.array_equal(got.action_raw[j], one.action_raw[0])
                assert (got.fallback and got.fallback[j]) == (one.fallback and one.fallback[0])
    assert 0 < sum(sol.active for sol in rows["constraint"]) < len(X)


def test_goal_controller_rows_decide_as_each_row_alone():
    q = make_qmodel(v=0.0, h=[0.5], d=[[1.0]], state_dim=2, low=-1.0, high=1.0)
    X = np.array([[-0.5, 0.05], [-0.5, 0.01], [-0.3, -0.04], [-0.2, 0.0], [0.1, 0.03]])
    limit = SymmetricConstraintGoal(state_index=1, bound=0.033, margin=0.033)
    track = TrajectoryGoal(lambda x, k: x + 0.01, gamma1=1.0, gamma2=2000.0, active=lambda x, k: x[..., 0] >= -0.4)
    branches = set()
    # g moves the velocity, or not at all: then every engaged row falls back
    for g in ([[1.0], [1.0]], [[1.0], [0.0]]):
        dyn = make_dynamics([0.0, 0.0], np.array(g), state_dim=2)
        for goal in (limit, track):
            for source in (dict(qmodel=q), dict(policy=lambda x: 0.5 * x[..., :1] + 0.9,
                                                action_low=np.array([-1.0]), action_high=np.array([1.0]))):
                lockstep, alone = GoalController(dyn, goal, **source), GoalController(dyn, goal, **source)
                got = lockstep.act(X, 3, [rng() for _ in X])
                for j, x in enumerate(X):
                    assert np.array_equal(got[j], alone.act(x[None], 3, rng())[0])
                assert lockstep.branch_counts == alone.branch_counts
                branches.update(lockstep.branch_counts)
    assert branches == {"long_term", "policy", "trajectory", "constraint", "fallback"}


ONE_STATE_CALLS = {
    "long_term_action": lambda q, dyn, goal, x: long_term_action(q, x, rng()),
    "trajectory_action": lambda q, dyn, goal, x: trajectory_action(q, dyn, x, x, 1.0, 1.0, rng()),
    "approx_trajectory_action": lambda q, dyn, goal, x: approx_trajectory_action(np.ones(1), dyn, x, x, 1.0, 1.0),
    "constraint_action": lambda q, dyn, goal, x: constraint_action(q, dyn, x, goal),
    "approx_constraint_action": lambda q, dyn, goal, x: approx_constraint_action(np.ones(1), dyn, x, goal),
    "GoalController.act": lambda q, dyn, goal, x: GoalController(dyn, goal, qmodel=q).act(x, 0, rng()),
    "LlqlPolicy": lambda q, dyn, goal, x: LlqlPolicy(q)(x),
    "DdpgModel": lambda q, dyn, goal, x: DdpgModel(
        Mlp.create((2, 1), np.random.default_rng(0)), Mlp.create((3, 1), np.random.default_rng(1)),
        Normalizer.identity(2), q.action_low, q.action_high)(x),
}


@pytest.mark.parametrize("name", [*ONE_STATE_CALLS, "ExternalProcessPolicy"])
def test_one_state_is_rejected(name):
    q, dyn = mc_like_models()
    goal = SymmetricConstraintGoal(state_index=1, bound=0.033, margin=0.0)
    x = np.array([-0.5, 0.05])  # one state, not a one-row batch; it engages the limit
    with pytest.raises(ValueError, match="rows"):
        if name == "ExternalProcessPolicy":
            with ExternalProcessPolicy([sys.executable, "-c", ECHO_CHILD]) as policy:
                policy(x)
        else:
            ONE_STATE_CALLS[name](q, dyn, goal, x)


def test_a_call_logs_one_warning_for_all_its_rows(caplog):
    q = make_qmodel(v=0.0, h=[1.0], d=[[1.0]], low=-1.0, high=1.0)
    X = np.zeros((3, 1))
    # the limit engages on the two rows with v != 0, and g has no effect on v
    limit = GoalController(make_dynamics([0.0, 0.0], np.array([[1.0], [0.0]]), state_dim=2),
                           SymmetricConstraintGoal(state_index=1, bound=0.033, margin=0.0),
                           qmodel=make_qmodel(v=0.0, h=[0.5], d=[[1.0]], state_dim=2, low=-1.0, high=1.0))
    with caplog.at_level("WARNING", logger="llql.control"):
        trajectory_action(q, make_dynamics([np.inf], [[1.0]]), X, X, 1.0, 1.0, rng())
        # each row's bound needs u = -50, far outside [-1, 1]
        sols = constraint_action(q, make_dynamics([0.0], [[1.0]]), X, ConstraintGoal(0, -0.05))
        limit.act(np.array([[-0.5, 0.05], [-0.5, 0.0], [-0.5, -0.05]]), 0, rng())
    assert all(sol.clip_violates for sol in sols)
    assert limit.branch_counts == {"long_term": 1, "fallback": 2}
    assert [r.getMessage() for r in caplog.records] == [
        "trajectory synthesis was singular; falling back to the long-term action (3 of 3 rows)",
        "action clipping broke the constraint on 3 of 3 rows: first predicted 0=-0.001 vs bound -0.05",
        "constraint on state component 1 is uncontrollable (delta g_i . W^-1 delta g_i = 0.000e+00); "
        "taking the base action (2 of 3 rows)",
    ]


# ---------------------------------------------------------------------------
# External policy protocol
# ---------------------------------------------------------------------------

ECHO_CHILD = textwrap.dedent(
    """
    import json, sys
    for line in sys.stdin:
        req = json.loads(line)
        action = [0.5 * v for v in req["state"]][:1]
        print(json.dumps({"action": action}), flush=True)
    """
)

SLOW_CHILD = textwrap.dedent(
    """
    import json, sys, time
    for line in sys.stdin:
        time.sleep(3)
        print(json.dumps({"action": [0.0]}), flush=True)
    """
)


def test_external_policy_round_trip():
    with ExternalProcessPolicy([sys.executable, "-c", ECHO_CHILD]) as policy:
        out = policy(np.array([[0.8, -0.2]]))
        assert out[0, 0] == pytest.approx(0.4)
        out2 = policy(np.array([[-1.0, 0.0]]))
        assert out2[0, 0] == pytest.approx(-0.5)


def test_external_policy_pipelines_rows_in_order():
    X = np.random.default_rng(0).normal(size=(150, 2))  # more rows than one write carries
    with ExternalProcessPolicy([sys.executable, "-c", ECHO_CHILD]) as policy:
        U = policy(X)
        assert U.shape == (150, 1) and np.array_equal(U, np.concatenate([policy(x[None]) for x in X]))


def test_external_policy_timeout():
    with ExternalProcessPolicy([sys.executable, "-c", SLOW_CHILD], timeout=0.3) as policy:
        with pytest.raises(TimeoutError):
            policy(np.array([[1.0]]))


def test_external_policy_dead_child():
    with ExternalProcessPolicy([sys.executable, "-c", "pass"], timeout=1.0) as policy:
        with pytest.raises((RuntimeError, BrokenPipeError)):
            policy(np.array([[1.0]]))


# ---------------------------------------------------------------------------
# Goal validation
# ---------------------------------------------------------------------------


def test_goal_validation():
    with pytest.raises(ValueError):
        TrajectoryGoal(lambda x, k: x, gamma1=0.0, gamma2=0.0)
    with pytest.raises(ValueError):
        ConstraintGoal(state_index=0, bound=1.0, direction="sideways")
    with pytest.raises(ValueError):
        SymmetricConstraintGoal(state_index=0, bound=-1.0)
    goal = ConstraintGoal(state_index=1, bound=0.033)
    assert goal.active(np.array([[0.0, 0.05], [0.0, 0.01]]), 0).tolist() == [True, False]


def test_constraint_goal_activation_is_the_strict_comparison_on_its_side():
    assert "active" not in {field.name for field in dataclasses.fields(ConstraintGoal)}
    X = np.array([[0.0, v] for v in (0.033, -0.033, 0.0, -0.0, np.nan, 0.05, -0.05)])
    for margin in (0.033, -0.033, 0.0, -0.0):
        # the margin itself, both zeros and NaN do not engage either side
        upper, lower = ConstraintGoal(1, margin, "upper"), ConstraintGoal(1, margin, "lower")
        assert upper.active(X, 0).tolist() == (X[:, 1] > margin).tolist()
        assert lower.active(X, 0).tolist() == (X[:, 1] < margin).tolist()
