"""Runtime-goal synthesis on exact models of the mountain-car and pendulum
physics.

While neither the force, the velocity nor the position clips, the car's
step is affine in the force: v' = v + 0.0015 u - 0.0025 cos(3 p) and
p' = p + v'.  The stand-in below writes that step as x' = x + delta (f + g u),
so the synthesis ops see the true dynamics and their promises can be
checked on the real environment without any training.  The pendulum's
angular velocity is likewise affine in the torque while neither the torque
(+-2) nor the speed (+-8) clips: theta_dot' = theta_dot + 0.05 (15 sin(theta) + 3 u).
"""

import math

import numpy as np
import pytest

from llql import control
from llql.control import ConstraintGoal, GoalController, SymmetricConstraintGoal, TrajectoryGoal
from llql.envs import MountainCar, Pendulum

DELTA = 0.001
POWER = MountainCar.POWER
GRAVITY = MountainCar.GRAVITY
BOUND = 0.02
SEEDS = range(4)


class OracleDynamics:
    """Exact mountain-car model while nothing clips, at one state or rows."""

    delta = DELTA

    def coefficients(self, x):
        a = -GRAVITY * np.cos(3.0 * x[..., 0])
        g = np.broadcast_to(np.array([[POWER], [POWER]]) / DELTA, x.shape[:-1] + (2, 1))
        return np.stack([x[..., 1] + a, a], axis=-1) / DELTA, g

    def predict_next(self, x, u):
        f, g = self.coefficients(x)
        return np.asarray(x, dtype=np.float64) + DELTA * (f + g @ np.asarray(u, dtype=np.float64))


def pump(x):
    """Bang-bang energy pumping: push along the velocity, sign(v), at one
    state or rows."""
    return np.where(x[..., 1:2] >= 0, 1.0, -1.0)


class OracleQ:
    """Value model whose greedy action is `pump`: h = -sign(v), d = 1."""

    action_low = np.array([-1.0])
    action_high = np.array([1.0])

    def coefficients(self, x):
        return np.zeros(x.shape[:-1]), -pump(x), np.broadcast_to(np.eye(1), x.shape[:-1] + (1, 1))


def free_velocity(x):
    """Next velocity at zero force."""
    return float(x[1]) - GRAVITY * math.cos(3.0 * float(x[0]))


def rollout(controller, seed, steps=300):
    """(state, action, next state) of each step of one episode that never
    reaches the goal, each state decided as a one-row batch."""
    env = MountainCar(goal_position=0.6, horizon=steps)
    x, rng = env.reset(seed), np.random.default_rng(seed)
    steps_taken = []
    for k in range(steps):
        u = controller.act(x[None], k, rng)[0]
        res = env.step(x, u)
        steps_taken.append((x, u, res.next_state))
        x = res.next_state
        if res.reached:
            break
    return steps_taken


def engaged_solution(controller, x):
    """The constraint synthesis that `controller` runs at the state x, whose
    goal is engaged there, as a one-row result."""
    if controller.qmodel is not None:
        return control.constraint_action(controller.qmodel, controller.dyn, x[None], controller.goal,
                                         np.random.default_rng(0))
    return control.approx_constraint_action(
        controller.policy(x[None]), controller.dyn, x[None], controller.goal,
        action_low=controller.action_low, action_high=controller.action_high,
    )


def test_oracle_is_exact_while_nothing_clips():
    dyn, env = OracleDynamics(), MountainCar(goal_position=0.6)
    rnd = np.random.default_rng(0)
    for _ in range(200):
        x = np.array([rnd.uniform(-1.0, 0.3), rnd.uniform(-0.04, 0.04)])
        u = rnd.uniform(-1.0, 1.0, size=1)
        np.testing.assert_allclose(dyn.predict_next(x, u), env.step(x, u).next_state, rtol=0, atol=1e-12)


def controller(which, goal):
    """The agent's synthesis on `OracleQ`, or the approximation layer around `pump`."""
    if which == "agent":
        return GoalController(OracleDynamics(), goal, qmodel=OracleQ())
    return GoalController(
        OracleDynamics(), goal, policy=pump, action_low=np.array([-1.0]), action_high=np.array([1.0])
    )


@pytest.mark.parametrize("which", ["agent", "approximation"])
def test_speed_limit_holds_wherever_reachable(which):
    goal = SymmetricConstraintGoal(state_index=1, bound=BOUND, margin=0.0)
    reachable_steps = engaged = 0
    for seed in SEEDS:
        ctl = controller(which, goal)
        for x, u, x_next in rollout(ctl, seed):
            v_free = free_velocity(x)
            if v_free - POWER > BOUND or v_free + POWER < -BOUND:
                continue  # gravity alone carries the car past the bound
            reachable_steps += 1
            if goal.active(x, 0):  # margin 0: every step with v != 0
                sol = engaged_solution(ctl, x)
                assert np.array_equal(u, sol.action[0]) and sol.fallback is None
                engaged += sol.binding[0]
                assert not sol.clip_broke[0]
            assert abs(x_next[1]) <= BOUND + 1e-9
    assert reachable_steps > 500 and engaged > 100


def test_pumping_alone_breaks_the_limit():
    env = MountainCar(goal_position=0.6, horizon=300)
    x, top = env.reset(0), 0.0
    for _ in range(300):
        x = env.step(x, pump(x)).next_state
        top = max(top, abs(x[1]))
    assert top > 1.5 * BOUND


@pytest.mark.parametrize("which", ["agent", "approximation"])
@pytest.mark.parametrize("v_d", [0.0, 0.01, -0.01])
def test_large_gamma2_trajectory_lands_on_target_velocity(which, v_d):
    goal = TrajectoryGoal(lambda X, k: np.column_stack([X[:, 0] + v_d, np.full(len(X), v_d)]), gamma1=1.0,
                          gamma2=1e6)
    ctl = controller(which, goal)
    landed = 0
    for seed in SEEDS:
        for x, _, x_next in rollout(ctl, seed, steps=100):
            if abs(v_d - free_velocity(x)) > POWER:
                continue  # the target needs more force than [-1, 1] allows
            landed += 1
            assert x_next[1] == pytest.approx(v_d, abs=1e-8)
    assert list(ctl.branch_counts) == ["trajectory"]
    assert landed > 50


def test_oracle_constraint_ops_agree_on_their_common_case():
    # with h = -u_N and d = I the agent's objective is the approximation's
    dyn = OracleDynamics()
    goal = ConstraintGoal(state_index=1, bound=BOUND)  # the upper side of the speed limit
    rnd = np.random.default_rng(1)
    for _ in range(100):
        x = np.array([[rnd.uniform(-1.0, 0.3), rnd.uniform(0.0, 0.04)]])
        agent = control.constraint_action(OracleQ(), dyn, x, goal, np.random.default_rng(0))
        approx = control.approx_constraint_action(pump(x), dyn, x, goal)
        assert agent.binding == approx.binding
        np.testing.assert_allclose(agent.action_raw, approx.action_raw, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("gamma2", [1.0, 50.0, 2000.0])
def test_oracle_trajectory_ops_agree_bitwise(gamma2):
    # with h = -u_N and d = I the agent's stacked system is the approximation's, row for row
    dyn, bounds = OracleDynamics(), dict(action_low=OracleQ.action_low, action_high=OracleQ.action_high)
    rnd = np.random.default_rng(2)
    for _ in range(200):
        x = np.array([[rnd.uniform(-1.0, 0.3), rnd.uniform(-0.04, 0.04)]])
        v_d = rnd.uniform(-0.03, 0.03)
        x_d = np.array([[x[0, 0] + v_d, v_d]])
        agent = control.trajectory_action(OracleQ(), dyn, x, x_d, 1.0, gamma2, np.random.default_rng(0))
        approx = control.approx_trajectory_action(pump(x), dyn, x, x_d, 1.0, gamma2, **bounds)
        assert agent.fallback is None and approx.fallback is None
        assert agent.action.tobytes() == approx.action.tobytes()
        assert agent.action_raw.tobytes() == approx.action_raw.tobytes()


# ---------------------------------------------------------------------------
# Pendulum
# ---------------------------------------------------------------------------

TORQUE = Pendulum.MAX_TORQUE
DT = Pendulum.DT
GAIN = 3.0 * DT  # theta_dot change per unit torque
SPIN_BOUND = 1.0


class PendulumOracleDynamics:
    """Exact pendulum model of theta_dot while nothing clips.  Its cos and
    sin rows are 0, so it predicts them unchanged: the goals below target
    theta_dot only and hold those components where they are."""

    delta = DT

    def coefficients(self, x):
        gravity = 1.5 * Pendulum.G / Pendulum.L * x[..., 1] * DT  # 0.75 sin(theta)
        g = np.broadcast_to(np.array([[0.0], [0.0], [GAIN]]) / DT, x.shape[:-1] + (3, 1))
        return np.stack([np.zeros_like(gravity), np.zeros_like(gravity), gravity], axis=-1) / DT, g

    def predict_next(self, x, u):
        f, g = self.coefficients(x)
        return np.asarray(x, dtype=np.float64) + DT * (f + g @ np.asarray(u, dtype=np.float64))


def spin(x):
    """Bang-bang pumping: full torque along the angular velocity, at one
    state or rows."""
    return np.where(x[..., 2:3] >= 0, TORQUE, -TORQUE)


class PendulumOracleQ:
    """Value model whose greedy action is `spin`: h = -spin(x), d = 1."""

    action_low = np.array([-TORQUE])
    action_high = np.array([TORQUE])

    def coefficients(self, x):
        return np.zeros(x.shape[:-1]), -spin(x), np.broadcast_to(np.eye(1), x.shape[:-1] + (1, 1))


def free_spin(x):
    """Next angular velocity at zero torque."""
    return PendulumOracleDynamics().predict_next(x, np.zeros(1))[2]


def pendulum_controller(which, goal):
    """The agent's synthesis on `PendulumOracleQ`, or the approximation layer around `spin`."""
    if which == "agent":
        return GoalController(PendulumOracleDynamics(), goal, qmodel=PendulumOracleQ())
    return GoalController(
        PendulumOracleDynamics(), goal, policy=spin,
        action_low=PendulumOracleQ.action_low, action_high=PendulumOracleQ.action_high,
    )


def pendulum_rollout(controller, seed, steps):
    env = Pendulum(horizon=steps)
    x, rng = env.reset(seed), np.random.default_rng(seed)
    steps_taken = []
    for k in range(steps):
        u = controller.act(x[None], k, rng)[0]
        x_next = env.step(x, u).next_state
        steps_taken.append((x, u, x_next))
        x = x_next
    return steps_taken


def test_pendulum_oracle_is_exact_while_nothing_clips():
    dyn, env = PendulumOracleDynamics(), Pendulum()
    rnd = np.random.default_rng(0)
    for _ in range(200):
        theta = rnd.uniform(-math.pi, math.pi)
        x = np.array([math.cos(theta), math.sin(theta), rnd.uniform(-6.0, 6.0)])
        u = rnd.uniform(-TORQUE, TORQUE, size=1)
        assert dyn.predict_next(x, u)[2] == pytest.approx(env.step(x, u).next_state[2], abs=1e-12)


@pytest.mark.parametrize("which", ["agent", "approximation"])
def test_pendulum_spin_limit_holds_wherever_reachable(which):
    goal = SymmetricConstraintGoal(state_index=2, bound=SPIN_BOUND, margin=0.0)
    reachable_steps = engaged = 0
    for seed in SEEDS:
        ctl = pendulum_controller(which, goal)
        for x, u, x_next in pendulum_rollout(ctl, seed, 200):
            w_free = free_spin(x)
            if w_free - GAIN * TORQUE > SPIN_BOUND or w_free + GAIN * TORQUE < -SPIN_BOUND:
                continue  # gravity alone carries the pendulum past the bound
            reachable_steps += 1
            if goal.active(x, 0):
                sol = engaged_solution(ctl, x)
                assert np.array_equal(u, sol.action[0]) and sol.fallback is None
                engaged += sol.binding[0]
                assert not sol.clip_broke[0]
            assert abs(x_next[2]) <= SPIN_BOUND + 1e-9
    assert reachable_steps > 400 and engaged > 100


@pytest.mark.parametrize("which", ["agent", "approximation"])
@pytest.mark.parametrize("w_d", [0.0, 1.0, -1.0])
def test_pendulum_large_gamma2_trajectory_lands_on_target_spin(which, w_d):
    goal = TrajectoryGoal(lambda X, k: np.column_stack([X[:, 0], X[:, 1], np.full(len(X), w_d)]), gamma1=1.0,
                          gamma2=1e6)
    ctl = pendulum_controller(which, goal)
    landed = 0
    for seed in SEEDS:
        for x, _, x_next in pendulum_rollout(ctl, seed, 100):
            if abs(w_d - free_spin(x)) > GAIN * TORQUE:
                continue  # the target needs more torque than [-2, 2] allows
            landed += 1
            assert x_next[2] == pytest.approx(w_d, abs=1e-8)
    assert list(ctl.branch_counts) == ["trajectory"]
    assert landed > 40
