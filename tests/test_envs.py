import json
import math

import numpy as np
import pytest

from llql import ConfigError
from llql.envs import EnvSpec, InvalidActionError, MountainCar, Pendulum, make_env, wrap_angle


def test_reset_is_deterministic():
    for env in (MountainCar(), Pendulum()):
        a = env.reset(seed=7)
        b = env.reset(seed=7)
        assert np.array_equal(a, b)


def test_mountain_car_initial_state():
    env = MountainCar()
    for seed in range(20):
        s = env.reset(seed)
        assert -0.6 <= s[0] <= -0.4
        assert s[1] == 0.0


def test_pendulum_initial_state_is_on_circle():
    env = Pendulum()
    for seed in range(20):
        s = env.reset(seed)
        assert abs(s[0] ** 2 + s[1] ** 2 - 1.0) < 1e-9
        assert -1.0 <= s[2] <= 1.0


def test_mountain_car_step_hand_values():
    env = MountainCar()
    env.reset(0)
    r = env.step(np.array([-0.5, 0.0]), [1.0])
    v = 0.0015 - 0.0025 * math.cos(-1.5)
    assert r.next_state[1] == pytest.approx(v, abs=1e-12)
    assert r.next_state[0] == pytest.approx(-0.5 + v, abs=1e-12)

    env.reset(0)
    r0 = env.step(np.array([-0.5, 0.0]), [0.0])
    assert r0.next_state[1] == pytest.approx(-0.0025 * math.cos(-1.5), abs=1e-12)


def test_mountain_car_goal_reward_and_done():
    env = MountainCar()
    r = env.step(np.array([0.449, 0.05]), [1.0])
    assert r.reached
    assert r.reward == pytest.approx(100.0 - 0.1, abs=1e-12)


def test_mountain_car_left_wall_zeroes_velocity():
    env = MountainCar()
    env.reset(0)
    r = env.step(np.array([-1.19, -0.05]), [-1.0])
    assert r.next_state[0] == -1.2
    assert r.next_state[1] == 0.0


def test_mountain_car_clips_action():
    env = MountainCar()
    env.reset(0)
    a = env.step(np.array([-0.5, 0.0]), [5.0])
    env.reset(0)
    b = env.step(np.array([-0.5, 0.0]), [1.0])
    assert np.array_equal(a.next_state, b.next_state)
    assert a.reward == b.reward  # reward uses the clipped force


def test_non_finite_action_rejected():
    for env, bad in ((MountainCar(), [float("nan")]), (Pendulum(), [float("inf")])):
        env.reset(0)
        s = env.reset(0)
        with pytest.raises(InvalidActionError):
            env.step(s, bad)


def test_goal_reached_cases():
    mc = MountainCar()
    assert mc.step(np.array([0.6, 0.0]), [0.0]).reached
    assert not mc.step(np.array([-0.5, 0.0]), [0.0]).reached
    p = Pendulum()
    assert not p.step(np.array([1.0, 0.0, 0.0]), [0.0]).reached
    assert not p.step(p.reset(0), [0.0]).reached


def test_pendulum_upright_fixed_point():
    env = Pendulum()
    env.reset(0)
    r = env.step(np.array([1.0, 0.0, 0.0]), [0.0])
    assert np.allclose(r.next_state, [1.0, 0.0, 0.0], atol=1e-15)
    assert r.reward == 0.0


def test_scored_states_are_the_hilltop_and_the_upright_window():
    car, pendulum = MountainCar(goal_position=0.45), Pendulum()
    assert car.VELOCITY == 1 and pendulum.VELOCITY == 2
    for position in (0.44, 0.45, 0.5):
        x = np.array([position, 0.01])
        assert car.scored(x) == (position >= 0.45)
    for theta, upright in ((0.0, True), (0.14, True), (0.15, False), (np.pi, False)):
        assert pendulum.scored(np.array([np.cos(theta), np.sin(theta), 1.0])) == upright


def test_pendulum_reward_nonpositive():
    env = Pendulum()
    rng = np.random.default_rng(3)
    x = env.reset(0)
    for k in range(200):
        r = env.step(x, rng.uniform(-2, 2, 1))
        assert r.reward <= 0.0
        x = r.next_state


def test_pendulum_velocity_clipped():
    env = Pendulum()
    env.reset(0)
    x = np.array([math.cos(2.0), math.sin(2.0), 7.9])
    for _ in range(50):
        r = env.step(x, [2.0])
        assert abs(r.next_state[2]) <= 8.0
        x = r.next_state


def test_mountain_car_bounds_and_energy_sanity():
    env = MountainCar(horizon=300)
    for seed in (0, 5, 9):
        x = env.reset(seed)
        for _ in range(300):
            r = env.step(x, [0.0])
            assert -1.2 <= r.next_state[0] <= 0.6
            assert abs(r.next_state[1]) <= 0.07
            x = r.next_state
            if r.reached:
                break


@pytest.mark.parametrize("make", [lambda: MountainCar(goal_position=-0.45), Pendulum], ids=["mountain_car", "pendulum"])
def test_an_env_keeps_no_state_between_episodes(make):
    """Episodes that take turns on one env object, each reset at another
    turn, equal each episode stepped alone on a fresh object."""
    actions = np.random.default_rng(5).uniform(0.0, 2.0, (40, 1))

    def alone(seed):
        env, out = make(), []
        x = env.reset(seed)
        for u in actions:
            r = env.step(x, u)
            out.append((r.next_state.tolist(), r.reward, r.reached))
            x = r.next_state
        return out

    shared = make()
    starts = {1: 0, 2: 5, 3: 12}  # the turn at which each episode is reset
    states, got = {}, {seed: [] for seed in starts}
    for turn in range(60):
        for seed, start in starts.items():
            if turn == start:
                states[seed] = shared.reset(seed)
            elif start < turn <= start + len(actions):
                r = shared.step(states[seed], actions[turn - start - 1])
                got[seed].append((r.next_state.tolist(), r.reward, r.reached))
                states[seed] = r.next_state
    for seed, steps in got.items():
        assert steps == alone(seed)
    assert any(r for steps in got.values() for _, _, r in steps) == isinstance(shared, MountainCar)


def test_replay_reproduces_trajectory_bitwise():
    env = MountainCar()
    rng = np.random.default_rng(11)
    actions = rng.uniform(-1, 1, size=(50, 1))
    def rollout():
        x = env.reset(21)
        states = [x]
        for u in actions:
            r = env.step(x, u)
            x = r.next_state
            states.append(x)
        return np.array(states)
    a = rollout()
    b = rollout()
    assert np.array_equal(a, b)


def test_env_spec_json_and_validation():
    env = MountainCar(goal_position=0.5, horizon=7)
    spec = env.spec
    assert spec.state_dim == 2
    assert (env.state_dim, env.action_dim, env.horizon, env.goal_position) == (2, 1, 7, 0.5)
    assert np.array_equal(env.action_low, [-1.0]) and np.array_equal(env.action_high, [1.0])
    text = json.dumps(spec.to_dict(), sort_keys=True)
    assert json.dumps(EnvSpec(**json.loads(text)).to_dict(), sort_keys=True) == text

    with pytest.raises(ConfigError):
        EnvSpec("x", 1, 1, 0, (-1,), (1,), None, {})
    with pytest.raises(ConfigError):
        EnvSpec("x", 1, 1, 10, (-1,), (1,), None, {"dt": 0.0})


def test_wrap_angle_range():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    for x in np.linspace(-10, 10, 101):
        w = wrap_angle(x)
        assert -math.pi < w <= math.pi
        assert abs(math.sin(w) - math.sin(x)) < 1e-12


def test_make_env():
    assert isinstance(make_env("mountain_car"), MountainCar)
    assert isinstance(make_env("pendulum"), Pendulum)
    assert make_env("mountain_car", goal_position=0.5).goal_position == 0.5
    with pytest.raises(ConfigError, match="unknown environment 'cartpole'"):
        make_env("cartpole")
    assert make_env("pendulum").horizon == 200 and make_env("mountain_car").horizon == 1000
    for name in ("mountain_car", "pendulum"):  # a horizon of 0 is an error, not the default
        with pytest.raises(ConfigError, match="horizon"):
            make_env(name, horizon=0)


# The per-state physics before the environments stepped rows, kept as the
# reference that `step_batch` must reproduce bit for bit.


def reference_mountain_car_step(env, state, u):
    force = min(max(float(u), -1.0), 1.0)
    position, velocity = float(state[0]), float(state[1])
    velocity += force * env.POWER - env.GRAVITY * math.cos(3.0 * position)
    velocity = min(max(velocity, -env.MAX_SPEED), env.MAX_SPEED)
    position += velocity
    position = min(max(position, env.MIN_POSITION), env.MAX_POSITION)
    if position == env.MIN_POSITION:
        velocity = 0.0
    reached = position >= env.goal_position
    return np.array([position, velocity]), -0.1 * force * force + (100.0 if reached else 0.0), reached


def reference_pendulum_step(env, state, u):
    torque = min(max(float(u), -env.MAX_TORQUE), env.MAX_TORQUE)
    theta = math.atan2(float(state[1]), float(state[0]))
    theta_dot = float(state[2])
    reward = -(wrap_angle(theta) ** 2 + 0.1 * theta_dot**2 + 0.001 * torque**2)
    accel = 3.0 * env.G / (2.0 * env.L) * math.sin(theta) + 3.0 * torque / (env.M * env.L**2)
    theta_dot = min(max(theta_dot + accel * env.DT, -env.MAX_SPEED), env.MAX_SPEED)
    theta = theta + theta_dot * env.DT
    return np.array([math.cos(theta), math.sin(theta), theta_dot]), reward, False


def mountain_car_rows(rng, n):
    """Random states and forces, a third of them at the left wall, at the
    speed limit or just short of the hilltop."""
    X = np.column_stack([rng.uniform(-1.2, 0.6, n), rng.uniform(-0.07, 0.07, n)])
    X[0::6] = np.column_stack([rng.uniform(-1.2, -1.15, len(X[0::6])), rng.uniform(-0.07, -0.03, len(X[0::6]))])
    X[1::6, 1] = rng.choice([-0.07, 0.07], len(X[1::6]))
    X[2::6] = np.column_stack([rng.uniform(0.4, 0.45, len(X[2::6])), rng.uniform(0.0, 0.07, len(X[2::6]))])
    return X, rng.uniform(-2.0, 2.0, (n, 1))


def pendulum_rows(rng, n):
    """Random states and torques, a third of them near theta = +-pi, where
    the angle wraps, or at the speed limit."""
    theta = rng.uniform(-math.pi, math.pi, n)
    theta[0::3] = rng.choice([-1.0, 1.0], len(theta[0::3])) * (math.pi - rng.uniform(0.0, 0.05, len(theta[0::3])))
    X = np.column_stack([np.cos(theta), np.sin(theta), rng.uniform(-8.0, 8.0, n)])
    X[1::3, 2] = rng.choice([-8.0, 8.0], len(X[1::3]))
    return X, rng.uniform(-4.0, 4.0, (n, 1))


@pytest.mark.parametrize("env, reference, rows", [
    (MountainCar(), reference_mountain_car_step, mountain_car_rows),
    (Pendulum(), reference_pendulum_step, pendulum_rows),
], ids=["mountain_car", "pendulum"])
def test_step_batch_equals_the_per_state_physics_bitwise(env, reference, rows):
    X, U = rows(np.random.default_rng(4), 3000)
    states, rewards, reached = env.step_batch(X, U)
    expected = [reference(env, x, u[0]) for x, u in zip(X, U)]
    assert np.array_equal(states, np.array([e[0] for e in expected]))
    assert np.array_equal(rewards, np.array([e[1] for e in expected]))
    assert reached.tolist() == [e[2] for e in expected]
    if isinstance(env, MountainCar):
        assert 0 < reached.sum() < len(X) and (states[:, 0] == env.MIN_POSITION).any()
    one = env.step(X[5], U[5])
    assert np.array_equal(one.next_state, states[5]) and one.reward == rewards[5] and one.reached == reached[5]
    with pytest.raises(InvalidActionError):
        env.step_batch(X[:2], U[:1])
