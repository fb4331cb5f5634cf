import math

import numpy as np
import pytest

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
    env.reset(0)
    r = env.step(np.array([0.449, 0.05]), [1.0])
    assert env.goal_reached(r.next_state)
    assert r.done
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
    assert mc.goal_reached(np.array([0.6, 0.0]))
    assert not mc.goal_reached(np.array([-0.5, 0.0]))
    p = Pendulum()
    assert not p.goal_reached(p.reset(0))


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
        assert car.scored(x) == car.goal_reached(x) == (position >= 0.45)
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
            if r.done:
                break


def test_truncation_at_horizon():
    env = MountainCar(horizon=5)
    x = env.reset(0)
    done = False
    for k in range(5):
        r = env.step(x, [0.0])
        x, done = r.next_state, r.done
        assert r.step_index == k + 1
    assert done

    env = Pendulum(horizon=4)
    x = env.reset(0)
    for k in range(4):
        r = env.step(x, [0.0])
        x = r.next_state
    assert r.done


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
    spec = MountainCar().spec
    assert spec.state_dim == 2
    round_tripped = EnvSpec(**__import__("json").loads(spec.to_json()))
    assert round_tripped.to_json() == spec.to_json()

    with pytest.raises(ValueError):
        EnvSpec("x", 1, 1, 0, (-1,), (1,), None, {})
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):
        make_env("cartpole")
