import numpy as np
import pytest

from llql import ConfigError, baselines
from llql.baselines import (
    DdpgConfig,
    MpcConfig,
    ddpg_train,
    get_reward_mod,
    load_ddpg_model,
    mountain_car_reward_fn,
    mpc_action,
    reward_mod_catalog,
    save_ddpg_model,
)
from llql.core import DynamicsModel, Transition, TransitionBatch
from llql.envs import MountainCar, Pendulum
from llql.nets import Normalizer, soft_update
from reference import constant_bank


def identity_dynamics():
    """x' = x + delta * u with delta-scaled gain one per component."""
    # position gains u strongly, velocity none
    bank = constant_bank(2, ([0.0, 0.0], [1000.0, 0.0]), DynamicsModel.head_shapes(2, 1))
    return DynamicsModel(bank, 0.001, Normalizer.identity(2))


# ---------------------------------------------------------------------------
# Reward mods
# ---------------------------------------------------------------------------


def test_catalog_ids():
    assert [m.id for m in reward_mod_catalog()] == ["t1", "t2", "t3", "t4", "c1", "c2", "c3", "c4"]


def test_constraint_mods_identity_below_limit():
    for mod_id in ("c1", "c2", "c3", "c4"):
        mod = get_reward_mod(mod_id)
        assert mod.apply(-0.5, -0.3, 0.02, False) == -0.5


def test_c3_hand_value():
    mod = get_reward_mod("c3")
    assert mod.apply(0.0, -0.3, 0.043, False) == pytest.approx(-1.0, abs=1e-12)


def test_c4_replaces_reward():
    mod = get_reward_mod("c4")
    assert mod.apply(55.0, -0.3, 0.04, False) == -10.0


def test_c1_applies_above_limit():
    mod = get_reward_mod("c1")
    assert mod.apply(1.0, -0.3, -0.04, False) == -9.0  # |v| condition is two-sided


def test_t1_hand_value():
    mod = get_reward_mod("t1")
    assert mod.apply(100.0, 0.46, 0.035, True) == pytest.approx(50.0, abs=1e-9)
    assert mod.apply(-0.1, 0.3, 0.035, False) == -0.1


def test_t2_t3_t4_conditions():
    t2 = get_reward_mod("t2")
    assert t2.apply(0.0, 0.5, 0.035, False) == pytest.approx(-1.0)
    assert t2.apply(0.0, 0.4, 0.035, False) == 0.0
    t3 = get_reward_mod("t3")
    assert t3.apply(0.0, 0.5, 0.035, True) == pytest.approx(-1.0 - 50.0)
    t4 = get_reward_mod("t4")
    assert t4.apply(0.0, 0.5, 0.035, True) == pytest.approx(-25000 * 0.01**2)


def test_mods_vectorized():
    mod = get_reward_mod("c1")
    r = mod.apply(np.zeros(3), np.zeros(3), np.array([0.01, 0.04, -0.05]), np.zeros(3, bool))
    assert np.array_equal(r, [0.0, -10.0, -10.0])


# ---------------------------------------------------------------------------
# MPC
# ---------------------------------------------------------------------------


def reward_quadratic(X, U, Xn):
    return -0.1 * U[:, 0] ** 2, np.zeros(len(U), dtype=bool)


def test_mpc_single_candidate_returns_its_first_action():
    dyn = identity_dynamics()
    cfg = MpcConfig(horizon=4, candidates=1)
    rng = np.random.default_rng(8)
    expected = np.random.default_rng(8).uniform(-1.0, 1.0, size=(1, 4, 1))[0, 0]
    got = mpc_action(dyn, np.zeros(2), reward_quadratic, cfg, rng, [-1.0], [1.0])
    assert got[0] == expected[0]


def test_mpc_one_step_picks_smallest_action_magnitude():
    dyn = identity_dynamics()
    cfg = MpcConfig(horizon=1, candidates=64)
    rng = np.random.default_rng(3)
    drawn = np.random.default_rng(3).uniform(-1.0, 1.0, size=(64, 1, 1))
    got = mpc_action(dyn, np.zeros(2), reward_quadratic, cfg, rng, [-1.0], [1.0])
    assert got[0] == drawn[np.abs(drawn[:, 0, 0]).argmin(), 0, 0]


def test_mpc_score_monotone_in_candidate_count():
    dyn = identity_dynamics()
    reward_fn = mountain_car_reward_fn(0.45)

    def best_score(k):
        rng = np.random.default_rng(11)
        cands = rng.uniform(-1, 1, size=(k, 5, 1))
        scores = np.zeros(k)
        alive = np.ones(k, bool)
        X = np.zeros((k, 2))
        for t in range(5):
            Xn = dyn.predict_next_batch(X, cands[:, t, :])
            r, done = reward_fn(X, cands[:, t, :], Xn)
            scores += np.where(alive, r, 0.0)
            alive &= ~done
            X = Xn
        return scores.max()

    assert best_score(32) >= best_score(8)  # prefix property: first 8 identical


def test_mpc_deterministic_given_rng():
    dyn = identity_dynamics()
    cfg = MpcConfig(horizon=3, candidates=16)
    a = mpc_action(dyn, np.zeros(2), reward_quadratic, cfg, np.random.default_rng(5), [-1], [1])
    b = mpc_action(dyn, np.zeros(2), reward_quadratic, cfg, np.random.default_rng(5), [-1], [1])
    assert np.array_equal(a, b)


def test_mpc_goal_bonus_stops_accumulation():
    # candidate crossing the goal early must not keep collecting bonuses
    dyn = identity_dynamics()
    reward_fn = mountain_car_reward_fn(goal_position=0.0005)
    cfg = MpcConfig(horizon=3, candidates=1)
    rng = np.random.default_rng(0)
    candidates = np.full((1, 3, 1), 1.0)
    got_score = []

    def spy(X, U, Xn):
        r, done = reward_fn(X, U, Xn)
        got_score.append((r.copy(), done.copy()))
        return r, done

    mpc_action(dyn, np.zeros(2), spy, cfg, rng, [-1], [1], candidates=candidates)
    assert got_score[0][1][0]  # crossed on the first step
    assert got_score[0][0][0] == pytest.approx(100.0 - 0.1)


def test_mpc_config_validation():
    with pytest.raises(ConfigError):
        MpcConfig(horizon=0)


def test_get_reward_mod_names_the_catalog_for_an_unknown_id():
    with pytest.raises(ConfigError, match="unknown reward mod 'c9'; the mods are t1, t2, t3, t4, c1, c2, c3, c4"):
        get_reward_mod("c9")


# ---------------------------------------------------------------------------
# DDPG
# ---------------------------------------------------------------------------


def tiny_ddpg(**kw):
    defaults = dict(episodes=2, seed=0, hidden_sizes=(8, 8), normalizer_samples=10, batch=4)
    defaults.update(kw)
    return DdpgConfig(**defaults)


def test_ddpg_determinism():
    a_model, a_log = ddpg_train(MountainCar(horizon=20), tiny_ddpg())
    b_model, b_log = ddpg_train(MountainCar(horizon=20), tiny_ddpg())
    for ra, rb in zip(a_log, b_log):
        assert (ra.cumulative_reward, ra.steps, ra.l2, ra.sigma) == (
            rb.cumulative_reward, rb.steps, rb.l2, rb.sigma,
        )
    assert np.array_equal(a_model.actor.flat_params, b_model.actor.flat_params)


def test_ddpg_actor_respects_bounds():
    model, _ = ddpg_train(Pendulum(horizon=20), tiny_ddpg())
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = np.array([*rng.uniform(-1, 1, 2), rng.uniform(-8, 8)])
        u = model(x[None])
        assert u.shape == (1, 1) and -2.0 <= u[0, 0] <= 2.0


def test_ddpg_reward_mod_changes_training():
    # t1 fires on the (truncation) done step, so it must alter the training
    plain, _ = ddpg_train(MountainCar(horizon=30), tiny_ddpg())
    shaped, _ = ddpg_train(MountainCar(horizon=30), tiny_ddpg(), get_reward_mod("t1"))
    assert not np.array_equal(plain.critic.flat_params, shaped.critic.flat_params)


def test_ddpg_reward_mod_sees_a_time_out_as_done():
    # 3 steps cannot reach the hilltop, so only the time-out makes t1 fire
    env, t1 = MountainCar(horizon=3), get_reward_mod("t1")
    trainer = baselines._DdpgTrainer(env, tiny_ddpg(episodes=1), t1)
    (stats,) = trainer._episodes()
    states, actions, next_states, rewards, dones = (col[: len(trainer.buffer)] for col in trainer.buffer._columns)
    raw = [env.step(x, u).reward for x, u in zip(states, actions)]
    expected = [float(t1.apply(r, x[0], x[1], k == 2)) for k, (r, x) in enumerate(zip(raw, next_states))]
    assert rewards.tolist() == expected and dones.tolist() == [False, False, True]
    assert expected[:2] == raw[:2] and expected[2] < raw[2]
    assert stats.cumulative_reward == sum(expected)


def test_ddpg_rejects_a_reward_mod_on_the_pendulum(tmp_path):
    # the mods shape mountain car's position and velocity, not (cos, sin) of an angle
    from llql import experiments

    with pytest.raises(ConfigError, match="mountain car"):
        ddpg_train(Pendulum(horizon=10), tiny_ddpg(), get_reward_mod("c1"))
    with pytest.raises(ConfigError, match="mountain car"):
        experiments.train_and_save(Pendulum(horizon=10), "ddpg", tiny_ddpg(), tmp_path / "m.model", {},
                                   reward_mod="c1")
    assert not (tmp_path / "m.model").exists()


def test_ddpg_save_load_round_trip(tmp_path):
    env = MountainCar(horizon=15)
    model, _ = ddpg_train(env, tiny_ddpg())
    path = tmp_path / "ddpg.model"
    save_ddpg_model(path, model, {"env": env.spec.to_dict(), "reward_mod": "c1"})
    loaded, meta = load_ddpg_model(path)
    X = np.array([[-0.5, 0.01], [0.2, -0.03]])
    assert np.array_equal(loaded(X), model(X))
    assert meta["reward_mod"] == "c1"


def test_load_ddpg_rejects_other_roles(tmp_path):
    from llql import core
    from llql.envs import MountainCar

    res = core.train(
        MountainCar(horizon=10),
        core.TrainConfig(episodes=1, hidden_sizes=(8, 8), normalizer_samples=5),
    )
    path = tmp_path / "llql.model"
    core.save_llql_model(path, res.dynamics, res.qmodel, meta={"env": MountainCar().spec.to_dict(), "config": {}})
    with pytest.raises(ValueError):
        load_ddpg_model(path)


# The DDPG update as written on numpy's Python-level wrappers (.mean(), a
# fancy-indexed sample) and with the squash's center and half-range computed
# on every call; the training code gives the same bits.


def wrapped_squash(model, raw):
    center = (model.action_high + model.action_low) / 2.0
    half = (model.action_high - model.action_low) / 2.0
    return center + half * np.tanh(np.asarray(raw, dtype=np.float64))


def wrapped_ddpg_update(self, batch):
    dt = self.dtype
    n = len(batch)
    cfg = self.cfg
    Z = self.normalizer.normalize(batch.states).astype(dt)
    Z2 = self.normalizer.normalize(batch.next_states).astype(dt)
    U = batch.actions.astype(dt)
    u2 = wrapped_squash(self.model, self.actor_target.forward(Z2)[0]).astype(dt)
    q2 = self.critic_target.forward(np.concatenate([Z2, u2], axis=1))[0][:, 0]
    y = batch.rewards + cfg.discount * (~batch.dones) * q2
    inp = np.concatenate([Z, U], axis=1)
    (q,), cache_c = self.critic.forward_cached(inp)
    res = y - q[:, 0].astype(np.float64)
    loss = float((res**2).mean())
    gq = ((-2.0 / n) * res).astype(dt)[:, None]
    grads_c = self.critic.backward_cached(cache_c, (gq,))
    self.adam_critic.step(self.critic, grads_c, context="critic loss")
    (raw,), cache_a = self.actor.forward_cached(Z)
    u_pi = wrapped_squash(self.model, raw).astype(dt)
    inp_pi = np.concatenate([Z, u_pi], axis=1)
    _, cache_q = self.critic.forward_cached(inp_pi)
    gin = self.critic.input_gradient(cache_q, (np.full((n, 1), -1.0 / n, dtype=dt),))
    du = gin[:, self.env.state_dim :].astype(np.float64)
    half = (self.model.action_high - self.model.action_low) / 2.0
    draw = (du * half * (1.0 - np.tanh(raw.astype(np.float64)) ** 2)).astype(dt)
    grads_a = self.actor.backward_cached(cache_a, (draw,))
    self.adam_actor.step(self.actor, grads_a, context="actor objective")
    soft_update(self.critic_target, self.critic, cfg.tau)
    soft_update(self.actor_target, self.actor, cfg.tau)
    return loss


def filled_ddpg_trainer(config, terminal_share):
    """A DDPG trainer whose buffer holds 100 random mountain-car
    transitions, a `terminal_share` of them terminal, with its normalizer
    fitted on them."""
    trainer = baselines._DdpgTrainer(MountainCar(horizon=50), config, None)
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.uniform([-1.2, -0.07], [0.6, 0.07])
        trainer.buffer.add(Transition(x, rng.uniform(-1.0, 1.0, size=1), x + rng.normal(0.0, 0.01, size=2),
                                      float(rng.normal()), bool(rng.random() < terminal_share)))
    fitted = Normalizer.fit(trainer.buffer.states())
    trainer.normalizer.mean[...], trainer.normalizer.std[...] = fitted.mean, fitted.std
    return trainer


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("terminal_share", [0.0, 0.3], ids=["no_terminal", "some_terminal"])
def test_ddpg_update_equals_its_wrapped_form_bitwise(dtype, terminal_share):
    config = tiny_ddpg(hidden_sizes=(16, 16), dtype=dtype, batch=6)  # 1/6 is not a power of two
    lean, wrapped = filled_ddpg_trainer(config, terminal_share), filled_ddpg_trainer(config, terminal_share)
    rng, wrapped_rng = np.random.default_rng(5), np.random.default_rng(5)
    terminal_batches = 0
    for _ in range(8):
        batch = lean.buffer.sample(config.batch, rng)
        idx = wrapped_rng.integers(0, len(wrapped.buffer), size=config.batch)
        wrapped_batch = TransitionBatch(*(col[idx] for col in wrapped.buffer._columns))
        terminal_batches += bool(batch.dones.any())
        loss, wrapped_loss = lean._update(batch), wrapped_ddpg_update(wrapped, wrapped_batch)
        assert np.float64(loss).tobytes() == np.float64(wrapped_loss).tobytes()
        for name in ("actor", "critic", "actor_target", "critic_target"):
            assert getattr(lean, name).flat_params.tobytes() == getattr(wrapped, name).flat_params.tobytes()
    assert (terminal_batches > 0) == (terminal_share > 0)
