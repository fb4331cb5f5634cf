"""Finite-difference checks of the hand-derived training gradients.

Each test runs one trainer update in float64 with `Adam.step` replaced by a
recorder, so the parameters stay where the gradients were taken, and then
compares the recorded gradients with central differences of a loss written
independently of the update: `reference.short_term_loss`,
`reference.long_term_loss`, and the DDPG critic MSE and actor objective
built from the model's forward passes.  An LLQL optimiser steps a whole bank of heads, so its gradient and the
differences cover every parameter of every head.
"""

import numpy as np
import pytest

from llql import baselines, core, nets
from llql.envs import make_env
from llql.nets import Normalizer
from reference import long_term_loss, short_term_loss

H = 1e-6


@pytest.fixture
def adam_grads(monkeypatch):
    """(stepped net or bank, gradient) of every Adam step, keyed by id of the
    optimiser; no step is taken."""
    captured = {}

    def record(self, net, grads, context=""):
        assert id(self) not in captured, "one gradient per optimiser per update"
        captured[id(self)] = (net, np.array(grads.flat, dtype=np.float64))

    monkeypatch.setattr(nets.Adam, "step", record)
    return captured


def random_batch(env, n, rng, terminal_share=0.3):
    s, a = env.state_dim, env.action_dim
    states = rng.normal(0.0, 1.0, size=(n, s))
    actions = rng.uniform(env.action_low, env.action_high, size=(n, a))
    next_states = states + rng.normal(0.0, 0.2, size=(n, s))
    rewards = rng.normal(0.0, 1.0, size=n)
    dones = rng.random(n) < terminal_share
    return core.TransitionBatch(states, actions, next_states, rewards, dones)


def prepare(trainer, env, nets_, rng):
    """Fit a non-trivial normalizer and move every net off its initial point.

    Fresh nets have zero biases, which puts a unit whose inputs are all
    zero exactly on the ReLU kink, where the subgradient 0 and a central
    difference disagree.  Random biases keep every unit off it.
    """
    fitted = Normalizer.fit(rng.normal(0.3, 2.0, size=(50, env.state_dim)))
    # in place, as training fits it: the trainer's models hold this normalizer
    trainer.normalizer.mean[...] = fitted.mean
    trainer.normalizer.std[...] = fitted.std
    for net in nets_:
        net.flat_params[...] += rng.normal(0.0, 0.1, size=net.n_params)


def finite_difference(net, loss):
    p = net.flat_params
    out = np.empty(p.size)
    for i in range(p.size):
        old = p[i]
        p[i] = old + H
        plus = loss()
        p[i] = old - H
        minus = loss()
        p[i] = old
        out[i] = (plus - minus) / (2.0 * H)
    return out


def head_indices(net):
    """Each head's parameters as indices into the stepped vector, in the
    head's own order; a one-head Mlp's one head covers its whole vector."""
    saved = net.flat_params.copy()
    net.flat_params[...] = np.arange(net.n_params)
    indices = [np.concatenate([p.reshape(-1) for p in nets._params(head)]).astype(np.int64) for head in net.heads]
    net.flat_params[...] = saved
    return indices


def assert_matches_fd(net, captured, loss):
    (analytic,) = [g for stepped, g in captured.values() if stepped is net]
    numeric = finite_difference(net, loss)
    # a vacuous all-zero gradient of any head would pass below
    for idx in head_indices(net):
        assert np.abs(analytic[idx]).max() > 1e-6
    np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-9)


def llql_trainer(env_name, **kw):
    env = make_env(env_name)
    cfg = core.TrainConfig(dtype="float64", hidden_sizes=(6, 5), delta=0.05, seed=3, **kw)
    return env, core._Trainer(env, cfg)


@pytest.mark.parametrize("env_name", ["mountain_car", "pendulum"])
def test_short_update_gradients_match_short_term_loss(env_name, adam_grads):
    env, trainer = llql_trainer(env_name)
    rng = np.random.default_rng(11)
    prepare(trainer, env, (trainer.dyn.bank,), rng)
    batch = random_batch(env, 9, rng)

    trainer._short_update(batch)
    assert len(adam_grads) == 1

    def loss():
        return short_term_loss(trainer.dyn, batch)

    assert_matches_fd(trainer.dyn.bank, adam_grads, loss)


@pytest.mark.parametrize("squared", [False, True])
@pytest.mark.parametrize("env_name", ["mountain_car", "pendulum"])
def test_long_update_gradients_match_long_term_loss(env_name, squared, adam_grads):
    env, trainer = llql_trainer(env_name, squared_bellman=squared)
    rng = np.random.default_rng(12)
    q, target = trainer.q, trainer.q_target
    prepare(trainer, env, (q.bank, target.bank), rng)
    saved = target.bank.flat_params.copy()
    batch = random_batch(env, 8, rng)

    trainer._long_update(batch)
    assert len(adam_grads) == 1
    # undo the soft update so the loss sees the targets the update used
    target.bank.flat_params[...] = saved

    cfg = trainer.cfg

    def loss():
        return long_term_loss(q, target, batch, cfg.discount, squared=squared)

    assert_matches_fd(q.bank, adam_grads, loss)


@pytest.mark.parametrize("env_name", ["mountain_car", "pendulum"])
def test_ddpg_update_gradients_match_critic_mse_and_actor_objective(env_name, adam_grads):
    env = make_env(env_name)
    cfg = baselines.DdpgConfig(dtype="float64", hidden_sizes=(6, 5), seed=4)
    trainer = baselines._DdpgTrainer(env, cfg, None)
    rng = np.random.default_rng(13)
    prepare(trainer, env, (trainer.actor, trainer.critic,
                           trainer.actor_target, trainer.critic_target), rng)
    targets = [t.flat_params.copy() for t in (trainer.actor_target, trainer.critic_target)]
    batch = random_batch(env, 7, rng)

    trainer._update(batch)
    for t, saved in zip((trainer.actor_target, trainer.critic_target), targets):
        t.flat_params[...] = saved

    model = trainer.model
    Z = model.normalizer.normalize(batch.states)
    Z2 = model.normalizer.normalize(batch.next_states)

    def critic_mse():
        u2 = model._squash(trainer.actor_target.forward(Z2)[0])
        q2 = trainer.critic_target.forward(np.concatenate([Z2, u2], axis=1))[0][:, 0]
        y = batch.rewards + cfg.discount * (~batch.dones) * q2
        q = model.critic.forward(np.concatenate([Z, batch.actions], axis=1))[0][:, 0]
        return float(((y - q) ** 2).mean())

    def actor_objective():  # minimised: -mean Q(x, mu(x))
        u = model(batch.states)
        return -float(model.critic.forward(np.concatenate([Z, u], axis=1))[0][:, 0].mean())

    assert_matches_fd(trainer.critic, adam_grads, critic_mse)
    assert_matches_fd(trainer.actor, adam_grads, actor_objective)
