import dataclasses
import io
import math
import struct
import tracemalloc

import numpy as np
import pytest

from llql import ConfigError, core, linalg
from llql.envs import MountainCar
from llql.nets import Mlp, Normalizer, _params, soft_update
from reference import constant_bank, long_term_loss, short_term_loss


def dynamics_of(f, g, delta, state_dim, action_dim):
    bank = constant_bank(state_dim, (f, g), core.DynamicsModel.head_shapes(state_dim, action_dim))
    return core.DynamicsModel(bank, delta, Normalizer.identity(state_dim))


def scalar_dynamics(f=1.0, g=2.0, delta=0.001):
    return dynamics_of([f], [g], delta, 1, 1)


def make_qmodel(v, h, d, state_dim=1, low=-1.0, high=1.0):
    d = np.atleast_2d(np.asarray(d, dtype=np.float64))
    m, a = d.shape
    bank = constant_bank(state_dim, (v, h, d), core.QModel.head_shapes(a))
    return core.QModel(bank, Normalizer.identity(state_dim), np.full(a, low), np.full(a, high))


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


def test_predict_next_hand_example():
    dyn = scalar_dynamics(f=1.0, g=2.0, delta=0.001)
    got = dyn.predict_next_batch(np.array([[0.5]]), np.array([[3.0]]))
    assert got[0, 0] == pytest.approx(0.507, abs=1e-12)


def test_predict_next_degenerate_delta_returns_state():
    dyn = scalar_dynamics(delta=0.0)
    x = np.array([[0.37]])
    assert dyn.predict_next_batch(x, np.array([[5.0]]))[0, 0] == x[0, 0]


def test_predict_next_drift_only():
    dyn = scalar_dynamics(f=2.5, g=7.0, delta=0.01)
    got = dyn.predict_next_batch(np.array([[1.0]]), np.array([[0.0]]))
    assert got[0, 0] == pytest.approx(1.0 + 0.01 * 2.5, abs=1e-12)


def q_value(q, x, u) -> float:
    """Q(x, u) = V(x) - ||h(x) + d(x) u|| at one state, from the one-row
    `coefficients`."""
    V, H, D = q.coefficients(x[None])
    return V[0] - np.linalg.norm(H[0] + D[0] @ u)


def test_q_value_hand_example():
    q = make_qmodel(v=10.0, h=[3.0, 4.0], d=np.eye(2), state_dim=2)
    got = q_value(q, np.zeros(2), np.zeros(2))
    assert got == pytest.approx(5.0, abs=1e-12)


def test_q_value_upper_bounded_by_value():
    rng = np.random.default_rng(0)
    q = make_qmodel(v=1.2, h=rng.standard_normal(1), d=rng.standard_normal((1, 1)))
    for _ in range(50):
        x = rng.standard_normal(1)
        u = rng.standard_normal(1)
        assert q_value(q, x, u) <= q.coefficients(x[None])[0][0] + 1e-12


def test_q_value_zero_residual_equals_value():
    q = make_qmodel(v=2.0, h=[1.0], d=[[2.0]])
    assert q_value(q, np.zeros(1), np.array([-0.5])) == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def batch_of(states, actions, next_states, rewards=None, dones=None):
    states = np.atleast_2d(states)
    n = states.shape[0]
    return core.TransitionBatch(
        states.astype(np.float64),
        np.atleast_2d(actions).astype(np.float64),
        np.atleast_2d(next_states).astype(np.float64),
        np.zeros(n) if rewards is None else np.asarray(rewards, dtype=np.float64),
        np.zeros(n, dtype=bool) if dones is None else np.asarray(dones, dtype=bool),
    )


def test_short_term_loss_zero_for_perfect_model():
    dyn = scalar_dynamics(f=3.0, g=2.0, delta=0.01)
    x = np.array([[0.2], [0.4]])
    u = np.array([[1.0], [-1.0]])
    xn = x + 0.01 * (3.0 + 2.0 * u)
    assert short_term_loss(dyn, batch_of(x, u, xn)) == pytest.approx(0.0, abs=1e-12)


def test_short_term_loss_single_residual_norm():
    dyn = dynamics_of([0.0, 0.0], [0.0, 0.0], 0.001, 2, 1)
    batch = batch_of([[0.0, 0.0]], [[0.0]], [[0.3, 0.4]])
    assert short_term_loss(dyn, batch) == pytest.approx(0.5, abs=1e-12)


def test_short_term_loss_is_mean_of_norms():
    dyn = dynamics_of([0.0, 0.0], [0.0, 0.0], 0.001, 2, 1)
    batch = batch_of(
        [[0.0, 0.0], [0.0, 0.0]], [[0.0], [0.0]], [[0.5, 0.0], [0.0, 1.5]]
    )
    assert short_term_loss(dyn, batch) == pytest.approx(1.0, abs=1e-12)


def test_long_term_loss_myopic_fixed_point():
    q = make_qmodel(v=2.0, h=[1.0], d=[[1.0]])
    x = np.array([[0.0]])
    u = np.array([[0.5]])
    reward = q_value(q, x[0], u[0])
    loss = long_term_loss(q, q, batch_of(x, u, x, [reward]), gamma=1e-12)
    assert loss == pytest.approx(0.0, abs=1e-9)


def test_long_term_loss_terminal_ignores_targets():
    q = make_qmodel(v=2.0, h=[0.0], d=[[1.0]])
    target = make_qmodel(v=1e6, h=[0.0], d=[[1.0]])  # would dominate if bootstrapped
    batch = batch_of([[0.0]], [[0.0]], [[0.0]], rewards=[2.0], dones=[True])
    assert long_term_loss(q, target, batch, gamma=0.999) == pytest.approx(0.0, abs=1e-12)


def test_long_term_loss_hand_example():
    # online Q(x,u) = 2 (residual zero at u=0), target Q' = 2, r = 1:
    # |1 + 0.999*2 - 2| = 0.998
    q = make_qmodel(v=2.0, h=[0.0], d=[[1.0]])
    batch = batch_of([[0.0]], [[0.0]], [[0.0]], rewards=[1.0])
    assert long_term_loss(q, q, batch, gamma=0.999) == pytest.approx(0.998, abs=1e-9)


def test_long_term_loss_squared_variant():
    q = make_qmodel(v=2.0, h=[0.0], d=[[1.0]])
    batch = batch_of([[0.0]], [[0.0]], [[0.0]], rewards=[1.0])
    loss = long_term_loss(q, q, batch, gamma=0.999, squared=True)
    assert loss == pytest.approx(0.998**2, abs=1e-9)


# ---------------------------------------------------------------------------
# Greedy target Q
# ---------------------------------------------------------------------------


def greedy_target_q(q) -> float:
    """The target Q of one row at x = 0."""
    return core._greedy_target_q_batch(q, np.zeros((1, 1)))[0]


def test_greedy_target_q_exactly_solvable():
    q = make_qmodel(v=3.0, h=[0.4], d=[[2.0]])
    assert greedy_target_q(q) == pytest.approx(3.0, abs=1e-9)


def test_greedy_target_q_degenerate_gain_returns_value():
    q = make_qmodel(v=3.0, h=[5.0], d=[[0.0]])
    assert greedy_target_q(q) == pytest.approx(3.0, abs=1e-12)


def test_greedy_target_q_clips_action():
    # u* = -2 clips to -1, so Q' = V' - |2 - 1| = V' - 1
    q = make_qmodel(v=7.0, h=[2.0], d=[[1.0]], low=-1.0, high=1.0)
    assert greedy_target_q(q) == pytest.approx(6.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Replay buffer and noise
# ---------------------------------------------------------------------------


def transition(i):
    return core.Transition(np.array([float(i), 0.0]), np.array([0.0]), np.array([float(i), 1.0]), float(i), False)


def test_buffer_fifo_eviction():
    buf = core.ReplayBuffer(capacity=5, state_dim=2, action_dim=1)
    for i in range(8):  # capacity + 3 inserts
        buf.add(transition(i))
    assert len(buf) == 5
    batch = buf.sample(500, np.random.default_rng(0))
    seen = set(batch.states[:, 0].astype(int))
    assert seen <= {3, 4, 5, 6, 7}
    assert not seen & {0, 1, 2}


def test_buffer_sample_returns_only_stored_items():
    buf = core.ReplayBuffer(capacity=10, state_dim=2, action_dim=1)
    for i in range(4):
        buf.add(transition(i))
    batch = buf.sample(64, np.random.default_rng(1))
    stored = {(s[0], r) for s, r in zip(batch.states, batch.rewards)}
    assert stored <= {(float(i), float(i)) for i in range(4)}


def test_buffer_empty_sampling_rejected():
    buf = core.ReplayBuffer(capacity=4, state_dim=1, action_dim=1)
    with pytest.raises(ValueError):
        buf.sample(1, np.random.default_rng(0))


def test_buffer_grows_instead_of_allocating_its_capacity():
    tracemalloc.start()
    try:
        buf = core.ReplayBuffer(1_000_000, 2, 1)
        for i in range(10):
            buf.add(transition(i))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(buf) == 10
    assert peak < 1_000_000


def test_buffer_sampling_unchanged_across_growth():
    buf = core.ReplayBuffer(capacity=3000, state_dim=2, action_dim=1)
    for i in range(2500):  # grows twice
        buf.add(transition(i))
    batch = buf.sample(200, np.random.default_rng(4))
    idx = np.random.default_rng(4).integers(0, 2500, size=200)
    assert np.array_equal(batch.states[:, 0], idx.astype(float))
    assert np.array_equal(batch.rewards, idx.astype(float))
    assert np.array_equal(buf.states(5)[:, 0], np.arange(5.0))


def test_noise_decay_rules():
    noise = core.ExplorationNoise(sigma=0.5, decay=0.99, floor=0.01)
    noise.update(-3.0)
    assert noise.sigma == 0.5
    noise.update(10.0)
    assert noise.sigma == pytest.approx(0.495)
    noise.sigma = 0.01
    noise.update(10.0)
    assert noise.sigma == 0.01


def test_noise_sample_statistics():
    noise = core.ExplorationNoise(sigma=0.3)
    rng = np.random.default_rng(0)
    draws = np.array([noise.sample(rng, 1)[0] for _ in range(4000)])
    assert abs(draws.mean()) < 0.02
    assert abs(draws.std() - 0.3) < 0.02


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def tiny_config(**kw):
    defaults = dict(
        episodes=1, seed=0, hidden_sizes=(8, 8), normalizer_samples=10,
        short_batch=4, long_batch=4,
    )
    defaults.update(kw)
    return core.TrainConfig(**defaults)


def test_train_bookkeeping_buffer_size():
    env = MountainCar(horizon=3)
    trainer = core._Trainer(env, tiny_config())
    trainer.run()
    assert len(trainer.buffer) == 3


def buffer_rows(trainer):
    """(states, actions, next states, rewards, dones) stored in a trainer's
    buffer, in the order they were added."""
    return tuple(col[: len(trainer.buffer)] for col in trainer.buffer._columns)


def test_a_time_out_is_stored_as_terminal_on_the_last_row_only():
    # 3 steps cannot carry the car from [-0.6, -0.4] to the hilltop at 0.45
    trainer = core._Trainer(MountainCar(horizon=3), tiny_config())
    (stats,) = trainer.run().log
    _, _, next_states, _, dones = buffer_rows(trainer)
    assert (next_states[:, 0] < 0.45).all()
    assert dones.tolist() == [False, False, True]
    assert (stats.steps, stats.steps_to_goal) == (3, -1)
    # a hilltop below every start is reached on the first step, which ends the episode
    trainer = core._Trainer(MountainCar(goal_position=-0.65, horizon=3), tiny_config())
    (stats,) = trainer.run().log
    assert buffer_rows(trainer)[4].tolist() == [True] and (stats.steps, stats.steps_to_goal) == (1, 1)


def test_training_act_is_the_one_row_greedy_solve_or_zeros_at_a_degenerate_gain():
    trainer = core._Trainer(MountainCar(horizon=3), tiny_config())
    x = np.array([-0.5, 0.01])
    _, H, D = trainer.q.coefficients(x[None])
    assert np.array_equal(trainer._act(x), linalg.pinv_action(H[0], D[0]))  # the single-system solve's bits
    trainer.q = make_qmodel(v=0.0, h=[1.0], d=[[0.0]], state_dim=2)
    assert np.array_equal(trainer._act(x), np.zeros(1))


def test_one_adam_step_per_update_and_one_soft_update_per_long_update(monkeypatch):
    calls = {"adam": 0, "soft": 0}
    step, soft = core.Adam.step, core.soft_update

    def counting_step(self, *args, **kwargs):
        calls["adam"] += 1
        return step(self, *args, **kwargs)

    def counting_soft(*args):
        calls["soft"] += 1
        return soft(*args)

    monkeypatch.setattr(core.Adam, "step", counting_step)
    monkeypatch.setattr(core, "soft_update", counting_soft)
    trainer = core._Trainer(MountainCar(horizon=3), tiny_config())
    trainer.run()
    assert calls == {"adam": 3 * (5 + 5), "soft": 3 * 5}
    assert sum(isinstance(v, core.Adam) for v in vars(trainer).values()) == 2


def test_train_determinism():
    a = core.train(MountainCar(horizon=25), tiny_config(episodes=2))
    b = core.train(MountainCar(horizon=25), tiny_config(episodes=2))
    assert a.log == b.log
    for net_a, net_b in ((a.qmodel.v_net, b.qmodel.v_net), (a.dynamics.f_net, b.dynamics.f_net)):
        assert all(np.array_equal(p, q) for p, q in zip(_params(net_a), _params(net_b)))


def test_train_divergence_aborts_with_snapshot():
    cfg = tiny_config(lr_short=1e30, lr_long=1e30, dtype="float32")
    with pytest.raises(core.TrainingDiverged) as err:
        core.train(MountainCar(horizon=200), cfg)
    assert "episode" in err.value.snapshot


def test_train_config_validation():
    with pytest.raises(ConfigError):
        core.TrainConfig(discount=1.5)
    with pytest.raises(ConfigError):
        core.TrainConfig(sigma0=0.0)
    with pytest.raises(ConfigError):
        core.TrainConfig(episodes=0)
    with pytest.raises(ConfigError, match="data type 'banana' not understood"):
        core.TrainConfig(dtype="banana")


def test_log_csv(tmp_path):
    res = core.train(MountainCar(horizon=10), tiny_config(episodes=2))
    path = tmp_path / "log.csv"
    core.log_to_csv(res.log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "episode,cumulative_reward,steps,l1,l2,sigma,steps_to_goal"
    assert len(lines) == 3


def test_model_save_load_round_trip(tmp_path):
    env = MountainCar(horizon=10)
    res = core.train(env, tiny_config())
    path = tmp_path / "m.model"
    core.save_llql_model(
        path, res.dynamics, res.qmodel,
        meta={"env": env.spec.to_dict(), "config": tiny_config().to_dict(), "episode": 1},
    )
    dyn, q, meta = core.load_llql_model(path)
    X = np.array([[-0.5, 0.01]])
    assert np.array_equal(dyn.predict_next_batch(X, np.array([[0.3]])),
                          res.dynamics.predict_next_batch(X, np.array([[0.3]])))
    for loaded, trained in ((dyn, res.dynamics), (q, res.qmodel)):
        for got, want in zip(loaded.coefficients(X), trained.coefficients(X)):
            assert np.array_equal(got, want)
    assert meta["role"] == "llql"


def test_loading_an_llql_model_reads_its_nets_straight_into_the_banks(tmp_path):
    """Each net is cast from the one float64 read buffer into its bank's
    slices, with no copy of its own: the load peaks at what it keeps (the
    banks and the Python objects of the heads' views and the header) plus
    the largest net in float64, the header's bytes and the file's read
    buffer."""
    env = MountainCar()
    rng = np.random.default_rng(0)
    dyn = core.DynamicsModel(
        Mlp.create((2, 200, 200), rng, np.float32, shapes=core.DynamicsModel.head_shapes(2, 1)), 0.001,
        Normalizer.identity(2),
    )
    q = core.QModel(Mlp.create((2, 200, 200), rng, np.float32, shapes=core.QModel.head_shapes(1)),
                    dyn.normalizer, np.array([-1.0]), np.array([1.0]))
    path = tmp_path / "mc.model"
    core.save_llql_model(path, dyn, q, {"env": env.spec.to_dict()})
    header_len = struct.unpack("<Q", path.read_bytes()[:8])[0]
    core.load_llql_model(path)  # warm up
    tracemalloc.start()
    try:
        loaded, loaded_q, _ = core.load_llql_model(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.bank.flat_params, dyn.bank.flat_params)
    assert np.array_equal(loaded_q.bank.flat_params, q.bank.flat_params)
    banks = dyn.bank.flat_params.nbytes + q.bank.flat_params.nbytes
    heads = dyn.bank.heads + q.bank.heads
    largest = 8 * max(head.n_params for head in heads)
    assert kept - banks < min(sum(p.nbytes for p in _params(head)) for head in heads)  # no net kept twice
    assert peak <= kept + largest + header_len + io.DEFAULT_BUFFER_SIZE


def test_dynamics_only_training():
    env = MountainCar(horizon=15)
    res = core.train_dynamics(env, tiny_config(), policy=lambda x: np.array([1.0]))
    assert res.qmodel is None
    assert math.isnan(res.log[0].l2)
    assert res.dynamics.f_net.layer_sizes[0][0] == 2


# ---------------------------------------------------------------------------
# The update bodies, bit for bit against their wrapped form
#
# The bodies below are the updates as written on numpy's Python-level
# wrappers (np.linalg.norm, .mean(), astype().copy(), a boolean gather on
# every batch, a fancy-indexed sample).  The training code runs the ufunc
# chains those wrappers run, so both give the same bits.
# ---------------------------------------------------------------------------


def wrapped_sample(buffer, n, rng):
    idx = rng.integers(0, len(buffer), size=n)
    return core.TransitionBatch(*(col[idx] for col in buffer._columns))


def wrapped_greedy_target_q_batch(target, X):
    v, H, D = target.bank.forward(target.normalizer.normalize(X))
    U = linalg.pinv_action_batch(H, D)
    np.clip(U, target.action_low, target.action_high, out=U)
    resid = np.linalg.norm(H + np.einsum("nma,na->nm", D, U), axis=1)
    degenerate = core.row_norms(D) < core.EPS_D
    resid[degenerate] = 0.0
    return v - resid


def wrapped_bellman_targets(target, batch, gamma):
    y = batch.rewards.astype(np.float64).copy()
    live = ~batch.dones
    if live.any():
        y[live] += gamma * wrapped_greedy_target_q_batch(target, batch.next_states[live])
    return y


@np.errstate(over="ignore", invalid="ignore")
def wrapped_short_update(self, batch):
    dt = self.dtype
    n = len(batch)
    bank = self.dyn.bank
    U = batch.actions.astype(dt)
    (F, G), caches = bank.forward_cached(self.normalizer.normalize(batch.states).astype(dt))
    residual = (batch.next_states - batch.states).astype(dt)
    residual -= self.cfg.delta * (F + np.einsum("nsa,na->ns", G, U))
    norms = np.linalg.norm(residual, axis=1)
    loss = float(norms.mean())
    dirs = residual / np.maximum(norms, np.finfo(dt).tiny)[:, None]
    gF = (-self.cfg.delta / n) * dirs
    gG = gF[:, :, None] * U[:, None, :]
    self.adam_dyn.step(bank, bank.backward_cached(caches, (gF, gG)), context="short-term loss")
    return loss


@np.errstate(over="ignore", invalid="ignore")
def wrapped_long_update(self, batch):
    dt = self.dtype
    n = len(batch)
    bank = self.q.bank
    y = wrapped_bellman_targets(self.q_target, batch, self.cfg.discount)
    U = batch.actions.astype(dt)
    (V, H, D), caches = bank.forward_cached(self.normalizer.normalize(batch.states).astype(dt))
    S = H + np.einsum("nma,na->nm", D, U)
    norms = np.linalg.norm(S.astype(np.float64), axis=1)
    q_values = V.astype(np.float64) - norms
    res = y - q_values
    if self.cfg.squared_bellman:
        loss = float((res**2).mean())
        dq = (-2.0 / n) * res
    else:
        loss = float(np.abs(res).mean())
        dq = (-1.0 / n) * np.sign(res)
    dq = dq.astype(dt)
    dS = (-dq)[:, None] * (S / np.maximum(norms, np.finfo(dt).tiny).astype(dt)[:, None])
    gD = dS[:, :, None] * U[:, None, :]
    self.adam_q.step(bank, bank.backward_cached(caches, (dq, dS, gD)), context="long-term loss")
    soft_update(self.q_target.bank, bank, self.cfg.tau)
    return loss


def filled_trainer(config, terminal_share):
    """A trainer whose buffer holds 200 random mountain-car transitions, a
    `terminal_share` of them terminal, with its normalizer fitted on them."""
    trainer = core._Trainer(MountainCar(horizon=50), config)
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rng.uniform([-1.2, -0.07], [0.6, 0.07])
        trainer.buffer.add(core.Transition(x, rng.uniform(-1.0, 1.0, size=1), x + rng.normal(0.0, 0.01, size=2),
                                           float(rng.normal()), bool(rng.random() < terminal_share)))
    fitted = Normalizer.fit(trainer.buffer.states())
    trainer.normalizer.mean[...], trainer.normalizer.std[...] = fitted.mean, fitted.std
    return trainer


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("terminal_share", [0.0, 0.3, 1.0], ids=["no_terminal", "some_terminal", "all_terminal"])
@pytest.mark.parametrize("squared", [False, True], ids=["abs", "squared"])
def test_update_bodies_equal_their_wrapped_form_bitwise(dtype, terminal_share, squared):
    config = core.TrainConfig(hidden_sizes=(16, 16), dtype=dtype, squared_bellman=squared,
                              short_batch=20, long_batch=10)
    lean, wrapped = filled_trainer(config, terminal_share), filled_trainer(config, terminal_share)
    rng, wrapped_rng = np.random.default_rng(5), np.random.default_rng(5)
    terminal_batches = 0
    for _ in range(6):
        for n, update, wrapped_update in ((config.short_batch, lean._short_update, wrapped_short_update),
                                          (config.long_batch, lean._long_update, wrapped_long_update)):
            batch, wrapped_batch = lean.buffer.sample(n, rng), wrapped_sample(wrapped.buffer, n, wrapped_rng)
            assert all(same_bits(a, b) for a, b in zip(dataclasses.astuple(batch), dataclasses.astuple(wrapped_batch)))
            terminal_batches += bool(batch.dones.any())
            assert same_bits(update(batch), wrapped_update(wrapped, wrapped_batch))
        for a, b in ((lean.dyn.bank, wrapped.dyn.bank), (lean.q.bank, wrapped.q.bank),
                     (lean.q_target.bank, wrapped.q_target.bank)):
            assert same_bits(a.flat_params, b.flat_params)
    assert (terminal_batches > 0) == (terminal_share > 0)
