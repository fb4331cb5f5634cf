"""Locally linear Q-learning models, losses, and the training loop.

The agent keeps two prediction models.  The one-step dynamics model
predicts x' = x + delta * (f(x) + g(x) u).  The value model decomposes
Q(x, u) = V(x) - ||h(x) + d(x) u||, so the greedy action is a linear
least-squares solve.  Both are trained from a uniform replay buffer: the
dynamics nets minimize the mean one-step residual norm L1, and the value
nets minimize the mean absolute Bellman residual L2 against slowly-updated
target copies.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import linalg
from .nets import (
    Adam,
    Mlp,
    NonFiniteGradientError,
    Normalizer,
    load_model,
    save_model,
    soft_update,
)

EPS_D = 1e-8


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient becomes non-finite during training."""

    def __init__(self, message: str, snapshot: dict):
        super().__init__(message)
        self.snapshot = snapshot


@dataclasses.dataclass
class Transition:
    state: np.ndarray
    action: np.ndarray
    next_state: np.ndarray
    reward: float
    done: bool


@dataclasses.dataclass
class TransitionBatch:
    states: np.ndarray
    actions: np.ndarray
    next_states: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray

    def __len__(self) -> int:
        return self.states.shape[0]


class ReplayBuffer:
    """FIFO ring buffer of transitions with uniform sampling (replacement)."""

    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._states = np.zeros((capacity, state_dim))
        self._actions = np.zeros((capacity, action_dim))
        self._next_states = np.zeros((capacity, state_dim))
        self._rewards = np.zeros(capacity)
        self._dones = np.zeros(capacity, dtype=bool)
        self._idx = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, t: Transition) -> None:
        i = self._idx
        self._states[i] = t.state
        self._actions[i] = t.action
        self._next_states[i] = t.next_state
        self._rewards[i] = t.reward
        self._dones[i] = t.done
        self._idx = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, n: int, rng: np.random.Generator) -> TransitionBatch:
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=n)
        return TransitionBatch(
            self._states[idx],
            self._actions[idx],
            self._next_states[idx],
            self._rewards[idx],
            self._dones[idx],
        )

    def states(self, n: Optional[int] = None) -> np.ndarray:
        """The first n stored states (insertion order while not yet wrapped)."""
        n = self._size if n is None else min(n, self._size)
        return self._states[:n]


@dataclasses.dataclass
class ExplorationNoise:
    """Additive normal action noise, decayed after profitable episodes."""

    sigma: float
    decay: float = 0.99
    floor: float = 0.01

    def sample(self, rng: np.random.Generator, dim: int) -> np.ndarray:
        return rng.normal(0.0, self.sigma, size=dim)

    def update(self, episode_return: float) -> None:
        if episode_return > 0.0:
            self.sigma = max(self.floor, self.sigma * self.decay)


@dataclasses.dataclass
class TrainConfig:
    """Training hyperparameters (defaults follow the reference setup)."""

    episodes: int = 60
    short_iters: int = 5
    long_iters: int = 5
    short_batch: int = 100
    long_batch: int = 10
    discount: float = 0.999
    tau: float = 0.001
    delta: float = 0.001
    lr_long: float = 1e-3
    lr_short: float = 1e-3
    lr_short_after: float = 1e-4
    lr_short_switch_step: int = 20000
    sigma0: float = 0.5
    sigma_decay: float = 0.99
    sigma_floor: float = 0.01
    buffer_capacity: int = 1_000_000
    normalizer_samples: int = 1000
    hidden_sizes: tuple = (200, 200)
    eps_d: float = EPS_D
    seed: int = 0
    dtype: str = "float32"
    squared_bellman: bool = False
    checkpoint_every: int = 0

    def __post_init__(self):
        if not 0.0 < self.discount < 1.0:
            raise ValueError("discount must lie in (0, 1)")
        if self.sigma0 <= 0.0:
            raise ValueError("sigma0 must be positive")
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        for field in ("episodes", "short_iters", "long_iters", "short_batch", "long_batch"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["hidden_sizes"] = list(self.hidden_sizes)
        return d


@dataclasses.dataclass
class DynamicsModel:
    """One-step prediction model x' = x + delta * (f(x) + g(x) u)."""

    f_net: Mlp
    g_net: Mlp
    delta: float
    normalizer: Normalizer
    state_dim: int
    action_dim: int

    def coefficients(self, x: np.ndarray):
        """Evaluate (f(x), g(x)) at one state, in float64."""
        z = self.normalizer.normalize(x)
        f = self.f_net.forward(z).astype(np.float64)
        g = self.g_net.forward(z).astype(np.float64).reshape(self.state_dim, self.action_dim)
        return f, g

    def predict_next(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Raw model prediction of the next state (no clipping)."""
        f, g = self.coefficients(x)
        u = np.asarray(u, dtype=np.float64).reshape(self.action_dim)
        return np.asarray(x, dtype=np.float64) + self.delta * (f + g @ u)

    def predict_next_batch(self, X: np.ndarray, U: np.ndarray) -> np.ndarray:
        Z = self.normalizer.normalize(X)
        F = self.f_net.forward(Z).astype(np.float64)
        G = self.g_net.forward(Z).astype(np.float64).reshape(-1, self.state_dim, self.action_dim)
        U = np.asarray(U, dtype=np.float64)
        return np.asarray(X, dtype=np.float64) + self.delta * (F + np.einsum("nsa,na->ns", G, U))


@dataclasses.dataclass
class QModel:
    """Value model Q(x, u) = V(x) - ||h(x) + d(x) u|| with target copies."""

    v_net: Mlp
    h_net: Mlp
    d_net: Mlp
    v_target: Mlp
    h_target: Mlp
    d_target: Mlp
    tau: float
    normalizer: Normalizer
    state_dim: int
    action_dim: int
    action_low: np.ndarray
    action_high: np.ndarray

    @property
    def advantage_rows(self) -> int:
        return self.action_dim

    def coefficients(self, x: np.ndarray):
        """Evaluate (V(x), h(x), d(x)) at one state, in float64."""
        z = self.normalizer.normalize(x)
        v = float(self.v_net.forward(z)[0])
        h = self.h_net.forward(z).astype(np.float64)
        d = self.d_net.forward(z).astype(np.float64).reshape(self.advantage_rows, self.action_dim)
        return v, h, d

    def target_coefficients(self, x: np.ndarray):
        z = self.normalizer.normalize(x)
        v = float(self.v_target.forward(z)[0])
        h = self.h_target.forward(z).astype(np.float64)
        d = self.d_target.forward(z).astype(np.float64).reshape(self.advantage_rows, self.action_dim)
        return v, h, d

    def q_value(self, x: np.ndarray, u: np.ndarray) -> float:
        v, h, d = self.coefficients(x)
        u = np.asarray(u, dtype=np.float64).reshape(self.action_dim)
        return v - float(np.linalg.norm(h + d @ u))

    def value(self, x: np.ndarray) -> float:
        z = self.normalizer.normalize(x)
        return float(self.v_net.forward(z)[0])


def short_term_loss(dyn: DynamicsModel, batch: TransitionBatch) -> float:
    """Mean Euclidean norm of one-step prediction residuals."""
    pred = dyn.predict_next_batch(batch.states, batch.actions)
    residuals = batch.next_states - pred
    return float(np.linalg.norm(residuals, axis=1).mean())


def greedy_target_q(q: QModel, x_next: np.ndarray, eps_d: float = EPS_D) -> float:
    """Target-network Q at the greedy (bound-clipped) least-squares action."""
    return float(_greedy_target_q_batch(q, np.asarray(x_next).reshape(1, -1), eps_d)[0])


def _greedy_target_q_batch(q: QModel, X: np.ndarray, eps_d: float) -> np.ndarray:
    Z = q.normalizer.normalize(X)
    v = q.v_target.forward(Z).astype(np.float64)[:, 0]
    H = q.h_target.forward(Z).astype(np.float64)
    D = q.d_target.forward(Z).astype(np.float64).reshape(-1, q.advantage_rows, q.action_dim)
    U = linalg.pinv_action_batch(H, D)
    np.clip(U, q.action_low, q.action_high, out=U)
    resid = np.linalg.norm(H + np.einsum("nma,na->nm", D, U), axis=1)
    degenerate = np.linalg.norm(D.reshape(len(D), -1), axis=1) < eps_d
    resid[degenerate] = 0.0
    return v - resid


def long_term_loss(
    q: QModel,
    batch: TransitionBatch,
    gamma: float,
    eps_d: float = EPS_D,
    squared: bool = False,
) -> float:
    """Mean Bellman residual |y - Q(x, u)| with y from the target networks.

    Terminal transitions use y = r.  With `squared` the residual is squared
    instead of absolute.
    """
    y = _bellman_targets(q, batch, gamma, eps_d)
    Z = q.normalizer.normalize(batch.states)
    v = q.v_net.forward(Z).astype(np.float64)[:, 0]
    H = q.h_net.forward(Z).astype(np.float64)
    D = q.d_net.forward(Z).astype(np.float64).reshape(-1, q.advantage_rows, q.action_dim)
    S = H + np.einsum("nma,na->nm", D, batch.actions)
    q_values = v - np.linalg.norm(S, axis=1)
    res = y - q_values
    return float((res**2).mean() if squared else np.abs(res).mean())


def _bellman_targets(q: QModel, batch: TransitionBatch, gamma: float, eps_d: float) -> np.ndarray:
    y = batch.rewards.astype(np.float64).copy()
    live = ~batch.dones
    if live.any():
        y[live] += gamma * _greedy_target_q_batch(q, batch.next_states[live], eps_d)
    return y


@dataclasses.dataclass
class EpisodeStats:
    episode: int
    cumulative_reward: float
    steps: int
    l1: float
    l2: float
    sigma: float
    steps_to_goal: int  # -1 when the goal was not reached


def log_to_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("episode,cumulative_reward,steps,l1,l2,sigma,steps_to_goal\n")
        for r in rows:
            fh.write(
                f"{r.episode},{r.cumulative_reward!r},{r.steps},{r.l1!r},{r.l2!r},"
                f"{r.sigma!r},{r.steps_to_goal}\n"
            )


@dataclasses.dataclass
class TrainResult:
    dynamics: DynamicsModel
    qmodel: Optional[QModel]
    log: list


class _EpisodeTrainer:
    """The replay-buffer episode loop shared by LLQL and DDPG training.

    A subclass creates its nets from `init_rng` and supplies `_act(x)`, the
    noiseless action; `_updates()`, a generator that runs one env step's
    updates and yields (log column, loss) after each, 0 for l1 and 1 for
    l2; and `loss_iters`, the updates per step behind each column, or None
    for a column it does not fill (logged as NaN).
    """

    def __init__(self, env, config):
        self.env = env
        self.cfg = config
        self.dtype = np.dtype(config.dtype)
        ss = np.random.SeedSequence(config.seed)
        self.init_rng, self.noise_rng, self.sample_rng, self.env_rng = (
            np.random.default_rng(c) for c in ss.spawn(4)
        )
        self.noise = ExplorationNoise(config.sigma0, config.sigma_decay, config.sigma_floor)
        self.normalizer = Normalizer.identity(env.state_dim)
        self.normalizer_frozen = False

    def _episodes(self):
        """Run the configured episodes, yielding each one's EpisodeStats."""
        cfg, env = self.cfg, self.env
        # allocated after the subclass's nets: with the (by default 1e6-row)
        # buffer allocated first, the heap layout made the peak RSS of five
        # short trainings in one process grow from 43 to 89 MB
        self.buffer = ReplayBuffer(cfg.buffer_capacity, env.state_dim, env.action_dim)
        for episode in range(1, cfg.episodes + 1):
            x = env.reset(int(self.env_rng.integers(0, 2**31 - 1)))
            ep_reward = 0.0
            loss_sums = [0.0, 0.0]
            steps = 0
            steps_to_goal = -1
            for k in range(env.horizon):
                noise = self.noise.sample(self.noise_rng, env.action_dim)
                u = np.clip(self._act(x) + noise, env.action_low, env.action_high)
                step = env.step(x, u)
                self.buffer.add(Transition(x, u, step.next_state, step.reward, step.done))
                ep_reward += step.reward
                steps = k + 1
                if not self.normalizer_frozen and len(self.buffer) >= cfg.normalizer_samples:
                    self.normalizer = Normalizer.fit(self.buffer.states(cfg.normalizer_samples))
                    self.normalizer_frozen = True
                try:
                    for column, loss in self._updates():
                        if not math.isfinite(loss):
                            name = ("l1", "l2")[column]
                            raise TrainingDiverged(
                                f"{name} loss became non-finite at episode {episode}, step {k}",
                                {"episode": episode, "step": k, "kind": name, "loss": loss,
                                 "sigma": self.noise.sigma},
                            )
                        loss_sums[column] += loss
                except NonFiniteGradientError as exc:
                    raise TrainingDiverged(
                        str(exc),
                        {"episode": episode, "step": k, "sigma": self.noise.sigma, "reason": str(exc)},
                    ) from exc
                x = step.next_state
                if step.done:
                    if env.goal_reached(x):
                        steps_to_goal = steps
                    break
            self.noise.update(ep_reward)
            # every step ran one round of updates
            l1, l2 = (
                total / (max(steps, 1) * iters) if iters else math.nan
                for total, iters in zip(loss_sums, self.loss_iters)
            )
            yield EpisodeStats(episode, ep_reward, steps, l1, l2, self.noise.sigma, steps_to_goal)


class _Trainer(_EpisodeTrainer):
    """LLQL training: the dynamics nets f, g and, unless dynamics-only, the
    value nets V, h, d; acts greedily, or by `policy` when one is given."""

    def __init__(self, env, config: TrainConfig, policy: Optional[Callable] = None, learn_long: bool = True):
        super().__init__(env, config)
        self.policy = policy
        self.learn_long = learn_long
        self.loss_iters = (config.short_iters, config.long_iters if learn_long else None)

        s, a = env.state_dim, env.action_dim
        hidden = tuple(config.hidden_sizes)
        self.f_net = Mlp.create((s, *hidden, s), self.init_rng, self.dtype)
        self.g_net = Mlp.create((s, *hidden, s * a), self.init_rng, self.dtype)
        self.v_net = Mlp.create((s, *hidden, 1), self.init_rng, self.dtype)
        self.h_net = Mlp.create((s, *hidden, a), self.init_rng, self.dtype)
        self.d_net = Mlp.create((s, *hidden, a * a), self.init_rng, self.dtype)
        self.v_target = self.v_net.copy()
        self.h_target = self.h_net.copy()
        self.d_target = self.d_net.copy()

        sched = dict(lr_after=config.lr_short_after, switch_step=config.lr_short_switch_step)
        self.adam_f = Adam(self.f_net, config.lr_short, **sched)
        self.adam_g = Adam(self.g_net, config.lr_short, **sched)
        self.adam_v = Adam(self.v_net, config.lr_long)
        self.adam_h = Adam(self.h_net, config.lr_long)
        self.adam_d = Adam(self.d_net, config.lr_long)

    # -- model views -------------------------------------------------------

    def dynamics_model(self) -> DynamicsModel:
        return DynamicsModel(
            self.f_net, self.g_net, self.cfg.delta, self.normalizer,
            self.env.state_dim, self.env.action_dim,
        )

    def q_model(self) -> QModel:
        return QModel(
            self.v_net, self.h_net, self.d_net,
            self.v_target, self.h_target, self.d_target,
            self.cfg.tau, self.normalizer,
            self.env.state_dim, self.env.action_dim,
            np.asarray(self.env.action_low, dtype=np.float64),
            np.asarray(self.env.action_high, dtype=np.float64),
        )

    # -- per-step pieces ----------------------------------------------------

    def _act(self, x: np.ndarray) -> np.ndarray:
        if self.policy is not None:
            return np.asarray(self.policy(x), dtype=np.float64).reshape(-1)
        z = self.normalizer.normalize(x)
        h = self.h_net.forward(z).astype(np.float64)
        d = self.d_net.forward(z).astype(np.float64).reshape(-1, self.env.action_dim)
        if np.linalg.norm(d) < self.cfg.eps_d:
            return np.zeros(self.env.action_dim)
        return linalg.pinv_action(h, d)

    def _updates(self):
        cfg = self.cfg
        for _ in range(cfg.short_iters):
            yield 0, self._short_update(self.buffer.sample(cfg.short_batch, self.sample_rng))
        if self.learn_long:
            for _ in range(cfg.long_iters):
                yield 1, self._long_update(self.buffer.sample(cfg.long_batch, self.sample_rng))

    def _short_update(self, batch: TransitionBatch) -> float:
        # divergence surfaces as a non-finite loss (checked by the caller),
        # so numpy overflow warnings on that path are noise
        with np.errstate(over="ignore", invalid="ignore"):
            return self._short_update_inner(batch)

    def _short_update_inner(self, batch: TransitionBatch) -> float:
        dt = self.dtype
        n = len(batch)
        s, a = self.env.state_dim, self.env.action_dim
        Z = self.normalizer.normalize(batch.states).astype(dt)
        U = batch.actions.astype(dt)
        F, cache_f = self.f_net.forward_cached(Z)
        G_raw, cache_g = self.g_net.forward_cached(Z)
        G = G_raw.reshape(n, s, a)
        residual = (batch.next_states - batch.states).astype(dt)
        residual -= self.cfg.delta * (F + np.einsum("nsa,na->ns", G, U))
        norms = np.linalg.norm(residual, axis=1)
        loss = float(norms.mean())
        dirs = residual / np.maximum(norms, np.finfo(dt).tiny)[:, None]
        gF = (-self.cfg.delta / n) * dirs
        gG = (gF[:, :, None] * U[:, None, :]).reshape(n, s * a)
        grads_f, _ = self.f_net.backward_cached(cache_f, gF, need_input_grad=False)
        grads_g, _ = self.g_net.backward_cached(cache_g, gG, need_input_grad=False)
        self.adam_f.step(self.f_net, grads_f, context="short-term loss")
        self.adam_g.step(self.g_net, grads_g, context="short-term loss")
        return loss

    def _long_update(self, batch: TransitionBatch) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return self._long_update_inner(batch)

    def _long_update_inner(self, batch: TransitionBatch) -> float:
        dt = self.dtype
        n = len(batch)
        m, a = self.env.action_dim, self.env.action_dim
        q = self.q_model()
        y = _bellman_targets(q, batch, self.cfg.discount, self.cfg.eps_d)

        Z = self.normalizer.normalize(batch.states).astype(dt)
        U = batch.actions.astype(dt)
        V, cache_v = self.v_net.forward_cached(Z)
        H, cache_h = self.h_net.forward_cached(Z)
        D_raw, cache_d = self.d_net.forward_cached(Z)
        D = D_raw.reshape(n, m, a)
        S = H + np.einsum("nma,na->nm", D, U)
        norms = np.linalg.norm(S.astype(np.float64), axis=1)
        q_values = V[:, 0].astype(np.float64) - norms
        res = y - q_values
        if self.cfg.squared_bellman:
            loss = float((res**2).mean())
            dq = (-2.0 / n) * res
        else:
            loss = float(np.abs(res).mean())
            dq = (-1.0 / n) * np.sign(res)
        dq = dq.astype(dt)
        gV = dq[:, None]
        dS = (-dq)[:, None] * (S / np.maximum(norms, np.finfo(dt).tiny).astype(dt)[:, None])
        gH = dS
        gD = (dS[:, :, None] * U[:, None, :]).reshape(n, m * a)
        grads_v, _ = self.v_net.backward_cached(cache_v, gV, need_input_grad=False)
        grads_h, _ = self.h_net.backward_cached(cache_h, gH, need_input_grad=False)
        grads_d, _ = self.d_net.backward_cached(cache_d, gD, need_input_grad=False)
        self.adam_v.step(self.v_net, grads_v, context="long-term loss")
        self.adam_h.step(self.h_net, grads_h, context="long-term loss")
        self.adam_d.step(self.d_net, grads_d, context="long-term loss")

        soft_update(self.v_target, self.v_net, self.cfg.tau)
        soft_update(self.h_target, self.h_net, self.cfg.tau)
        soft_update(self.d_target, self.d_net, self.cfg.tau)
        return loss

    # -- main loop -----------------------------------------------------------

    def run(self, checkpoint_dir=None) -> TrainResult:
        cfg = self.cfg
        if checkpoint_dir is not None:
            checkpoint_dir = Path(checkpoint_dir)
            checkpoint_dir.mkdir(parents=True, exist_ok=True)
        log = []
        best_reward = -math.inf
        for stats in self._episodes():
            log.append(stats)
            if checkpoint_dir is not None:
                if stats.cumulative_reward > best_reward:
                    best_reward = stats.cumulative_reward
                    self.save(checkpoint_dir / "best.model", stats.episode)
                if cfg.checkpoint_every and stats.episode % cfg.checkpoint_every == 0:
                    self.save(checkpoint_dir / f"ep{stats.episode:04d}.model", stats.episode)
        if checkpoint_dir is not None:
            self.save(checkpoint_dir / "final.model", cfg.episodes)
        return TrainResult(self.dynamics_model(), self.q_model() if self.learn_long else None, log)

    def save(self, path, episode: int) -> None:
        save_llql_model(
            path,
            self.dynamics_model(),
            self.q_model() if self.learn_long else None,
            meta={
                "env": self.env.spec.to_dict(),
                "config": self.cfg.to_dict(),
                "episode": episode,
            },
        )


def train(env, config: TrainConfig, checkpoint_dir=None) -> TrainResult:
    """Run the full training loop; reproducible given (env, config.seed)."""
    return _Trainer(env, config).run(checkpoint_dir)


def train_dynamics(env, config: TrainConfig, policy: Callable) -> TrainResult:
    """Fit only the one-step dynamics model on data collected by `policy`."""
    return _Trainer(env, config, policy=policy, learn_long=False).run()


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_llql_model(path, dyn: DynamicsModel, q: Optional[QModel], meta: dict) -> None:
    nets = {"f": dyn.f_net, "g": dyn.g_net}
    role = "dynamics"
    if q is not None:
        nets.update({"v": q.v_net, "h": q.h_net, "d": q.d_net})
        role = "llql"
    meta = dict(meta)
    meta.update({"role": role, "delta": dyn.delta})
    save_model(path, nets, dyn.normalizer, meta)


def load_llql_model(path):
    """Load (DynamicsModel, QModel or None, meta) from a model file."""
    mf = load_model(path)
    meta = mf.meta
    env_spec = meta["env"]
    s, a = env_spec["state_dim"], env_spec["action_dim"]
    dyn = DynamicsModel(mf.nets["f"], mf.nets["g"], meta["delta"], mf.normalizer, s, a)
    q = None
    if meta.get("role") == "llql":
        q = QModel(
            mf.nets["v"], mf.nets["h"], mf.nets["d"],
            mf.nets["v"].copy(), mf.nets["h"].copy(), mf.nets["d"].copy(),
            meta["config"]["tau"], mf.normalizer, s, a,
            np.asarray(env_spec["action_low"], dtype=np.float64),
            np.asarray(env_spec["action_high"], dtype=np.float64),
        )
    return dyn, q, meta
