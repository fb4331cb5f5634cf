"""Locally linear Q-learning models, losses, and the training loop.

The agent keeps two prediction models.  The one-step dynamics model
predicts x' = x + delta * (f(x) + g(x) u).  The value model decomposes
Q(x, u) = V(x) - ||h(x) + d(x) u||, so the greedy action is a linear
least-squares solve.  Both are trained from a uniform replay buffer: the
dynamics nets minimize the mean one-step residual norm L1, and the value
nets minimize the mean absolute Bellman residual L2 against slowly-updated
target copies.

The models' coefficients are computed on rows of states (n, dim); one state
is the one-row batch `x[None]`.  The training act, the Bellman target and
`control`'s greedy action all solve for the greedy action through
`linalg.pinv_action_batch`, each with its own fallback at a numerically
zero gain d(x): zeros, a zero residual, and a uniform draw.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import ConfigError, linalg
from .nets import (
    Adam,
    HeadBank,
    Mlp,
    ModelFile,
    NonFiniteGradientError,
    Normalizer,
    load_model,
    save_model,
    soft_update,
)

# below this norm a gain d(x) counts as numerically zero, in training and in `control` alike
EPS_D = 1e-8


def row_norms(A: np.ndarray) -> np.ndarray:
    """The 2-norm of each row's entries, with the bits of `np.linalg.norm`
    on that row alone (the square root of a dot product)."""
    flat = A.reshape(len(A), -1)
    return np.sqrt(np.vecdot(flat, flat))


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
    """FIFO ring buffer of transitions with uniform sampling (replacement).

    Storage grows by doubling up to `capacity` rows, so a short run does
    not hold a full-capacity buffer.
    """

    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        # states, actions, next states, rewards, dones
        self._columns = [
            np.zeros((0, state_dim)), np.zeros((0, action_dim)), np.zeros((0, state_dim)),
            np.zeros(0), np.zeros(0, dtype=bool),
        ]
        self._idx = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, t: Transition) -> None:
        i = self._idx
        if i == len(self._columns[0]):  # full below capacity
            rows = min(self.capacity, max(1024, 2 * i))
            for k, col in enumerate(self._columns):
                grown = np.zeros((rows,) + col.shape[1:], dtype=col.dtype)
                grown[:i] = col
                self._columns[k] = grown
        for col, value in zip(self._columns, (t.state, t.action, t.next_state, t.reward, t.done)):
            col[i] = value
        self._idx = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, n: int, rng: np.random.Generator) -> TransitionBatch:
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=n)
        return TransitionBatch(*[col.take(idx, axis=0) for col in self._columns])

    def states(self, n: Optional[int] = None) -> np.ndarray:
        """The first n stored states (insertion order while not yet wrapped)."""
        n = self._size if n is None else min(n, self._size)
        return self._columns[0][:n]


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


def check_training_config(config, counts: dict, positive: tuple) -> None:
    """Raise ConfigError unless a training config's discount lies in (0, 1),
    its tau in [0, 1], its seed is at least 0, its hidden sizes and buffer
    capacity are at least 1, it fits the normalizer on at least 2 samples,
    its dtype is a float type (the model-file loader's rule), its sigma0
    and each field named in `positive` are positive and finite, and each
    field named in `counts` is at least its value there."""
    if not 0.0 < config.discount < 1.0:
        raise ConfigError("discount must lie in (0, 1)")
    if not 0.0 <= config.tau <= 1.0:
        raise ConfigError("tau must lie in [0, 1]")
    if not all(size >= 1 for size in config.hidden_sizes):
        raise ConfigError("hidden_sizes must all be >= 1")
    try:
        kind = np.dtype(config.dtype).kind
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    if kind != "f":
        raise ConfigError(f"dtype {config.dtype} is not a float type")
    for field in ("sigma0", *positive):
        if not 0.0 < getattr(config, field) < math.inf:
            raise ConfigError(f"{field} must be positive and finite")
    for field, least in dict(counts, normalizer_samples=2, buffer_capacity=1, seed=0).items():
        if getattr(config, field) < least:
            raise ConfigError(f"{field} must be >= {least}")


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
    seed: int = 0
    dtype: str = "float32"
    squared_bellman: bool = False
    checkpoint_every: int = 0

    def __post_init__(self):
        check_training_config(self, dict(episodes=1, short_iters=1, long_iters=1, short_batch=1, long_batch=1,
                                         lr_short_switch_step=0), ("delta", "lr_long", "lr_short", "lr_short_after"))

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["hidden_sizes"] = list(self.hidden_sizes)
        return d


@dataclasses.dataclass
class DynamicsModel:
    """One-step prediction model x' = x + delta * (f(x) + g(x) u), with the
    heads f and g in one bank."""

    bank: HeadBank
    delta: float
    normalizer: Normalizer

    @staticmethod
    def head_shapes(state_dim: int, action_dim: int) -> tuple:
        return (state_dim,), (state_dim, action_dim)

    @property
    def f_net(self) -> Mlp:
        return self.bank.heads[0]

    @property
    def g_net(self) -> Mlp:
        return self.bank.heads[1]

    def coefficients(self, X: np.ndarray):
        """(F, G) in float64 at each of the rows of X (n, s); each row is its
        own one-row batch, so it has the bits it has alone (`HeadBank._run`)."""
        F, G = self.bank.forward(self.normalizer.normalize(X)[:, None, :])
        return F[:, 0, :], G[:, 0, :, :]

    def predict_next_batch(self, X: np.ndarray, U: np.ndarray) -> np.ndarray:
        F, G = self.bank.forward(self.normalizer.normalize(X))
        U = np.asarray(U, dtype=np.float64)
        return np.asarray(X, dtype=np.float64) + self.delta * (F + np.einsum("nsa,na->ns", G, U))


@dataclasses.dataclass
class QModel:
    """Value model Q(x, u) = V(x) - ||h(x) + d(x) u||, with the heads V, h
    and d in one bank.  Training keeps a second QModel over a slowly-updated
    copy of the bank, the target."""

    bank: HeadBank
    normalizer: Normalizer
    action_low: np.ndarray
    action_high: np.ndarray

    @staticmethod
    def head_shapes(action_dim: int) -> tuple:
        return (), (action_dim,), (action_dim, action_dim)

    @property
    def v_net(self) -> Mlp:
        return self.bank.heads[0]

    @property
    def h_net(self) -> Mlp:
        return self.bank.heads[1]

    @property
    def d_net(self) -> Mlp:
        return self.bank.heads[2]

    def coefficients(self, X: np.ndarray):
        """(V, H, D) in float64 at each of the rows of X (n, s), as
        `DynamicsModel.coefficients`."""
        V, H, D = self.bank.forward(self.normalizer.normalize(X)[:, None, :])
        return V[:, 0], H[:, 0, :], D[:, 0, :, :]


def short_term_loss(dyn: DynamicsModel, batch: TransitionBatch) -> float:
    """Mean Euclidean norm of one-step prediction residuals."""
    pred = dyn.predict_next_batch(batch.states, batch.actions)
    residuals = batch.next_states - pred
    return float(np.linalg.norm(residuals, axis=1).mean())


def _greedy_target_q_batch(target: QModel, X: np.ndarray) -> np.ndarray:
    """The target model's Q at its greedy (bound-clipped) least-squares
    action on each row of X; a row whose gain is numerically zero has a
    zero residual."""
    v, H, D = target.bank.forward(target.normalizer.normalize(X))
    U = linalg.pinv_action_batch(H, D)
    np.clip(U, target.action_low, target.action_high, out=U)
    S = H + np.einsum("nma,na->nm", D, U)
    resid = np.sqrt(np.add.reduce(S * S, axis=1))  # np.linalg.norm's ufuncs, so its bits
    np.copyto(resid, 0.0, where=row_norms(D) < EPS_D)
    return v - resid


def long_term_loss(
    q: QModel,
    target: QModel,
    batch: TransitionBatch,
    gamma: float,
    squared: bool = False,
) -> float:
    """Mean Bellman residual |y - Q(x, u)| with y from the target model.

    Terminal transitions use y = r.  With `squared` the residual is squared
    instead of absolute.
    """
    y = _bellman_targets(target, batch, gamma)
    v, H, D = q.bank.forward(q.normalizer.normalize(batch.states))
    S = H + np.einsum("nma,na->nm", D, batch.actions)
    q_values = v - np.linalg.norm(S, axis=1)
    res = y - q_values
    return float((res**2).mean() if squared else np.abs(res).mean())


def _bellman_targets(target: QModel, batch: TransitionBatch, gamma: float) -> np.ndarray:
    y = np.array(batch.rewards, dtype=np.float64)
    live = ~batch.dones
    if live.all():  # no gather: the same rows, so the same bits
        y += gamma * _greedy_target_q_batch(target, batch.next_states)
    elif live.any():
        y[live] += gamma * _greedy_target_q_batch(target, batch.next_states[live])
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

    The loop owns the time limit: an episode ends when the env reports its
    goal reached or after `env.horizon` steps, and either end is stored as
    terminal.  A reward mod, when given, replaces each step's reward with
    `reward_mod.apply(r, position, velocity, done)` at the state the step
    arrived in, before it is stored and summed.

    A subclass creates its nets from `init_rng` and supplies `_act(x)`, the
    noiseless action; `_updates()`, a generator that runs one env step's
    updates and yields (log column, loss) after each, 0 for l1 and 1 for
    l2; and `loss_iters`, the updates per step behind each column, or None
    for a column it does not fill (logged as NaN).
    """

    def __init__(self, env, config, reward_mod=None):
        self.env = env
        self.cfg = config
        self.reward_mod = reward_mod
        self.dtype = np.dtype(config.dtype)
        ss = np.random.SeedSequence(config.seed)
        self.init_rng, self.noise_rng, self.sample_rng, self.env_rng = (
            np.random.default_rng(c) for c in ss.spawn(4)
        )
        self.noise = ExplorationNoise(config.sigma0, config.sigma_decay, config.sigma_floor)
        self.normalizer = Normalizer.identity(env.state_dim)
        self.normalizer_frozen = False
        self.buffer = ReplayBuffer(config.buffer_capacity, env.state_dim, env.action_dim)

    def _episodes(self):
        """Run the configured episodes, yielding each one's EpisodeStats."""
        cfg, env = self.cfg, self.env
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
                done = step.reached or k + 1 == env.horizon  # a time-out is stored as terminal
                reward = step.reward
                if self.reward_mod is not None:
                    reward = float(self.reward_mod.apply(reward, step.next_state[0], step.next_state[1], done))
                self.buffer.add(Transition(x, u, step.next_state, reward, done))
                ep_reward += reward
                steps = k + 1
                if not self.normalizer_frozen and len(self.buffer) >= cfg.normalizer_samples:
                    # fitted in place: the models built on it see the fit
                    fitted = Normalizer.fit(self.buffer.states(cfg.normalizer_samples))
                    self.normalizer.mean[...] = fitted.mean
                    self.normalizer.std[...] = fitted.std
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
                if step.reached:
                    steps_to_goal = steps
                if done:
                    break
            self.noise.update(ep_reward)
            # every step ran one round of updates
            l1, l2 = (
                total / (max(steps, 1) * iters) if iters else math.nan
                for total, iters in zip(loss_sums, self.loss_iters)
            )
            yield EpisodeStats(episode, ep_reward, steps, l1, l2, self.noise.sigma, steps_to_goal)


class _Trainer(_EpisodeTrainer):
    """LLQL training: the dynamics bank (f, g) and, unless dynamics-only,
    the value bank (V, h, d); acts greedily, or by `policy` when one is given."""

    def __init__(self, env, config: TrainConfig, policy: Optional[Callable] = None, learn_long: bool = True):
        super().__init__(env, config)
        self.policy = policy
        self.loss_iters = (config.short_iters, config.long_iters if learn_long else None)
        self.tiny = np.finfo(self.dtype).tiny  # the floor of a residual norm that divides

        s, a = env.state_dim, env.action_dim
        hidden = tuple(config.hidden_sizes)
        bank = HeadBank.create(s, hidden, DynamicsModel.head_shapes(s, a), self.init_rng, self.dtype)
        self.dyn = DynamicsModel(bank, config.delta, self.normalizer)
        self.adam_dyn = Adam(bank, config.lr_short, lr_after=config.lr_short_after,
                             switch_step=config.lr_short_switch_step)
        self.q = None
        if learn_long:
            bank = HeadBank.create(s, hidden, QModel.head_shapes(a), self.init_rng, self.dtype)
            self.q = QModel(
                bank, self.normalizer,
                np.asarray(env.action_low, dtype=np.float64),
                np.asarray(env.action_high, dtype=np.float64),
            )
            self.q_target = dataclasses.replace(self.q, bank=bank.copy())
            self.adam_q = Adam(bank, config.lr_long)

    # -- per-step pieces ----------------------------------------------------

    def _act(self, x: np.ndarray) -> np.ndarray:
        X = x[None]
        if self.policy is not None:
            return np.asarray(self.policy(X), dtype=np.float64).reshape(-1)
        _, H, D = self.q.coefficients(X)
        if row_norms(D)[0] < EPS_D:
            return np.zeros(self.env.action_dim)
        return linalg.pinv_action_batch(H, D)[0]

    def _updates(self):
        cfg = self.cfg
        for _ in range(cfg.short_iters):
            yield 0, self._short_update(self.buffer.sample(cfg.short_batch, self.sample_rng))
        if self.q is not None:
            for _ in range(cfg.long_iters):
                yield 1, self._long_update(self.buffer.sample(cfg.long_batch, self.sample_rng))

    # divergence surfaces as a non-finite loss (checked by the caller), so
    # numpy overflow warnings in the updates are noise.  The norms and means
    # call the ufuncs that np.linalg.norm and ndarray.mean run, so they have
    # those wrappers' bits without their Python-level cost.
    @np.errstate(over="ignore", invalid="ignore")
    def _short_update(self, batch: TransitionBatch) -> float:
        dt = self.dtype
        n = len(batch)
        bank = self.dyn.bank
        U = batch.actions.astype(dt)
        (F, G), caches = bank.forward_cached(self.normalizer.normalize(batch.states).astype(dt))
        residual = (batch.next_states - batch.states).astype(dt)
        residual -= self.cfg.delta * (F + np.einsum("nsa,na->ns", G, U))
        norms = np.sqrt(np.add.reduce(residual * residual, axis=1))
        loss = float(np.add.reduce(norms) / n)
        dirs = residual / np.maximum(norms, self.tiny)[:, None]
        gF = (-self.cfg.delta / n) * dirs
        gG = gF[:, :, None] * U[:, None, :]
        self.adam_dyn.step(bank, bank.backward_cached(caches, (gF, gG)), context="short-term loss")
        return loss

    @np.errstate(over="ignore", invalid="ignore")
    def _long_update(self, batch: TransitionBatch) -> float:
        dt = self.dtype
        n = len(batch)
        bank = self.q.bank
        y = _bellman_targets(self.q_target, batch, self.cfg.discount)

        U = batch.actions.astype(dt)
        (V, H, D), caches = bank.forward_cached(self.normalizer.normalize(batch.states).astype(dt))
        S = H + np.einsum("nma,na->nm", D, U)
        S64 = S.astype(np.float64)
        norms = np.sqrt(np.add.reduce(S64 * S64, axis=1))
        res = y - (V.astype(np.float64) - norms)
        if self.cfg.squared_bellman:
            loss = float(np.add.reduce(res**2) / n)
            dq = (-2.0 / n) * res
        else:
            loss = float(np.add.reduce(np.abs(res)) / n)
            dq = (-1.0 / n) * np.sign(res)
        dq = dq.astype(dt)
        dS = (-dq)[:, None] * (S / np.maximum(norms, self.tiny).astype(dt)[:, None])
        gD = dS[:, :, None] * U[:, None, :]
        self.adam_q.step(bank, bank.backward_cached(caches, (dq, dS, gD)), context="long-term loss")
        soft_update(self.q_target.bank, bank, self.cfg.tau)
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
        return TrainResult(self.dyn, self.q, log)

    def save(self, path, episode: int) -> None:
        save_llql_model(
            path,
            self.dyn,
            self.q,
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


def llql_banks(mf: ModelFile) -> dict:
    """The head banks that `load_model` reads a model file of role llql or
    dynamics into, given its header: {net names: head shapes}; none for any
    other role."""
    role = mf.meta.get("role")
    if role not in ("llql", "dynamics"):
        return {}
    (env_spec,) = mf.meta_entries("env")
    s, a = env_spec["state_dim"], env_spec["action_dim"]
    banks = {("f", "g"): DynamicsModel.head_shapes(s, a)}
    if role == "llql":
        banks["v", "h", "d"] = QModel.head_shapes(a)
    return banks


def read_model(path) -> ModelFile:
    """A model file of any role, its nets read into the banks that
    `llql_banks` names (none for a DDPG file)."""
    return load_model(path, llql_banks)


def load_llql_model(path):
    """Load (DynamicsModel, QModel or None, meta) from a model file."""
    return llql_model_from(read_model(path))


def llql_model_from(mf: ModelFile):
    """(DynamicsModel, QModel or None, meta) on the banks of a model file of
    role llql or dynamics, read by `read_model`; ModelFileError for any
    other role."""
    meta = mf.checked(("llql", "dynamics"), "dynamics model").meta
    env_spec, delta = mf.meta_entries("env", "delta")
    dyn = DynamicsModel(mf.banks["f", "g"], delta, mf.normalizer)
    q = None
    if meta.get("role") == "llql":
        q = QModel(
            mf.banks["v", "h", "d"], mf.normalizer,
            np.asarray(env_spec["action_low"], dtype=np.float64),
            np.asarray(env_spec["action_high"], dtype=np.float64),
        )
    return dyn, q, meta
