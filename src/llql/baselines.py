"""Comparison methods: DDPG with reward shaping, and random-shooting MPC.

DDPG is the standard actor-critic with target networks; the reward-mod
catalog reproduces the shaped rewards used to encode short-term goals the
traditional way.  The MPC baseline samples random action sequences through
the learned dynamics model and executes the first action of the best one.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from . import ConfigError, control
from .core import DynamicsModel, _EpisodeTrainer, check_training_config
from .nets import Adam, Mlp, ModelFile, Normalizer, save_model, load_model, soft_update


# ---------------------------------------------------------------------------
# Reward modifications
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RewardMod:
    """Pure reward reshaping r' = apply(r, position, velocity, done).

    `position` and `velocity` are taken from the state the step arrived in.
    The callable is vectorized (works on scalars and arrays alike).
    """

    id: str
    apply: Callable


# the shaped rewards' targets: the desired hilltop velocity, the speed limit
# and the position past which t2 and t3 shape
MOD_V_D = 0.025
MOD_LIMIT = 0.033
MOD_POSITION = 0.45


def reward_mod_catalog() -> list:
    """The eight shaped rewards: four trajectory (t1..t4), four constraint
    (c1..c4); c4 replaces the reward with -10 above the limit."""

    def t1(r, pos, vel, done):
        return np.where(done, r - 5000.0 * np.abs(vel - MOD_V_D), r)

    def t2(r, pos, vel, done):
        return np.where(pos > MOD_POSITION, r - 100.0 * np.abs(vel - MOD_V_D), r)

    def t3(r, pos, vel, done):
        r = np.where(pos > MOD_POSITION, r - 100.0 * np.abs(vel - MOD_V_D), r)
        return np.where(done, r - 5000.0 * np.abs(vel - MOD_V_D), r)

    def t4(r, pos, vel, done):
        return np.where(done, r - 25000.0 * (vel - MOD_V_D) ** 2, r)

    def c1(r, pos, vel, done):
        return np.where(np.abs(vel) > MOD_LIMIT, r - 10.0, r)

    def c2(r, pos, vel, done):
        return np.where(np.abs(vel) > MOD_LIMIT, r - 100.0 * (np.abs(vel) - MOD_LIMIT), r)

    def c3(r, pos, vel, done):
        return np.where(np.abs(vel) > MOD_LIMIT, r - (100.0 * (np.abs(vel) - MOD_LIMIT)) ** 2, r)

    def c4(r, pos, vel, done):
        return np.where(np.abs(vel) > MOD_LIMIT, -10.0, r)

    return [
        RewardMod("t1", t1),
        RewardMod("t2", t2),
        RewardMod("t3", t3),
        RewardMod("t4", t4),
        RewardMod("c1", c1),
        RewardMod("c2", c2),
        RewardMod("c3", c3),
        RewardMod("c4", c4),
    ]


def get_reward_mod(mod_id: str) -> RewardMod:
    """The catalog's reward mod `mod_id`; ConfigError naming the catalog for
    an unknown id."""
    mods = {mod.id: mod for mod in reward_mod_catalog()}
    if mod_id not in mods:
        raise ConfigError(f"unknown reward mod {mod_id!r}; the mods are {', '.join(mods)}")
    return mods[mod_id]


# ---------------------------------------------------------------------------
# DDPG
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class DdpgConfig:
    episodes: int = 60
    batch: int = 8
    discount: float = 0.99
    tau: float = 0.1
    critic_lr: float = 1e-3
    actor_lr: float = 1e-4
    sigma0: float = 0.5
    sigma_decay: float = 0.99
    sigma_floor: float = 0.01
    buffer_capacity: int = 1_000_000
    normalizer_samples: int = 1000
    hidden_sizes: tuple = (200, 200)
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self):
        check_training_config(self, dict(episodes=1, batch=1), ("critic_lr", "actor_lr"))

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["hidden_sizes"] = list(self.hidden_sizes)
        return d


@dataclasses.dataclass
class DdpgModel:
    """Actor-critic pair; the actor output is squashed to bounds."""

    actor: Mlp
    critic: Mlp
    normalizer: Normalizer
    action_low: np.ndarray
    action_high: np.ndarray

    def __post_init__(self):
        self.center = (self.action_high + self.action_low) / 2.0
        self.half = (self.action_high - self.action_low) / 2.0

    def _squash(self, raw: np.ndarray) -> np.ndarray:
        return self.center + self.half * np.tanh(np.asarray(raw, dtype=np.float64))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The actions (n, a) at the rows x (n, s), each row a one-row batch
        (`HeadBank._run`), so it has the bits it has alone.  Raises
        ValueError unless x is 2-D, as every policy does."""
        X = control._rows(x)[0]
        return self._squash(self.actor.forward(self.normalizer.normalize(X)[:, None, :])[:, 0, :])


class _DdpgTrainer(_EpisodeTrainer):
    """DDPG training: one critic and one actor update per env step, with
    target copies of both nets."""

    loss_iters = (None, 1)

    def __init__(self, env, config: DdpgConfig, reward_mod: Optional[RewardMod]):
        super().__init__(env, config, reward_mod)
        s, a = env.state_dim, env.action_dim
        hidden = tuple(config.hidden_sizes)
        self.actor = Mlp.create((s, *hidden, a), self.init_rng, self.dtype)
        self.critic = Mlp.create((s + a, *hidden, 1), self.init_rng, self.dtype)
        self.actor_target = self.actor.copy()
        self.critic_target = self.critic.copy()
        self.adam_actor = Adam(self.actor, config.actor_lr)
        self.adam_critic = Adam(self.critic, config.critic_lr)
        self.model = DdpgModel(self.actor, self.critic, self.normalizer,
                               np.asarray(env.action_low, dtype=np.float64),
                               np.asarray(env.action_high, dtype=np.float64))

    def _act(self, x: np.ndarray) -> np.ndarray:
        return self.model(x[None])[0]

    def _updates(self):
        yield 1, self._update(self.buffer.sample(self.cfg.batch, self.sample_rng))

    def _update(self, batch) -> float:
        dt = self.dtype
        n = len(batch)
        cfg = self.cfg
        squash = self.model._squash
        Z = self.normalizer.normalize(batch.states).astype(dt)
        Z2 = self.normalizer.normalize(batch.next_states).astype(dt)
        U = batch.actions.astype(dt)

        # critic target: y = r + gamma * (1 - done) * Q'(x', mu'(x'))
        u2 = squash(self.actor_target.forward(Z2)).astype(dt)
        q2 = self.critic_target.forward(np.concatenate([Z2, u2], axis=1))[:, 0]
        y = batch.rewards + cfg.discount * (~batch.dones) * q2

        # critic regression (mean squared Bellman error)
        inp = np.concatenate([Z, U], axis=1)
        q, cache_c = self.critic.forward_cached(inp)
        res = y - q[:, 0].astype(np.float64)
        loss = float(np.add.reduce(res**2) / n)  # ndarray.mean's ufuncs, so its bits
        gq = ((-2.0 / n) * res).astype(dt)[:, None]
        grads_c = self.critic.backward_cached(cache_c, gq)
        self.adam_critic.step(self.critic, grads_c, context="critic loss")

        # actor ascends Q(x, mu(x)): gradient of -mean Q through the critic input
        raw, cache_a = self.actor.forward_cached(Z)
        u_pi = squash(raw).astype(dt)
        inp_pi = np.concatenate([Z, u_pi], axis=1)
        _, cache_q = self.critic.forward_cached(inp_pi)
        gin = self.critic.input_gradient(cache_q, np.full((n, 1), -1.0 / n, dtype=dt))
        du = gin[:, self.env.state_dim :].astype(np.float64)
        draw = (du * self.model.half * (1.0 - np.tanh(raw.astype(np.float64)) ** 2)).astype(dt)
        grads_a = self.actor.backward_cached(cache_a, draw)
        self.adam_actor.step(self.actor, grads_a, context="actor objective")

        soft_update(self.critic_target, self.critic, cfg.tau)
        soft_update(self.actor_target, self.actor, cfg.tau)
        return loss


def ddpg_train(env, config: DdpgConfig, reward_mod: Optional[RewardMod] = None):
    """Train DDPG; deterministic given (env, config.seed, reward_mod).  A
    reward mod shapes mountain car's position and velocity, so it is
    rejected (ConfigError) on any other env."""
    if reward_mod is not None and env.spec.name != "mountain_car":
        raise ConfigError(f"reward mod {reward_mod.id} shapes mountain car's reward, not {env.spec.name}'s")
    trainer = _DdpgTrainer(env, config, reward_mod)
    log = list(trainer._episodes())
    return trainer.model, log


def save_ddpg_model(path, model: DdpgModel, meta: dict) -> None:
    meta = dict(meta)
    meta["role"] = "ddpg"
    save_model(
        path,
        {"actor": model.actor, "critic": model.critic},
        model.normalizer,
        meta,
    )


def load_ddpg_model(path) -> tuple:
    mf = load_model(path)
    return ddpg_model_from(mf), mf.meta


def ddpg_model_from(mf: ModelFile) -> DdpgModel:
    """The DdpgModel of a loaded model file of role ddpg; ModelFileError
    for any other role."""
    (env_spec,) = mf.checked(("ddpg",), "ddpg model").meta_entries("env")
    return DdpgModel(
        mf.nets["actor"], mf.nets["critic"], mf.normalizer,
        np.asarray(env_spec["action_low"], dtype=np.float64),
        np.asarray(env_spec["action_high"], dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# Random-shooting MPC
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class MpcConfig:
    horizon: int = 15
    candidates: int = 1000

    def __post_init__(self):
        if self.horizon < 1 or self.candidates < 1:
            raise ConfigError("horizon and candidates must be >= 1")


def mpc_action(
    dyn: DynamicsModel,
    x: np.ndarray,
    reward_fn: Callable,
    cfg: MpcConfig,
    rng: np.random.Generator,
    action_low,
    action_high,
    candidates: Optional[np.ndarray] = None,
) -> np.ndarray:
    """First action of the best of `candidates` random action sequences.

    Sequences are drawn candidate-major, so a longer draw from the same
    generator state extends (never replaces) a shorter one.  Rollout scores
    are undiscounted sums of `reward_fn(states, actions, next_states)`,
    which returns (rewards, done) per candidate; candidates stop
    accumulating reward once done.
    """
    low = np.asarray(action_low, dtype=np.float64)
    high = np.asarray(action_high, dtype=np.float64)
    k, h = cfg.candidates, cfg.horizon
    if candidates is None:
        candidates = rng.uniform(low, high, size=(k, h, low.size))
    scores = np.zeros(k)
    alive = np.ones(k, dtype=bool)
    X = np.broadcast_to(np.asarray(x, dtype=np.float64), (k, len(x))).copy()
    for t in range(h):
        U = candidates[:, t, :]
        Xn = dyn.predict_next_batch(X, U)
        rewards, done = reward_fn(X, U, Xn)
        scores += np.where(alive, rewards, 0.0)
        alive &= ~np.asarray(done, dtype=bool)
        X = Xn
    best = int(np.argmax(scores))
    return candidates[best, 0].copy()


def mountain_car_reward_fn(goal_position: float, mod: Optional[RewardMod] = None) -> Callable:
    """Batched mountain-car step reward for MPC rollouts (goal bonus included)."""

    def fn(X, U, Xn):
        r = -0.1 * U[:, 0] ** 2
        done = Xn[:, 0] >= goal_position
        r = r + np.where(done, 100.0, 0.0)
        if mod is not None:
            r = mod.apply(r, Xn[:, 0], Xn[:, 1], done)
        return r, done

    return fn
