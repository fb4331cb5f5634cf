"""References shared by the tests: constant banks, and the training losses
written independently of the trainer's update bodies, whose gradients
`test_gradients.py` checks by finite differences."""

import numpy as np

from llql import core
from llql.nets import Mlp


def constant_bank(in_dim, outputs, shapes):
    """A bank of heads without hidden layers that output the given constants
    for any input."""
    bank = Mlp.create((in_dim,), np.random.default_rng(0), shapes=shapes)
    for head, values in zip(bank.heads, outputs):
        head.weights[0][...] = 0.0
        head.biases[0][...] = np.asarray(values, dtype=np.float64).reshape(-1)
    return bank


def short_term_loss(dyn: core.DynamicsModel, batch: core.TransitionBatch) -> float:
    """Mean Euclidean norm of one-step prediction residuals."""
    pred = dyn.predict_next_batch(batch.states, batch.actions)
    residuals = batch.next_states - pred
    return float(np.linalg.norm(residuals, axis=1).mean())


def long_term_loss(q: core.QModel, target: core.QModel, batch: core.TransitionBatch, gamma: float,
                   squared: bool = False) -> float:
    """Mean Bellman residual |y - Q(x, u)| with y from the target model.

    Terminal transitions use y = r.  With `squared` the residual is squared
    instead of absolute.
    """
    y = core._bellman_targets(target, batch, gamma)
    v, H, D = q.bank.forward(q.normalizer.normalize(batch.states))
    S = H + np.einsum("nma,na->nm", D, batch.actions)
    q_values = v - np.linalg.norm(S, axis=1)
    res = y - q_values
    return float((res**2).mean() if squared else np.abs(res).mean())
