"""Dense feed-forward network engine.

Hand-rolled MLPs (ReLU hidden layers, identity output) with exact
backpropagation, an adaptive-moment optimizer with a two-phase learning
rate schedule, soft target updates, state normalization, and a binary
model-file format.  A network is one or more heads on one input, whose
parameters live in one flat vector; weights and biases are reshaped
views into it, which keeps optimizer and target-update passes to a
handful of vectorized operations.  Those passes write their intermediate
products into one scratch vector per dtype and thread (`_scratch`), which
every Adam step and soft update of the thread shares and which is valid
only within one call.  An Adam step runs in the parameters' dtype, its
scalars included, and every 16 steps it flushes to 0 the moments stuck
in subnormal floats.  A net's forward and backward passes run on plans,
one per input shape, built on the first call of that shape: the
workspace, weight and bias views that the pass writes and reads, so a
call builds no views of its own.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import os
import struct
import threading
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import ConfigError


class NonFiniteGradientError(RuntimeError):
    """Raised when an optimizer step receives NaN or infinite gradients."""


# numpy's allocator aligns data to 16 bytes only, so a vector's offset within
# a cache line would follow from whatever the heap held before; a net's GEMV
# passes and an Adam step over vectors 16 bytes off run 10-20 % slower.  Parameter
# vectors, their gradients, optimizer moments and workspaces all start on a
# cache line instead.
_ALIGN = 64


def _aligned_empty(n: int, dtype) -> np.ndarray:
    """An uninitialized vector of n items whose data starts on a 64-byte boundary."""
    dtype = np.dtype(dtype)
    raw = np.empty(n * dtype.itemsize + _ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % _ALIGN
    return raw[start : start + n * dtype.itemsize].view(dtype)


def _aligned_zeros(n: int, dtype) -> np.ndarray:
    out = _aligned_empty(n, dtype)
    out.fill(0)
    return out


def _aligned_copy(a: np.ndarray, dtype=None) -> np.ndarray:
    """`a` as a new aligned vector, cast to `dtype` as `astype` casts."""
    out = _aligned_empty(a.size, a.dtype if dtype is None else dtype)
    out[...] = a.reshape(-1)
    return out


class _ScratchVectors(threading.local):
    """Each thread's scratch vectors, by dtype."""

    def __init__(self):
        self.by_dtype = {}


_SCRATCH = _ScratchVectors()


def _scratch(n: int, dtype) -> np.ndarray:
    """The first n items of the calling thread's aligned scratch vector of
    `dtype`, grown to the largest n asked for.  Every Adam step and soft
    update of the thread writes into it, so it is valid only within one
    call, and trainers in two threads share nothing."""
    dtype = np.dtype(dtype)  # the key: a dtype's name takes about 2 us to build
    buf = _SCRATCH.by_dtype.get(dtype)
    if buf is None or buf.size < n:
        buf = _SCRATCH.by_dtype[dtype] = _aligned_empty(n, dtype)
    return buf[:n]


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of `a` is finite; min and max propagate a NaN, so
    this needs no temporary array of `a`'s size."""
    return bool(np.isfinite(np.minimum.reduce(a, axis=None)) and np.isfinite(np.maximum.reduce(a, axis=None)))


def _layers(layer_sizes) -> list:
    """(fan_in, fan_out) of every layer of every head of an Mlp, head by
    head, given its `layer_sizes` (one tuple of sizes per head)."""
    return [pair for sizes in layer_sizes for pair in zip(sizes[:-1], sizes[1:])]


def _n_params(layer_sizes) -> int:
    """Parameter count of an Mlp's `layer_sizes`."""
    return sum((a + 1) * b for a, b in _layers(layer_sizes))


def _views(flat: np.ndarray, layer_sizes):
    """Weight and bias views into `flat` for an Mlp's `layer_sizes` (one
    tuple of sizes per head): the hidden layers first, each as a (heads,
    fan_in, fan_out) weight block and a (heads, fan_out) bias block, then
    each head's output layer."""
    heads = len(layer_sizes)
    shapes = [((heads, a, b), (heads, b)) for a, b in _layers(layer_sizes[:1])[:-1]]
    shapes += [((sizes[-2], sizes[-1]), (sizes[-1],)) for sizes in layer_sizes]
    views, offset = [], 0
    for shape in (shape for pair in shapes for shape in pair):
        n = math.prod(shape)
        views.append(flat[offset : offset + n].reshape(shape))
        offset += n
    return views[0::2], views[1::2]


def _params(net) -> list:
    """An Mlp's weight and bias views, layer by layer.  For a one-head Mlp
    this is the order of its flat vector and of its parameters in a model
    file."""
    return [p for pair in zip(net.weights, net.biases) for p in pair]


def _draw_weights(weights, rng: np.random.Generator) -> None:
    """Weights uniform in +-1/sqrt(fan_in), drawn layer by layer."""
    for W in weights:
        bound = 1.0 / np.sqrt(W.shape[-2])
        W[...] = rng.uniform(-bound, bound, size=W.shape).astype(W.dtype)


class Grads:
    """Per-parameter gradients for one Mlp, backed by a flat vector."""

    def __init__(self, layer_sizes: Sequence[Sequence[int]], dtype, flat: Optional[np.ndarray] = None):
        self.flat = _aligned_empty(_n_params(layer_sizes), dtype) if flat is None else flat
        self.weights, self.biases = _views(self.flat, layer_sizes)


class Mlp:
    """Fully-connected heads on one input: ReLU hidden activations, identity
    outputs, and equal hidden layers.  The parameters of every head share
    one flat vector, so one Adam step or one soft update covers them all.
    The ReLU subgradient at exactly 0 is taken to be 0.

    Each hidden layer of all heads is one (heads, fan_in, fan_out) weight
    block and one (heads, fan_out) bias block, which one stacked matmul
    evaluates for every head; each head keeps its own output layer.  Every
    slice of a stacked matmul is the GEMM a head alone would run, so the
    net's results equal its heads' own bit for bit.  `heads` are one-head
    Mlps on views of the blocks, which hold no reference to the net.
    `shapes` gives each head's output shape (`()` for a scalar); a head's output
    size is the product of its shape.  A head has no flat vector of its
    own: it is given `views`, the (weights, biases) of its slice of its
    net's blocks.  Every pass takes and returns one array per head.

    Hidden activations, backward deltas and the gradient vector live in
    workspaces that the net keeps across calls and grows to the largest
    batch it has seen; the backward deltas and ReLU masks of all layers
    take turns in two blocks of the widest hidden layer, and a mask is
    never written in place over the cached activations, which the caller
    still holds.  So the caches of `forward_cached` and the Grads of
    `backward_cached` stay valid until the net's next call, and a net
    must not be called from two threads at once.

    Each pass runs on the plan of its input shape (`_forward_plan`,
    `_backward_plan`): the views it writes and reads, built once on the
    first call of that shape and kept.  The plans hold views only, into
    the parameters and the workspaces; when a workspace grows, the plans
    of its kind, on the old vector, are dropped and rebuilt on demand.
    """

    def __init__(self, layer_sizes: Sequence[Sequence[int]], shapes, flat: Optional[np.ndarray],
                 views: Optional[tuple] = None):
        self.shapes = tuple(tuple(int(n) for n in shape) for shape in shapes)
        self.layer_sizes = tuple(tuple(int(n) for n in sizes) for sizes in layer_sizes)
        if len(self.layer_sizes) != len(self.shapes):
            raise ValueError(f"{len(self.layer_sizes)} heads but {len(self.shapes)} output shapes")
        if any(len(sizes) < 2 or sizes[:-1] != self.layer_sizes[0][:-1] for sizes in self.layer_sizes):
            raise ValueError(f"the heads of a net need input and output sizes, and equal input and hidden "
                             f"sizes, not {self.layer_sizes}")
        for sizes, shape in zip(self.layer_sizes, self.shapes):
            if sizes[-1] != math.prod(shape):
                raise ValueError(f"a head of {sizes[-1]} outputs cannot take the shape {shape}")
        if flat is not None and not _all_finite(flat):
            raise ValueError("network parameters must be finite")
        self.flat_params, self.n_params = flat, _n_params(self.layer_sizes)
        self.weights, self.biases = _views(flat, self.layer_sizes) if views is None else views
        self.dtype = self.weights[0].dtype
        self._zero = np.zeros((), self.dtype)  # the ReLU's floor: a Python 0.0 is converted on every call
        self._n_hidden = len(self.layer_sizes[0]) - 2
        self._work, self._plans, self._grads = {}, {"forward": {}, "backward": {}}, None

    @functools.cached_property
    def heads(self) -> list:
        L = self._n_hidden
        return [Mlp((sizes,), (shape,), None,
                    ([W[k : k + 1] for W in self.weights[:L]] + [self.weights[L + k]],
                     [b[k : k + 1] for b in self.biases[:L]] + [self.biases[L + k]]))
                for k, (sizes, shape) in enumerate(zip(self.layer_sizes, self.shapes))]

    @classmethod
    def create(cls, sizes: Sequence[int], rng: np.random.Generator, dtype=np.float64, *,
               shapes=None) -> "Mlp":
        """One head of `sizes` (input, hidden..., output) or, given output
        `shapes`, one head per shape on `sizes` (input, hidden...).  Weights
        uniform in +-1/sqrt(fan_in), drawn head by head, biases zero."""
        if shapes is None:
            sizes, shapes = sizes[:-1], ((sizes[-1],),)
        layer_sizes = [(*sizes, math.prod(shape)) for shape in shapes]
        net = cls(layer_sizes, shapes, _aligned_zeros(_n_params(layer_sizes), dtype))
        for head in net.heads:
            _draw_weights(head.weights, rng)
        return net

    def copy(self) -> "Mlp":
        return Mlp(self.layer_sizes, self.shapes, _aligned_copy(self.flat_params))

    def _workspace(self, kind: str, size: int) -> np.ndarray:
        """The net's `kind` workspace ("forward" or "backward"): a vector
        kept across calls and grown to the largest call's `size` items.
        When it grows, the plans of that kind, views into the old vector,
        are dropped."""
        buf = self._work.get(kind)
        if buf is None or buf.size < size:
            buf = self._work[kind] = _aligned_empty(size, self.dtype)
            self._plans[kind].clear()
        return buf

    def _forward_plan(self, shape: tuple) -> tuple:
        """The plan of a forward pass on an input of `shape`, built on the
        first such call: one input vector (in,), which runs as a batch of
        one row, a batch (n, in) or independent batches (R, n, in), of
        leading shape `rows`.  The forward workspace holds each hidden
        layer's (heads, *rows, width) activations, then each head's
        (*rows, outputs) output.  The plan is (layers, heads, outs, acts):
        each hidden layer's (weight block, bias block, activations), the
        blocks broadcast over the leading axes; each head's (hidden input,
        or None for the net's input, output weights, output bias, output);
        each output shaped *rows + its head's shape; the activations."""
        plan = self._plans["forward"].get(shape)
        if plan is not None:
            return plan
        if shape[-1:] != self.layer_sizes[0][:1]:
            raise ValueError(
                f"input has {shape[-1] if shape else 0} features, network expects {self.layer_sizes[0][0]}"
            )
        L, rows = self._n_hidden, shape[:-1]
        work_rows = rows or (1,)
        shapes = [(len(self.shapes), *work_rows, W.shape[-1]) for W in self.weights[:L]]
        shapes += [(*work_rows, W.shape[1]) for W in self.weights[L:]]
        starts = list(itertools.accumulate(map(math.prod, shapes), initial=0))
        buf = self._workspace("forward", starts[-1])
        views = [buf[a:b].reshape(s) for a, b, s in zip(starts, starts[1:], shapes)]
        acts, outs = views[:L], views[L:]
        lead = (slice(None),) + (None,) * (len(work_rows) - 1)  # the head axis, then the leading axes
        layers = [(W[lead], b[lead + (None,)], out) for W, b, out in zip(self.weights, self.biases, acts)]
        heads = [(acts[-1][k] if L else None, W, b, out)
                 for k, (W, b, out) in enumerate(zip(self.weights[L:], self.biases[L:], outs))]
        shaped = tuple(out.reshape(rows + s) for out, s in zip(outs, self.shapes))
        plan = self._plans["forward"][shape] = layers, heads, shaped, acts
        return plan

    def _backward_plan(self, n: int) -> tuple:
        """The plan of a backward pass through a batch of n rows, built on
        the first such call.  Each hidden layer's delta and ReLU mask take
        turns in the backward workspace's two blocks, sized to the widest
        hidden layer: layer i's delta at the start of block i % 2 and its
        mask at the start of the other block, where layer i - 1's delta
        then overwrites it.  The plan is (heads, layers): each head's
        (transposed output weights, its slice of the last hidden layer's
        delta, or None without hidden layers); each hidden layer's (index,
        delta, mask, transposed weight block, the delta of the layer below
        or None), last layer first."""
        plan = self._plans["backward"].get(n)
        if plan is not None:
            return plan
        L = self._n_hidden
        hidden = [(len(self.shapes), n, W.shape[-1]) for W in self.weights[:L]]
        block = max(map(math.prod, hidden), default=0)
        buf = self._workspace("backward", 2 * block)

        def at(start, shape):
            return buf[start : start + math.prod(shape)].reshape(shape)

        deltas = [at(block * (i % 2), s) for i, s in enumerate(hidden)]
        masks = [at(block * (1 - i % 2), s) for i, s in enumerate(hidden)]
        heads = [(W.T, deltas[-1][k] if L else None) for k, W in enumerate(self.weights[L:])]
        layers = [(i, deltas[i], masks[i], self.weights[i].transpose(0, 2, 1), deltas[i - 1] if i else None)
                  for i in range(L - 1, -1, -1)]
        plan = self._plans["backward"][n] = heads, layers
        return plan

    def _run(self, x: np.ndarray) -> tuple:
        """Forward pass of every head on `x` in the net's dtype, into the
        forward workspace; returns its plan.  `x` is one input vector, a
        batch (n, in), or independent batches (R, n, in) behind a leading
        axis: each of those is one slice of every stacked matmul, so
        one-row batches (R, 1, in) run the GEMV a lone input runs and give
        its bits, where one batch of R rows runs a GEMM, whose rows can
        differ in the last bits."""
        plan = self._forward_plan(x.shape)
        layers, heads, _, _ = plan
        if x.ndim == 1:
            x = x.reshape(1, -1)
        a = x
        for W, b, out in layers:
            np.matmul(a, W, out=out)
            out += b
            np.maximum(out, self._zero, out=out)
            a = out
        for a, W, b, out in heads:
            np.matmul(x if a is None else a, W, out=out)
            out += b
        return plan

    def forward(self, x: np.ndarray) -> list:
        """Every head's output in float64, shaped by its head's shape, at one
        input vector, or behind the leading axes of a batch (n, in) or of
        independent batches (R, n, in); see `_run`."""
        _, _, outs, _ = self._run(np.asarray(x, dtype=self.dtype))
        return [out.astype(np.float64) for out in outs]

    def forward_cached(self, x: np.ndarray):
        """Batch forward in the net's dtype: (outputs shaped per head, caches
        for `backward_cached`), both valid until the net's next call."""
        x = np.asarray(x, dtype=self.dtype)
        _, _, outs, acts = self._run(x)
        return outs, [x, *acts]

    def backward_cached(self, caches: list, grad_outs) -> Grads:
        """Every head's parameter gradients in one flat vector, given each
        head's output gradient (batch first, shaped like its output).  The
        Grads are the net's workspace, valid until its next call."""
        if self._grads is None:
            self._grads = Grads(self.layer_sizes, self.dtype)
        self._backward(caches, grad_outs, self._grads)
        return self._grads

    def input_gradient(self, caches: list, grad_outs) -> np.ndarray:
        """The gradient at the input of the heads' outputs summed, given
        each head's output gradient as for `backward_cached`, through the
        same chain without the parameter gradients."""
        return self._backward(caches, grad_outs, None)

    def _backward(self, caches: list, grad_outs, grads: Optional[Grads]):
        """Backpropagate through the cached pass: fill `grads`, or when it
        is None return the input gradient."""
        L, acts, gin = self._n_hidden, caches, None
        heads, layers = self._backward_plan(len(acts[0]))
        for k, (g, (Wt, dst)) in enumerate(zip(grad_outs, heads)):
            g = np.asarray(g, dtype=self.dtype).reshape(len(g), -1)
            if grads is not None:
                np.matmul((acts[L][k] if L else acts[0]).T, g, out=grads.weights[L + k])
                np.add.reduce(g, axis=0, out=grads.biases[L + k])
            if L:
                np.matmul(g, Wt, out=dst)
            elif grads is None:
                gin = g @ Wt if gin is None else gin + g @ Wt
        for i, delta, mask, Wt, dst in layers:
            # ReLU subgradient: the sign of a unit's output (>= 0) is 1 where
            # it is positive, else 0; a mask in the net's dtype, as a bool
            # one would be cast through a buffer on every call
            np.sign(acts[i + 1], out=mask)
            delta *= mask
            if grads is not None:
                np.matmul(acts[i].transpose(0, 2, 1) if i else acts[0].T, delta, out=grads.weights[i])
                np.add.reduce(delta, axis=1, out=grads.biases[i])
            if i:
                np.matmul(delta, Wt, out=dst)
            elif grads is None:
                gin = np.add.reduce(np.matmul(delta, Wt), axis=0)
        return gin


class Adam:
    """Adaptive-moment optimizer with an optional learning-rate switch.

    The learning rate is `lr` until the optimizer's own step counter
    reaches `switch_step`, then `lr_after`.  Its state is the step counter
    `t` and the moments `m` and `v`; a step writes its intermediate
    products into the thread's scratch vector of the parameters' dtype
    (`_scratch`), which it shares with every other Adam step and soft
    update of the thread.  Its scalars (`BETA1`, `BETA2`, `EPS` and the
    bias corrections) are Python floats, so every pass runs in the
    parameters' dtype: a float32 step rounds them to float32.

    Every `FLUSH_EVERY` steps the moments below the dtype's smallest
    normal float are set to 0 before the update.  A dead ReLU unit's
    gradient is exactly 0, so its moments decay until (1 - beta) * m
    rounds to 0 and they stick in subnormal floats, over which every later
    pass runs many times slower.  Such a moment moves its parameter by
    less than about 1e-29, so the flush changes no parameter above about
    1e-22.
    """

    FLUSH_EVERY = 16
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, net: Mlp, lr: float, *, lr_after: Optional[float] = None, switch_step: Optional[int] = None):
        self.lr = float(lr)
        self.lr_after = float(lr_after) if lr_after is not None else None
        self.switch_step = int(switch_step) if switch_step is not None else None
        self.t = 0
        self.m = _aligned_zeros(net.n_params, net.dtype)
        self.v = _aligned_zeros(net.n_params, net.dtype)

    @property
    def current_lr(self) -> float:
        if self.switch_step is not None and self.lr_after is not None and self.t >= self.switch_step:
            return self.lr_after
        return self.lr

    def step(self, net: Mlp, grads: Grads, context: str = "") -> None:
        g = grads.flat
        if not _all_finite(g):
            raise NonFiniteGradientError(
                f"non-finite gradients{f' in {context}' if context else ''}; step rejected"
            )
        lr = self.current_lr
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        buf = _scratch(self.m.size, self.m.dtype)
        # m <- b1*m + (1-b1)*g ; v <- b2*v + (1-b2)*g^2   (in place, no temps)
        np.subtract(g, self.m, out=buf)
        buf *= 1.0 - b1
        self.m += buf
        np.multiply(g, g, out=buf)
        buf -= self.v
        buf *= 1.0 - b2
        self.v += buf
        if self.t % self.FLUSH_EVERY == 0:
            # a *= (|a| >= tiny), through buf: no mask of the moments' size
            tiny = np.finfo(buf.dtype).tiny
            for a in (self.m, self.v):
                np.abs(a, out=buf)
                np.greater_equal(buf, tiny, out=buf)
                a *= buf
        # bias-corrected update with the corrections folded into scalars:
        # lr * (m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps)
        #   = (lr*s2/(1-b1^t)) * m / (sqrt(v) + eps*s2),  s2 = sqrt(1-b2^t)
        # The scalars are Python floats, so numpy runs both passes in buf's
        # dtype; a float64 numpy scalar would cast every float32 element
        # out and back, at about 8x the cost of the pass.
        s2 = math.sqrt(1.0 - b2**self.t)
        np.sqrt(self.v, out=buf)
        buf += self.EPS * s2
        np.divide(self.m, buf, out=buf)
        buf *= lr * s2 / (1.0 - b1**self.t)
        net.flat_params[...] -= buf


def soft_update(target: Mlp, source: Mlp, tau: float) -> Mlp:
    """Blend target parameters toward source: t <- tau*s + (1-tau)*t, with
    tau*s in the thread's scratch vector of the source's dtype."""
    if target.layer_sizes != source.layer_sizes:
        raise ValueError("soft_update requires identical architectures")
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    t, s = target.flat_params, source.flat_params
    t *= 1.0 - tau
    t += np.multiply(s, tau, out=_scratch(s.size, s.dtype))
    return target


@dataclasses.dataclass
class Normalizer:
    """Per-dimension shift/scale of state variables to zero mean, unit std."""

    mean: np.ndarray
    std: np.ndarray

    STD_FLOOR = 1e-6

    @classmethod
    def identity(cls, dim: int) -> "Normalizer":
        return cls(np.zeros(dim), np.ones(dim))

    @classmethod
    def fit(cls, samples: np.ndarray) -> "Normalizer":
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 2 or samples.shape[0] < 2:
            raise ValueError("fit requires a 2-D array with at least 2 samples")
        mean = samples.mean(axis=0)
        std = np.maximum(samples.std(axis=0), cls.STD_FLOOR)
        return cls(mean, std)

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Normalizer":
        return cls(np.asarray(d["mean"], dtype=np.float64), np.asarray(d["std"], dtype=np.float64))


# ---------------------------------------------------------------------------
# Model files
#
# Layout: 8-byte little-endian unsigned header length, then that many bytes
# of UTF-8 JSON, then the parameter blob as little-endian float64.  The blob
# concatenates each network's flat parameter vector in the header's listed
# order; within a network, layers appear in order as row-major weight matrix
# (fan_in x fan_out) followed by bias vector.  The header records each
# network's runtime dtype so loading restores bitwise-identical parameters.
#
# No whole-model copy is made either way.  Saving writes each layer straight
# from its weight or bias view, cast to float64 one layer at a time.  Loading
# reads each network into one reused float64 buffer and casts it straight
# into the parameters that serve it: a one-head Mlp of its own, or a head of
# the Mlp that the loader's `banks` names it for.
# ---------------------------------------------------------------------------

MODEL_FORMAT = "llql-model-v1"


class ModelFileError(ConfigError):
    """Raised when a model file is truncated, malformed, of another format,
    or holds another role or env than its use needs."""


@dataclasses.dataclass
class ModelFile:
    """A model file's header and parameters: `nets` maps each network's
    name to a one-head Mlp, and `banks` maps the names of nets read into
    the heads of one Mlp to that Mlp."""

    nets: dict
    normalizer: Optional[Normalizer]
    meta: dict
    path: str
    banks: dict = dataclasses.field(default_factory=dict)

    def meta_entries(self, *keys) -> list:
        """The meta entries `keys`; ModelFileError when one is missing."""
        missing = [key for key in keys if key not in self.meta]
        if missing:
            raise ModelFileError(f"{self.path}: model meta has no {', '.join(missing)}")
        return [self.meta[key] for key in keys]

    def checked(self, roles, what: str, env=None) -> "ModelFile":
        """This file, when its meta role is one of `roles` and, given `env`,
        its env has env's state and action sizes; ModelFileError naming the
        file and its role or env otherwise.  `what` names the use."""
        role = self.meta.get("role")
        if role not in roles:
            raise ModelFileError(f"{self.path}: role {role!r} is not a loadable {what} "
                                 f"(needs role {' or '.join(map(repr, roles))})")
        if env is not None:
            (spec,) = self.meta_entries("env")
            if (spec.get("state_dim"), spec.get("action_dim")) != (env.state_dim, env.action_dim):
                raise ModelFileError(
                    f"{self.path}: {what} was trained for {spec.get('name')} "
                    f"({spec.get('state_dim')}x{spec.get('action_dim')}); incompatible with {env.spec.name} "
                    f"({env.state_dim}x{env.action_dim})"
                )
        return self


def write_atomic(path, chunks: Iterable) -> None:
    """Write the bytes-like `chunks`, taken one at a time from the iterable,
    to a temporary file beside `path`, then rename it into place, so a
    reader never sees a partly written file.  Creates the directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)  # drops each chunk before it takes the next
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_model(path, nets: dict, normalizer: Optional[Normalizer] = None, meta: Optional[dict] = None) -> None:
    """Write `nets`, {name: one-head Mlp}, to a model file; an Mlp of several
    heads is saved as its heads."""
    header = {
        "format": MODEL_FORMAT,
        "nets": [
            {"name": name, "layer_sizes": list(net.layer_sizes[0]), "dtype": np.dtype(net.dtype).name}
            for name, net in nets.items()
        ],
        "normalizer": normalizer.to_dict() if normalizer is not None else None,
        "meta": meta or {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    layers = (np.asarray(p, dtype="<f8") for net in nets.values() for p in _params(net))
    write_atomic(path, itertools.chain((struct.pack("<Q", len(header_bytes)), header_bytes), layers))


def _net_entries(header: dict) -> list:
    """(name, layer_sizes, dtype) of each network a model header lists;
    KeyError, TypeError or ValueError when an entry is malformed."""
    entries = []
    for entry in header["nets"]:
        name, sizes, dtype = entry["name"], entry["layer_sizes"], np.dtype(entry["dtype"])
        if any(str(name) == listed for listed, _, _ in entries):
            raise ValueError(f"net {name!r} is listed twice")
        if not (isinstance(sizes, list) and len(sizes) >= 2
                and all(type(n) is int and n > 0 for n in sizes)):
            raise ValueError(f"net {name!r}: layer_sizes {sizes!r} are not two or more positive integers")
        if dtype.kind != "f":
            raise ValueError(f"net {name!r}: dtype {dtype} is not a float type")
        entries.append((str(name), sizes, dtype))
    return entries


def _read_header(fh, path) -> tuple:
    """(ModelFile without parameters, its net entries) of the open model
    file `fh`, left at the start of the blob; ModelFileError when the file
    is truncated, padded, malformed or of another format."""
    size = os.fstat(fh.fileno()).st_size
    if size < 8:
        raise ModelFileError(f"{path}: truncated model file ({size} bytes, no header length)")
    (header_len,) = struct.unpack("<Q", fh.read(8))
    if 8 + header_len > size:
        raise ModelFileError(f"{path}: truncated model header (needs {header_len} bytes)")
    try:
        header = json.loads(fh.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFileError(f"{path}: unreadable model header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != MODEL_FORMAT:
        raise ModelFileError(f"{path}: not a {MODEL_FORMAT} file")
    try:
        entries = _net_entries(header)
        normalizer = Normalizer.from_dict(header["normalizer"]) if header["normalizer"] else None
        meta = header["meta"]
        if not isinstance(meta, dict):
            raise TypeError(f"meta is a {type(meta).__name__}, not an object")
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFileError(f"{path}: malformed model header ({type(exc).__name__}: {exc})") from exc
    blob_len, listed = size - 8 - header_len, 8 * sum(_n_params((sizes,)) for _, sizes, _ in entries)
    if blob_len != listed:
        raise ModelFileError(f"{path}: parameter blob holds {blob_len} bytes, the header lists {listed}")
    return ModelFile(nets={}, normalizer=normalizer, meta=meta, path=str(path)), entries


def load_header(path) -> ModelFile:
    """A model file's header, checked as `load_model` checks it, with no
    parameters read (`nets` is empty)."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)[0]


def load_model(path, banks: Optional[Callable[[ModelFile], dict]] = None) -> ModelFile:
    """Read a model file, one network at a time through one float64 buffer
    the size of the largest network, each cast layer by layer straight into
    the parameters that serve it.  `banks`, given the file with its header
    read, returns {tuple of net names: their heads' output shapes}: each
    tuple's nets are read into the heads of one Mlp, and every other net
    into a one-head Mlp of its own.  ModelFileError when the file is truncated, padded, malformed,
    of another format or holds non-finite parameters, or when a net that
    `banks` names is missing or does not fit its bank."""
    with open(path, "rb") as fh:
        mf, entries = _read_header(fh, path)
        listed, heads = {name: (sizes, dtype) for name, sizes, dtype in entries}, {}
        for names, shapes in (banks(mf) if banks is not None else {}).items():
            missing = [name for name in names if name not in listed]
            if missing:
                raise ModelFileError(f"{path}: no net {', '.join(map(repr, missing))} for the bank of {names}")
            sizes = [listed[name][0] for name in names]
            dtype = np.result_type(*(listed[name][1] for name in names))
            try:
                mf.banks[names] = Mlp(sizes, shapes, _aligned_zeros(_n_params(sizes), dtype))
            except ValueError as exc:
                raise ModelFileError(f"{path}: nets {names}: {exc}") from exc
            heads.update(zip(names, mf.banks[names].heads))
        for name, sizes, dtype in entries:
            if name not in heads:
                heads[name] = Mlp((sizes,), ((sizes[-1],),), _aligned_zeros(_n_params((sizes,)), dtype))
            mf.nets[name] = heads[name]
        buffer = np.empty(max((net.n_params for net in mf.nets.values()), default=0), dtype="<f8")
        for name, net in mf.nets.items():
            if fh.readinto(buffer[: net.n_params]) != 8 * net.n_params:
                raise ModelFileError(f"{path}: model file shrank while it was read")
            offset = 0
            for p in _params(net):
                p[...] = buffer[offset : offset + p.size].reshape(p.shape)
                offset += p.size
                if not _all_finite(p):
                    raise ModelFileError(f"{path}: net {name!r}: network parameters must be finite")
    return mf
