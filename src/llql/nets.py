"""Dense feed-forward network engine.

Hand-rolled MLPs (ReLU hidden layers, identity output) with exact
backpropagation, an adaptive-moment optimizer with a two-phase learning
rate schedule, soft target updates, state normalization, and a binary
model-file format.  Parameters live in one flat vector per network, or
per bank of heads that share an input; weights and biases are reshaped
views into it, which keeps optimizer and target-update passes to a
handful of vectorized operations.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import os
import struct
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np


class NonFiniteGradientError(RuntimeError):
    """Raised when an optimizer step receives NaN or infinite gradients."""


# numpy's allocator aligns data to 16 bytes only, so a vector's offset within
# a cache line would follow from whatever the heap held before; a bank's GEMV
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


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of `a` is finite; min and max propagate a NaN, so
    this needs no temporary array of `a`'s size."""
    return bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def _layers(layer_sizes) -> list:
    """(fan_in, fan_out) of every layer of an Mlp, or of every head of a
    HeadBank in order when `layer_sizes` holds one tuple per head."""
    if len(layer_sizes) and isinstance(layer_sizes[0], (tuple, list)):
        return [pair for sizes in layer_sizes for pair in _layers(sizes)]
    return list(zip(layer_sizes[:-1], layer_sizes[1:]))


def _n_params(layer_sizes) -> int:
    """Parameter count of an Mlp's (or a HeadBank's) `layer_sizes`."""
    return sum((a + 1) * b for a, b in _layers(layer_sizes))


def _views(flat: np.ndarray, layer_sizes):
    """Weight and bias views into `flat`, layer by layer for an Mlp.  For a
    HeadBank (one tuple of sizes per head) the hidden layers come first, each
    as a (heads, fan_in, fan_out) weight block and a (heads, fan_out) bias
    block, then each head's output layer."""
    if len(layer_sizes) and isinstance(layer_sizes[0], (tuple, list)):
        heads = len(layer_sizes)
        shapes = [((heads, a, b), (heads, b)) for a, b in _layers(layer_sizes[0])[:-1]]
        shapes += [((a, b), (b,)) for sizes in layer_sizes for a, b in _layers(sizes)[-1:]]
    else:
        shapes = [((a, b), (b,)) for a, b in _layers(layer_sizes)]
    views, offset = [], 0
    for shape in (shape for pair in shapes for shape in pair):
        n = math.prod(shape)
        views.append(flat[offset : offset + n].reshape(shape))
        offset += n
    return views[0::2], views[1::2]


def _params(net) -> list:
    """An Mlp's weight and bias views, layer by layer: the order of its
    `flat_params` and of its parameters in a model file."""
    return [p for pair in zip(net.weights, net.biases) for p in pair]


def _draw_weights(weights, rng: np.random.Generator) -> None:
    """Weights uniform in +-1/sqrt(fan_in), drawn layer by layer."""
    for W in weights:
        bound = 1.0 / np.sqrt(W.shape[0])
        W[...] = rng.uniform(-bound, bound, size=W.shape).astype(W.dtype)


class Grads:
    """Per-parameter gradients for one Mlp or HeadBank, backed by a flat vector."""

    def __init__(self, layer_sizes: Sequence, dtype, flat: Optional[np.ndarray] = None):
        self.flat = _aligned_empty(_n_params(layer_sizes), dtype) if flat is None else flat
        self.weights, self.biases = _views(self.flat, layer_sizes)


class Mlp:
    """Fully-connected network: ReLU hidden activations, identity output.

    The ReLU subgradient at exactly 0 is taken to be 0.  An Mlp runs on a
    one-head HeadBank, whose layout for one head is the Mlp's own: over the
    net's flat vector, or for a bank's head over views of its slice of the
    bank's blocks.  So its caches and Grads are the bank's workspaces, valid
    until the net's next call.
    """

    def __init__(self, layer_sizes: Sequence[int], flat: np.ndarray):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output layer sizes")
        sizes = tuple(int(s) for s in layer_sizes)
        self._on(HeadBank((sizes,), ((sizes[-1],),), flat))

    def _on(self, bank: "HeadBank") -> "Mlp":
        """Run on the one-head `bank`; the layers are 2-D views of its blocks."""
        L = bank._n_hidden
        self._bank, self.layer_sizes = bank, bank.layer_sizes[0]
        self.dtype, self.n_params, self._grads = bank.dtype, bank.n_params, None
        self.weights = [W[0] for W in bank.weights[:L]] + bank.weights[L:]
        self.biases = [b[0] for b in bank.biases[:L]] + bank.biases[L:]
        return self

    @classmethod
    def _head(cls, bank: "HeadBank", k: int) -> "Mlp":
        """Head k of `bank`, on views of its slice of the bank's blocks."""
        L, sizes = bank._n_hidden, bank.layer_sizes[k]
        views = ([W[k : k + 1] for W in bank.weights[:L]] + [bank.weights[L + k]],
                 [b[k : k + 1] for b in bank.biases[:L]] + [bank.biases[L + k]])
        return cls.__new__(cls)._on(HeadBank((sizes,), ((sizes[-1],),), None, views))

    @property
    def flat_params(self) -> np.ndarray:
        """The parameters as one vector, layer by layer (weight matrix, then
        bias).  A head of a HeadBank has no vector of its own, so for a head
        this is a read-only copy."""
        if self._bank.flat_params is not None:
            return self._bank.flat_params
        flat = np.concatenate([p.reshape(-1) for p in _params(self)])
        flat.flags.writeable = False
        return flat

    @classmethod
    def create(cls, layer_sizes: Sequence[int], rng: np.random.Generator, dtype=np.float64) -> "Mlp":
        """Initialize weights uniform in +-1/sqrt(fan_in), biases zero."""
        net = cls(layer_sizes, _aligned_zeros(_n_params(layer_sizes), dtype))
        _draw_weights(net.weights, rng)
        return net

    def copy(self) -> "Mlp":
        return Mlp(self.layer_sizes, _aligned_copy(self.flat_params))

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The output in float64 at a single input vector or for a batch."""
        return self._bank.forward(x)[0]

    def forward_cached(self, x: np.ndarray):
        """Batch forward in the net's dtype: (output, caches for `backward_cached`)."""
        (out,), caches = self._bank.forward_cached(x)
        return out, caches

    def backward_cached(self, caches: list, grad_out: np.ndarray) -> Grads:
        """The parameter gradients of `grad_out` through the cached pass;
        see `HeadBank.backward_cached`."""
        grads = self._bank.backward_cached(caches, (grad_out,))
        if self._grads is None:
            self._grads = Grads(self.layer_sizes, self.dtype, grads.flat)
        return self._grads

    def input_gradient(self, caches: list, grad_out: np.ndarray) -> np.ndarray:
        """The input gradient of `grad_out` through the cached pass, without
        the parameter gradients; see `HeadBank.input_gradient`."""
        return self._bank.input_gradient(caches, (grad_out,))


class HeadBank:
    """Mlp heads on one input, with equal hidden layers, whose parameters
    share one flat vector, so one Adam step or one soft update covers every
    head.

    Each hidden layer of all heads is one (heads, fan_in, fan_out) weight
    block and one (heads, fan_out) bias block, which one stacked matmul
    evaluates for every head; each head keeps its own output layer.  Every
    slice of a stacked matmul is the GEMM a head alone would run, so the
    bank's results equal its heads' own bit for bit.  `heads` are Mlp views
    into the blocks.  `shapes` gives each head's output shape (`()` for a
    scalar); a head's output size is the product of its shape.  A head's
    own one-head bank has no flat vector: it is given `views`, the
    (weights, biases) of its slice of its parent's blocks.

    Hidden activations, backward deltas and the gradient vector live in
    workspaces that the bank keeps across calls and grows to the largest
    batch it has seen.  So the caches of `forward_cached` and the Grads of
    `backward_cached` stay valid until the bank's next call, and a bank
    must not be called from two threads at once.
    """

    def __init__(self, layer_sizes: Sequence[Sequence[int]], shapes, flat: Optional[np.ndarray],
                 views: Optional[tuple] = None):
        self.shapes = tuple(tuple(int(n) for n in shape) for shape in shapes)
        self.layer_sizes = tuple(tuple(int(n) for n in sizes) for sizes in layer_sizes)
        if len(self.layer_sizes) != len(self.shapes):
            raise ValueError(f"{len(self.layer_sizes)} heads but {len(self.shapes)} output shapes")
        if any(sizes[:-1] != self.layer_sizes[0][:-1] for sizes in self.layer_sizes):
            raise ValueError(f"the heads of a bank need equal input and hidden sizes, not {self.layer_sizes}")
        for sizes, shape in zip(self.layer_sizes, self.shapes):
            if sizes[-1] != math.prod(shape):
                raise ValueError(f"a head of {sizes[-1]} outputs cannot take the shape {shape}")
        if flat is not None and not _all_finite(flat):
            raise ValueError("network parameters must be finite")
        self.flat_params, self.n_params = flat, _n_params(self.layer_sizes)
        self.weights, self.biases = _views(flat, self.layer_sizes) if views is None else views
        self.dtype = self.weights[0].dtype
        self._n_hidden = len(self.layer_sizes[0]) - 2
        self._work, self._batch_views, self._grads = {}, {}, None

    @functools.cached_property
    def heads(self) -> list:
        return [Mlp._head(self, k) for k in range(len(self.shapes))]

    @classmethod
    def create(cls, in_dim: int, hidden: Sequence[int], shapes, rng: np.random.Generator,
               dtype=np.float64) -> "HeadBank":
        """Heads of `in_dim` inputs and `hidden` layers, initialized head by
        head as `Mlp.create` would initialize each of them."""
        sizes = [(in_dim, *hidden, math.prod(shape)) for shape in shapes]
        bank = cls(sizes, shapes, _aligned_zeros(_n_params(sizes), dtype))
        for head in bank.heads:
            _draw_weights(head.weights, rng)
        return bank

    def copy(self) -> "HeadBank":
        return HeadBank(self.layer_sizes, self.shapes, _aligned_copy(self.flat_params))

    def _workspace(self, kind: str, rows: tuple) -> list:
        """Views for inputs of leading shape `rows` (a batch of n as (n,),
        R independent batches of n as (R, n)) into the bank's `kind`
        workspace, a vector kept across calls that grows to the largest
        input seen; the views of each shape are kept too.  "forward": each
        hidden layer's (heads, *rows, width) activations, each head's
        (*rows, outputs) output, then every output as one vector.
        "backward": each hidden layer's delta and ReLU mask."""
        views = self._batch_views.get((kind, rows))
        if views is None:
            heads, L = len(self.heads), self._n_hidden
            hidden = [(heads, *rows, W.shape[-1]) for W in self.weights[:L]]
            if kind == "forward":
                shapes = hidden + [(*rows, W.shape[1]) for W in self.weights[L:]]
            else:
                shapes = [shape for shape in hidden for _ in ("delta", "mask")]
            bounds = list(itertools.accumulate((math.prod(shape) for shape in shapes), initial=0))
            buf = self._work.get(kind)
            if buf is None or buf.size < bounds[-1]:
                buf = self._work[kind] = _aligned_empty(bounds[-1], self.dtype)
                self._batch_views = {key: v for key, v in self._batch_views.items() if key[0] != kind}
            views = [buf[a:b].reshape(shape) for a, b, shape in zip(bounds, bounds[1:], shapes)]
            if kind == "forward":
                views.append(buf[bounds[L] : bounds[-1]])
            self._batch_views[kind, rows] = views
        return views

    def _run(self, x: np.ndarray) -> list:
        """Forward pass of every head on `x` in the bank's dtype, into the
        forward workspace; returns its views.  `x` is a batch (n, in), or
        independent batches (R, n, in) behind a leading axis: each of those
        is one slice of every stacked matmul, so one-row batches (R, 1, in)
        run the GEMV a lone input runs and give its bits, where one batch
        of R rows runs a GEMM, whose rows can differ in the last bits."""
        if x.shape[-1] != self.layer_sizes[0][0]:
            raise ValueError(
                f"input has {x.shape[-1]} features, network expects {self.layer_sizes[0][0]}"
            )
        L = self._n_hidden
        views = self._workspace("forward", x.shape[:-1])
        lead = (slice(None),) + (None,) * (x.ndim - 2)  # the head axis, then the leading axes
        a = x
        for W, b, out in zip(self.weights[:L], self.biases[:L], views):
            np.matmul(a, W[lead], out=out)
            out += b[lead + (None,)]
            np.maximum(out, 0.0, out=out)
            a = out
        for k, (W, b, out) in enumerate(zip(self.weights[L:], self.biases[L:], views[L:])):
            np.matmul(a[k] if L else x, W, out=out)
            out += b
        return views

    def forward(self, x: np.ndarray) -> list:
        """Every head's output in float64, shaped by its head's shape, at one
        input vector, or behind the leading axes of a batch (n, in) or of
        independent batches (R, n, in); see `_run`."""
        x = np.asarray(x, dtype=self.dtype)
        batch = x.reshape(1, -1) if x.ndim == 1 else x
        flat = self._run(batch)[-1].astype(np.float64)
        rows = math.prod(batch.shape[:-1])
        outs, offset = [], 0
        for sizes, shape in zip(self.layer_sizes, self.shapes):
            end = offset + rows * sizes[-1]
            outs.append(flat[offset:end].reshape(x.shape[:-1] + shape))
            offset = end
        return outs

    def forward_cached(self, x: np.ndarray):
        """Batch forward in the bank's dtype: (outputs shaped per head, caches
        for `backward_cached`), both valid until the bank's next call."""
        x = np.asarray(x, dtype=self.dtype)
        views = self._run(x)
        L = self._n_hidden
        outs = [out.reshape((len(x),) + shape) for out, shape in zip(views[L:], self.shapes)]
        return outs, [x, *views[:L]]

    def backward_cached(self, caches: list, grad_outs) -> Grads:
        """Every head's parameter gradients in one flat vector, given each
        head's output gradient (batch first, shaped like its output).  The
        Grads are the bank's workspace, valid until its next call."""
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
        work = self._workspace("backward", (len(acts[0]),))
        for k, g in enumerate(grad_outs):
            g = np.asarray(g, dtype=self.dtype).reshape(len(g), -1)
            a = acts[L][k] if L else acts[0]
            if grads is not None:
                np.matmul(a.T, g, out=grads.weights[L + k])
                g.sum(axis=0, out=grads.biases[L + k])
            if L:
                np.matmul(g, self.weights[L + k].T, out=work[2 * L - 2][k])
            elif grads is None:
                gin = g @ self.weights[k].T if gin is None else gin + g @ self.weights[k].T
        for i in range(L - 1, -1, -1):
            delta, mask = work[2 * i], work[2 * i + 1]
            # ReLU subgradient: the sign of a unit's output (>= 0) is 1 where
            # it is positive, else 0; a mask in the bank's dtype, as a bool
            # one would be cast through a buffer on every call
            np.sign(acts[i + 1], out=mask)
            delta *= mask
            if grads is not None:
                np.matmul(acts[i].transpose(0, 2, 1) if i else acts[0].T, delta, out=grads.weights[i])
                delta.sum(axis=1, out=grads.biases[i])
            if i:
                np.matmul(delta, self.weights[i].transpose(0, 2, 1), out=work[2 * i - 2])
            elif grads is None:
                gin = np.matmul(delta, self.weights[0].transpose(0, 2, 1)).sum(axis=0)
        return gin


class Adam:
    """Adaptive-moment optimizer with an optional learning-rate switch.

    The learning rate is `lr` until the optimizer's own step counter
    reaches `switch_step`, then `lr_after`.
    """

    def __init__(
        self,
        net: Mlp | HeadBank,
        lr: float,
        *,
        lr_after: Optional[float] = None,
        switch_step: Optional[int] = None,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.lr = float(lr)
        self.lr_after = float(lr_after) if lr_after is not None else None
        self.switch_step = int(switch_step) if switch_step is not None else None
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = _aligned_zeros(net.n_params, net.dtype)
        self.v = _aligned_zeros(net.n_params, net.dtype)
        self._buf = _aligned_empty(net.n_params, net.dtype)

    @property
    def current_lr(self) -> float:
        if self.switch_step is not None and self.lr_after is not None and self.t >= self.switch_step:
            return self.lr_after
        return self.lr

    def step(self, net: Mlp | HeadBank, grads: Grads, context: str = "") -> None:
        g = grads.flat
        if not np.isfinite(g).all():
            raise NonFiniteGradientError(
                f"non-finite gradients{f' in {context}' if context else ''}; step rejected"
            )
        lr = self.current_lr
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        buf = self._buf
        # m <- b1*m + (1-b1)*g ; v <- b2*v + (1-b2)*g^2   (in place, no temps)
        np.subtract(g, self.m, out=buf)
        buf *= 1.0 - b1
        self.m += buf
        np.multiply(g, g, out=buf)
        buf -= self.v
        buf *= 1.0 - b2
        self.v += buf
        # bias-corrected update with the corrections folded into scalars:
        # lr * (m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps)
        #   = (lr*s2/(1-b1^t)) * m / (sqrt(v) + eps*s2),  s2 = sqrt(1-b2^t)
        s2 = np.sqrt(1.0 - b2**self.t)
        np.sqrt(self.v, out=buf)
        buf += self.eps * s2
        np.divide(self.m, buf, out=buf)
        buf *= lr * s2 / (1.0 - b1**self.t)
        net.flat_params[...] -= buf


def soft_update(target: Mlp | HeadBank, source: Mlp | HeadBank, tau: float) -> Mlp | HeadBank:
    """Blend target parameters toward source: t <- tau*s + (1-tau)*t."""
    if target.layer_sizes != source.layer_sizes:
        raise ValueError("soft_update requires identical architectures")
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    t = target.flat_params
    t *= 1.0 - tau
    t += tau * source.flat_params
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
# into the parameters that serve it: an Mlp of its own, or a head of the
# HeadBank that the loader's `banks` names it for.
# ---------------------------------------------------------------------------

MODEL_FORMAT = "llql-model-v1"


class ModelFileError(ValueError):
    """Raised when a model file is truncated, malformed, of another format,
    or holds another role or env than its use needs."""


@dataclasses.dataclass
class ModelFile:
    """A model file's header and parameters: `nets` maps each network's
    name to an Mlp, and `banks` maps the names of nets read into one
    HeadBank to that bank, whose heads those nets are."""

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
    reader never sees a partly written file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)  # drops each chunk before it takes the next
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_model(path, nets: dict, normalizer: Optional[Normalizer] = None, meta: Optional[dict] = None) -> None:
    header = {
        "format": MODEL_FORMAT,
        "nets": [
            {"name": name, "layer_sizes": list(net.layer_sizes), "dtype": np.dtype(net.dtype).name}
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
    blob_len, listed = size - 8 - header_len, 8 * sum(_n_params(sizes) for _, sizes, _ in entries)
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
    tuple's nets are read into the heads of one HeadBank, and every other
    net into an Mlp of its own.  ModelFileError when the file is truncated, padded, malformed,
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
                mf.banks[names] = HeadBank(sizes, shapes, _aligned_zeros(_n_params(sizes), dtype))
            except ValueError as exc:
                raise ModelFileError(f"{path}: nets {names}: {exc}") from exc
            heads.update(zip(names, mf.banks[names].heads))
        for name, sizes, dtype in entries:
            mf.nets[name] = heads[name] if name in heads else Mlp(sizes, _aligned_zeros(_n_params(sizes), dtype))
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
