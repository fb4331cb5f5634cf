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
import json
import math
import os
import struct
from pathlib import Path
from typing import Optional, Sequence

import numpy as np


class NonFiniteGradientError(RuntimeError):
    """Raised when an optimizer step receives NaN or infinite gradients."""


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
    weights, biases, offset = [], [], 0
    for a, b in _layers(layer_sizes):
        weights.append(flat[offset : offset + a * b].reshape(a, b))
        offset += a * b
        biases.append(flat[offset : offset + b])
        offset += b
    return weights, biases


def _init_params(layer_sizes, rng: np.random.Generator, dtype=np.float64) -> np.ndarray:
    """A flat parameter vector for `layer_sizes`: weights uniform in
    +-1/sqrt(fan_in), drawn layer by layer (head by head for a bank), biases zero."""
    flat = np.zeros(_n_params(layer_sizes), dtype=dtype)
    for W in _views(flat, layer_sizes)[0]:
        bound = 1.0 / np.sqrt(W.shape[0])
        W[...] = rng.uniform(-bound, bound, size=W.shape).astype(dtype)
    return flat


class Grads:
    """Per-parameter gradients for one Mlp or HeadBank, backed by a flat vector."""

    def __init__(self, layer_sizes: Sequence, dtype, flat: Optional[np.ndarray] = None):
        self.flat = np.empty(_n_params(layer_sizes), dtype=dtype) if flat is None else flat
        self.weights, self.biases = _views(self.flat, layer_sizes)


class Mlp:
    """Fully-connected network: ReLU hidden activations, identity output.

    The ReLU subgradient at exactly 0 is taken to be 0.
    """

    def __init__(self, layer_sizes: Sequence[int], flat: np.ndarray):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output layer sizes")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.flat_params, self.dtype, self.n_params = flat, flat.dtype, flat.size
        self.weights, self.biases = _views(flat, self.layer_sizes)
        if not np.all(np.isfinite(flat)):
            raise ValueError("network parameters must be finite")

    @classmethod
    def create(cls, layer_sizes: Sequence[int], rng: np.random.Generator, dtype=np.float64) -> "Mlp":
        """Initialize weights uniform in +-1/sqrt(fan_in), biases zero."""
        return cls(layer_sizes, _init_params(layer_sizes, rng, dtype))

    def copy(self) -> "Mlp":
        return Mlp(self.layer_sizes, self.flat_params.copy())

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the network on a single input vector or a batch."""
        x = np.asarray(x, dtype=self.dtype)
        single = x.ndim == 1
        a = x.reshape(1, -1) if single else x
        if a.shape[1] != self.layer_sizes[0]:
            raise ValueError(
                f"input has {a.shape[1]} features, network expects {self.layer_sizes[0]}"
            )
        last = len(self.weights) - 1
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ W + b
            if i < last:
                np.maximum(a, 0.0, out=a)
        return a[0] if single else a

    def forward_cached(self, x: np.ndarray):
        """Batch forward pass returning (output, activations) for backward."""
        a = np.asarray(x, dtype=self.dtype)
        acts = [a]
        last = len(self.weights) - 1
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ W + b
            if i < last:
                np.maximum(a, 0.0, out=a)
            acts.append(a)
        return acts[-1], acts

    def backward_cached(self, acts: list, grad_out: np.ndarray, need_input_grad: bool = True) -> tuple:
        """Backpropagate `grad_out` through cached activations.

        Returns (Grads, input gradient).  Gradients are exact partial
        derivatives of the forward output contracted with `grad_out`.
        With `need_input_grad=False` the returned input gradient is None
        (skips one matmul; training updates never use it).
        """
        grads = Grads(self.layer_sizes, self.dtype)
        g = np.asarray(grad_out, dtype=self.dtype)
        for i in range(len(self.weights) - 1, -1, -1):
            np.matmul(acts[i].T, g, out=grads.weights[i])
            g.sum(axis=0, out=grads.biases[i])
            if i == 0 and not need_input_grad:
                return grads, None
            g = g @ self.weights[i].T
            if i > 0:
                g *= acts[i] > 0
        return grads, g

    def backward(self, x: np.ndarray, grad_out: np.ndarray) -> tuple:
        """Forward + backward for a single input vector or a batch."""
        x = np.asarray(x, dtype=self.dtype)
        g = np.asarray(grad_out, dtype=self.dtype)
        single = x.ndim == 1
        if single:
            x = x.reshape(1, -1)
            g = g.reshape(1, -1)
        _, acts = self.forward_cached(x)
        grads, gin = self.backward_cached(acts, g)
        return grads, (gin[0] if single else gin)


class HeadBank:
    """Mlp heads on one input whose parameters are consecutive slices of one
    flat vector, so one Adam step or one soft update covers every head.

    `shapes` gives each head's output shape (`()` for a scalar); a head's
    output size is the product of its shape.
    """

    def __init__(self, layer_sizes: Sequence[Sequence[int]], shapes, flat: np.ndarray):
        self.shapes = tuple(tuple(int(n) for n in shape) for shape in shapes)
        self.flat_params, self.dtype, self.n_params = flat, flat.dtype, flat.size
        self.heads = []
        offset = 0
        for sizes, shape in zip(layer_sizes, self.shapes, strict=True):
            if sizes[-1] != math.prod(shape):
                raise ValueError(f"a head of {sizes[-1]} outputs cannot take the shape {shape}")
            n = _n_params(sizes)
            self.heads.append(Mlp(sizes, flat[offset : offset + n]))
            offset += n
        self.layer_sizes = tuple(head.layer_sizes for head in self.heads)

    @classmethod
    def create(cls, in_dim: int, hidden: Sequence[int], shapes, rng: np.random.Generator,
               dtype=np.float64) -> "HeadBank":
        """Heads of `in_dim` inputs and `hidden` layers, initialized head by
        head as `Mlp.create` would initialize each of them."""
        sizes = [(in_dim, *hidden, math.prod(shape)) for shape in shapes]
        return cls(sizes, shapes, _init_params(sizes, rng, dtype))

    @classmethod
    def of(cls, nets: Sequence[Mlp], shapes) -> "HeadBank":
        """A bank holding a copy of each net's parameters."""
        return cls([net.layer_sizes for net in nets], shapes, np.concatenate([net.flat_params for net in nets]))

    def copy(self) -> "HeadBank":
        return HeadBank(self.layer_sizes, self.shapes, self.flat_params.copy())

    def forward(self, x: np.ndarray) -> list:
        """Every head's output in float64, shaped by its head's shape, at one
        input vector or behind a leading batch axis for a batch."""
        lead = np.shape(x)[:-1]
        return [
            head.forward(x).astype(np.float64).reshape(lead + shape)
            for head, shape in zip(self.heads, self.shapes)
        ]

    def forward_cached(self, x: np.ndarray):
        """Batch forward in the bank's dtype: (outputs shaped per head, caches
        for `backward_cached`)."""
        outs, caches = zip(*(head.forward_cached(x) for head in self.heads))
        return [out.reshape((len(out),) + shape) for out, shape in zip(outs, self.shapes)], caches

    def backward_cached(self, caches: list, grad_outs) -> Grads:
        """Parameter gradients of every head in one flat vector, given each
        head's output gradient (batch first, shaped like its output)."""
        flat = np.concatenate([
            head.backward_cached(acts, g.reshape(len(g), -1), need_input_grad=False)[0].flat
            for head, acts, g in zip(self.heads, caches, grad_outs)
        ])
        return Grads(self.layer_sizes, self.dtype, flat)


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
        self.m = np.zeros(net.n_params, dtype=net.dtype)
        self.v = np.zeros(net.n_params, dtype=net.dtype)
        self._buf = np.empty(net.n_params, dtype=net.dtype)
        self._buf2 = np.empty(net.n_params, dtype=net.dtype)

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
        buf, buf2 = self._buf, self._buf2
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
        np.sqrt(self.v, out=buf2)
        buf2 += self.eps * s2
        np.divide(self.m, buf2, out=buf)
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
# ---------------------------------------------------------------------------

MODEL_FORMAT = "llql-model-v1"


@dataclasses.dataclass
class ModelFile:
    nets: dict
    normalizer: Optional[Normalizer]
    meta: dict


class ModelFileError(ValueError):
    """Raised when a model file is truncated, malformed or of another format."""


def write_atomic(path, *chunks: bytes) -> None:
    """Write `chunks` to a temporary file beside `path`, then rename it into
    place, so a reader never sees a partly written file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
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
    blob = np.concatenate([net.flat_params.astype(np.float64) for net in nets.values()])
    write_atomic(path, struct.pack("<Q", len(header_bytes)), header_bytes, blob.astype("<f8").tobytes())


def load_model(path) -> ModelFile:
    with open(path, "rb") as fh:
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
        data = fh.read()
    counts = [_n_params(entry["layer_sizes"]) for entry in header["nets"]]
    if len(data) != 8 * sum(counts):
        raise ModelFileError(
            f"{path}: parameter blob holds {len(data)} bytes, the header lists {8 * sum(counts)}"
        )
    blob = np.frombuffer(data, dtype="<f8")
    nets = {}
    offset = 0
    for entry, n in zip(header["nets"], counts):
        flat = blob[offset : offset + n].astype(entry["dtype"])
        offset += n
        nets[entry["name"]] = Mlp(entry["layer_sizes"], flat)
    normalizer = Normalizer.from_dict(header["normalizer"]) if header["normalizer"] else None
    return ModelFile(nets=nets, normalizer=normalizer, meta=header["meta"])
