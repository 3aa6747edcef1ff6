"""Hypothesis classes: a linear scorer and a one-hidden-layer relu scorer,
with exact analytic gradients, sign accuracy, a decoupled-weight-decay Adam
optimizer, and JSON-friendly serialization.

A model is its parameter vector. Each model packs its parameters into one
float vector, model.theta, in params() order when it is built, and every
parameter attribute is a view of it. backward returns the gradient in that
layout and Adam updates theta as a single array, so both architectures
share one optimizer and nothing holds a second copy of the parameters.
The models are frozen: write into theta or a parameter view, never rebind.

backward reads the upstream's finiteness off its sum, the output bias's
gradient, and scans it only when that sum is not finite, to name the fault.
forward and backward are their shape checks plus a kernel (_forward,
_backward) that keeps that scan, and accuracy is its checks (_scored) plus
a kernel (_accuracy); the trainer, whose arrays and eval set are checked
once per run, calls the kernels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import InvalidInputError, LabeledPool, ShapeError

_BLOCK = 1 << 18  # most multiply-adds per BLAS call in _over_rows


def _pack(model) -> None:
    """Copy the model's parameters, in params() order, into one float
    vector, model.theta, and rebind each parameter to a view of it."""
    params = {k: np.asarray(p, dtype=float) for k, p in model.params().items()}
    theta = np.concatenate(tuple(params.values()), axis=None)
    object.__setattr__(model, "theta", theta)
    offset = 0
    for key, p in params.items():
        object.__setattr__(model, key, theta[offset : offset + p.size].reshape(p.shape))
        offset += p.size


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray  # (d,)
    bias: np.ndarray  # (1,)
    theta: np.ndarray = field(init=False, repr=False, compare=False)

    kind = "linear"
    __post_init__ = _pack

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        return {"weights": self.weights, "bias": self.bias}


@dataclass(frozen=True)
class MlpModel:
    w1: np.ndarray  # (h, d)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (h,)
    b2: np.ndarray  # (1,)
    theta: np.ndarray = field(init=False, repr=False, compare=False)

    kind = "mlp"
    __post_init__ = _pack

    @property
    def dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


Model = LinearModel | MlpModel


def init_model(kind: str, dim: int, hidden: int = 64, seed: int = 0) -> Model:
    """Uniform fan-in-scaled weights, zero biases, deterministic under seed."""
    if dim < 1:
        raise InvalidInputError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if kind == "linear":
        bound = 1.0 / np.sqrt(dim)
        return LinearModel(
            weights=rng.uniform(-bound, bound, size=dim),
            bias=np.zeros(1),
        )
    if kind == "mlp":
        if hidden < 1:
            raise InvalidInputError(f"hidden width must be >= 1, got {hidden}")
        b_in = 1.0 / np.sqrt(dim)
        b_hid = 1.0 / np.sqrt(hidden)
        return MlpModel(
            w1=rng.uniform(-b_in, b_in, size=(hidden, dim)),
            b1=np.zeros(hidden),
            w2=rng.uniform(-b_hid, b_hid, size=hidden),
            b2=np.zeros(1),
        )
    raise InvalidInputError(f"unknown model kind {kind!r}")


def _as_batch(model: Model, x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != model.dim:
        raise ShapeError(
            f"input shape {arr.shape} is not an (n, {model.dim}) batch"
        )
    return arr


def forward(model: Model, x) -> np.ndarray:
    """Scores of an (n, d) batch, as an (n,) array."""
    return _forward(model, _as_batch(model, x))


def _forward(model: Model, arr: np.ndarray) -> np.ndarray:
    """forward's kernel, for a float (n, model.dim) batch, unchecked."""
    if isinstance(model, LinearModel):
        return arr.dot(model.weights) + model.bias[0]
    h = np.maximum(arr @ model.w1.T + model.b1, 0.0)
    return h @ model.w2 + model.b2[0]


def accuracy(model: Model, pool: LabeledPool) -> float:
    """Fraction of points whose score sign matches the label; sign(0)
    counts as +1."""
    return _accuracy(model, *_scored(model, pool))


def _scored(model: Model, pool: LabeledPool) -> tuple[np.ndarray, np.ndarray]:
    """accuracy's checks: the pool's features as a batch for model, and its
    positive-label mask."""
    if len(pool) == 0:
        raise InvalidInputError("test set is empty")
    return _as_batch(model, pool.x), pool.y > 0


def _accuracy(model: Model, batch: np.ndarray, positive: np.ndarray) -> float:
    """accuracy's kernel, for _scored's batch and mask, unchecked."""
    return int(np.count_nonzero((_forward(model, batch) >= 0) == positive)) / positive.size


def _over_rows(a, b, out=None) -> np.ndarray:
    """a.T @ b for a (n,) or (n, k) and b (n, d), summed in order over row
    blocks of at most _BLOCK multiply-adds: OpenBLAS splits the sum of no
    call this small between threads, so the bits do not depend on how many.
    Written into out when given."""
    rows = max(1, _BLOCK // (math.prod(a.shape[1:]) * b.shape[1]))
    if a.shape[0] <= rows:
        return a.T.dot(b, out=out)
    total = a[:rows].T.dot(b[:rows], out=out)
    for i in range(rows, a.shape[0], rows):
        total += a[i : i + rows].T.dot(b[i : i + rows])
    return total


def backward(model: Model, x, upstream) -> np.ndarray:
    """Exact gradient of sum_i upstream_i * f(x_i) with respect to
    model.theta, in its layout, for an (n, d) batch and an (n,) upstream.
    The relu subgradient at 0 is 0."""
    arr = _as_batch(model, x)
    up = np.asarray(upstream, dtype=float)
    if up.shape != (arr.shape[0],):
        raise ShapeError(f"upstream shape {up.shape} does not match batch {arr.shape[0]}")
    return _backward(model, arr, up)


def _backward(model: Model, arr: np.ndarray, up: np.ndarray) -> np.ndarray:
    """backward's kernel, for a float (n, model.dim) batch and a float (n,)
    upstream, shapes unchecked; a non-finite upstream still raises."""
    grad = np.empty(model.theta.size)
    # the output bias's gradient, last in params() order
    total = np.add.reduce(up, keepdims=True, out=grad[-1:])
    if not math.isfinite(total[0]) and np.count_nonzero(np.isfinite(up)) < up.size:
        raise InvalidInputError("upstream must be finite")
    if isinstance(model, LinearModel):
        _over_rows(up, arr, out=grad[:-1])
        return grad
    pre = arr @ model.w1.T + model.b1
    h = np.maximum(pre, 0.0)
    act_mask = (pre > 0).astype(float)
    dh = np.outer(up, model.w2) * act_mask  # (n, h)
    # w1, b1, w2: params() order
    grads = (_over_rows(dh, arr), dh.sum(axis=0), _over_rows(up, h))
    np.concatenate(grads, axis=None, out=grad[:-1])
    return grad


# Adam's textbook moment decays and denominator offset
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam with bias correction; weight decay is decoupled (applied as a
    multiplicative shrink before the Adam delta). The moments of a theta of
    p parameters are one (2, p) array, whose rows m and v one call updates
    together."""

    moments: np.ndarray
    lr: float
    weight_decay: float
    step: int = 0

    def __post_init__(self):
        # each row's beta and 1 - beta, and the step's scratch and its rows,
        # so that a step makes same-shape calls on views built once
        decay = np.array([[BETA1], [BETA2]]) + np.zeros_like(self.moments)
        delta = np.empty_like(self.moments)
        self.m, self.v = self.moments
        # each row's bias correction 1 - beta**step, set per step
        self._scratch = (decay, 1.0 - decay, np.empty_like(delta), delta, *delta)

    @classmethod
    def for_theta(cls, theta: np.ndarray, lr: float, weight_decay: float) -> "AdamState":
        return cls(np.zeros((2, theta.size)), lr, weight_decay)


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One in-place update of theta and state, in the textbook order of operations."""
    if grad.shape != theta.shape:
        raise ShapeError(f"gradient shape {grad.shape} != theta shape {theta.shape}")
    state.step += 1
    theta *= 1.0 - state.lr * state.weight_decay
    decay, gain, bias, delta, m_hat, v_hat = state._scratch
    state.moments *= decay
    delta[...] = grad
    delta *= gain
    v_hat *= grad  # ((1 - b2) * g) * g
    state.moments += delta
    bias[0] = 1.0 - BETA1**state.step
    bias[1] = 1.0 - BETA2**state.step
    np.divide(state.moments, bias, delta)
    np.sqrt(v_hat, v_hat)
    v_hat += EPSILON
    m_hat *= state.lr
    m_hat /= v_hat
    theta -= m_hat


def serialize_model(model: Model, config_echo: dict | None = None) -> dict:
    """Structured-text document: kind, dimensions, flat row-major parameter
    arrays, plus an optional training-config echo for provenance."""
    doc: dict = {"kind": model.kind, "dim": model.dim}
    if isinstance(model, MlpModel):
        doc["hidden"] = model.hidden
        doc["activation"] = "relu"
    doc["params"] = {k: p.ravel().tolist() for k, p in model.params().items()}
    if config_echo is not None:
        doc["config"] = config_echo
    return doc


def deserialize_model(doc) -> Model:
    """Model from a serialize_model document. Anything but a JSON object
    whose kind, dim and hidden give a model, with every parameter present,
    finite and of the size that model needs, raises InvalidInputError."""
    if not isinstance(doc, dict):
        raise InvalidInputError("model document must be a JSON object")
    try:
        kind, dim, values = doc["kind"], doc["dim"], doc["params"]
        hidden = doc["hidden"] if kind == "mlp" else 1
    except KeyError as exc:
        raise InvalidInputError(f"missing key {exc}") from None
    if kind == "mlp" and doc.get("activation", "relu") != "relu":
        raise InvalidInputError(f"unsupported activation {doc['activation']!r}")
    if not isinstance(values, dict):
        raise InvalidInputError("'params' must be a JSON object")
    # the document cannot describe more weights than it holds, which also
    # bounds what init_model allocates
    n_values = sum(len(v) for v in values.values() if isinstance(v, list))
    if not (type(dim) is int and type(hidden) is int and dim * hidden <= n_values):
        raise InvalidInputError("'dim' and 'hidden' must be integers that fit the parameters")
    model = init_model(kind, dim, hidden)
    for key, p in model.params().items():
        if key not in values:
            raise InvalidInputError(f"missing parameter {key!r}")
        try:
            v = np.asarray(values[key], dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise InvalidInputError(f"parameter {key!r} is not a list of numbers") from None
        if v.size != p.size or not np.all(np.isfinite(v)):
            raise InvalidInputError(f"parameter {key!r} needs {p.size} finite numbers")
        p[...] = v.reshape(p.shape)
    return model
