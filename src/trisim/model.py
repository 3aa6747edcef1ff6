"""Hypothesis classes: a linear scorer and a one-hidden-layer relu scorer,
with exact analytic gradients, sign accuracy, a decoupled-weight-decay Adam
optimizer, and JSON-friendly serialization.

Parameters live in plain dicts of numpy arrays so the optimizer is shared
between architectures. pack_params can re-home them as views of one flat
vector, which Adam then updates as a single array.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import InvalidInputError, LabeledPool, ShapeError


@dataclass
class LinearModel:
    weights: np.ndarray  # (d,)
    bias: np.ndarray  # (1,)

    kind = "linear"

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        return {"weights": self.weights, "bias": self.bias}


@dataclass
class MlpModel:
    w1: np.ndarray  # (h, d)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (h,)
    b2: np.ndarray  # (1,)

    kind = "mlp"

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


def pack_params(model: Model) -> np.ndarray:
    """Move the model's parameters into one flat vector, in params() order,
    leave each parameter attribute a view of it, and return the vector.
    Updating the vector in place updates the model."""
    params = model.params()
    flat = np.concatenate(tuple(params.values()), axis=None)
    offset = 0
    for key, p in params.items():
        setattr(model, key, flat[offset : offset + p.size].reshape(p.shape))
        offset += p.size
    return flat


def _as_batch(model: Model, x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != model.dim:
        raise ShapeError(
            f"input shape {arr.shape} is not an (n, {model.dim}) batch"
        )
    return arr


def forward(model: Model, x) -> np.ndarray:
    """Scores of an (n, d) batch, as an (n,) array."""
    arr = _as_batch(model, x)
    if isinstance(model, LinearModel):
        return arr @ model.weights + model.bias[0]
    h = np.maximum(arr @ model.w1.T + model.b1, 0.0)
    return h @ model.w2 + model.b2[0]


def accuracy(model: Model, pool: LabeledPool) -> float:
    """Fraction of points whose score sign matches the label; sign(0)
    counts as +1."""
    if len(pool) == 0:
        raise InvalidInputError("test set is empty")
    scores = forward(model, pool.x)
    return float(np.mean(np.where(scores >= 0, 1, -1) == pool.y))


def backward(model: Model, x, upstream) -> dict[str, np.ndarray]:
    """Exact gradients of sum_i upstream_i * f(x_i) with respect to every
    parameter, for an (n, d) batch and an (n,) upstream. The relu
    subgradient at 0 is 0."""
    arr = _as_batch(model, x)
    up = np.asarray(upstream, dtype=float)
    if up.shape != (arr.shape[0],):
        raise ShapeError(f"upstream shape {up.shape} does not match batch {arr.shape[0]}")
    if not np.isfinite(up).all():
        raise InvalidInputError("upstream must be finite")
    if isinstance(model, LinearModel):
        return {"weights": up @ arr, "bias": np.array([up.sum()])}
    pre = arr @ model.w1.T + model.b1
    h = np.maximum(pre, 0.0)
    act_mask = (pre > 0).astype(float)
    dh = np.outer(up, model.w2) * act_mask  # (n, h)
    return {
        "w1": dh.T @ arr,
        "b1": dh.sum(axis=0),
        "w2": up @ h,
        "b2": np.array([up.sum()]),
    }


@dataclass
class AdamState:
    """Adam with bias correction; weight decay is decoupled (applied as a
    multiplicative shrink before the Adam delta)."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray], **hyper) -> "AdamState":
        state = cls(**hyper)
        state.m = {k: np.zeros_like(p) for k, p in params.items()}
        state.v = {k: np.zeros_like(p) for k, p in params.items()}
        return state


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One in-place update of params; returns them with the advanced state."""
    state.step += 1
    t = state.step
    for key, p in params.items():
        g = grads[key]
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != param shape {p.shape} for {key!r}")
        if state.weight_decay:
            p *= 1.0 - state.lr * state.weight_decay
        m = state.m[key]
        v = state.v[key]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.epsilon)
    return params, state


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
