"""Training loop: per epoch, shuffle each pool, split the shuffled indices
into ratio-preserving joint mini-batches, and take one optimizer step per
batch; after the epoch, evaluate the full-pool risk once.

Ratio-preserving batching (every batch gets a near-proportional share of
both pools) keeps the two per-batch means well defined; a plain merged
shuffle could produce batches with an empty side, where a term of the
estimator has no value.

The weak trainer and the supervised oracle share the loop and differ only
in the per-batch upstream gradient and the per-epoch risk they plug in.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    ClassPrior,
    ConfigurationError,
    CorrectionKind,
    InsufficientDataError,
    LabeledPool,
    WeakDataset,
)
from .model import AdamState, Model, adam_step, backward, forward, init_model
from .model import accuracy as _accuracy
from .risk import (
    RiskValue,
    empirical_risk,
    empirical_risk_grad,
    matched_point_weights,
    square_loss,
)
from .sampler import disassemble


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters. The prior is the one GIVEN to training,
    which may deliberately differ from the data-generation prior when
    studying misspecification."""

    prior: ClassPrior
    correction: CorrectionKind = CorrectionKind.ABS
    estimator: str = "matched"
    epochs: int = 600
    batch_size: int = 2000
    lr: float = 1e-3
    weight_decay: float = 1e-5
    model_kind: str = "linear"
    hidden: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.estimator not in ("matched", "plain"):
            raise ConfigurationError(
                f"estimator must be 'matched' or 'plain', got {self.estimator!r}"
            )
        if self.epochs < 0:
            raise ConfigurationError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 2:
            raise ConfigurationError(f"batch_size must be >= 2, got {self.batch_size}")
        self.prior.require_non_degenerate()


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    raw_risk: float
    corrected_risk: float
    us_term: float
    u_term: float
    test_accuracy: float | None = None


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)


def _batch_plan(n_us: int, n_u: int, batch_size: int) -> int:
    """Number of joint batches; errors out when the sizes cannot give every
    batch at least one point from each pool."""
    total = n_us + n_u
    n_batches = -(-total // batch_size)
    if batch_size > n_us or batch_size > n_u:
        raise ConfigurationError(
            f"batch_size {batch_size} exceeds a pool size "
            f"(pointwise similarity pool {n_us}, unlabeled pool {n_u}); "
            "reduce --batch or supply more data"
        )
    if n_batches > min(n_us, n_u):
        raise ConfigurationError(
            f"{n_batches} batches cannot each contain a point from both pools "
            f"(sizes {n_us} and {n_u}); increase --batch"
        )
    return n_batches


def _fit(config, model, pool_sizes, n_batches, batch_upstream, epoch_risk, eval_set):
    """Shared loop. Each epoch draws one permutation per pool, in pool
    order, and splits each into n_batches index arrays. Per batch,
    batch_upstream(model, *indices) returns the batch's rows and the
    gradient of the batch objective with respect to their scores; one
    backward pass and one Adam step follow. After the epoch's last step,
    epoch_risk(model) gives the full-pool risk for the log."""
    _, ss_shuffle = np.random.SeedSequence(config.seed).spawn(2)
    rng = np.random.default_rng(ss_shuffle)
    state = AdamState.for_params(
        model.params(), lr=config.lr, weight_decay=config.weight_decay
    )
    log = TrainLog()
    for epoch in range(1, config.epochs + 1):
        splits = [np.array_split(rng.permutation(n), n_batches) for n in pool_sizes]
        for indices in zip(*splits):
            x, upstream = batch_upstream(model, *indices)
            adam_step(model.params(), backward(model, x, upstream), state)
        rv = epoch_risk(model)
        acc = _accuracy(model, eval_set) if eval_set is not None else None
        log.records.append(
            EpochRecord(
                epoch=epoch,
                raw_risk=rv.raw,
                corrected_risk=rv.corrected,
                us_term=rv.us_term,
                u_term=rv.u_term,
                test_accuracy=acc,
            )
        )
    return model, log


def train(
    config: TrainConfig,
    data: WeakDataset,
    eval_set: LabeledPool | None = None,
) -> tuple[Model, TrainLog]:
    """Minimize the corrected weak-supervision risk; returns the final model
    and one log record per epoch. epochs = 0 returns the initialized model
    untouched.

    With estimator = "matched" (default) the similarity term uses the
    position-dependent weights of matched_point_weights, whose expectation
    equals the unnormalized similarity integral of the risk reconstruction;
    "plain" uses the uniform sample mean, whose calibration deficit makes
    the minimizer degenerate (see trisim.verify's bias suite).
    """
    if data.n_triplets < 1 or data.n_unlabeled < 1:
        raise InsufficientDataError(
            "training needs at least one triplet and one unlabeled point"
        )
    us_pool = disassemble(data.triplets)
    u_pool = data.unlabeled
    if config.estimator == "matched":
        us_weights, u_plus_coef = matched_point_weights(
            config.prior, data.sampler_kind, data.n_triplets
        )
    else:
        us_weights, u_plus_coef = None, 0.0
    model = init_model(config.model_kind, us_pool.shape[1], config.hidden, seed=config.seed)
    if config.epochs == 0:
        return model, TrainLog()
    n_batches = _batch_plan(us_pool.shape[0], u_pool.shape[0], config.batch_size)

    def batch_upstream(model, us_idx, u_idx):
        us_batch, u_batch = us_pool[us_idx], u_pool[u_idx]
        g_us, g_u = empirical_risk_grad(
            forward(model, us_batch),
            forward(model, u_batch),
            config.prior,
            config.correction,
            us_weights=None if us_weights is None else us_weights[us_idx],
            u_plus_coef=u_plus_coef,
        )
        return np.concatenate([us_batch, u_batch]), np.concatenate([g_us, g_u])

    def epoch_risk(model):
        return empirical_risk(
            forward(model, us_pool),
            forward(model, u_pool),
            config.prior,
            config.correction,
            us_weights=us_weights,
            u_plus_coef=u_plus_coef,
        )

    return _fit(
        config, model, (us_pool.shape[0], u_pool.shape[0]), n_batches,
        batch_upstream, epoch_risk, eval_set,
    )


def train_supervised_oracle(
    config: TrainConfig,
    labeled: LabeledPool,
    eval_set: LabeledPool | None = None,
) -> tuple[Model, TrainLog]:
    """The same loop minimizing the plain supervised empirical risk; the
    upper-reference model for acceptance comparisons."""
    if len(labeled) < 1:
        raise InsufficientDataError("supervised training needs a non-empty pool")
    model = init_model(
        config.model_kind, labeled.x.shape[1], config.hidden, seed=config.seed
    )
    if config.epochs == 0:
        return model, TrainLog()
    n = len(labeled)
    if config.batch_size > n:
        raise ConfigurationError(
            f"batch_size {config.batch_size} exceeds pool size {n}"
        )

    def batch_upstream(model, idx):
        x = labeled.x[idx]
        _, dloss = square_loss(forward(model, x), labeled.y[idx])
        return x, dloss / idx.size

    def epoch_risk(model):
        loss, _ = square_loss(forward(model, labeled.x), labeled.y)
        risk = float(np.mean(loss))
        return RiskValue(us_term=risk, u_term=0.0, raw=risk, corrected=risk)

    return _fit(
        config, model, (n,), -(-n // config.batch_size), batch_upstream, epoch_risk, eval_set
    )
