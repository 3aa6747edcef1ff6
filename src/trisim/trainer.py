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
    TrainingDivergedError,
    WeakDataset,
)
from .model import AdamState, Model, adam_step, backward, forward, init_model
from .model import accuracy as _accuracy
from .risk import (
    ESTIMATORS,
    RiskValue,
    empirical_risk,
    empirical_risk_grad,
    slot_weights,
    square_loss,
)
from .sampler import disassemble

# A run whose risk or any parameter exceeds this magnitude after an epoch has
# diverged. Converging runs stay many orders of magnitude below it, and a
# score this large can still be squared without overflowing a float.
DIVERGENCE_LIMIT = 1e100


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
        if self.estimator not in ESTIMATORS:
            raise ConfigurationError(
                f"estimator must be one of {', '.join(ESTIMATORS)}, got {self.estimator!r}"
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


def _batch_plan(pool_sizes: tuple[int, ...], batch_size: int) -> int:
    """Number of joint batches; errors out when the sizes cannot give every
    batch at least one point from each pool."""
    n_batches = -(-sum(pool_sizes) // batch_size)
    if batch_size > min(pool_sizes):
        raise ConfigurationError(
            f"batch_size {batch_size} exceeds a pool size "
            f"(pool sizes {', '.join(map(str, pool_sizes))}); reduce --batch or supply more data"
        )
    if n_batches > min(pool_sizes):
        raise ConfigurationError(
            f"{n_batches} batches cannot each contain a point from every pool "
            f"(pool sizes {', '.join(map(str, pool_sizes))}); increase --batch"
        )
    return n_batches


def _divergence(rv: RiskValue, model: Model) -> str | None:
    """Why the epoch's end state counts as diverged, or None."""
    if not abs(rv.raw) <= DIVERGENCE_LIMIT:
        return f"risk {rv.raw!r} exceeds {DIVERGENCE_LIMIT:g} in magnitude"
    for key, p in model.params().items():
        if not np.max(np.abs(p)) <= DIVERGENCE_LIMIT:
            return f"parameter {key!r} exceeds {DIVERGENCE_LIMIT:g} in magnitude"
    return None


def _fit(config, model, pool_sizes, n_batches, batch_upstream, epoch_risk, eval_set):
    """Shared loop. Each epoch draws one permutation per pool, in pool
    order, and splits each into n_batches index arrays. Per batch,
    batch_upstream(model, *indices) returns the batch's rows and the
    gradient of the batch objective with respect to their scores; one
    backward pass and one Adam step follow. After the epoch's last step,
    epoch_risk(model) gives the full-pool risk for the log.

    A floating-point overflow or invalid operation, or an epoch that ends
    past DIVERGENCE_LIMIT, stops the run with TrainingDivergedError naming
    the epoch."""
    _, ss_shuffle = np.random.SeedSequence(config.seed).spawn(2)
    rng = np.random.default_rng(ss_shuffle)
    state = AdamState.for_params(
        model.params(), lr=config.lr, weight_decay=config.weight_decay
    )
    log = TrainLog()
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for epoch in range(1, config.epochs + 1):
            try:
                splits = [np.array_split(rng.permutation(n), n_batches) for n in pool_sizes]
                for indices in zip(*splits):
                    x, upstream = batch_upstream(model, *indices)
                    adam_step(model.params(), backward(model, x, upstream), state)
                rv = epoch_risk(model)
                reason = _divergence(rv, model)
                acc = _accuracy(model, eval_set) if eval_set is not None and not reason else None
            except FloatingPointError as exc:
                reason = str(exc)
            if reason:
                raise TrainingDivergedError(f"training diverged at epoch {epoch}: {reason}")
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

    The estimator's slot_weights are tiled over the triplets. "matched"
    (default) gives position-dependent weights whose expectation equals the
    unnormalized similarity integral of the risk reconstruction; "plain"
    gives the uniform sample mean, whose calibration deficit makes the
    minimizer degenerate (see trisim.verify's bias suite).
    """
    if data.n_triplets < 1 or data.n_unlabeled < 1:
        raise InsufficientDataError(
            "training needs at least one triplet and one unlabeled point"
        )
    us_pool = disassemble(data.triplets)
    u_pool = data.unlabeled
    weights, u_plus_coef = slot_weights(config.prior, data.sampler_kind, config.estimator)
    us_weights = np.tile(weights, data.n_triplets)
    model = init_model(config.model_kind, us_pool.shape[1], config.hidden, seed=config.seed)
    if config.epochs == 0:
        return model, TrainLog()
    pool_sizes = (us_pool.shape[0], u_pool.shape[0])
    n_batches = _batch_plan(pool_sizes, config.batch_size)

    def batch_upstream(model, us_idx, u_idx):
        us_batch, u_batch = us_pool[us_idx], u_pool[u_idx]
        g_us, g_u = empirical_risk_grad(
            forward(model, us_batch),
            forward(model, u_batch),
            config.prior,
            config.correction,
            us_weights=us_weights[us_idx],
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

    return _fit(config, model, pool_sizes, n_batches, batch_upstream, epoch_risk, eval_set)


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
    pool_sizes = (len(labeled),)
    n_batches = _batch_plan(pool_sizes, config.batch_size)

    def batch_upstream(model, idx):
        x = labeled.x[idx]
        _, dloss = square_loss(forward(model, x), labeled.y[idx])
        return x, dloss / idx.size

    def epoch_risk(model):
        loss, _ = square_loss(forward(model, labeled.x), labeled.y)
        risk = float(np.mean(loss))
        return RiskValue(us_term=risk, u_term=0.0, raw=risk, corrected=risk)

    return _fit(config, model, pool_sizes, n_batches, batch_upstream, epoch_risk, eval_set)
