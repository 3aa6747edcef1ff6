"""Training loop: per epoch, shuffle each pool, gather the shuffled rows
once into an epoch buffer laid out batch by batch, and take one optimizer
step per batch; after the epoch, evaluate the full-pool risk once.

Ratio-preserving batching (every batch gets a near-proportional share of
both pools) keeps the two per-batch means well defined; a plain merged
shuffle could produce batches with an empty side, where a term of the
estimator has no value. Batch b holds chunk b of every pool's permutation
under np.array_split, pools in order, so each batch is one contiguous slice
of the buffer: its similarity rows, then its unlabeled rows.

The pools are stacked in one array, and the rows' side values (the slot
weights, or the supervised labels) in one vector, so each epoch is one
gather of each. Adam updates the model's parameter vector, model.theta, as
a single array.

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
        if not 0.0 < self.lr < np.inf:
            raise ConfigurationError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ConfigurationError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
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
        # a batch as large as the smallest pool is the largest allowed
        fix = "increase --batch" if batch_size < min(pool_sizes) else "supply more data"
        raise ConfigurationError(
            f"{n_batches} batches cannot each contain a point from every pool "
            f"(pool sizes {', '.join(map(str, pool_sizes))}); {fix}"
        )
    return n_batches


def _divergence(rv: RiskValue, model: Model) -> str | None:
    """Why the epoch's end state counts as diverged, or None."""
    if not abs(rv.raw) <= DIVERGENCE_LIMIT:
        return f"risk {rv.raw!r} exceeds {DIVERGENCE_LIMIT:g} in magnitude"
    if np.abs(model.theta).max() <= DIVERGENCE_LIMIT:
        return None
    key = next(k for k, p in model.params().items() if not np.abs(p).max() <= DIVERGENCE_LIMIT)
    return f"parameter {key!r} exceeds {DIVERGENCE_LIMIT:g} in magnitude"


def _epoch_layout(pool_sizes, n_batches):
    """Where each row of the epoch buffer comes from, and where each batch
    sits in it. gather[i] is the position, in the concatenation of the
    pools' permutations, of the row that lands at buffer row i; each batch
    is (start, split, stop), with rows [start, split) from the first pool."""
    offsets = np.cumsum((0, *pool_sizes[:-1]))
    chunks = zip(
        *(np.array_split(np.arange(o, o + n), n_batches) for o, n in zip(offsets, pool_sizes))
    )
    gather, bounds, start = [], [], 0
    for batch in chunks:
        gather.extend(batch)
        stop = start + sum(c.size for c in batch)
        bounds.append((start, start + batch[0].size, stop))
        start = stop
    return offsets, np.concatenate(gather), bounds


def _fit(config, model, rows, row_values, pool_sizes, batch_upstream, epoch_risk, eval_set):
    """Shared loop over the pools stacked in rows, in pool order, with one
    side value per row in row_values. Each epoch draws one permutation per
    pool, in pool order, and gathers rows and values once into the epoch
    buffers, batch by batch (see _epoch_layout). Per batch,
    batch_upstream(model, x, split, values) gets the batch's rows, the
    count of them from the first pool and their values, and returns the
    gradient of the batch objective with respect to their scores; one
    backward pass and one Adam step on model.theta follow.
    After the epoch's last step, epoch_risk(model) gives the full-pool risk
    for the log.

    A floating-point overflow or invalid operation, or an epoch that ends
    past DIVERGENCE_LIMIT, stops the run with TrainingDivergedError naming
    the epoch."""
    n_batches = _batch_plan(pool_sizes, config.batch_size)
    offsets, gather, bounds = _epoch_layout(pool_sizes, n_batches)
    x_buf, v_buf = np.empty_like(rows, order="C"), np.empty_like(row_values)
    batches = [(x_buf[i:k], j - i, v_buf[i:k]) for i, j, k in bounds]
    # shuffling an arange slice draws rng.permutation(n) + offset
    ranks = np.arange(rows.shape[0])
    perm, order = np.empty_like(ranks), np.empty_like(ranks)
    pools = [perm[o : o + n] for o, n in zip(offsets, pool_sizes)]
    _, ss_shuffle = np.random.SeedSequence(config.seed).spawn(2)
    rng = np.random.default_rng(ss_shuffle)
    state = AdamState.for_theta(model.theta, lr=config.lr, weight_decay=config.weight_decay)
    log = TrainLog()
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for epoch in range(1, config.epochs + 1):
            try:
                perm[...] = ranks
                for pool in pools:
                    rng.shuffle(pool)
                # mode="clip" writes straight into out; the default "raise" buffers
                np.take(perm, gather, out=order, mode="clip")
                np.take(rows, order, axis=0, out=x_buf, mode="clip")
                np.take(row_values, order, out=v_buf, mode="clip")
                for x, split, values in batches:
                    grad = backward(model, x, batch_upstream(model, x, split, values))
                    adam_step(model.theta, grad, state)
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
    us_rows = disassemble(data.triplets)
    model = init_model(config.model_kind, us_rows.shape[1], config.hidden, seed=config.seed)
    if config.epochs == 0:
        return model, TrainLog()
    pool_sizes = (us_rows.shape[0], data.n_unlabeled)
    rows = np.concatenate((us_rows, data.unlabeled))
    us_pool, u_pool = rows[: pool_sizes[0]], rows[pool_sizes[0] :]
    weights, u_plus_coef = slot_weights(config.prior, data.sampler_kind, config.estimator)
    # an unlabeled row's value is never read
    row_weights = np.concatenate((np.tile(weights, data.n_triplets), np.zeros(pool_sizes[1])))
    us_weights = row_weights[: pool_sizes[0]]
    upstream = np.empty_like(row_weights)
    prior, correction = config.prior, config.correction

    def batch_upstream(model, x, split, w):
        up = upstream[: x.shape[0]]
        up[:split], up[split:] = empirical_risk_grad(
            forward(model, x[:split]),
            forward(model, x[split:]),
            prior,
            correction,
            us_weights=w[:split],
            u_plus_coef=u_plus_coef,
        )
        return up

    def epoch_risk(model):
        return empirical_risk(
            forward(model, us_pool),
            forward(model, u_pool),
            config.prior,
            config.correction,
            us_weights=us_weights,
            u_plus_coef=u_plus_coef,
        )

    return _fit(config, model, rows, row_weights, pool_sizes, batch_upstream, epoch_risk, eval_set)


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

    def batch_upstream(model, x, split, y):
        _, dloss = square_loss(forward(model, x), y)
        return dloss / x.shape[0]

    def epoch_risk(model):
        loss, _ = square_loss(forward(model, labeled.x), labeled.y)
        risk = float(np.mean(loss))
        return RiskValue(us_term=risk, u_term=0.0, raw=risk, corrected=risk)

    return _fit(
        config, model, labeled.x, labeled.y, (len(labeled),), batch_upstream, epoch_risk, eval_set
    )
