"""Training loop: per epoch, shuffle each pool, gather the shuffled rows
once into an epoch buffer laid out batch by batch, and take one optimizer
step per batch; after the epoch, evaluate the full-pool risk once.

Ratio-preserving batching (every batch gets a near-proportional share of
both pools) keeps the two per-batch means well defined; a plain merged
shuffle could produce batches with an empty side, where a term of the
estimator has no value. Batch b holds chunk b of every pool's permutation
under np.array_split, pools in order, so each batch is one contiguous slice
of the buffer: its similarity rows, then its unlabeled rows.

The two pools are stacked in one array, and the rows' slot weights in one
vector, so each epoch is one gather of each. One generator (_epochs)
shuffles, lays out and gathers every epoch; a long run on two or more CPUs
runs it ahead in a forked helper that fills a shared ring (_prefetched), so
the orders, and so the bytes, are the same. Adam updates the model's
parameter vector, model.theta, as a single array.

train checks its arrays and its eval set once, so the loop calls the
kernels of forward, backward, empirical_risk_grad and empirical_risk under
their public names, and accuracy's as _accuracy: module globals that the
benchmark wraps. It also binds a step's buffers once per run, and the
batch kernels write into them: per batch position, shared by every slot,
the scores of each half and the upstream vector, and one gradient vector.
"""
from __future__ import annotations

import mmap
import os
from contextlib import closing
from dataclasses import dataclass

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
from .model import AdamState, Model, adam_step, init_model
from .model import _backward as backward
from .model import _forward as forward
from .model import _accuracy, _scored
from .risk import RiskValue, slot_weights
from .risk import _empirical_risk as empirical_risk
from .risk import _empirical_risk_grad as empirical_risk_grad

# A run whose risk or any parameter exceeds this magnitude after an epoch has
# diverged. Converging runs stay many orders of magnitude below it, and a
# score this large can still be squared without overflowing a float.
DIVERGENCE_LIMIT = 1e100
# Past this many row-epochs (epochs x rows), on two CPUs, a forked helper shuffles
# ahead of the loop; below it, the fork and pipe wake-ups cost more than they save.
PREFETCH_MIN = 2**20
RING = 4  # gathered epochs in the helper's shared ring; the caller frees half of it at a time


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters. The prior is the one GIVEN to training,
    which may deliberately differ from the data-generation prior when
    studying misspecification."""

    prior: ClassPrior
    correction: CorrectionKind = CorrectionKind.ABS
    epochs: int = 600
    batch_size: int = 2000
    lr: float = 1e-3
    weight_decay: float = 1e-5
    model_kind: str = "linear"
    hidden: int = 64
    seed: int = 0

    def __post_init__(self):
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


def _batch_plan(config: TrainConfig, n_triplets: int, n_unlabeled: int) -> int:
    """Number of joint batches over the 3 n_triplets similarity rows and the
    n_unlabeled points; 0 for zero epochs, which need no plan. Errors out
    when the sizes cannot give every batch at least one point from each pool."""
    if not config.epochs:
        return 0
    pool_sizes, batch_size = (3 * n_triplets, n_unlabeled), config.batch_size
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


def _cpus() -> int:
    """The CPUs the calling thread may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _slots(n, rows, row_weights):
    """n epoch slots, each an (x, w) pair shaped like rows and row_weights,
    laid out slot after slot in one anonymous shared mmap, so that a forked
    helper can fill them."""
    k, size = rows.size, rows.size + row_weights.size
    flat = np.frombuffer(mmap.mmap(-1, n * size * rows.itemsize))
    starts = range(0, n * size, size)
    return [(flat[i : i + k].reshape(rows.shape), flat[i + k : i + size]) for i in starts]


def _epochs(rng, pools, gather, source, slots, epochs):
    """Fills a slot per epoch and yields its index, epoch % len(slots): the
    rows and row weights of source in buffer order, which is every pool's
    (offset, size) slice of the ranks shuffled by rng, pools in order,
    gathered by gather."""
    ranks = np.arange(gather.size)
    perm, order = np.empty_like(ranks), np.empty_like(ranks)
    slices = [perm[o : o + n] for o, n in pools]
    for epoch in range(epochs):
        perm[...] = ranks
        for pool in slices:
            rng.shuffle(pool)  # shuffling an arange slice draws rng.permutation(n) + offset
        # mode="clip" writes straight into out; the default "raise" buffers
        np.take(perm, gather, out=order, mode="clip")
        slot = epoch % len(slots)
        for a, out in zip(source, slots[slot]):
            np.take(a, order, axis=0, out=out, mode="clip")
        yield slot


def _prefetched(feed, epochs):
    """The slot indices of feed's epochs, which a forked helper fills ahead
    into the RING shared slots. A pipe byte says which slot is ready, or that
    the caller is done with half the ring. The helper exits at a pipe's EOF,
    so also when the caller dies; closing this reaps it."""
    half, mask = RING // 2, os.sched_getaffinity(0)
    (ready, ready_w), (free_r, free) = os.pipe(), os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (ready, ready_w, free_r, free):
            os.close(fd)
        raise
    if pid == 0:  # the helper never returns into the caller's frames
        try:
            os.close(ready)
            os.close(free)
            os.sched_setaffinity(0, {max(mask)})
            for epoch in range(epochs):
                if epoch >= RING and epoch % half == 0 and not os.read(free_r, 1):
                    break
                os.write(ready_w, bytes((next(feed),)))
        finally:
            os._exit(0)
    os.close(ready_w)  # free_r stays open: a byte for a helper that has exited does not raise
    try:
        # on separate CPUs: a pipe's wake-up pulls the helper onto the caller's CPU,
        # and the scheduler at times moves the caller onto the helper's
        os.sched_setaffinity(0, mask - {max(mask)})
        for epoch in range(epochs):
            slot = os.read(ready, 1)
            if not slot:
                raise ChildProcessError(f"the shuffle helper ended before epoch {epoch + 1}")
            yield slot[0]
            if epoch % half == half - 1:
                os.write(free, b"\0")
    finally:
        os.sched_setaffinity(0, mask)
        for fd in (ready, free, free_r):
            os.close(fd)
        os.waitpid(pid, 0)


def train(
    config: TrainConfig,
    data: WeakDataset,
    eval_set: LabeledPool | None = None,
) -> tuple[Model, list[EpochRecord]]:
    """Minimize the corrected weak-supervision risk; returns the final model
    and the log, one EpochRecord per epoch. epochs = 0 returns the
    initialized model untouched and an empty log.

    The triplets are flattened to 3n similarity rows, (anchor, c1, c2) per
    triplet, and the sampler's slot_weights are tiled over them, so the
    weighted similarity term is an unbiased estimate of the unnormalized
    similarity integral of the risk reconstruction.

    Each epoch draws one permutation per pool, in pool order, and gathers
    rows and weights once into an epoch slot, batch by batch (see
    _epoch_layout); each slot's batches are views built once. The arrays
    are float64 and their shapes fit the model and the batch plan, checked
    once here, and so is the eval set, before the first epoch (a wrong
    width or an empty set raises then); so the loop calls the kernels of
    the public functions. Per batch, the scores of its similarity rows and
    of its unlabeled rows give empirical_risk_grad the gradient with
    respect to each score, in the batch's row order; one backward pass and
    one Adam step on model.theta follow. The scores and the upstream go
    into buffers allocated here once per batch position, the gradient into
    one vector.
    After the epoch's last step, empirical_risk over both pools gives the
    risk for the log. A floating-point overflow or invalid operation, or an
    epoch that ends past DIVERGENCE_LIMIT, stops the run with
    TrainingDivergedError naming the epoch.
    """
    if data.n_triplets < 1 or data.n_unlabeled < 1:
        raise InsufficientDataError(
            "training needs at least one triplet and one unlabeled point"
        )
    n, _, d = data.triplets.shape  # -1 in place of 3n would fail at d = 0
    us_rows = data.triplets.reshape(3 * n, d)
    model = init_model(config.model_kind, d, config.hidden, seed=config.seed)
    n_batches = _batch_plan(config, n, data.n_unlabeled)
    if not n_batches:  # zero epochs
        return model, []
    scored = _scored(model, eval_set) if eval_set is not None else None
    pool_sizes = (us_rows.shape[0], data.n_unlabeled)
    rows = np.concatenate((us_rows, data.unlabeled), dtype=float)
    us_pool, u_pool = rows[: pool_sizes[0]], rows[pool_sizes[0] :]
    weights, u_plus_coef = slot_weights(config.prior, data.sampler_kind)
    # an unlabeled row's value is never read
    row_weights = np.concatenate((np.tile(weights, data.n_triplets), np.zeros(pool_sizes[1])))
    us_weights = row_weights[: pool_sizes[0]]
    prior, correction = config.prior, config.correction
    offsets, gather, bounds = _epoch_layout(pool_sizes, n_batches)
    _, ss_shuffle = np.random.SeedSequence(config.seed).spawn(2)
    rng = np.random.default_rng(ss_shuffle)
    ahead = config.epochs * rows.shape[0] > PREFETCH_MIN and _cpus() > 1
    slots = _slots(RING if ahead else 1, rows, row_weights)
    feed = _epochs(rng, zip(offsets, pool_sizes), gather, (rows, row_weights), slots, config.epochs)
    filled = _prefetched(feed, config.epochs) if ahead else feed
    # per batch position, shared by every slot: its two halves' scores, and
    # its upstream vector with that vector's two halves
    buffers = []
    for i, j, k in bounds:
        up = np.empty(k - i)
        buffers.append((np.empty(j - i), np.empty(k - j), (up, up[: j - i], up[j - i :])))
    # per slot, each batch's rows, then its similarity rows, unlabeled rows and weights
    batches = [
        [(x[i:k], x[i:j], x[j:k], w[i:j], *b) for (i, j, k), b in zip(bounds, buffers)]
        for x, w in slots
    ]
    grad = np.empty(model.theta.size)
    state = AdamState.for_theta(model.theta, lr=config.lr, weight_decay=config.weight_decay)
    log = []
    with np.errstate(over="raise", divide="raise", invalid="raise"), closing(filled):
        for epoch, slot in enumerate(filled, 1):
            try:
                for x, x_us, x_u, w, z_us, z_u, out in batches[slot]:
                    up = empirical_risk_grad(
                        forward(model, x_us, z_us), forward(model, x_u, z_u),
                        prior, correction, w, u_plus_coef, out,
                    )
                    adam_step(model.theta, backward(model, x, up, grad), state)
                rv = empirical_risk(
                    forward(model, us_pool), forward(model, u_pool), prior, correction,
                    us_weights, u_plus_coef,
                )
                reason = _divergence(rv, model)
                acc = _accuracy(model, *scored) if scored is not None and not reason else None
            except FloatingPointError as exc:
                reason = str(exc)
            if reason:
                raise TrainingDivergedError(f"training diverged at epoch {epoch}: {reason}")
            log.append(
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
