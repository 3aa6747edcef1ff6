"""Weak-supervision generation: labeled sources, the two triplet samplers
and unlabeled pools.

A source is anything with a ``prior`` (a ClassPrior) and a
``draw_class(rng, label, n)`` that returns n feature rows of one class.
Sampling relies on one contract of draw_class: n rows drawn in consecutive
blocks, joined, equal one draw of n rows, and leave the generator in the
same state (so a draw of 0 rows takes no randomness). numpy's
``Generator.random``, ``standard_normal``, ``choice`` and ``integers`` fill
sequentially, so the three sources here keep it. Every labeled row is drawn
by ``_draw_rows``, in blocks of BLOCK mask entries, straight into the array
that returns it; so the labels of triplet members and unlabeled points alike
follow the source's prior, and no class draw is held whole.

Two triplet samplers ship because the generative definition (draw three
i.i.d. labeled points, reject when the two companions share a class the
anchor does not) and its four-case additive expansion imply distinct
sampling paths. Rejection is the default. All samplers are deterministic
functions of (source, parameters, seed) and never expose labels in their
output.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ClassPrior,
    InsufficientDataError,
    InvalidInputError,
    SAMPLERS,
    LabeledPool,
    ShapeError,
    WeakDataset,
)


# mask entries per block of a labeled draw: a block's draws and temporaries
# are all a draw holds beyond its output
BLOCK = 2**15


def _put(dst: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """dst[rows] = values for a boolean mask over dst's leading axes. A mask
    of dst's full shape assigns in place, where a row mask would first build
    an int64 index of the selected rows."""
    full = rows.reshape(rows.shape + (1,) * (dst.ndim - rows.ndim))
    dst[np.broadcast_to(full, dst.shape)] = values.ravel()


def _draw_mask(source, rng: np.random.Generator, n: int) -> np.ndarray:
    """n class labels from the source's prior, as a mask True where positive."""
    positive = np.empty(n, dtype=bool)
    for start in range(0, n, BLOCK):
        block = positive[start : start + BLOCK]
        np.less(rng.random(block.size), source.prior.pi_plus, out=block)
    return positive


def _width(source, rng: np.random.Generator) -> int:
    """The source's feature width, read off a draw of 0 rows."""
    return source.draw_class(rng, 1, 0).shape[1]


def _draw_rows(
    source, rng: np.random.Generator, positive: np.ndarray, out: np.ndarray,
    keep: np.ndarray | None = None,
) -> None:
    """Draw a row of its class for every entry of the class mask positive:
    every positive entry, then every negative one, in row-major order and in
    blocks of about BLOCK entries, each block stored into out as it comes.
    out has positive's shape plus the feature axis. With keep, a mask over
    positive's first axis, rows are drawn for the kept entries alone, and out
    holds them packed."""
    step = max(1, BLOCK // int(np.prod(positive.shape[1:])))
    for label in (1, -1):
        filled = 0
        # one pass even when positive is empty, so a class the source lacks still raises
        for start in range(0, max(len(positive), 1), step):
            in_class = positive[start : start + step]
            if keep is not None:
                # np.compress, as boolean indexing is several times slower here
                in_class = np.compress(keep[start : start + step], in_class, axis=0)
            if label == -1:
                in_class = ~in_class
            rows = source.draw_class(rng, label, int(np.count_nonzero(in_class)))
            _put(out[filled : filled + len(in_class)], in_class, rows)
            filled += len(in_class)


def draw_labeled(source, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n labeled draws from a source and their class mask (True where
    positive): first the mask from its prior, then the positives, then the
    negatives."""
    positive = _draw_mask(source, rng, n)
    x = np.empty((n, _width(source, rng)))
    _draw_rows(source, rng, positive, x)
    return x, positive


@dataclass(frozen=True)
class GaussianSourceSpec:
    """Two isotropic Gaussian class-conditionals in R^d, and the source that
    draws from them."""

    dim: int
    mu_plus: np.ndarray
    mu_minus: np.ndarray
    sigma: float
    prior: ClassPrior

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidInputError(f"dim must be >= 1, got {self.dim}")
        if not np.isfinite(self.sigma) or self.sigma <= 0:
            raise InvalidInputError(f"sigma must be > 0, got {self.sigma}")
        mp = np.asarray(self.mu_plus, dtype=float)
        mm = np.asarray(self.mu_minus, dtype=float)
        if mp.shape != (self.dim,) or mm.shape != (self.dim,):
            raise ShapeError("class means must have shape (dim,)")
        if not (np.isfinite(mp).all() and np.isfinite(mm).all()):
            raise InvalidInputError("class means must be finite")
        object.__setattr__(self, "mu_plus", mp)
        object.__setattr__(self, "mu_minus", mm)

    def draw_class(self, rng: np.random.Generator, label: int, n: int) -> np.ndarray:
        mu = self.mu_plus if label == 1 else self.mu_minus
        with np.errstate(over="ignore", invalid="ignore"):
            x = mu + self.sigma * rng.standard_normal((n, self.dim))
        if not np.isfinite(x).all():
            raise InvalidInputError(f"class {label:+d} draws overflow; use smaller means or sigma")
        return x


def default_gaussian_spec(
    pi_plus: float = 0.4, separation: float = 4.0, dim: int = 2, sigma: float = 1.0
) -> GaussianSourceSpec:
    """Isotropic Gaussians whose means sit at +separation/2 and
    -separation/2 on the first axis, whatever sigma is."""
    mu_plus = np.where(np.arange(dim) == 0, separation / 2.0, 0.0)
    return GaussianSourceSpec(
        dim=dim, mu_plus=mu_plus, mu_minus=-mu_plus, sigma=sigma, prior=ClassPrior(pi_plus)
    )


class PoolSource:
    """Draws with replacement from a finite labeled pool: the label from the
    prior (declared, or else the pool's label counts), the row uniformly
    within that class.

    With-replacement draws keep triplet members i.i.d., matching the
    independence assumption the estimator is derived under.
    """

    def __init__(self, pool: LabeledPool, prior: ClassPrior | None = None):
        if len(pool) < 1:
            raise InsufficientDataError("pool is empty")
        self.pool = pool
        self._prior = prior
        self._pos_idx = np.flatnonzero(pool.y == 1)
        self._neg_idx = np.flatnonzero(pool.y == -1)

    @property
    def prior(self) -> ClassPrior:
        # declared prior wins over the label counts when given
        return self._prior if self._prior is not None else self.pool.empirical_prior

    def draw_class(self, rng: np.random.Generator, label: int, n: int) -> np.ndarray:
        idx = self._pos_idx if label == 1 else self._neg_idx
        if idx.size == 0:
            raise InsufficientDataError(
                f"pool contains no examples with label {label:+d}"
            )
        return self.pool.x[rng.choice(idx, size=n, replace=True)]


@dataclass(frozen=True)
class RejectionStats:
    """Raw draw accounting for the rejection sampler; the long-run accepted
    fraction converges to 1 - pi_plus*pi_minus."""

    n_raw: int
    n_accepted: int

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / self.n_raw


def sample_triplets_rejection(
    source, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, RejectionStats]:
    """Draw n triplets by i.i.d. draw-and-reject.

    Each raw draw takes three labeled points; the draw is rejected exactly
    when the two companions share a class different from the anchor's, a
    rule symmetric in the companions. Returns the accepted triplets (labels
    discarded) and the raw-draw statistics.
    """
    if n < 1:
        raise InvalidInputError(f"triplet count must be >= 1, got {n}")
    triplets = np.empty((n, 3, _width(source, rng)))
    filled = n_raw = 0
    while filled < n:
        chunk_raw, chunk_accepted = _rejection_chunk(source, rng, triplets[filled:])
        n_raw += chunk_raw
        filled += chunk_accepted
    return triplets, RejectionStats(n_raw=n_raw, n_accepted=n)


def _rejection_chunk(source, rng: np.random.Generator, out: np.ndarray) -> tuple[int, int]:
    """Draw a chunk of raw triplets, twice as many as out has room for (at
    least 16), decide acceptance from their labels alone, and draw the
    features of accepted triplets into out until it is full. Returns the raw
    draws up to the point out was filled (the whole chunk if it was not) and
    the number of triplets stored."""
    # oversample to amortize the redraw loop
    chunk = max(2 * len(out), 16)
    positive = _draw_mask(source, rng, 3 * chunk).reshape(chunk, 3)
    anchor, first, second = positive.T
    accept = (first != second) | (first == anchor)
    end = _quota_end(accept, len(out))
    accept[end:] = False
    n_accepted = int(np.count_nonzero(accept))
    _draw_rows(source, rng, positive, out[:n_accepted], keep=accept)
    return end, n_accepted


def _quota_end(accept: np.ndarray, quota: int) -> int:
    """The index just past accept's quota-th True, or its length when it
    holds fewer; counted block by block, with no index of every True."""
    for start in range(0, len(accept), BLOCK):
        block = accept[start : start + BLOCK]
        count = int(np.count_nonzero(block))
        if count >= quota:
            return start + int(np.flatnonzero(block)[quota - 1]) + 1
        quota -= count
    return len(accept)


def paper_case_weights(prior: ClassPrior) -> np.ndarray:
    """Probabilities of the four tied-pair cases
    (anchor+first positive, anchor+first negative, anchor+second positive,
    anchor+second negative), proportional to (p+^2, p-^2, p+^2, p-^2)."""
    pp2, pm2 = prior.pi_plus**2, prior.pi_minus**2
    w = np.array([pp2, pm2, pp2, pm2])
    return w / w.sum()


def sample_triplets_paper_case(
    source, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw n triplets by picking one of the four tied-pair cases directly:
    the two tied instances come from that case's class-conditional, the
    third from the marginal."""
    if n < 1:
        raise InvalidInputError(f"triplet count must be >= 1, got {n}")
    weights = paper_case_weights(source.prior)
    cases = rng.choice(4, size=n, p=weights)
    tied_positive, tied_with_second = cases % 2 == 0, cases >= 2
    del cases

    triplets = np.empty((n, 3, _width(source, rng)))
    _draw_rows(source, rng, _draw_mask(source, rng, n), triplets[:, 2])
    _draw_rows(source, rng, np.broadcast_to(tied_positive[:, None], (n, 2)), triplets[:, :2])
    # the slots hold (tied, tied, third); cases 2 and 3 tie the anchor to the
    # second companion, so their companions trade places
    rows = np.flatnonzero(tied_with_second)
    triplets[rows, 1:] = triplets[rows, :0:-1]
    return triplets


def sample_unlabeled(source, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from the marginal mixture, labels discarded."""
    if n < 1:
        raise InvalidInputError(f"unlabeled count must be >= 1, got {n}")
    return draw_labeled(source, rng, n)[0]


def make_weak_dataset(source, n_us: int, n_u: int, sampler_kind: str, seed: int) -> WeakDataset:
    """Full weak-supervision dataset, generated with independent seed
    streams for the triplet and unlabeled parts."""
    if sampler_kind not in SAMPLERS:
        raise InvalidInputError(f"unknown sampler kind {sampler_kind!r}")
    ss_us, ss_u = np.random.SeedSequence(seed).spawn(2)
    rng_us = np.random.default_rng(ss_us)
    if sampler_kind == "rejection":
        triplets, _ = sample_triplets_rejection(source, n_us, rng_us)
    else:
        triplets = sample_triplets_paper_case(source, n_us, rng_us)
    unlabeled = sample_unlabeled(source, n_u, np.random.default_rng(ss_u))
    return WeakDataset(triplets=triplets, unlabeled=unlabeled, sampler_kind=sampler_kind)


def synth_gaussian_labeled(spec: GaussianSourceSpec, n: int, seed: int) -> LabeledPool:
    """n labeled examples: labels from the prior, features from the class
    Gaussian. Deterministic under the seed."""
    if n < 2:
        raise InvalidInputError(f"need n >= 2 labeled examples, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x, positive = draw_labeled(spec, rng, n)
    return LabeledPool(x=x, y=np.where(positive, 1, -1))
