"""Weak-supervision generation: labeled sources, the two triplet samplers,
unlabeled pools, and triplet disassembly.

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
    LabeledPool,
    ShapeError,
    WeakDataset,
)


@dataclass(frozen=True)
class GaussianSourceSpec:
    """Two isotropic Gaussian class-conditionals in R^d."""

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
        object.__setattr__(self, "mu_plus", mp)
        object.__setattr__(self, "mu_minus", mm)


def _draw_labeled_by_class(
    source, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """n labeled draws from a source that samples each class directly:
    first the labels from the prior, then the positives, then the
    negatives."""
    y = np.where(rng.random(n) < source.prior.pi_plus, 1, -1)
    pos = y == 1
    x_pos = source.draw_class(rng, 1, int(pos.sum()))
    x = np.empty((n, x_pos.shape[1]))
    x[pos] = x_pos
    x[~pos] = source.draw_class(rng, -1, int((~pos).sum()))
    return x, y


class GaussianSource:
    """Draws from the Gaussian mixture described by a GaussianSourceSpec."""

    def __init__(self, spec: GaussianSourceSpec):
        self.spec = spec

    @property
    def prior(self) -> ClassPrior:
        return self.spec.prior

    def draw_class(self, rng: np.random.Generator, label: int, n: int) -> np.ndarray:
        mu = self.spec.mu_plus if label == 1 else self.spec.mu_minus
        return mu + self.spec.sigma * rng.standard_normal((n, self.spec.dim))

    draw_labeled = _draw_labeled_by_class


class PoolSource:
    """Draws uniformly with replacement from a finite labeled pool.

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

    def draw_labeled(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        rows = rng.integers(0, len(self.pool), size=n)
        return self.pool.x[rows], self.pool.y[rows]


class DiscreteSource:
    """Draws support-point indices (as 1-D features) from a pair of discrete
    class-conditional pmfs; used by the enumeration-vs-Monte-Carlo oracles."""

    def __init__(self, p_plus: np.ndarray, p_minus: np.ndarray, prior: ClassPrior):
        self.p_plus = np.asarray(p_plus, dtype=float)
        self.p_minus = np.asarray(p_minus, dtype=float)
        self._prior = prior

    @property
    def prior(self) -> ClassPrior:
        return self._prior

    def draw_class(self, rng: np.random.Generator, label: int, n: int) -> np.ndarray:
        p = self.p_plus if label == 1 else self.p_minus
        return rng.choice(p.size, size=n, p=p).astype(float)[:, None]

    draw_labeled = _draw_labeled_by_class


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
    when the two companions share a class different from the anchor's.
    Returns the accepted triplets (labels discarded, companion order
    shuffled) and the raw-draw statistics.
    """
    if n < 1:
        raise InvalidInputError(f"triplet count must be >= 1, got {n}")
    out = []
    n_raw = 0
    remaining = n
    while remaining > 0:
        # oversample to amortize the redraw loop
        chunk = max(remaining * 2, 16)
        x, y = source.draw_labeled(rng, 3 * chunk)
        x = x.reshape(chunk, 3, -1)
        y = y.reshape(chunk, 3)
        accept = ~((y[:, 1] == y[:, 2]) & (y[:, 1] != y[:, 0]))
        accepted = x[accept]
        # count raw draws only up to the point the quota was filled
        if accepted.shape[0] >= remaining:
            cutoff = np.searchsorted(np.cumsum(accept), remaining) + 1
            n_raw += int(cutoff)
            out.append(accepted[:remaining])
            remaining = 0
        else:
            n_raw += chunk
            out.append(accepted)
            remaining -= accepted.shape[0]
    triplets = np.concatenate(out, axis=0)
    swap = rng.random(n) < 0.5
    triplets[swap] = triplets[swap][:, [0, 2, 1]]
    return triplets, RejectionStats(n_raw=n_raw, n_accepted=n)


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
    tied_label = np.where(cases % 2 == 0, 1, -1)
    tied_with_first = cases < 2

    third, _ = source.draw_labeled(rng, n)
    d = third.shape[1]
    tied = np.empty((n, 2, d))
    pos = tied_label == 1
    tied[pos] = source.draw_class(rng, 1, 2 * int(pos.sum())).reshape(-1, 2, d)
    tied[~pos] = source.draw_class(rng, -1, 2 * int((~pos).sum())).reshape(-1, 2, d)

    triplets = np.empty((n, 3, d))
    triplets[:, 0] = tied[:, 0]
    triplets[tied_with_first, 1] = tied[tied_with_first, 1]
    triplets[tied_with_first, 2] = third[tied_with_first]
    triplets[~tied_with_first, 2] = tied[~tied_with_first, 1]
    triplets[~tied_with_first, 1] = third[~tied_with_first]
    swap = rng.random(n) < 0.5
    triplets[swap] = triplets[swap][:, [0, 2, 1]]
    return triplets


def sample_unlabeled(source, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from the marginal mixture, labels discarded."""
    if n < 1:
        raise InvalidInputError(f"unlabeled count must be >= 1, got {n}")
    x, _ = source.draw_labeled(rng, n)
    return x


def make_weak_dataset(
    source, n_us: int, n_u: int, sampler_kind: str = "rejection", seed: int = 0
) -> WeakDataset:
    """Full weak-supervision dataset, generated with independent seed
    streams for the triplet and unlabeled parts."""
    if sampler_kind not in ("rejection", "paper_case"):
        raise InvalidInputError(f"unknown sampler kind {sampler_kind!r}")
    ss_us, ss_u = np.random.SeedSequence(seed).spawn(2)
    rng_us = np.random.default_rng(ss_us)
    if sampler_kind == "rejection":
        triplets, _ = sample_triplets_rejection(source, n_us, rng_us)
    else:
        triplets = sample_triplets_paper_case(source, n_us, rng_us)
    unlabeled = sample_unlabeled(source, n_u, np.random.default_rng(ss_u))
    return WeakDataset(
        triplets=triplets,
        unlabeled=unlabeled,
        prior=source.prior,
        sampler_kind=sampler_kind,
    )


def disassemble(triplets: np.ndarray) -> np.ndarray:
    """Flatten (n, 3, d) triplets to the 3n pointwise instances, in order
    (anchor, first companion, second companion) per triplet."""
    t = np.asarray(triplets, dtype=float)
    if t.ndim != 3 or t.shape[1] != 3:
        raise ShapeError(f"expected shape (n, 3, d), got {t.shape}")
    return t.reshape(-1, t.shape[2])


def synth_gaussian_labeled(spec: GaussianSourceSpec, n: int, seed: int) -> LabeledPool:
    """n labeled examples: labels from the prior, features from the class
    Gaussian. Deterministic under the seed."""
    if n < 2:
        raise InvalidInputError(f"need n >= 2 labeled examples, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x, y = GaussianSource(spec).draw_labeled(rng, n)
    return LabeledPool(x=x, y=y)
