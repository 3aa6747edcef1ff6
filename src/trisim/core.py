"""Shared vocabulary: class priors, labeled/weak data containers, and the
non-negativity correction functions.

All types here are immutable values and every function is pure, so the
module is safe to use from any number of concurrent workers.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class TrisimError(ValueError):
    """Base class for all domain errors raised by this package."""


class InvalidInputError(TrisimError):
    """A value violates a precondition (non-finite, wrong label, ...)."""


class DegeneratePriorError(TrisimError):
    """pi_plus = 0.5: the mixing coefficients are undefined there."""


class InsufficientDataError(TrisimError):
    """An estimator was handed an empty similarity or unlabeled side."""


class ShapeError(TrisimError):
    """Dimension mismatch between model parameters and inputs."""


class ConfigurationError(TrisimError):
    """Inconsistent training/CLI configuration."""


class EnumerationSizeError(TrisimError):
    """A brute-force enumeration would exceed its configured cap."""


class TrainingDivergedError(TrisimError):
    """Training overflowed, or its risk or parameters left the bound the
    trainer states."""


# The triplet samplers, default first (see trisim.sampler).
SAMPLERS = ("rejection", "paper_case")


@dataclass(frozen=True)
class ClassPrior:
    """Positive-class prior pi_plus; pi_minus is derived so the pair sums
    to 1 exactly."""

    pi_plus: float

    def __post_init__(self):
        if not np.isfinite(self.pi_plus) or not 0.0 < self.pi_plus < 1.0:
            raise InvalidInputError(
                f"pi_plus must lie strictly in (0, 1), got {self.pi_plus!r}"
            )

    @property
    def pi_minus(self) -> float:
        return 1.0 - self.pi_plus

    def require_non_degenerate(self) -> None:
        """Coefficient computation assumes pi_plus != 1/2."""
        if self.pi_plus == 0.5:
            raise DegeneratePriorError(
                "pi_plus = 0.5 is degenerate: the coefficient formulas divide "
                "by (pi_plus - pi_minus), which is zero at a balanced prior"
            )


class CorrectionKind(str, enum.Enum):
    """Correction g applied to the whole per-batch risk estimate."""

    NONE = "none"
    MAX_ZERO = "max_zero"
    ABS = "abs"

    def apply(self, z: float) -> float:
        if self is CorrectionKind.NONE:
            return z
        if self is CorrectionKind.MAX_ZERO:
            return max(0.0, z)
        return abs(z)

    def grad_factor(self, z: float) -> float:
        """dg/dz, with the subgradient at z = 0 fixed to 0 for both
        non-identity corrections."""
        if self is CorrectionKind.NONE:
            return 1.0
        if self is CorrectionKind.MAX_ZERO:
            return 1.0 if z > 0 else 0.0
        if z > 0:
            return 1.0
        return -1.0 if z < 0 else 0.0


@dataclass(frozen=True)
class WeakDataset:
    """Training input: triplets stacked as (n_triplets, 3, d), unlabeled
    points as (n_unlabeled, d), the prior used at generation time, and the
    sampler that produced the triplets (the trainer's measure-matched
    weighting depends on the sampling scheme's position marginals)."""

    triplets: np.ndarray
    unlabeled: np.ndarray
    prior: ClassPrior
    sampler_kind: str = "rejection"

    def __post_init__(self):
        if self.sampler_kind not in SAMPLERS:
            raise InvalidInputError(f"unknown sampler kind {self.sampler_kind!r}")
        t = np.asarray(self.triplets, dtype=float)
        u = np.asarray(self.unlabeled, dtype=float)
        if t.ndim != 3 or t.shape[1] != 3:
            raise ShapeError(f"triplets must have shape (n, 3, d), got {t.shape}")
        if u.ndim != 2:
            raise ShapeError(f"unlabeled must have shape (m, d), got {u.shape}")
        if t.shape[0] and u.shape[0] and t.shape[2] != u.shape[1]:
            raise ShapeError(
                f"dimension mismatch: triplets d={t.shape[2]}, unlabeled d={u.shape[1]}"
            )
        object.__setattr__(self, "triplets", t)
        object.__setattr__(self, "unlabeled", u)

    @property
    def n_triplets(self) -> int:
        return self.triplets.shape[0]

    @property
    def n_unlabeled(self) -> int:
        return self.unlabeled.shape[0]


@dataclass(frozen=True)
class LabeledPool:
    """Fully labeled examples; used to materialize weak supervision and as
    the reference for the supervised training oracle."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=int)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise ShapeError("x must be (n, d) and y must be (n,)")
        if x.shape[0] and not np.all(np.isin(y, (1, -1))):
            raise InvalidInputError("labels must be +1 or -1")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def empirical_prior(self) -> ClassPrior:
        if len(self) == 0:
            raise InsufficientDataError("empty pool has no empirical prior")
        return ClassPrior(float(np.mean(self.y == 1)))
