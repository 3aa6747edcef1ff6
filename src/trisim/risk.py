"""Risk machinery: the corrected losses, the empirical risk estimator with
its gradient, the mixing coefficients read off that estimator, and the
exact discrete-domain reconstruction of the supervised risk.

Under the square loss both corrected losses are polynomials in the score z
(with w = pi_plus - pi_minus, q = 1 - pi_plus*pi_minus):

    l_us(z) = -(2q/w) * z             l_u(z) = 1 + z^2 + 2z/w

(the analytic squared-loss structure of SU learning, Bao, Niu and Sugiyama,
ICML 2018). The estimator is written in this form, the one place the
coefficients are derived. Each loss is also a mix
theta_plus*(1 - z)^2 + theta_minus*(1 + z)^2 of the per-label losses;
compute_thetas reads the four thetas off empirical_risk, and trisim.verify
checks them against the 4-equation matching system whose unique solution
makes the weighted class-conditional expectation of the corrected losses
reproduce the supervised risk. The per-label form survives only in
square_loss, which the supervised oracle trains on and the identity oracle
checks the polynomial against.

The estimator checks shapes and sizes up front, but reads finiteness off the
sum of its two side means: a NaN or an infinity in any score or weight makes
that sum non-finite, and only then are the arrays scanned, to name the fault.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ClassPrior, CorrectionKind, InsufficientDataError, InvalidInputError


@dataclass(frozen=True)
class Thetas:
    theta_us_plus: float
    theta_us_minus: float
    theta_u_plus: float
    theta_u_minus: float


# The similarity-side estimators, default first (see slot_weights).
ESTIMATORS = ("matched", "plain")


def slot_weights(prior: ClassPrior, sampler_kind: str, estimator: str) -> tuple[np.ndarray, float]:
    """The estimator as a table of weights: per-slot similarity weights in
    (anchor, companion, companion) order, plus the coefficient on the
    unlabeled pool's mean similarity loss. With q = 1 - pi+pi- and
    mu = 2(pi+^2 + pi-^2) / q:

        estimator  sampler     slot weights            unlabeled coefficient
        plain      either      (1, 1, 1)               0
        matched    rejection   (6, 0, 0)               -2 pi+ pi- / q
        matched    paper_case  (1.5mu, 1.5mu, 1.5mu)   -mu / 2

    The similarity-side estimate is mean(weights * l_us) over the pooled
    (3n,) triplet points plus the coefficient times the unlabeled mean of
    l_us. The matched rows make it an exactly unbiased estimate of the
    unnormalized similarity integral w_plus*E_{P+}[l_us] +
    w_minus*E_{P-}[l_us], whose total mass is mu. mu exceeds 1 for every
    valid prior, so the plain pooled mean systematically underweights the
    similarity term by exactly that factor.

    The matched rows use only each slot's label marginal, which
    trisim.verify.label_patterns writes down per sampler; given its label, a
    slot holds a class-conditional draw. Under rejection both companions
    are marginal-P draws like the unlabeled pool, so unbiasedness fixes only
    the sum of their coefficients; this row puts all of it on the unlabeled
    pool, and the companions get weight 0. Solving the linear system for
    each sampler gives the closed forms above; trisim.verify checks the
    resulting expectation against the reconstruction integral exactly.
    """
    if estimator == "plain":
        return np.ones(3), 0.0
    if estimator != "matched":
        raise InvalidInputError(f"unknown estimator {estimator!r}")
    prior.require_non_degenerate()
    pp, pm = prior.pi_plus, prior.pi_minus
    q = 1.0 - pp * pm
    if sampler_kind == "rejection":
        return np.array([6.0, 0.0, 0.0]), -2.0 * pp * pm / q
    if sampler_kind == "paper_case":
        mu = 2.0 * (pp * pp + pm * pm) / q
        return np.full(3, 1.5 * mu), -mu / 2.0
    raise InvalidInputError(f"unknown sampler kind {sampler_kind!r}")


def square_loss(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Per-label square loss (1 - y*z)^2 and its derivative in z, for
    labels y in {+1, -1} broadcast against the scores."""
    margin = 1.0 - labels * np.asarray(scores, dtype=float)
    return margin**2, -2.0 * labels * margin


def _polynomial(prior: ClassPrior) -> tuple[float, float]:
    """Coefficients (a, b) of l_us(z) = a*z and l_u(z) = 1 + z^2 + b*z."""
    prior.require_non_degenerate()
    w = prior.pi_plus - prior.pi_minus
    q = 1.0 - prior.pi_plus * prior.pi_minus
    return -2.0 * q / w, 2.0 / w


def corrected_losses(scores, prior: ClassPrior) -> tuple[np.ndarray, np.ndarray]:
    """Similarity-side and unlabeled-side corrected losses at each score,
    l_us(z) = -(2q/w)*z and l_u(z) = 1 + z^2 + 2z/w. Both can be negative.
    Raises DegeneratePriorError at pi_plus = 0.5."""
    a, b = _polynomial(prior)
    z = np.asarray(scores, dtype=float)
    return a * z, 1.0 + z * z + b * z


@dataclass(frozen=True)
class RiskValue:
    """Evaluated risk estimate: the two side means, their sum, and the
    corrected value g(raw)."""

    us_term: float
    u_term: float
    raw: float
    corrected: float


def _check_scores(scores, side: str) -> np.ndarray:
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 1:
        raise InvalidInputError(f"{side} scores must be a 1-D array")
    if arr.size == 0:
        raise InsufficientDataError(f"{side} score list is empty")
    return arr


def _check_weights(us_weights, n: int) -> np.ndarray:
    if us_weights is None:
        return np.ones(n)
    w = np.asarray(us_weights, dtype=float)
    if w.shape != (n,):
        raise InvalidInputError(
            f"us_weights must match the similarity score count {n}, got shape {w.shape}"
        )
    return w


def _mean(v: np.ndarray) -> float:
    """np.mean of a 1-D float array, bit for bit (the same pairwise sum
    and one division), without np.mean's Python-level dispatch."""
    return float(np.add.reduce(v) / v.size)


def _side_terms(us_scores, u_scores, prior, us_weights, u_plus_coef):
    """Validated score and weight arrays, the polynomial's (a, b), then the
    two side means: l_us = a*z and l_u = 1 + z^2 + b*z, as in
    corrected_losses."""
    us = _check_scores(us_scores, "similarity")
    u = _check_scores(u_scores, "unlabeled")
    w = _check_weights(us_weights, us.size)
    a, b = _polynomial(prior)
    us_term = _mean(w * (a * us))
    if u_plus_coef:
        us_term += u_plus_coef * _mean(a * u)
    u_term = _mean(1.0 + u * u + b * u)
    if not math.isfinite(us_term + u_term):
        for arr, name in ((us, "similarity scores"), (u, "unlabeled scores"), (w, "us_weights")):
            if np.count_nonzero(np.isfinite(arr)) < arr.size:
                raise InvalidInputError(f"{name} contain non-finite values")
    return us, u, w, a, b, us_term, u_term


def empirical_risk(
    us_scores,
    u_scores,
    prior: ClassPrior,
    correction: CorrectionKind,
    us_weights=None,
    u_plus_coef: float = 0.0,
) -> RiskValue:
    """Mean corrected loss on each side, summed, then passed through g.

    With the default arguments both sides are plain sample means. Optional
    per-point similarity weights and a coefficient on the unlabeled pool's
    mean similarity loss support the measure-matched estimate the trainer
    uses (see slot_weights); those extra pieces are folded into us_term.
    """
    *_, us_term, u_term = _side_terms(us_scores, u_scores, prior, us_weights, u_plus_coef)
    raw = us_term + u_term
    return RiskValue(us_term=us_term, u_term=u_term, raw=raw, corrected=correction.apply(raw))


def compute_thetas(prior: ClassPrior) -> Thetas:
    """The mixing coefficients, read off the risk the trainer computes: a
    loss theta_plus*(1 - z)^2 + theta_minus*(1 + z)^2 is 4*theta_plus at
    z = -1 and 4*theta_minus at z = 1, so the us_term and u_term of two
    one-point empirical_risk calls give all four. Requires pi_plus != 0.5."""
    plus, minus = (empirical_risk([z], [z], prior, CorrectionKind.NONE) for z in (-1.0, 1.0))
    return Thetas(plus.us_term / 4, minus.us_term / 4, plus.u_term / 4, minus.u_term / 4)


def empirical_risk_grad(
    us_scores,
    u_scores,
    prior: ClassPrior,
    correction: CorrectionKind,
    us_weights=None,
    u_plus_coef: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """d corrected / d score for every input score.

    The raw estimate is linear in the per-point corrected losses, so each
    per-score derivative is the (weighted) per-point loss derivative,
    dl_us/dz = -2q/w or dl_u/dz = 2z + 2/w, divided by its side's count and
    scaled by dg/d raw (0 at the raw = 0 kink).
    """
    us, u, w, a, b, us_term, u_term = _side_terms(
        us_scores, u_scores, prior, us_weights, u_plus_coef
    )
    factor = correction.grad_factor(us_term + u_term)
    g_us = factor / us.size * a * w
    g_u = np.multiply(u, 2.0)
    g_u += b + u_plus_coef * a
    g_u *= factor / u.size
    return g_us, g_u


@dataclass(frozen=True)
class DiscreteDomainSpec:
    """A finite instance space: class-conditional pmfs over K support points
    plus the scorer's value at each point. Small enough domains make every
    expectation an exact sum, which is where the algebraic identities below
    can be checked to machine precision."""

    p_plus: np.ndarray
    p_minus: np.ndarray
    prior: ClassPrior
    scores: np.ndarray

    def __post_init__(self):
        pp = np.asarray(self.p_plus, dtype=float)
        pm = np.asarray(self.p_minus, dtype=float)
        f = np.asarray(self.scores, dtype=float)
        if not (pp.ndim == pm.ndim == f.ndim == 1) or not (pp.size == pm.size == f.size):
            raise InvalidInputError("p_plus, p_minus, scores must be 1-D of equal length")
        for name, v in (("p_plus", pp), ("p_minus", pm)):
            if np.any(v < 0) or abs(v.sum() - 1.0) > 1e-12:
                raise InvalidInputError(f"{name} must be a probability vector summing to 1")
        if not np.all(np.isfinite(f)):
            raise InvalidInputError("scores must be finite")
        object.__setattr__(self, "p_plus", pp)
        object.__setattr__(self, "p_minus", pm)
        object.__setattr__(self, "scores", f)

    @property
    def p_marginal(self) -> np.ndarray:
        return self.prior.pi_plus * self.p_plus + self.prior.pi_minus * self.p_minus

    def draw_class(self, rng: np.random.Generator, label: int, n: int) -> np.ndarray:
        """n support-point indices of one class, as 1-D sampler features."""
        p = self.p_plus if label == 1 else self.p_minus
        return rng.choice(p.size, size=n, p=p).astype(float)[:, None]


def supervised_risk_discrete(domain: DiscreteDomainSpec) -> float:
    """Prior-weighted class-conditional expectation of the per-label losses,
    taken as an exact sum over the support."""
    pos = float(np.sum(domain.p_plus * square_loss(domain.scores, 1)[0]))
    neg = float(np.sum(domain.p_minus * square_loss(domain.scores, -1)[0]))
    return domain.prior.pi_plus * pos + domain.prior.pi_minus * neg


def reconstructed_risk_discrete(domain: DiscreteDomainSpec) -> float:
    """The weak-supervision risk rebuilt from corrected losses.

    Expands both side expectations into weighted class-conditional sums:

        w_plus  * E_{P+}[l_us] + w_minus * E_{P-}[l_us]
        + pi_plus * E_{P+}[l_u] + pi_minus * E_{P-}[l_u]

    with w_± = 2*pi_±^2 / (1 - pi_plus*pi_minus). Equal to the supervised
    risk for every valid domain; trisim.verify property-tests the identity.
    """
    prior = domain.prior
    q = 1.0 - prior.pi_plus * prior.pi_minus
    w_plus = 2.0 * prior.pi_plus**2 / q
    w_minus = 2.0 * prior.pi_minus**2 / q
    lus, lu = corrected_losses(domain.scores, prior)
    e_us = w_plus * np.sum(domain.p_plus * lus) + w_minus * np.sum(domain.p_minus * lus)
    e_u = prior.pi_plus * np.sum(domain.p_plus * lu) + prior.pi_minus * np.sum(domain.p_minus * lu)
    return float(e_us + e_u)
