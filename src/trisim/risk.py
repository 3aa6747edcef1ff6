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
square_loss, off the training path: supervised_risk_discrete sums it, the
reference the identity, matched and bias oracles hold the estimator to.

The estimator checks shapes and sizes up front, but reads finiteness off the
sum of its two side means: a NaN or an infinity in any score or weight makes
that sum non-finite, and only then are the arrays scanned, to name the fault.
Each public function is those checks plus its kernel (_empirical_risk,
_empirical_risk_grad), which keeps the scan; the trainer, whose arrays are
checked once per run, calls the kernels.

The batch gradient reads the raw risk only for its sign, dg/d raw. In the
polynomial's moments (n similarity scores z_us of weights w, m unlabeled
scores z_u, unlabeled coefficient c) the raw risk is

    raw = a*(w.z_us)/n + (c*a + b)*sum(z_u)/m + 1 + (z_u.z_u)/m.

This value and the exact pairwise sums each lie within about
(n + m)*2^-53*S of the true sum (Higham, Accuracy and Stability of
Numerical Algorithms, 2002, sections 3.1 and 4.2), where
S = |a|*sqrt((w.w)(z_us.z_us))/n + (|c*a| + |b|)*sqrt(m*(z_u.z_u))/m
+ 1 + (z_u.z_u)/m bounds every sum of absolute terms. So where
|raw| > 8*(n + m + 16)*2^-53*S, the exact sum has raw's sign and is not
zero, and the gradient takes the sign from raw. Elsewhere the exact side
means decide, raising every error and warning they always did: near the
kink, on a NaN or an infinity, and where (n + m + 16)*S passes 2^1000 and
an exact sum could overflow. Under correction none only that finiteness
test applies. empirical_risk keeps the exact sums: the logged risk's bytes
are pinned, and the moments give it only to within the bound.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import ClassPrior, CorrectionKind, InsufficientDataError, InvalidInputError

# np.vdot without the __array_function__ dispatch, which costs about a third of a call this small
_vdot = getattr(np.vdot, "__wrapped__", np.vdot)


@dataclass(frozen=True)
class Thetas:
    theta_us_plus: float
    theta_us_minus: float
    theta_u_plus: float
    theta_u_minus: float


def slot_weights(prior: ClassPrior, sampler_kind: str) -> tuple[np.ndarray, float]:
    """The matched estimator as a table of weights: per-slot similarity
    weights in (anchor, companion, companion) order, plus the coefficient on
    the unlabeled pool's mean similarity loss. With q = 1 - pi+pi- and
    mu = 2(pi+^2 + pi-^2) / q:

        sampler     slot weights            unlabeled coefficient
        rejection   (6, 0, 0)               -2 pi+ pi- / q
        paper_case  (1.5mu, 1.5mu, 1.5mu)   -mu / 2

    The similarity-side estimate is mean(weights * l_us) over the pooled
    (3n,) triplet points plus the coefficient times the unlabeled mean of
    l_us. Each row makes it an exactly unbiased estimate of the
    unnormalized similarity integral w_plus*E_{P+}[l_us] +
    w_minus*E_{P-}[l_us], whose total mass is mu. mu exceeds 1 for every
    valid prior, so the pooled mean (weights (1, 1, 1), coefficient 0)
    systematically underweights the similarity term by exactly that
    factor; trisim.verify's bias suite measures it.

    The rows use only each slot's label marginal, which
    trisim.verify.label_patterns writes down per sampler; given its label, a
    slot holds a class-conditional draw. Under rejection both companions
    are marginal-P draws like the unlabeled pool, so unbiasedness fixes only
    the sum of their coefficients; this row puts all of it on the unlabeled
    pool, and the companions get weight 0. Solving the linear system for
    each sampler gives the closed forms above; trisim.verify checks the
    resulting expectation against the reconstruction integral exactly.
    """
    prior.require_non_degenerate()
    pp, pm = prior.pi_plus, prior.pi_minus
    q = 1.0 - pp * pm
    if sampler_kind == "rejection":
        return np.array([6.0, 0.0, 0.0]), -2.0 * pp * pm / q
    if sampler_kind == "paper_case":
        mu = 2.0 * (pp * pp + pm * pm) / q
        return np.full(3, 1.5 * mu), -mu / 2.0
    raise InvalidInputError(f"unknown sampler kind {sampler_kind!r}")


def square_loss(scores, labels) -> np.ndarray:
    """Per-label square loss (1 - y*z)^2, for labels y in {+1, -1}
    broadcast against the scores."""
    return (1.0 - labels * np.asarray(scores, dtype=float)) ** 2


@functools.lru_cache(maxsize=64)
def _polynomial(prior: ClassPrior) -> tuple[float, float]:
    """Coefficients (a, b) of l_us(z) = a*z and l_u(z) = 1 + z^2 + b*z, as
    Python floats, worked out once per prior."""
    prior.require_non_degenerate()
    w = prior.pi_plus - prior.pi_minus
    q = 1.0 - prior.pi_plus * prior.pi_minus
    return float(-2.0 * q / w), float(2.0 / w)


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


def _validated(us_scores, u_scores, us_weights):
    """The score and weight arrays, shapes and sizes checked."""
    us = _check_scores(us_scores, "similarity")
    u = _check_scores(u_scores, "unlabeled")
    return us, u, _check_weights(us_weights, us.size)


def _side_terms(us, u, w, a, b, u_plus_coef):
    """The two side means of validated arrays, l_us = a*z and
    l_u = 1 + z^2 + b*z as in corrected_losses, each point's loss rounded
    as written there and the points summed pairwise, in the order that
    decides which overflow raises first. The three sums are built in place,
    in one temporary per side plus one for z^2."""
    t = np.multiply(us, a)
    t *= w
    us_mean = _mean(t)
    s = np.multiply(u, a)
    us_term = us_mean + u_plus_coef * _mean(s)
    v = np.multiply(u, u)
    v += 1.0
    v += np.multiply(u, b, out=s)
    u_term = _mean(v)
    if not math.isfinite(us_term + u_term):
        for arr, name in ((us, "similarity scores"), (u, "unlabeled scores"), (w, "us_weights")):
            if np.count_nonzero(np.isfinite(arr)) < arr.size:
                raise InvalidInputError(f"{name} contain non-finite values")
    return us_term, u_term


def empirical_risk(
    us_scores,
    u_scores,
    prior: ClassPrior,
    correction: CorrectionKind,
    us_weights=None,
    u_plus_coef: float = 0.0,
) -> RiskValue:
    """Mean corrected loss on each side, summed, then passed through g.

    With the default arguments both sides are unweighted sample means. Optional
    per-point similarity weights and a coefficient on the unlabeled pool's
    mean similarity loss support the measure-matched estimate the trainer
    uses (see slot_weights); those extra pieces are folded into us_term.
    """
    us, u, w = _validated(us_scores, u_scores, us_weights)
    return _empirical_risk(us, u, prior, correction, w, u_plus_coef)


def _empirical_risk(us, u, prior, correction, w, u_plus_coef) -> RiskValue:
    """empirical_risk's kernel, for float arrays of valid shapes and sizes."""
    us_term, u_term = _side_terms(us, u, w, *_polynomial(prior), u_plus_coef)
    raw = us_term + u_term
    return RiskValue(us_term=us_term, u_term=u_term, raw=raw, corrected=correction.apply(raw))


def compute_thetas(prior: ClassPrior) -> Thetas:
    """The mixing coefficients, read off the risk the trainer computes: a
    loss theta_plus*(1 - z)^2 + theta_minus*(1 + z)^2 is 4*theta_plus at
    z = -1 and 4*theta_minus at z = 1, so the us_term and u_term of two
    one-point empirical_risk calls give all four. Requires pi_plus != 0.5."""
    plus, minus = (empirical_risk([z], [z], prior, CorrectionKind.NONE) for z in (-1.0, 1.0))
    return Thetas(plus.us_term / 4, minus.us_term / 4, plus.u_term / 4, minus.u_term / 4)


def _certified_raw(us, u, w, a, b, u_plus_coef, correction) -> float | None:
    """The batch's raw risk from the polynomial's moments, where the
    rounding bound in the module docstring proves it has the exact sum's
    sign (or where correction reads no sign); else None. np.vdot does not
    check the floating-point status, so a NaN, an infinity or an overflow
    here raises and warns nothing: it makes S non-finite, and the sum over
    z_u runs only once S has bounded every |z_u|."""
    n, m, c = us.size, u.size, float(u_plus_coef)
    uu = float(_vdot(u, u))
    scale = (
        abs(a) * math.sqrt(float(_vdot(w, w)) * float(_vdot(us, us))) / n
        + (abs(c * a) + abs(b)) * math.sqrt(m * uu) / m
        + 1.0
        + uu / m
    )
    bound = (n + m + 16) * scale
    if not bound < 2.0**1000:
        return None
    raw = a * float(_vdot(w, us)) / n + (c * a + b) * float(np.add.reduce(u)) / m + 1.0 + uu / m
    if correction is CorrectionKind.NONE or abs(raw) > 8 * 2.0**-53 * bound:
        return raw
    return None


def empirical_risk_grad(
    us_scores,
    u_scores,
    prior: ClassPrior,
    correction: CorrectionKind,
    us_weights=None,
    u_plus_coef: float = 0.0,
) -> np.ndarray:
    """d corrected / d score for every input score, as one vector: the
    similarity scores' entries, then the unlabeled scores'.

    The raw estimate is linear in the per-point corrected losses, so each
    per-score derivative is the (weighted) per-point loss derivative,
    dl_us/dz = -2q/w or dl_u/dz = 2z + 2/w, divided by its side's count and
    scaled by dg/d raw (0 at the raw = 0 kink). dg/d raw comes from the
    moments' raw risk where its sign is certified, else from the exact
    side means (see the module docstring), and is the same either way.
    """
    us, u, w = _validated(us_scores, u_scores, us_weights)
    return _empirical_risk_grad(us, u, prior, correction, w, u_plus_coef)


def _empirical_risk_grad(us, u, prior, correction, w, u_plus_coef) -> np.ndarray:
    """empirical_risk_grad's kernel, for float arrays of valid shapes and sizes."""
    a, b = _polynomial(prior)
    raw = _certified_raw(us, u, w, a, b, u_plus_coef, correction)
    if raw is None:
        us_term, u_term = _side_terms(us, u, w, a, b, u_plus_coef)
        raw = us_term + u_term
    factor = correction.grad_factor(raw)
    n = us.size
    grad = np.empty(n + u.size)
    np.multiply(w, factor / n * a, out=grad[:n])
    g_u = np.multiply(u, 2.0, out=grad[n:])
    g_u += b + u_plus_coef * a
    g_u *= factor / u.size
    return grad


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
    pos = float(np.sum(domain.p_plus * square_loss(domain.scores, 1)))
    neg = float(np.sum(domain.p_minus * square_loss(domain.scores, -1)))
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
