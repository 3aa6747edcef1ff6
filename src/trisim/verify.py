"""Brute-force and analytic oracles for every algebraic claim the risk
machinery rests on, plus a quantified (never asserted-away) measurement of
the bias of the pooled mean, the similarity-side average with no slot
weights.

The bias suite sums over each sampler's 8 label patterns on a small
discrete domain, so the expected value of that mean is computed with no
sampling error at all; Monte Carlo through the real samplers then has to
agree with that enumeration within standard error.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .core import SAMPLERS, ClassPrior, ConfigurationError, CorrectionKind, InvalidInputError
from .evaluation import sweep
from .model import backward, forward, init_model
from .risk import (
    DiscreteDomainSpec,
    Thetas,
    compute_thetas,
    corrected_losses,
    empirical_risk,
    empirical_risk_grad,
    reconstructed_risk_discrete,
    slot_weights,
    supervised_risk_discrete,
)
from .sampler import (
    default_gaussian_spec,
    paper_case_weights,
    sample_triplets_paper_case,
    sample_triplets_rejection,
    sample_unlabeled,
)
from .trainer import TrainConfig


@dataclass(frozen=True)
class CheckRecord:
    name: str
    expected: float | None
    observed: float | None
    tolerance: float | None
    passed: bool
    assertable: bool = True


@dataclass
class VerifyReport:
    suite: str
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def assertable_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.assertable)

    def add(self, name, expected, observed, tolerance, passed=None, assertable=True):
        if passed is None:
            passed = abs(observed - expected) <= tolerance
        self.checks.append(
            CheckRecord(
                name=name,
                expected=None if expected is None else float(expected),
                observed=None if observed is None else float(observed),
                tolerance=None if tolerance is None else float(tolerance),
                passed=bool(passed),
                assertable=assertable,
            )
        )

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [vars(c) for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "VerifyReport":
        report = cls(suite=d["suite"])
        for c in d["checks"]:
            report.checks.append(CheckRecord(**c))
        return report

    @staticmethod
    def merge(reports: list["VerifyReport"]) -> "VerifyReport":
        merged = VerifyReport(suite="all")
        for r in reports:
            for c in r.checks:
                merged.checks.append(replace(c, name=f"{r.suite}.{c.name}"))
        return merged


def default_prior_grid() -> list[float]:
    return [round(0.05 * k, 2) for k in range(1, 20) if abs(0.05 * k - 0.5) > 1e-9]


def check_theta_system() -> VerifyReport:
    """Substitute the coefficients into the four matching equations at every
    prior of the default grid; all residuals must vanish to machine precision."""
    report = VerifyReport(suite="thetas")
    for pi in default_prior_grid():
        prior = ClassPrior(pi)
        residual = max(abs(r) for r in theta_system_residuals(prior, compute_thetas(prior)))
        report.add(f"matching_residual_pi={pi}", 0.0, residual, 1e-12)
    return report


def theta_system_residuals(prior: ClassPrior, thetas: Thetas) -> tuple[float, float, float, float]:
    """Residuals of the four-equation system that pins down the mixing
    coefficients (weighted similarity term + prior-weighted unlabeled term
    must reproduce the prior-weighted per-label loss coefficients)."""
    pp, pm = prior.pi_plus, prior.pi_minus
    q = 1.0 - pp * pm
    w_plus, w_minus = 2.0 * pp**2 / q, 2.0 * pm**2 / q
    return (
        w_plus * thetas.theta_us_plus + pp * thetas.theta_u_plus - pp,
        w_plus * thetas.theta_us_minus + pp * thetas.theta_u_minus - 0.0,
        w_minus * thetas.theta_us_plus + pm * thetas.theta_u_plus - 0.0,
        w_minus * thetas.theta_us_minus + pm * thetas.theta_u_minus - pm,
    )


def random_domain(rng: np.random.Generator, max_support: int = 8) -> DiscreteDomainSpec:
    k = int(rng.integers(1, max_support + 1))
    p_plus = rng.dirichlet(np.ones(k))
    p_minus = rng.dirichlet(np.ones(k))
    pi = float(rng.choice([0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9]))
    scores = rng.uniform(-2.0, 2.0, size=k)
    return DiscreteDomainSpec(
        p_plus=p_plus, p_minus=p_minus, prior=ClassPrior(pi), scores=scores
    )


def check_risk_identity(n_trials: int = 100, seed: int = 0) -> VerifyReport:
    """Supervised risk vs its weak-supervision reconstruction on random
    discrete domains; the two are algebraically identical."""
    report = VerifyReport(suite="identity")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        domain = random_domain(rng)
        gap = abs(supervised_risk_discrete(domain) - reconstructed_risk_discrete(domain))
        worst = max(worst, gap)
    report.add(f"max_reconstruction_gap_{n_trials}_trials", 0.0, worst, 1e-10)
    return report


@dataclass(frozen=True)
class _LabelsOnly:
    """A source of class labels alone: rows of no features, so the rejection
    sampler draws the labels its accept rule reads and nothing else."""

    prior: ClassPrior

    def draw_class(self, rng: np.random.Generator, label: int, n: int) -> np.ndarray:
        return np.empty((n, 0))


def check_acceptance_rate(
    priors: list[float] | None = None, n_draws: int = 100_000, seed: int = 0
) -> VerifyReport:
    """Monte Carlo acceptance fraction of the rejection sampler against the
    closed form 1 - pi_plus*pi_minus, within 3 standard errors. Only None
    selects the default priors."""
    if priors is not None and len(priors) == 0:
        raise ConfigurationError("priors is empty: pass None for the default priors")
    report = VerifyReport(suite="acceptance")
    for i, pi in enumerate([0.2, 0.4, 0.6] if priors is None else priors):
        prior = ClassPrior(pi)
        rng = np.random.default_rng([seed, i])
        stats = sample_triplets_rejection(_LabelsOnly(prior), n_draws, rng)[1]
        p = 1.0 - prior.pi_plus * prior.pi_minus
        se = np.sqrt(p * (1.0 - p) / stats.n_raw)
        report.add(f"acceptance_rate_pi={pi}", p, stats.acceptance_rate, 3.0 * se)
    return report


def label_patterns(prior: ClassPrior, sampler_kind: str) -> np.ndarray:
    """The sampler's label law: P(anchor, first companion, second companion
    labels) as a (2, 2, 2) array, index 0 positive, symmetric in the
    companions. rejection keeps three i.i.d. prior labels unless the
    companions share a class the anchor lacks, renormalized by q = 1 - pi+pi-.
    paper_case ties the anchor and either companion to a class t chosen with
    probability proportional to pi_t^2; the other companion's label is drawn
    from the prior."""
    pi = np.array([prior.pi_plus, prior.pi_minus])
    if sampler_kind == "rejection":
        # pi_b * pi_c first, so the table is symmetric in the companions bit for bit
        table = pi[:, None, None] * (pi[:, None] * pi) / (1.0 - prior.pi_plus * prior.pi_minus)
        table[0, 1, 1] = table[1, 0, 0] = 0.0  # the companions share a class the anchor lacks
        return table
    if sampler_kind == "paper_case":
        # cases 0 and 1 tie the anchor to the first companion, 2 and 3 to the second
        case = paper_case_weights(prior)
        table = np.zeros((2, 2, 2))
        for t in (0, 1):
            table[t, t] += case[t] * pi
            table[t, :, t] += case[2 + t] * pi
        return table
    raise InvalidInputError(f"unknown sampler kind {sampler_kind!r}")


# The pooled mean as a slot_weights row: every slot weighted 1 and no
# unlabeled coefficient. No trainer uses it; the bias suite measures it.
POOLED_ROW = (np.ones(3), 0.0)


def enumerate_estimator_expectation(
    domain: DiscreteDomainSpec, sampler_kind: str, row: tuple[np.ndarray, float]
) -> tuple[float, float]:
    """Exact E[estimator] under the chosen sampler for the slot_weights row
    (weights, c_u): the mean of the three slot-weighted slot expectations
    of l_us, plus c_u times the marginal expectation of l_us, plus the
    marginal expectation of l_u.

    Given its label, each triplet member is a class-conditional draw, so a
    slot's expectation is its label marginal from label_patterns times the
    two class-conditional expectations of l_us.

    Returns (expectation, total probability of the label patterns); the
    latter must be 1 up to rounding.
    """
    lus, lu = corrected_losses(domain.scores, domain.prior)
    weights, c_u = row
    table = label_patterns(domain.prior, sampler_kind)
    slot_labels = [table.sum(axis=(1, 2)), table.sum(axis=(0, 2)), table.sum(axis=(0, 1))]
    e_pos = np.array(slot_labels) @ [domain.p_plus @ lus, domain.p_minus @ lus]
    e_us = float(np.mean(weights * e_pos)) + c_u * float(np.sum(domain.p_marginal * lus))
    return e_us + float(np.sum(domain.p_marginal * lu)), float(table.sum())


def check_matched_calibration(n_trials: int = 50, seed: int = 0) -> VerifyReport:
    """The measure-matched similarity weighting must make the expected raw
    estimate equal the supervised risk exactly, for both samplers, on random
    discrete domains. This is the constructive counterpart of the bias
    suite: the pooled mean is biased, the matched combination is not."""
    report = VerifyReport(suite="matched")
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(SAMPLERS, 0.0)
    for _ in range(n_trials):
        domain = random_domain(rng)
        supervised = supervised_risk_discrete(domain)
        for kind in worst:
            row = slot_weights(domain.prior, kind)
            expected_raw, _ = enumerate_estimator_expectation(domain, kind, row)
            worst[kind] = max(worst[kind], abs(expected_raw - supervised))
    for kind, gap in worst.items():
        report.add(f"matched_raw_equals_supervised_{kind}", 0.0, gap, 1e-10)
    return report


def measure_estimator_bias(
    domain: DiscreteDomainSpec,
    sampler_kind: str,
    n_mc: int = 50_000,
    seed: int = 0,
) -> VerifyReport:
    """Quantify E[pooled mean] - supervised risk.

    The bias is reported, never asserted to be zero: the pooled triplet
    measure the similarity-side average is taken under does not normalize,
    so sample-level unbiasedness is not an algebraic fact. The assertable
    parts are the enumeration's total probability and the Monte Carlo
    self-consistency.
    """
    report = VerifyReport(suite="bias")
    expectation, total_prob = enumerate_estimator_expectation(domain, sampler_kind, POOLED_ROW)
    report.add("enumeration_total_probability", 1.0, total_prob, 1e-12)

    supervised = supervised_risk_discrete(domain)
    delta = expectation - supervised
    report.add("bias_delta", None, delta, None, passed=True, assertable=False)

    rng = np.random.default_rng(seed)
    if sampler_kind == "rejection":
        triplets, _ = sample_triplets_rejection(domain, n_mc, rng)
    else:
        triplets = sample_triplets_paper_case(domain, n_mc, rng)
    lus, lu = corrected_losses(domain.scores, domain.prior)
    # each slot's support-point index gives way to its loss, in place
    slot_losses = triplets[:, :, 0]
    np.take(lus, slot_losses.astype(int), out=slot_losses, mode="clip")
    per_triplet = slot_losses.mean(axis=1)
    del triplets, slot_losses
    per_u = lu[sample_unlabeled(domain, n_mc, rng)[:, 0].astype(int)]
    mc = float(per_triplet.mean() + per_u.mean())
    se = float(np.sqrt(per_triplet.var(ddof=1) / n_mc + per_u.var(ddof=1) / n_mc))
    report.add("mc_vs_enumeration", expectation, mc, 3.0 * se)
    return report


def constant_scorer_bias_closed_form(prior: ClassPrior, c: float) -> float:
    """The pooled mean's bias for a constant scorer z = c, from the prior
    alone: a reference independent of the thetas and of the polynomial.
    Under either sampler the estimate is l_us(c) + l_u(c) = 1 + c^2 + (a + b)c
    (a = -2q/w, b = 2/w) and the supervised risk is 1 + c^2 - 2wc, so with
    w^2 = 1 - 4pi+pi- the bias is (a + b + 2w)c = 2c(1 - 3pi+pi-)/w, -2.8c at
    pi = 0.4."""
    prior.require_non_degenerate()
    w = prior.pi_plus - prior.pi_minus
    # + 0.0 turns the -0.0 that c = 0 gives for w < 0 into 0.0
    return 2.0 * c * (1.0 - 3.0 * prior.pi_plus * prior.pi_minus) / w + 0.0


def run_bias_suite(seed: int = 0, n_mc: int = 50_000) -> VerifyReport:
    """Standard bias measurements: constant-scorer enumeration against the
    closed form, then Monte Carlo self-consistency on a random support-4
    domain, for both sampler kinds."""
    report = VerifyReport(suite="bias")
    prior = ClassPrior(0.4)
    for c in (0.0, 1.0, -0.5):
        domain = DiscreteDomainSpec(
            p_plus=np.array([0.7, 0.3]),
            p_minus=np.array([0.2, 0.8]),
            prior=prior,
            scores=np.array([c, c]),
        )
        closed = constant_scorer_bias_closed_form(prior, c)
        for kind in SAMPLERS:
            expectation, _ = enumerate_estimator_expectation(domain, kind, POOLED_ROW)
            delta = expectation - supervised_risk_discrete(domain)
            report.add(f"constant_scorer_c={c}_{kind}", closed, delta, 1e-10)

    rng = np.random.default_rng(seed)
    domain = DiscreteDomainSpec(
        p_plus=rng.dirichlet(np.ones(4)),
        p_minus=rng.dirichlet(np.ones(4)),
        prior=prior,
        scores=rng.uniform(-2, 2, size=4),
    )
    for kind in SAMPLERS:
        sub = measure_estimator_bias(domain, kind, n_mc=n_mc, seed=seed)
        for check in sub.checks:
            report.checks.append(replace(check, name=f"{kind}_{check.name}"))
    return report


def check_gradients(n_trials: int = 50, seed: int = 0) -> VerifyReport:
    """Analytic gradient of the corrected batch risk through the model vs
    central finite differences, away from correction and relu kinks."""
    report = VerifyReport(suite="gradients")
    rng = np.random.default_rng(seed)
    corrections = list(CorrectionKind)
    trial = 0
    attempts = 0
    while trial < n_trials and attempts < 50 * n_trials:
        attempts += 1
        kind = "linear" if trial % 2 == 0 else "mlp"
        correction = corrections[trial % 3]
        dim = int(rng.integers(2, 5))
        hidden = int(rng.integers(3, 7))
        prior = ClassPrior(float(rng.choice([0.2, 0.3, 0.4, 0.6, 0.7, 0.8])))
        model = init_model(kind, dim, hidden, seed=int(rng.integers(1 << 31)))
        theta = model.theta
        theta += 0.3 * rng.standard_normal(theta.shape)
        x_us = rng.uniform(-1.5, 1.5, size=(int(rng.integers(3, 9)) * 3, dim))
        x_u = rng.uniform(-1.5, 1.5, size=(int(rng.integers(2, 7)), dim))
        # alternate between the unweighted terms compute_thetas reads and a
        # weighted similarity term of the kind the trainer uses
        if trial % 2 == 1:
            us_weights = rng.uniform(-2.0, 3.0, size=x_us.shape[0])
            u_plus_coef = float(rng.uniform(-1.0, 1.0))
        else:
            us_weights, u_plus_coef = None, 0.0

        def risk(fn, corr):
            return fn(
                forward(model, x_us),
                forward(model, x_u),
                prior,
                corr,
                us_weights=us_weights,
                u_plus_coef=u_plus_coef,
            )

        raw = risk(empirical_risk, CorrectionKind.NONE).raw
        if correction is not CorrectionKind.NONE and abs(raw) < 1e-3:
            continue  # too close to the correction kink for finite differences
        if kind == "mlp":
            pre = np.concatenate([x_us, x_u]) @ model.w1.T + model.b1
            if np.min(np.abs(pre)) < 1e-4:
                continue  # relu kink

        grad = backward(model, np.concatenate([x_us, x_u]), risk(empirical_risk_grad, correction))

        eps = 1e-5
        max_rel = 0.0
        for j, an in enumerate(grad):
            orig = theta[j]
            theta[j] = orig + eps
            up = risk(empirical_risk, correction).corrected
            theta[j] = orig - eps
            down = risk(empirical_risk, correction).corrected
            theta[j] = orig
            fd = (up - down) / (2 * eps)
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-4)
            max_rel = max(max_rel, rel)
        report.add(
            f"trial_{trial}_{kind}_{correction.value}", 0.0, max_rel, 1e-5
        )
        trial += 1
    return report


def _spearman(a, b) -> float:
    """Spearman rank correlation: the Pearson correlation of the average
    ranks, where tied values share the mean of the ranks they span."""

    def ranks(v):
        v = np.asarray(v, dtype=float)
        return (v[:, None] > v).sum(axis=1) + ((v[:, None] == v).sum(axis=1) + 1) / 2

    return float(np.corrcoef(ranks(a), ranks(b))[1, 0])


def check_error_trend(
    fractions: list[float] | None = None,
    seeds: list[int] | None = None,
    n_us: int = 2000,
    n_u: int = 2000,
) -> VerifyReport:
    """More data should not hurt: on the default Gaussian source, the mean
    accuracy at the full budget must reach the smallest-fraction mean, with
    a positive rank correlation between fraction and accuracy, which is
    recorded as null and failed when every mean ties. Only None selects a
    default list; fewer than two distinct fractions raise."""
    fractions = sorted([0.1, 0.25, 0.5, 1.0] if fractions is None else fractions)
    if len(set(fractions)) < 2:
        raise ConfigurationError(f"fractions need two distinct values or more, got {fractions}")
    seeds = [0, 1, 2, 3, 4] if seeds is None else seeds
    source_spec = default_gaussian_spec()
    report = VerifyReport(suite="trend")
    result = sweep(
        "fraction", fractions, seeds, source_spec, TrainConfig(prior=source_spec.prior), n_us, n_u
    )
    means = [row.mean for row in result.rows]
    report.add(
        "full_vs_smallest_fraction",
        means[0],
        means[-1],
        None,
        passed=means[-1] >= means[0],
    )
    rho = _spearman(fractions, means) if len(set(means)) > 1 else None
    report.add("spearman_rank_correlation", None, rho, None, passed=rho is not None and rho > 0)
    return report
