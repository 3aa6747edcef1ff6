"""Unit tests for the verification oracles themselves: the report
container, the enumeration machinery, and the individual suites."""
import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import trisim
from trisim.cli import SUITES
from trisim import evaluation
from trisim.core import SAMPLERS, ClassPrior, ConfigurationError, InvalidInputError
from trisim.risk import (
    DiscreteDomainSpec,
    compute_thetas,
    corrected_losses,
    slot_weights,
    supervised_risk_discrete,
)
from trisim.sampler import (
    paper_case_weights,
    sample_triplets_paper_case,
    sample_triplets_rejection,
)
from trisim.verify import (
    _spearman,
    VerifyReport,
    check_acceptance_rate,
    check_error_trend,
    check_gradients,
    check_matched_calibration,
    check_risk_identity,
    check_theta_system,
    constant_scorer_bias_closed_form,
    default_gaussian_spec,
    default_prior_grid,
    enumerate_estimator_expectation,
    label_patterns,
    measure_estimator_bias,
    random_domain,
    run_bias_suite,
    theta_system_residuals,
)


def _domain(pi=0.4):
    return DiscreteDomainSpec(
        p_plus=np.array([0.7, 0.2, 0.1]),
        p_minus=np.array([0.1, 0.3, 0.6]),
        prior=ClassPrior(pi),
        scores=np.array([1.2, -0.4, 0.3]),
    )


def reference_position_expectations(domain, sampler_kind, values):
    """The K^3 joint enumeration label_patterns replaced, kept verbatim as a
    reference (the support-size cap dropped): per-position expectations of a
    pointwise function and the total probability of the configurations."""
    prior = domain.prior
    cond = {1: domain.p_plus, -1: domain.p_minus}
    members = []  # (probability, anchor pmf, first companion pmf, second companion pmf)
    if sampler_kind == "rejection":
        class_prob = {1: prior.pi_plus, -1: prior.pi_minus}
        p_accept = 1.0 - prior.pi_plus * prior.pi_minus
        for y1, y2, y3 in itertools.product((1, -1), repeat=3):
            if y2 == y3 != y1:
                continue  # rejected: the companions share a class the anchor lacks
            prob = class_prob[y1] * class_prob[y2] * class_prob[y3] / p_accept
            members.append((prob, cond[y1], cond[y2], cond[y3]))
    elif sampler_kind == "paper_case":
        # cases 0 and 1 tie the anchor to the first companion, cases 2 and 3
        # to the second; the remaining slot holds the marginal draw
        marginal = domain.p_marginal
        for case, w in enumerate(paper_case_weights(prior)):
            tied = cond[1] if case % 2 == 0 else cond[-1]
            members.append((w, tied, tied, marginal) if case < 2 else (w, tied, marginal, tied))
    else:
        raise InvalidInputError(f"unknown sampler kind {sampler_kind!r}")
    joint = sum(
        w * a[:, None, None] * b[None, :, None] * c[None, None, :] for w, a, b, c in members
    )
    joint = 0.5 * (joint + joint.transpose(0, 2, 1))
    slots = (joint.sum(axis=(1, 2)), joint.sum(axis=(0, 2)), joint.sum(axis=(0, 1)))
    return np.array([slot @ values for slot in slots]), float(joint.sum())


class TestVerifyReport:
    def test_passed_aggregates(self):
        r = VerifyReport(suite="x")
        r.add("a", 0.0, 0.0, 1e-9)
        r.add("b", 0.0, 1.0, 1e-9)
        assert not r.passed
        assert [c.passed for c in r.checks] == [True, False]

    def test_non_assertable_checks_do_not_block(self):
        r = VerifyReport(suite="x")
        r.add("informational", None, 0.3, None, passed=False, assertable=False)
        assert not r.passed
        assert r.assertable_passed

    def test_json_round_trip(self):
        r = VerifyReport(suite="x")
        r.add("a", 1.0, 1.0, 1e-9)
        back = VerifyReport.from_dict(r.to_dict())
        assert back.suite == "x"
        assert back.checks == r.checks

    def test_merge_prefixes_names(self):
        a = VerifyReport(suite="one")
        a.add("c", 0.0, 0.0, 1.0)
        merged = VerifyReport.merge([a])
        assert merged.checks[0].name == "one.c"


class TestThetaSystem:
    def test_grid_excludes_half(self):
        grid = default_prior_grid()
        assert 0.5 not in grid
        assert len(grid) == 18

    def test_full_grid_passes(self):
        assert check_theta_system().passed

    def test_residuals_detect_wrong_thetas(self):
        prior = ClassPrior(0.4)
        wrong = compute_thetas(ClassPrior(0.3))
        worst = max(abs(r) for r in theta_system_residuals(prior, wrong))
        assert worst > 1e-3


class TestEmptyLists:
    # only None selects a suite's defaults; an empty list is an error that
    # names the parameter, raised before any work
    @pytest.mark.parametrize(
        "run,name",
        [
            (lambda: check_theta_system(prior_grid=[]), "prior_grid"),
            (lambda: check_acceptance_rate(priors=[]), "priors"),
            (lambda: check_error_trend(fractions=[]), "fractions"),
            (lambda: check_error_trend(seeds=[]), "seeds"),
        ],
        ids=["prior_grid", "priors", "fractions", "seeds"],
    )
    def test_empty_list_raises_naming_it(self, monkeypatch, run, name):
        def no_run(*args, **kwargs):
            raise AssertionError("weak_run called")

        monkeypatch.setattr(evaluation, "weak_run", no_run)
        with pytest.raises(ConfigurationError, match=rf"\b{name}\b"):
            run()


class TestTrendNeedsTwoFractions:
    # a rank correlation over fewer than two distinct fractions is undefined
    @pytest.mark.parametrize("fractions", [[0.5, 0.5], [1.0]])
    def test_raises_naming_fractions_before_training(self, monkeypatch, fractions):
        def no_run(*args, **kwargs):
            raise AssertionError("weak_run called")

        monkeypatch.setattr(evaluation, "weak_run", no_run)
        with pytest.raises(ConfigurationError, match=r"\bfractions\b"):
            check_error_trend(fractions=fractions)

    def test_tied_means_record_a_null_failed_correlation(self, monkeypatch):
        monkeypatch.setattr(evaluation, "weak_run", lambda *a, **k: 0.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_error_trend(fractions=[0.5, 1.0], seeds=[0, 1], n_us=40, n_u=60)
        rho = report.checks[-1]
        assert (rho.name, rho.observed, rho.passed) == ("spearman_rank_correlation", None, False)

        def no_constant(name):
            raise AssertionError(f"bare {name} in the report")

        json.loads(report.to_json(), parse_constant=no_constant)


class TestIdentityAndAcceptance:
    def test_risk_identity_suite(self):
        report = check_risk_identity(n_trials=30, seed=1)
        assert report.passed
        assert report.checks[0].observed < 1e-10

    def test_acceptance_rate_suite(self):
        report = check_acceptance_rate(priors=[0.3], n_draws=30_000, seed=2)
        assert report.passed

    def test_random_domain_is_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            d = random_domain(rng)
            assert d.p_plus.sum() == pytest.approx(1.0)
            assert d.prior.pi_plus != 0.5


class TestEnumeration:
    def test_total_probability_is_one(self):
        for kind in ("rejection", "paper_case"):
            _, total = enumerate_estimator_expectation(_domain(), kind)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_label_patterns_sum_to_one(self):
        for pi, kind in itertools.product((0.1, 0.2, 0.4, 0.6, 0.9), SAMPLERS):
            table = label_patterns(ClassPrior(pi), kind)
            assert table.shape == (2, 2, 2)
            assert (table >= 0).all()
            assert table.sum() == pytest.approx(1.0, abs=1e-15)

    def test_companion_slots_symmetric(self):
        for pi, kind in itertools.product((0.1, 0.2, 0.4, 0.6, 0.9), SAMPLERS):
            table = label_patterns(ClassPrior(pi), kind)
            np.testing.assert_array_equal(table, table.transpose(0, 2, 1))

    def test_matches_the_joint_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            d = random_domain(rng)
            for kind, estimator in itertools.product(SAMPLERS, ("plain", "matched")):
                lus, lu = corrected_losses(d.scores, d.prior)
                weights, c_u = slot_weights(d.prior, kind, estimator)
                e_pos, total = reference_position_expectations(d, kind, lus)
                expected = (
                    float(np.mean(weights * e_pos))
                    + c_u * float(np.sum(d.p_marginal * lus))
                    + float(np.sum(d.p_marginal * lu))
                )
                got, got_total = enumerate_estimator_expectation(d, kind, estimator)
                assert got == pytest.approx(expected, abs=1e-13, rel=0)
                assert got_total == pytest.approx(total, abs=1e-13, rel=0)

    def test_matched_unbiased_beyond_the_old_cap(self):
        # far past support 8, where a K^3 joint refused to enumerate
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = DiscreteDomainSpec(
                p_plus=rng.dirichlet(np.ones(64)),
                p_minus=rng.dirichlet(np.ones(64)),
                prior=ClassPrior(float(rng.choice([0.1, 0.3, 0.4, 0.6, 0.8]))),
                scores=rng.uniform(-2.0, 2.0, size=64),
            )
            for kind in SAMPLERS:
                got, total = enumerate_estimator_expectation(d, kind, "matched")
                assert got == pytest.approx(supervised_risk_discrete(d), abs=1e-10, rel=0)
                assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", SAMPLERS)
    @pytest.mark.parametrize("pi", [0.2, 0.6])
    def test_real_samplers_follow_the_table(self, kind, pi):
        # feature 0 is a positive member and 1 a negative, so each triplet's
        # features are its label pattern
        n = 100_000
        prior = ClassPrior(pi)
        domain = DiscreteDomainSpec(np.array([1.0, 0.0]), np.array([0.0, 1.0]), prior, np.zeros(2))
        rng = np.random.default_rng([16, int(10 * pi)])
        if kind == "rejection":
            triplets, _ = sample_triplets_rejection(domain, n, rng)
        else:
            triplets = sample_triplets_paper_case(domain, n, rng)
        labels = triplets[:, :, 0].astype(int)
        counts = np.bincount(labels @ [4, 2, 1], minlength=8).reshape(2, 2, 2)
        table = label_patterns(prior, kind)
        possible = table > 0
        z = (counts - n * table)[possible] / np.sqrt(n * table * (1 - table))[possible]
        assert np.abs(z).max() < 5.0, z
        assert (counts[~possible] == 0).all()
        # neither sampler leaves the anchor's class out of both companions
        assert not possible[0, 1, 1] and not possible[1, 0, 0] and possible.sum() == 6

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            enumerate_estimator_expectation(_domain(), "other")
        with pytest.raises(InvalidInputError):
            label_patterns(ClassPrior(0.4), "other")


class TestBiasSuite:
    def test_constant_scorer_closed_form_pinned(self):
        # Delta = -2.8c at pi = 0.4 under the square loss
        prior = ClassPrior(0.4)
        for c in (-1.0, 0.0, 0.5, 2.0):
            assert constant_scorer_bias_closed_form(prior, c) == pytest.approx(
                -2.8 * c, abs=1e-12
            )

    @pytest.mark.parametrize("pi", [0.1, 0.3, 0.45, 0.6, 0.85])
    def test_constant_scorer_closed_form_matches_enumeration(self, pi):
        # the prior-only closed form against the exact expectation of the
        # plain estimator, away from the prior the bias suite uses
        prior = ClassPrior(pi)
        for c in (-1.5, -0.5, 0.25, 2.0):
            domain = DiscreteDomainSpec(np.array([0.7, 0.3]), np.array([0.2, 0.8]), prior,
                                        np.array([c, c]))
            closed = constant_scorer_bias_closed_form(prior, c)
            for kind in SAMPLERS:
                expectation, _ = enumerate_estimator_expectation(domain, kind)
                delta = expectation - supervised_risk_discrete(domain)
                assert delta == pytest.approx(closed, abs=1e-10)

    def test_plain_estimator_bias_is_nonzero(self):
        # the headline fact: the pooled sample mean is NOT unbiased
        expectation, _ = enumerate_estimator_expectation(_domain(), "rejection")
        bias = expectation - supervised_risk_discrete(_domain())
        assert abs(bias) > 1e-3

    def test_measure_estimator_bias_reports(self):
        report = measure_estimator_bias(_domain(), "paper_case", n_mc=20_000, seed=0)
        names = [c.name for c in report.checks]
        assert "bias_delta" in names
        assert report.assertable_passed
        delta = next(c for c in report.checks if c.name == "bias_delta")
        assert not delta.assertable

    def test_full_bias_suite(self):
        report = run_bias_suite(seed=0, n_mc=20_000)
        assert report.assertable_passed, report.to_json()


class TestMatchedCalibration:
    def test_exact_for_both_samplers(self):
        report = check_matched_calibration(n_trials=20, seed=0)
        assert report.passed, report.to_json()
        for c in report.checks:
            assert c.observed < 1e-10


class TestGradientSuite:
    def test_small_run_passes(self):
        report = check_gradients(n_trials=12, seed=1)
        assert len(report.checks) == 12
        assert report.passed, report.to_json()


# Each fast suite's checks at seed 0, as their tolerances in report order;
# None marks the recorded-only (not assertable) checks. The Monte Carlo
# tolerances are 3 SE, which a moved random stream shifts by well under 1%.
REPORT_SHAPES = {
    "thetas": [1e-12] * 18,
    "identity": [1e-10],
    "acceptance": [0.0031883609, 0.0035313550, 0.0035326300],
    "bias": [1e-10] * 6 + [1e-12, None, 0.1844506800, 1e-12, None, 0.1845696329],
    "matched": [1e-10] * 2,
    "gradients": [1e-5] * 50,
}


class TestSeededSuites:
    def test_report_shapes_are_pinned(self):
        # a refactor of an oracle must not drop, add or loosen a check
        for name, tolerances in REPORT_SHAPES.items():
            checks = SUITES[name](0).checks
            assert [c.assertable for c in checks] == [t is not None for t in tolerances], name
            assert [c.tolerance for c in checks] == [
                t if t is None else pytest.approx(t, rel=1e-2) for t in tolerances
            ], name

    def test_seed_156_fails_one_monte_carlo_check(self):
        # Five Monte Carlo checks are 3-SE tests, so some seeds fail one by
        # chance: 24 of seeds 0-1599, the lowest 156. Pinning that false alarm
        # pins every random stream and float the seeded suites consume.
        seeded = ("identity", "acceptance", "bias", "matched", "gradients")
        report = VerifyReport.merge([SUITES[name](156) for name in seeded])
        failed = [(c.name, c.expected, c.observed) for c in report.checks if not c.passed]
        assert failed == [
            ("bias.paper_case_mc_vs_enumeration", 2.7469796524948005, 2.540702312709296)
        ]


class TestDefaults:
    def test_default_gaussian_spec_separation(self):
        spec = default_gaussian_spec(pi_plus=0.4, separation=4.0)
        gap = np.linalg.norm(spec.mu_plus - spec.mu_minus)
        assert gap == pytest.approx(4.0 * spec.sigma)
        assert spec.dim == 2


class TestTrend:
    def test_spearman_matches_scipy_with_ties(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(3, 30))
            a, b = rng.integers(0, 5, size=n), rng.integers(0, 5, size=n)
            if np.all(a == a[0]) or np.all(b == b[0]):
                continue  # undefined for a constant input
            expected = stats.spearmanr(a, b).statistic
            assert _spearman(a, b) == pytest.approx(expected, abs=1e-12)
            checked += 1
        assert checked > 250

    def test_spearman_pinned(self):
        assert _spearman([0.1, 0.25, 0.5, 1.0], [0.8, 0.9, 0.85, 0.95]) == pytest.approx(0.8)
        assert _spearman([1, 2, 3], [3, 3, 1]) == pytest.approx(-np.sqrt(3) / 2)

    def test_trend_runs_without_scipy(self):
        # any import of scipy fails in the child, so this passes only if the
        # trend oracle (and everything it imports) is numpy-only
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from trisim.verify import check_error_trend\n"
            "r = check_error_trend(fractions=[0.5, 1.0], seeds=[0], n_us=40, n_u=60)\n"
            "print(len(r.checks))\n"
        )
        package_dir = str(Path(trisim.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_dir, env.get("PYTHONPATH")) if p
        )
        res = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["2"]
