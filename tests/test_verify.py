"""Unit tests for the verification oracles themselves: the report
container, the enumeration machinery, and the individual suites."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trisim
from trisim.cli import SUITES
from trisim.core import ClassPrior, EnumerationSizeError
from trisim.risk import (
    DiscreteDomainSpec,
    compute_thetas,
    corrected_losses,
    supervised_risk_discrete,
)
from trisim.verify import (
    _spearman,
    VerifyReport,
    check_acceptance_rate,
    check_gradients,
    check_matched_calibration,
    check_risk_identity,
    check_theta_system,
    constant_scorer_bias_closed_form,
    default_gaussian_spec,
    default_prior_grid,
    enumerate_estimator_expectation,
    measure_estimator_bias,
    position_expectations,
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

    def test_cap_enforced(self):
        big = DiscreteDomainSpec(
            p_plus=np.full(9, 1 / 9),
            p_minus=np.full(9, 1 / 9),
            prior=ClassPrior(0.4),
            scores=np.zeros(9),
        )
        with pytest.raises(EnumerationSizeError):
            enumerate_estimator_expectation(big, "rejection")

    def test_position_expectations_sum_to_constant(self):
        # with values identically 1 every position expectation is 1
        d = _domain()
        ones = np.ones(d.support_size)
        for kind in ("rejection", "paper_case"):
            e, total = position_expectations(d, kind, ones)
            np.testing.assert_allclose(e, (1.0, 1.0, 1.0), atol=1e-12)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_companion_slots_symmetric(self):
        d = _domain()
        lus, _ = corrected_losses(d.scores, d.prior)
        for kind in ("rejection", "paper_case"):
            (_, e1, e2), _ = position_expectations(d, kind, lus)
            assert e1 == pytest.approx(e2, abs=1e-14)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            enumerate_estimator_expectation(_domain(), "other")


class TestBiasSuite:
    def test_constant_scorer_closed_form_pinned(self):
        # Delta = -2.8c at pi = 0.4 under the square loss
        prior = ClassPrior(0.4)
        for c in (-1.0, 0.0, 0.5, 2.0):
            assert constant_scorer_bias_closed_form(prior, c) == pytest.approx(
                -2.8 * c, abs=1e-12
            )

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


class TestSeededSuites:
    def test_seed_156_fails_one_monte_carlo_check(self):
        # Five Monte Carlo checks are 3-SE tests, so some seeds fail one by
        # chance: 24 of seeds 0-1599, the lowest 156. Pinning that false alarm
        # pins every random stream and float the seeded suites consume.
        seeded = ("identity", "acceptance", "bias", "matched", "gradients")
        report = VerifyReport.merge([SUITES[name](156) for name in seeded])
        failed = [(c.name, c.expected, c.observed) for c in report.checks if not c.passed]
        assert failed == [
            ("bias.paper_case_mc_vs_enumeration", 2.746979652494801, 2.540702312709296)
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
