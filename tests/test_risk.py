"""Unit tests for the risk machinery: coefficients, corrected losses, the
empirical estimator (unweighted and measure-matched), the matched risk as
the UU risk, and the discrete-domain reconstruction identity."""
import numpy as np
import pytest

from trisim.core import (
    ClassPrior,
    CorrectionKind,
    DegeneratePriorError,
    InsufficientDataError,
    InvalidInputError,
)
from trisim.risk import (
    DiscreteDomainSpec,
    compute_thetas,
    corrected_losses,
    empirical_risk,
    empirical_risk_grad,
    reconstructed_risk_discrete,
    slot_weights,
    supervised_risk_discrete,
)
from trisim.verify import default_prior_grid, label_patterns

PRIOR = ClassPrior(0.4)


class TestThetas:
    def test_pinned_values_at_0_4(self):
        t = compute_thetas(ClassPrior(0.4))
        assert t.theta_us_plus == pytest.approx(-1.9, abs=1e-12)
        assert t.theta_us_minus == pytest.approx(1.9, abs=1e-12)
        assert t.theta_u_plus == pytest.approx(3.0, abs=1e-12)
        assert t.theta_u_minus == pytest.approx(-2.0, abs=1e-12)

    def test_pinned_values_at_0_6(self):
        t = compute_thetas(ClassPrior(0.6))
        assert t.theta_us_plus == pytest.approx(1.9, abs=1e-12)
        assert t.theta_us_minus == pytest.approx(-1.9, abs=1e-12)
        assert t.theta_u_plus == pytest.approx(-2.0, abs=1e-12)
        assert t.theta_u_minus == pytest.approx(3.0, abs=1e-12)

    def test_balanced_prior_raises(self):
        with pytest.raises(DegeneratePriorError):
            compute_thetas(ClassPrior(0.5))

    @pytest.mark.parametrize("pi", [0.1, 0.3, 0.45, 0.55, 0.9])
    def test_invariants(self, pi):
        t = compute_thetas(ClassPrior(pi))
        # the similarity pair is antisymmetric, the unlabeled pair sums to 1
        assert t.theta_us_plus + t.theta_us_minus == pytest.approx(0.0, abs=1e-12)
        assert t.theta_u_plus + t.theta_u_minus == pytest.approx(1.0, abs=1e-12)

    def test_mirror_symmetry(self):
        a = compute_thetas(ClassPrior(0.3))
        b = compute_thetas(ClassPrior(0.7))
        assert a.theta_us_plus == pytest.approx(-b.theta_us_plus)
        assert a.theta_u_plus == pytest.approx(b.theta_u_minus)


class TestCorrectedLosses:
    def test_pinned_values_score_zero(self):
        l_us, l_u = corrected_losses(0.0, PRIOR)
        assert l_us == pytest.approx(0.0, abs=1e-12)
        assert l_u == pytest.approx(1.0, abs=1e-12)

    def test_pinned_values_score_one(self):
        l_us, l_u = corrected_losses(np.array([1.0, -1.0]), PRIOR)
        np.testing.assert_allclose(l_us, [7.6, -7.6], atol=1e-12)
        np.testing.assert_allclose(l_u, [-8.0, 12.0], atol=1e-12)

    def test_similarity_loss_is_linear_in_score(self):
        # for the square loss the label-difference combination collapses to
        # a pure linear function of the score
        z = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(corrected_losses(z, PRIOR)[0], 7.6 * z, atol=1e-12)

    def test_balanced_prior_raises(self):
        with pytest.raises(DegeneratePriorError):
            corrected_losses(0.0, ClassPrior(0.5))

    @pytest.mark.parametrize("pi", default_prior_grid())
    def test_polynomial_matches_theta_combination(self, pi):
        # the polynomial form equals the theta combination of the per-label
        # losses, and the slopes empirical_risk_grad uses are its derivatives
        prior = ClassPrior(pi)
        t = compute_thetas(prior)
        z = np.linspace(-3.0, 3.0, 25)
        l_us, l_u = corrected_losses(z, prior)
        lp, lm = (1.0 - z) ** 2, (1.0 + z) ** 2
        np.testing.assert_allclose(
            l_us, t.theta_us_plus * lp + t.theta_us_minus * lm, rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(
            l_u, t.theta_u_plus * lp + t.theta_u_minus * lm, rtol=1e-12, atol=1e-12
        )
        eps = 1e-6
        up, down = corrected_losses(z + eps, prior), corrected_losses(z - eps, prior)
        for i, zi in enumerate(z):
            g_us, g_u = empirical_risk_grad([zi], [zi], prior, CorrectionKind.NONE)
            assert g_us == pytest.approx((up[0][i] - down[0][i]) / (2 * eps), abs=1e-6)
            assert g_u == pytest.approx((up[1][i] - down[1][i]) / (2 * eps), abs=1e-6)


class TestEmpiricalRisk:
    def test_pinned_example(self):
        # three similarity scores at -1 and one unlabeled score at 1
        rv = empirical_risk(
            np.array([-1.0, -1.0, -1.0]), np.array([1.0]), PRIOR, CorrectionKind.NONE
        )
        assert rv.us_term == pytest.approx(-7.6, abs=1e-12)
        assert rv.u_term == pytest.approx(-8.0, abs=1e-12)
        assert rv.raw == pytest.approx(-15.6, abs=1e-12)
        assert rv.corrected == pytest.approx(-15.6, abs=1e-12)

    def test_corrections_act_on_raw(self):
        us, u = np.array([-1.0, -1.0, -1.0]), np.array([1.0])
        assert empirical_risk(us, u, PRIOR, CorrectionKind.MAX_ZERO).corrected == 0.0
        assert empirical_risk(us, u, PRIOR, CorrectionKind.ABS).corrected == pytest.approx(15.6)

    def test_empty_side_raises(self):
        with pytest.raises(InsufficientDataError):
            empirical_risk(np.array([]), np.array([1.0]), PRIOR, CorrectionKind.NONE)
        with pytest.raises(InsufficientDataError):
            empirical_risk(np.array([1.0]), np.array([]), PRIOR, CorrectionKind.NONE)

    def test_non_finite_scores_raise(self):
        with pytest.raises(InvalidInputError):
            empirical_risk(
                np.array([np.nan]), np.array([1.0]), PRIOR, CorrectionKind.NONE
            )

    def test_weights_change_only_the_similarity_term(self):
        us = np.array([0.5, -0.5, 1.0])
        u = np.array([0.1, -0.3])
        plain = empirical_risk(us, u, PRIOR, CorrectionKind.NONE)
        unit = empirical_risk(
            us, u, PRIOR, CorrectionKind.NONE, us_weights=np.ones(3)
        )
        assert unit.raw == pytest.approx(plain.raw)
        doubled = empirical_risk(
            us, u, PRIOR, CorrectionKind.NONE, us_weights=2.0 * np.ones(3)
        )
        assert doubled.us_term == pytest.approx(2.0 * plain.us_term)
        assert doubled.u_term == pytest.approx(plain.u_term)

    def test_u_plus_coef_adds_unlabeled_similarity_mean(self):
        us = np.array([0.5, -0.5])
        u = np.array([0.1, -0.3, 0.7])
        base = empirical_risk(us, u, PRIOR, CorrectionKind.NONE)
        shifted = empirical_risk(
            us, u, PRIOR, CorrectionKind.NONE, u_plus_coef=1.5
        )
        extra = 1.5 * float(np.mean(corrected_losses(u, PRIOR)[0]))
        assert shifted.us_term == pytest.approx(base.us_term + extra)
        assert shifted.u_term == pytest.approx(base.u_term)

    def test_wrong_weight_shape_raises(self):
        with pytest.raises(InvalidInputError):
            empirical_risk(
                np.array([1.0, 2.0]),
                np.array([0.0]),
                PRIOR,
                CorrectionKind.NONE,
                us_weights=np.ones(3),
            )

    def test_grad_is_one_vector_similarity_scores_first(self):
        us, u = np.array([0.5, -0.2, 0.1]), np.array([0.3, 0.4])
        grad = empirical_risk_grad(us, u, PRIOR, CorrectionKind.ABS)
        assert grad.shape == (5,)
        # each side's entries depend on that side's scores alone, given the sign
        flipped = empirical_risk_grad(us, u + 0.1, PRIOR, CorrectionKind.ABS)
        np.testing.assert_array_equal(flipped[:3], grad[:3])
        assert not np.array_equal(flipped[3:], grad[3:])


def _similarity_mass(prior):
    """2*(pi_plus^2 + pi_minus^2) / (1 - pi_plus*pi_minus)."""
    pp, pm = prior.pi_plus, prior.pi_minus
    return 2.0 * (pp * pp + pm * pm) / (1.0 - pp * pm)


def _matched_coefficients(prior, kind):
    """(c_anchor, c_companion, c_unlabeled) read off the matched row: the
    anchor mean's weight, the weight on the mean over both companions, and
    the unlabeled coefficient."""
    weights, c_u = slot_weights(prior, kind)
    return weights[0] / 3.0, (weights[1] + weights[2]) / 3.0, c_u


class TestMatchedCoefficients:
    def test_similarity_mass_exceeds_one(self):
        # the matched weights' total mass, for both samplers
        for pi in (0.1, 0.3, 0.4, 0.6, 0.9):
            for kind in ("rejection", "paper_case"):
                assert sum(_matched_coefficients(ClassPrior(pi), kind)) > 1.0

    def test_similarity_mass_pinned(self):
        # 2*(0.16 + 0.36) / 0.76 at pi = 0.4
        for kind in ("rejection", "paper_case"):
            mass = sum(_matched_coefficients(ClassPrior(0.4), kind))
            assert mass == pytest.approx(1.04 / 0.76)

    def test_rejection_coefficients(self):
        weights, c_u = slot_weights(ClassPrior(0.4), "rejection")
        np.testing.assert_array_equal(weights, [6.0, 0.0, 0.0])
        c_a, c_c, c_u = _matched_coefficients(ClassPrior(0.4), "rejection")
        assert c_a == pytest.approx(2.0)
        assert c_c == pytest.approx(0.0)
        assert c_u == pytest.approx(-2.0 * 0.24 / 0.76)

    def test_paper_case_coefficients_sum_to_mass(self):
        for pi in (0.2, 0.4, 0.7):
            prior = ClassPrior(pi)
            c_a, c_c, c_u = _matched_coefficients(prior, "paper_case")
            mu = _similarity_mass(prior)
            assert c_a + c_c + c_u == pytest.approx(mu)
            assert c_a == pytest.approx(mu / 2)

    def test_unknown_sampler_raises(self):
        with pytest.raises(InvalidInputError):
            slot_weights(ClassPrior(0.4), "other")

    def test_point_weights_reproduce_position_means(self):
        prior = ClassPrior(0.3)
        mu = _similarity_mass(prior)
        table = {"rejection": (2.0, 0.0, -2.0 * 0.21 / 0.79), "paper_case": (mu / 2, mu, -mu / 2)}
        for kind in ("rejection", "paper_case"):
            c_a, c_c, c_u = table[kind]
            n = 4
            weights, u_coef = slot_weights(prior, kind)
            w = np.tile(weights, n)
            assert w.shape == (3 * n,)
            assert u_coef == pytest.approx(c_u)
            rng = np.random.default_rng(0)
            losses = rng.normal(size=3 * n)
            anchors = losses[0::3]
            companions = np.concatenate([losses[1::3], losses[2::3]])
            assert float(np.mean(w * losses)) == pytest.approx(
                c_a * anchors.mean() + c_c * companions.mean()
            )


def _square(z):
    return (1.0 - z) ** 2


@pytest.mark.parametrize("kind", ["rejection", "paper_case"])
@pytest.mark.parametrize("pi", [0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.9])
def test_matched_risk_is_the_uu_risk(kind, pi):
    # Learning from two unlabeled sets (Lu, Niu, Menon, Sugiyama, ICLR 2019):
    # set A is the slots with nonzero weight, whose class prior theta is the
    # mean positive marginal of those slots, and set U is the unlabeled pool.
    # With K = pi+ pi- / (theta - pi+), the matched risk is
    # K mean_A(l(z) - l(-z)) + mean_U(l(z) - (theta / pi+) K (l(z) - l(-z))).
    prior = ClassPrior(pi)
    pp, pm = prior.pi_plus, prior.pi_minus
    weights, c_u = slot_weights(prior, kind)
    table = label_patterns(prior, kind)
    positive = np.array([table[0].sum(), table[:, 0].sum(), table[:, :, 0].sum()])
    in_a = weights != 0
    theta = positive[in_a].mean()
    k = pp * pm / (theta - pp)
    w = pp - pm
    closed = (1.0 - pp * pm) / w if kind == "rejection" else 1.5 * (pp * pp + pm * pm) / w
    assert k == pytest.approx(closed, abs=1e-12, rel=0)
    rng = np.random.default_rng([int(10 * pi), len(kind)])
    for _ in range(20):
        us = rng.normal(scale=2.0, size=(7, 3))
        u = rng.normal(scale=2.0, size=11)
        got = empirical_risk(
            us.ravel(), u, prior, CorrectionKind.NONE, np.tile(weights, 7), c_u
        ).raw
        a = us[:, in_a]
        odd_a, odd_u = _square(a) - _square(-a), _square(u) - _square(-u)
        uu = k * odd_a.mean() + np.mean(_square(u) - theta / pp * k * odd_u)
        assert got == pytest.approx(uu, abs=1e-12, rel=0)


class TestDiscreteDomain:
    def test_reconstruction_identity_pinned_domain(self):
        domain = DiscreteDomainSpec(
            p_plus=np.array([0.7, 0.3]),
            p_minus=np.array([0.2, 0.8]),
            prior=ClassPrior(0.4),
            scores=np.array([0.5, -0.5]),
        )
        assert reconstructed_risk_discrete(domain) == pytest.approx(
            supervised_risk_discrete(domain), abs=1e-12
        )

    def test_supervised_risk_hand_computed(self):
        # single support point, score 0: loss is 1 for either label
        domain = DiscreteDomainSpec(
            p_plus=np.array([1.0]),
            p_minus=np.array([1.0]),
            prior=ClassPrior(0.4),
            scores=np.array([0.0]),
        )
        assert supervised_risk_discrete(domain) == pytest.approx(1.0)

    def test_rejects_invalid_pmf(self):
        with pytest.raises(InvalidInputError):
            DiscreteDomainSpec(
                p_plus=np.array([0.6, 0.6]),
                p_minus=np.array([0.5, 0.5]),
                prior=ClassPrior(0.4),
                scores=np.array([0.0, 1.0]),
            )

    def test_marginal_mixes_with_prior(self):
        domain = DiscreteDomainSpec(
            p_plus=np.array([1.0, 0.0]),
            p_minus=np.array([0.0, 1.0]),
            prior=ClassPrior(0.4),
            scores=np.array([0.0, 0.0]),
        )
        np.testing.assert_allclose(domain.p_marginal, [0.4, 0.6])
