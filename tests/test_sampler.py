"""Unit tests for data generation: sources, the two triplet samplers,
unlabeled pools, and disassembly."""
import numpy as np
import pytest

from trisim.core import ClassPrior, InsufficientDataError, InvalidInputError, LabeledPool, ShapeError
from trisim.risk import DiscreteDomainSpec
from trisim.sampler import (
    GaussianSourceSpec,
    PoolSource,
    disassemble,
    draw_labeled,
    make_weak_dataset,
    paper_case_weights,
    sample_triplets_paper_case,
    sample_triplets_rejection,
    sample_unlabeled,
    synth_gaussian_labeled,
)


def _spec(pi=0.4):
    return GaussianSourceSpec(
        dim=2,
        mu_plus=np.array([2.0, 0.0]),
        mu_minus=np.array([-2.0, 0.0]),
        sigma=1.0,
        prior=ClassPrior(pi),
    )


class TestSources:
    def test_gaussian_spec_validation(self):
        with pytest.raises(InvalidInputError):
            GaussianSourceSpec(
                dim=2,
                mu_plus=np.zeros(2),
                mu_minus=np.zeros(2),
                sigma=0.0,
                prior=ClassPrior(0.4),
            )
        with pytest.raises(ShapeError):
            GaussianSourceSpec(
                dim=2,
                mu_plus=np.zeros(3),
                mu_minus=np.zeros(2),
                sigma=1.0,
                prior=ClassPrior(0.4),
            )

    def test_gaussian_label_frequencies(self):
        src = _spec(0.3)
        _, y = draw_labeled(src, np.random.default_rng(0), 20_000)
        assert np.mean(y == 1) == pytest.approx(0.3, abs=0.02)

    def test_gaussian_class_means(self):
        src = _spec()
        x = src.draw_class(np.random.default_rng(1), 1, 5000)
        np.testing.assert_allclose(x.mean(axis=0), [2.0, 0.0], atol=0.1)

    def test_pool_source_prior_override(self):
        pool = LabeledPool(x=np.zeros((4, 1)), y=np.array([1, 1, 1, -1]))
        assert PoolSource(pool).prior.pi_plus == pytest.approx(0.75)
        assert PoolSource(pool, prior=ClassPrior(0.4)).prior.pi_plus == 0.4

    def test_pool_source_missing_class_raises(self):
        pool = LabeledPool(x=np.zeros((2, 1)), y=np.array([1, 1]))
        with pytest.raises(InsufficientDataError):
            PoolSource(pool).draw_class(np.random.default_rng(0), -1, 3)

    def test_pool_source_follows_declared_prior(self):
        # a 75/25 pool resampled to a declared prior of 0.4
        pool = LabeledPool(x=np.arange(4.0)[:, None], y=np.array([1, 1, 1, -1]))
        src = PoolSource(pool, prior=ClassPrior(0.4))
        x, y = draw_labeled(src, np.random.default_rng(0), 20_000)
        assert np.mean(y == 1) == pytest.approx(0.4, abs=0.02)
        # every row keeps its label, and the positive rows are drawn uniformly
        np.testing.assert_array_equal(pool.y[x[:, 0].astype(int)], y)
        counts = np.bincount(x[y == 1, 0].astype(int), minlength=3)
        np.testing.assert_allclose(counts / counts.sum(), 1 / 3, atol=0.02)

    def test_discrete_source_frequencies(self):
        src = DiscreteDomainSpec(
            np.array([0.9, 0.1]), np.array([0.1, 0.9]), ClassPrior(0.4), np.zeros(2)
        )
        x = src.draw_class(np.random.default_rng(3), 1, 10_000)
        assert np.mean(x[:, 0] == 0.0) == pytest.approx(0.9, abs=0.02)


class TestRejectionSampler:
    def test_shapes_and_determinism(self):
        src = _spec()
        t1, _ = sample_triplets_rejection(src, 50, np.random.default_rng(7))
        t2, _ = sample_triplets_rejection(src, 50, np.random.default_rng(7))
        assert t1.shape == (50, 3, 2)
        np.testing.assert_array_equal(t1, t2)

    def test_acceptance_rate_tracks_closed_form(self):
        prior = ClassPrior(0.3)
        src = DiscreteDomainSpec(np.array([1.0]), np.array([1.0]), prior, np.zeros(1))
        _, stats = sample_triplets_rejection(src, 50_000, np.random.default_rng(0))
        expected = 1.0 - prior.pi_plus * prior.pi_minus
        assert stats.acceptance_rate == pytest.approx(expected, abs=0.01)
        assert stats.n_accepted == 50_000
        assert stats.n_raw >= stats.n_accepted

    def test_rejects_nonpositive_count(self):
        with pytest.raises(InvalidInputError):
            sample_triplets_rejection(_spec(), 0, np.random.default_rng(0))


class TestPaperCaseSampler:
    def test_case_weights_pinned(self):
        # (0.16, 0.36, 0.16, 0.36) / 1.04 at pi = 0.4
        w = paper_case_weights(ClassPrior(0.4))
        np.testing.assert_allclose(w, np.array([0.16, 0.36, 0.16, 0.36]) / 1.04)
        assert w.sum() == pytest.approx(1.0)

    def test_shapes_and_determinism(self):
        src = _spec()
        t1 = sample_triplets_paper_case(src, 40, np.random.default_rng(9))
        t2 = sample_triplets_paper_case(src, 40, np.random.default_rng(9))
        assert t1.shape == (40, 3, 2)
        np.testing.assert_array_equal(t1, t2)

    def test_companion_symmetry(self):
        # after the swap randomization the two companion slots have the same
        # marginal, so their mean features agree
        src = _spec()
        t = sample_triplets_paper_case(src, 20_000, np.random.default_rng(4))
        gap = t[:, 1, 0].mean() - t[:, 2, 0].mean()
        assert abs(gap) < 0.1


class TestDatasetAssembly:
    def test_sample_unlabeled_shape(self):
        x = sample_unlabeled(_spec(), 30, np.random.default_rng(0))
        assert x.shape == (30, 2)

    @pytest.mark.parametrize("kind", ["rejection", "paper_case"])
    def test_make_weak_dataset_stamps_sampler(self, kind):
        data = make_weak_dataset(_spec(), 20, 30, kind, seed=5)
        assert data.sampler_kind == kind
        assert data.n_triplets == 20
        assert data.n_unlabeled == 30
        assert data.prior.pi_plus == 0.4

    @pytest.mark.parametrize("kind", ["rejection", "paper_case"])
    def test_make_weak_dataset_follows_declared_pool_prior(self, kind):
        # at pi = 0.4 the points at +1 and -1 average 0.4 - 0.6 = -0.2, while
        # the pool's own label counts would give 0.75 - 0.25 = 0.5
        pool = LabeledPool(
            x=np.repeat([[1.0], [-1.0]], [750, 250], axis=0), y=np.repeat([1, -1], [750, 250])
        )
        source = PoolSource(pool, prior=ClassPrior(0.4))
        data = make_weak_dataset(source, 5000, 5000, kind, seed=1)
        assert data.unlabeled.mean() == pytest.approx(-0.2, abs=0.1)

    def test_make_weak_dataset_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            make_weak_dataset(_spec(), 5, 5, "bogus", seed=0)

    def test_make_weak_dataset_deterministic(self):
        a = make_weak_dataset(_spec(), 10, 10, seed=3)
        b = make_weak_dataset(_spec(), 10, 10, seed=3)
        np.testing.assert_array_equal(a.triplets, b.triplets)
        np.testing.assert_array_equal(a.unlabeled, b.unlabeled)

    def test_disassemble_order(self):
        t = np.arange(12, dtype=float).reshape(2, 3, 2)
        flat = disassemble(t)
        assert flat.shape == (6, 2)
        np.testing.assert_array_equal(flat[0], t[0, 0])
        np.testing.assert_array_equal(flat[3], t[1, 0])

    def test_disassemble_rejects_bad_shape(self):
        with pytest.raises(ShapeError):
            disassemble(np.zeros((4, 2, 2)))

    def test_synth_gaussian_labeled(self):
        pool = synth_gaussian_labeled(_spec(), 100, seed=0)
        assert len(pool) == 100
        assert pool.x.shape == (100, 2)
        again = synth_gaussian_labeled(_spec(), 100, seed=0)
        np.testing.assert_array_equal(pool.x, again.x)
