"""Unit tests for the shared vocabulary: priors, the per-label square loss,
corrections, and data containers."""
import numpy as np
import pytest

from trisim.core import (
    ClassPrior,
    CorrectionKind,
    DegeneratePriorError,
    InvalidInputError,
    LabeledPool,
    ShapeError,
    WeakDataset,
)
from trisim.risk import square_loss

from reference import square_loss_grad


class TestClassPrior:
    def test_pi_minus_complements(self):
        assert ClassPrior(0.4).pi_minus == pytest.approx(0.6)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1, float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(InvalidInputError):
            ClassPrior(bad)

    def test_balanced_prior_is_degenerate(self):
        with pytest.raises(DegeneratePriorError):
            ClassPrior(0.5).require_non_degenerate()

    def test_unbalanced_prior_is_fine(self):
        ClassPrior(0.4).require_non_degenerate()


class TestSquareLoss:
    def test_pinned_values(self):
        assert square_loss(0.0, 1) == pytest.approx(1.0)
        assert square_loss(1.0, 1) == pytest.approx(0.0)
        assert square_loss(1.0, -1) == pytest.approx(4.0)
        assert square_loss(-0.5, -1) == pytest.approx(0.25)

    def test_gradient_matches_finite_difference(self):
        # the derivative lives with the supervised oracle, its one reader
        rng = np.random.default_rng(0)
        eps = 1e-6
        for _ in range(20):
            z = float(rng.uniform(-2, 2))
            y = int(rng.choice([1, -1]))
            fd = (square_loss(z + eps, y) - square_loss(z - eps, y)) / (2 * eps)
            assert square_loss_grad(z, y) == pytest.approx(fd, abs=1e-6)


class TestCorrectionKind:
    def test_apply(self):
        assert CorrectionKind.NONE.apply(-2.5) == -2.5
        assert CorrectionKind.MAX_ZERO.apply(-2.5) == 0.0
        assert CorrectionKind.MAX_ZERO.apply(1.5) == 1.5
        assert CorrectionKind.ABS.apply(-2.5) == 2.5
        assert CorrectionKind.ABS.apply(1.5) == 1.5

    def test_grad_factor(self):
        assert CorrectionKind.NONE.grad_factor(-1.0) == 1.0
        assert CorrectionKind.MAX_ZERO.grad_factor(-1.0) == 0.0
        assert CorrectionKind.MAX_ZERO.grad_factor(1.0) == 1.0
        assert CorrectionKind.ABS.grad_factor(-1.0) == -1.0
        assert CorrectionKind.ABS.grad_factor(1.0) == 1.0

    def test_subgradient_at_kink_is_zero(self):
        assert CorrectionKind.MAX_ZERO.grad_factor(0.0) == 0.0
        assert CorrectionKind.ABS.grad_factor(0.0) == 0.0

    def test_string_round_trip(self):
        for kind in CorrectionKind:
            assert CorrectionKind(kind.value) is kind


class TestContainers:
    def test_weak_dataset_shapes(self):
        data = WeakDataset(
            triplets=np.zeros((4, 3, 2)),
            unlabeled=np.zeros((7, 2)),
            sampler_kind="rejection",
        )
        assert data.n_triplets == 4
        assert data.n_unlabeled == 7

    def test_weak_dataset_rejects_dim_mismatch(self):
        with pytest.raises(ShapeError):
            WeakDataset(
                triplets=np.zeros((4, 3, 2)),
                unlabeled=np.zeros((7, 3)),
                sampler_kind="rejection",
            )

    @pytest.mark.parametrize("shape", [(4, 2, 2), (4, 6), (4, 3, 1, 2)])
    def test_weak_dataset_rejects_non_triplet_shape(self, shape):
        with pytest.raises(ShapeError):
            WeakDataset(np.zeros(shape), np.zeros((7, 2)), "rejection")

    def test_weak_dataset_rejects_unknown_sampler(self):
        with pytest.raises(InvalidInputError):
            WeakDataset(
                triplets=np.zeros((1, 3, 2)),
                unlabeled=np.zeros((1, 2)),
                sampler_kind="mystery",
            )

    def test_labeled_pool_validates_labels(self):
        with pytest.raises(InvalidInputError):
            LabeledPool(x=np.zeros((2, 1)), y=np.array([1, 0]))

    def test_labeled_pool_empirical_prior(self):
        pool = LabeledPool(x=np.zeros((4, 1)), y=np.array([1, 1, 1, -1]))
        assert pool.empirical_prior.pi_plus == pytest.approx(0.75)
