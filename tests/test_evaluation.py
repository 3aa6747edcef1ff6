"""Unit tests for metrics and sweeps; the sweeps run at tiny desk scale
since their statistical behavior is covered by the acceptance checks."""
import numpy as np
import pytest
from dataclasses import replace

from trisim.core import ClassPrior, ConfigurationError, InvalidInputError, LabeledPool
from trisim.evaluation import (
    accuracy,
    correction_sweep,
    derive_seeds,
    fraction_sweep,
    prior_sweep,
    supervised_run,
    weak_run,
)
from trisim.model import LinearModel
from trisim.trainer import TrainConfig
from trisim.verify import default_gaussian_spec

SPEC = default_gaussian_spec()
QUICK = TrainConfig(prior=SPEC.prior, epochs=3, batch_size=50)


class TestAccuracy:
    def test_hand_computed(self):
        model = LinearModel(weights=np.array([1.0]), bias=np.array([0.0]))
        test = LabeledPool(
            x=np.array([[2.0], [-2.0], [1.0]]), y=np.array([1, 1, -1])
        )
        assert accuracy(model, test) == pytest.approx(1 / 3)

    def test_sign_zero_counts_positive(self):
        model = LinearModel(weights=np.array([0.0]), bias=np.array([0.0]))
        test = LabeledPool(x=np.array([[1.0], [2.0]]), y=np.array([1, -1]))
        assert accuracy(model, test) == pytest.approx(0.5)

    def test_empty_test_set_raises(self):
        model = LinearModel(weights=np.array([1.0]), bias=np.array([0.0]))
        with pytest.raises(InvalidInputError):
            accuracy(model, LabeledPool(x=np.zeros((0, 1)), y=np.zeros(0, dtype=int)))


class TestSeeds:
    def test_derive_seeds_deterministic(self):
        assert derive_seeds(7, 4) == derive_seeds(7, 4)
        assert derive_seeds(7, 4) != derive_seeds(8, 4)
        assert len(set(derive_seeds(0, 10))) == 10


class TestRuns:
    def test_weak_run_deterministic(self):
        a = weak_run(SPEC, QUICK, 40, 60, seed=3, n_test=100)
        b = weak_run(SPEC, QUICK, 40, 60, seed=3, n_test=100)
        assert a == b
        assert 0.0 <= a <= 1.0

    def test_weak_run_clamps_batch(self):
        # nominal batch 50 exceeds the unlabeled pool; the run must clamp
        # rather than error
        acc = weak_run(SPEC, QUICK, 40, 20, seed=0, n_test=100)
        assert 0.0 <= acc <= 1.0

    def test_supervised_run_learns(self):
        cfg = replace(QUICK, epochs=40, batch_size=100)
        acc = supervised_run(SPEC, cfg, 400, seed=0, n_test=500)
        assert acc > 0.9


class TestSweeps:
    def test_prior_sweep_rows_and_skip(self):
        result = prior_sweep(
            ClassPrior(0.4), [0.4, 0.5], [0, 1], SPEC, QUICK, 40, 60, n_test=100
        )
        assert result.axis == "given_prior"
        by_setting = {r.setting: r for r in result.rows}
        assert by_setting["0.4"].n_seeds == 2
        assert len(by_setting["0.4"].per_seed) == 2
        skipped = by_setting["0.5"]
        assert skipped.mean is None
        assert "degenerate" in skipped.error

    def test_fraction_sweep_validates_range(self):
        with pytest.raises(ConfigurationError):
            fraction_sweep([0.0], [0], SPEC, QUICK, 40, 60, n_test=100)
        with pytest.raises(ConfigurationError):
            fraction_sweep([1.5], [0], SPEC, QUICK, 40, 60, n_test=100)

    def test_fraction_sweep_rows(self):
        result = fraction_sweep([0.5, 1.0], [0], SPEC, QUICK, 40, 60, n_test=100)
        assert [r.setting for r in result.rows] == ["0.5", "1.0"]
        # one seed: no std
        assert result.rows[0].std is None

    def test_correction_sweep_same_data_per_seed(self):
        result = correction_sweep(
            ["none", "abs"], [0, 1], SPEC, QUICK, 40, 60, n_test=100
        )
        assert [r.setting for r in result.rows] == ["none", "abs"]
        assert all(r.n_seeds == 2 for r in result.rows)

    def test_correction_sweep_unknown_name(self):
        with pytest.raises(ConfigurationError):
            correction_sweep(["bogus"], [0], SPEC, QUICK, 40, 60)

    def test_to_dict_shape(self):
        result = fraction_sweep([1.0], [0], SPEC, QUICK, 40, 60, n_test=100)
        d = result.to_dict()
        assert d["axis"] == "fraction"
        assert isinstance(d["rows"][0]["per_seed"], list)
