"""Unit tests for the training loop: configuration validation, batching
invariants, determinism, and sanity of the logged risks."""
import numpy as np
import pytest

from trisim.core import (
    ClassPrior,
    ConfigurationError,
    CorrectionKind,
    InsufficientDataError,
    TrainingDivergedError,
    WeakDataset,
)
from trisim.sampler import GaussianSourceSpec, make_weak_dataset, synth_gaussian_labeled
from trisim.trainer import (
    DIVERGENCE_LIMIT,
    TrainConfig,
    _batch_plan,
    train,
    train_supervised_oracle,
)


def _spec(pi=0.4):
    return GaussianSourceSpec(
        dim=2,
        mu_plus=np.array([2.0, 0.0]),
        mu_minus=np.array([-2.0, 0.0]),
        sigma=1.0,
        prior=ClassPrior(pi),
    )


def _data(n_us=60, n_u=90, seed=0, sampler_kind="paper_case"):
    return make_weak_dataset(_spec(), n_us, n_u, sampler_kind, seed)


def _config(**kw):
    defaults = dict(prior=ClassPrior(0.4), epochs=5, batch_size=50, seed=1)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrainConfig:
    def test_rejects_negative_epochs(self):
        with pytest.raises(ConfigurationError):
            _config(epochs=-1)

    def test_rejects_tiny_batch(self):
        with pytest.raises(ConfigurationError):
            _config(batch_size=1)

    def test_rejects_unknown_estimator(self):
        with pytest.raises(ConfigurationError):
            _config(estimator="exotic")

    def test_rejects_balanced_prior(self):
        with pytest.raises(Exception):
            _config(prior=ClassPrior(0.5))

    def test_defaults(self):
        cfg = TrainConfig(prior=ClassPrior(0.4))
        assert cfg.correction is CorrectionKind.ABS
        assert cfg.estimator == "matched"
        assert cfg.model_kind == "linear"


class TestBatchPlan:
    def test_counts(self):
        assert _batch_plan((60, 90), 50) == 3

    def test_batch_larger_than_pool_errors(self):
        with pytest.raises(ConfigurationError):
            _batch_plan((60, 40), 50)

    def test_too_many_batches_errors(self):
        with pytest.raises(ConfigurationError):
            _batch_plan((4, 1000), 5)

    @pytest.mark.parametrize("batch,fix", [(3, "increase --batch"), (4, "supply more data")])
    def test_too_many_batches_advises_a_fix_that_can_work(self, batch, fix):
        # a batch as large as the smallest pool cannot grow any further
        with pytest.raises(ConfigurationError, match=f"; {fix}$"):
            _batch_plan((4, 1000), batch)


class TestTrain:
    def test_zero_epochs_returns_init_model(self):
        data = _data()
        model, log = train(_config(epochs=0), data)
        assert log.records == []
        # untouched init: bias is exactly zero
        np.testing.assert_array_equal(model.bias, [0.0])

    def test_deterministic(self):
        cfg = _config()
        m1, log1 = train(cfg, _data())
        m2, log2 = train(cfg, _data())
        for k in m1.params():
            np.testing.assert_array_equal(m1.params()[k], m2.params()[k])
        assert [r.raw_risk for r in log1.records] == [r.raw_risk for r in log2.records]

    def test_one_record_per_epoch(self):
        _, log = train(_config(epochs=4), _data())
        assert [r.epoch for r in log.records] == [1, 2, 3, 4]

    def test_abs_correction_logs_nonnegative_corrected(self):
        _, log = train(_config(correction=CorrectionKind.ABS), _data())
        assert all(r.corrected_risk >= 0 for r in log.records)

    def test_corrected_matches_raw_relation(self):
        _, log = train(_config(correction=CorrectionKind.MAX_ZERO), _data())
        for r in log.records:
            assert r.corrected_risk == pytest.approx(max(0.0, r.raw_risk))
            assert r.raw_risk == pytest.approx(r.us_term + r.u_term)

    def test_uncorrected_risk_decreases(self):
        improved = 0
        for seed in range(5):
            data = _data(seed=seed)
            cfg = _config(correction=CorrectionKind.NONE, epochs=20, seed=seed)
            _, log = train(cfg, data)
            if log.records[-1].raw_risk < log.records[0].raw_risk:
                improved += 1
        assert improved >= 4

    def test_eval_set_fills_accuracy(self):
        test = synth_gaussian_labeled(_spec(), 200, seed=9)
        _, log = train(_config(), _data(), eval_set=test)
        assert all(r.test_accuracy is not None for r in log.records)
        _, log = train(_config(), _data())
        assert all(r.test_accuracy is None for r in log.records)

    def test_plain_estimator_differs_from_matched(self):
        data = _data()
        m_matched, _ = train(_config(), data)
        m_plain, _ = train(_config(estimator="plain"), data)
        diff = np.max(np.abs(m_matched.weights - m_plain.weights))
        assert diff > 0

    @pytest.mark.parametrize("kind", ["rejection", "paper_case"])
    def test_runs_for_both_samplers(self, kind):
        model, log = train(_config(epochs=2), _data(sampler_kind=kind))
        assert len(log.records) == 2
        assert np.all(np.isfinite(model.weights))

    def test_mlp_model_trains(self):
        model, log = train(_config(model_kind="mlp", hidden=8, epochs=3), _data())
        assert model.kind == "mlp"
        assert len(log.records) == 3

    def test_empty_data_raises(self):
        data = _data()
        empty = WeakDataset(
            triplets=np.zeros((0, 3, 2)),
            unlabeled=data.unlabeled,
            prior=ClassPrior(0.4),
        )
        with pytest.raises(InsufficientDataError):
            train(_config(), empty)

    def test_oversized_batch_raises_with_hint(self):
        with pytest.raises(ConfigurationError, match="reduce --batch"):
            train(_config(batch_size=1000), _data(n_us=10, n_u=10))

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_divergence_names_the_epoch(self, kind):
        cfg = _config(lr=1e9, epochs=50, batch_size=30, model_kind=kind, hidden=4)
        with pytest.raises(TrainingDivergedError, match=r"^training diverged at epoch \d+: "):
            train(cfg, _data())

    def test_bound_check_stops_before_overflow(self):
        # one epoch of a huge learning rate leaves a finite model past the bound
        cfg = _config(lr=1e120, epochs=1, batch_size=30, weight_decay=0.0)
        with pytest.raises(TrainingDivergedError) as exc:
            train(cfg, _data())
        assert str(exc.value).startswith("training diverged at epoch 1: ")
        assert f"exceeds {DIVERGENCE_LIMIT:g} in magnitude" in str(exc.value)


class TestSupervisedOracle:
    def test_learns_separated_gaussians(self):
        pool = synth_gaussian_labeled(_spec(), 500, seed=0)
        test = synth_gaussian_labeled(_spec(), 500, seed=1)
        cfg = _config(epochs=250, batch_size=100)
        model, log = train_supervised_oracle(cfg, pool, eval_set=test)
        assert log.records[-1].test_accuracy > 0.9

    def test_deterministic(self):
        pool = synth_gaussian_labeled(_spec(), 100, seed=0)
        cfg = _config(epochs=3, batch_size=50)
        m1, _ = train_supervised_oracle(cfg, pool)
        m2, _ = train_supervised_oracle(cfg, pool)
        np.testing.assert_array_equal(m1.weights, m2.weights)

    def test_risk_decreases(self):
        pool = synth_gaussian_labeled(_spec(), 300, seed=2)
        cfg = _config(epochs=30, batch_size=100)
        _, log = train_supervised_oracle(cfg, pool)
        assert log.records[-1].raw_risk < log.records[0].raw_risk

    def test_batch_exceeding_pool_raises(self):
        pool = synth_gaussian_labeled(_spec(), 20, seed=0)
        with pytest.raises(ConfigurationError):
            train_supervised_oracle(_config(batch_size=50), pool)

    def test_batch_error_shares_the_weak_plan_text(self):
        pool = synth_gaussian_labeled(_spec(), 20, seed=0)
        with pytest.raises(ConfigurationError) as exc:
            train_supervised_oracle(_config(batch_size=50), pool)
        assert str(exc.value) == (
            "batch_size 50 exceeds a pool size (pool sizes 20); "
            "reduce --batch or supply more data"
        )
