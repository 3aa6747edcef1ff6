"""Unit tests for the training loop: configuration validation, batching
invariants, determinism, and sanity of the logged risks."""
import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import trisim
from trisim import risk, trainer
from trisim.core import (
    ClassPrior,
    ConfigurationError,
    CorrectionKind,
    InsufficientDataError,
    InvalidInputError,
    LabeledPool,
    ShapeError,
    TrainingDivergedError,
    WeakDataset,
)
from trisim.model import (
    _accuracy,
    _backward,
    _forward,
    _scored,
    accuracy,
    adam_step,
    backward,
    forward,
    init_model,
)
from trisim.sampler import GaussianSourceSpec, make_weak_dataset, synth_gaussian_labeled
from trisim.risk import RiskValue
from trisim.trainer import (
    DIVERGENCE_LIMIT,
    TrainConfig,
    _batch_plan,
    _divergence,
    train,
)

from reference import reference_supervised


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

    @pytest.mark.parametrize(
        "rates", [dict(lr=np.nan), dict(lr=np.inf), dict(lr=0.0), dict(lr=-1.0),
                  dict(weight_decay=-5.0), dict(weight_decay=np.nan), dict(weight_decay=np.inf)]
    )
    def test_rejects_bad_rates(self, rates):
        with pytest.raises(ConfigurationError, match=f"^{next(iter(rates))} must be finite"):
            _config(**rates)

    def test_accepts_huge_finite_rates(self):
        # the divergence tests train at rates like these
        _config(lr=1e120, weight_decay=0.0)

    def test_rejects_balanced_prior(self):
        with pytest.raises(Exception):
            _config(prior=ClassPrior(0.5))

    def test_defaults(self):
        cfg = TrainConfig(prior=ClassPrior(0.4))
        assert cfg.correction is CorrectionKind.ABS
        assert cfg.model_kind == "linear"


class TestBatchPlan:
    def test_counts(self):
        # 60 similarity rows and 90 unlabeled points make 150 rows, 5 batches
        assert _batch_plan(_config(batch_size=30), 20, 90) == 5

    def test_batch_larger_than_pool_errors(self):
        with pytest.raises(ConfigurationError, match=r"\(pool sizes 60, 40\)"):
            _batch_plan(_config(batch_size=50), 20, 40)

    def test_too_many_batches_errors(self):
        with pytest.raises(ConfigurationError):
            _batch_plan(_config(batch_size=5), 2, 1000)

    @pytest.mark.parametrize("batch,fix", [(5, "increase --batch"), (6, "supply more data")])
    def test_too_many_batches_advises_a_fix_that_can_work(self, batch, fix):
        # a batch as large as the smallest pool cannot grow any further
        with pytest.raises(ConfigurationError, match=f"; {fix}$"):
            _batch_plan(_config(batch_size=batch), 2, 1000)

    def test_zero_epochs_need_no_plan(self):
        # pools far too small for the batch: no epoch runs, so nothing is planned
        assert _batch_plan(_config(epochs=0, batch_size=50), 1, 1) == 0


class TestTrain:
    def test_zero_epochs_returns_init_model(self):
        data = _data()
        model, log = train(_config(epochs=0), data)
        assert log == []
        # untouched init: bias is exactly zero
        np.testing.assert_array_equal(model.bias, [0.0])

    def test_deterministic(self):
        cfg = _config()
        m1, log1 = train(cfg, _data())
        m2, log2 = train(cfg, _data())
        for k in m1.params():
            np.testing.assert_array_equal(m1.params()[k], m2.params()[k])
        assert [r.raw_risk for r in log1] == [r.raw_risk for r in log2]

    def test_one_record_per_epoch(self):
        _, log = train(_config(epochs=4), _data())
        assert [r.epoch for r in log] == [1, 2, 3, 4]

    def test_abs_correction_logs_nonnegative_corrected(self):
        _, log = train(_config(correction=CorrectionKind.ABS), _data())
        assert all(r.corrected_risk >= 0 for r in log)

    def test_corrected_matches_raw_relation(self):
        _, log = train(_config(correction=CorrectionKind.MAX_ZERO), _data())
        for r in log:
            assert r.corrected_risk == pytest.approx(max(0.0, r.raw_risk))
            assert r.raw_risk == pytest.approx(r.us_term + r.u_term)

    def test_uncorrected_risk_decreases(self):
        improved = 0
        for seed in range(5):
            data = _data(seed=seed)
            cfg = _config(correction=CorrectionKind.NONE, epochs=20, seed=seed)
            _, log = train(cfg, data)
            if log[-1].raw_risk < log[0].raw_risk:
                improved += 1
        assert improved >= 4

    def test_eval_set_fills_accuracy(self):
        test = synth_gaussian_labeled(_spec(), 200, seed=9)
        _, log = train(_config(), _data(), eval_set=test)
        assert all(r.test_accuracy is not None for r in log)
        _, log = train(_config(), _data())
        assert all(r.test_accuracy is None for r in log)

    @pytest.mark.parametrize("kind", ["rejection", "paper_case"])
    def test_runs_for_both_samplers(self, kind):
        model, log = train(_config(epochs=2), _data(sampler_kind=kind))
        assert len(log) == 2
        assert np.all(np.isfinite(model.weights))

    def test_mlp_model_trains(self):
        model, log = train(_config(model_kind="mlp", hidden=8, epochs=3), _data())
        assert model.kind == "mlp"
        assert len(log) == 3

    def test_empty_data_raises(self):
        data = _data()
        empty = WeakDataset(np.zeros((0, 3, 2)), data.unlabeled, data.sampler_kind)
        with pytest.raises(InsufficientDataError):
            train(_config(), empty)

    def test_oversized_batch_raises_with_hint(self):
        with pytest.raises(ConfigurationError) as exc:
            train(_config(batch_size=1000), _data(n_us=10, n_u=10))
        assert str(exc.value) == (
            "batch_size 1000 exceeds a pool size (pool sizes 30, 10); "
            "reduce --batch or supply more data"
        )

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

    @pytest.mark.parametrize("value", [2 * DIVERGENCE_LIMIT, -np.inf, np.nan])
    @pytest.mark.parametrize("kind,name", [("linear", "weights"), ("linear", "bias"),
                                           ("mlp", "w1"), ("mlp", "b2")])
    def test_divergence_names_the_first_parameter_past_the_limit(self, kind, name, value):
        model = init_model(kind, 2, hidden=4)
        rv = RiskValue(us_term=0.5, u_term=0.5, raw=1.0, corrected=1.0)
        assert _divergence(rv, model) is None
        model.params()[name].flat[-1] = value
        assert _divergence(rv, model) == f"parameter {name!r} exceeds 1e+100 in magnitude"


class TestEvalSet:
    """train checks its eval set once, after the zero-epoch return and
    before the first step, with accuracy's errors; the loop then scores it
    through the kernel."""

    _WIDE = LabeledPool(np.zeros((5, 3)), np.ones(5))
    _EMPTY = LabeledPool(np.zeros((0, 2)), np.zeros(0))

    @pytest.fixture
    def steps(self, monkeypatch):
        steps = []

        def counted(*args):
            steps.append(None)
            return adam_step(*args)

        monkeypatch.setattr(trainer, "adam_step", counted)
        return steps

    def test_a_wrong_width_raises_before_the_first_step(self, steps):
        with pytest.raises(ShapeError, match=r"^input shape \(5, 3\) is not an \(n, 2\) batch$"):
            train(_config(), _data(), eval_set=self._WIDE)
        assert steps == []

    def test_an_empty_set_raises_before_the_first_step(self, steps):
        with pytest.raises(InvalidInputError, match="^test set is empty$"):
            train(_config(), _data(), eval_set=self._EMPTY)
        assert steps == []

    @pytest.mark.parametrize("eval_set", [_WIDE, _EMPTY], ids=["wide", "empty"])
    def test_zero_epochs_return_the_initialized_model(self, steps, eval_set):
        model, log = train(_config(epochs=0), _data(), eval_set)
        expected = init_model("linear", 2, TrainConfig.hidden, seed=1)
        assert log == [] and steps == []
        assert model.theta.tobytes() == expected.theta.tobytes()


class TestSupervisedOracle:
    """The supervised upper reference of criterion 6 lives in
    tests/reference.py; these pin that it learns, repeats itself and
    lowers its risk, as the acceptance suite assumes."""

    def test_learns_separated_gaussians(self):
        pool = synth_gaussian_labeled(_spec(), 500, seed=0)
        test = synth_gaussian_labeled(_spec(), 500, seed=1)
        cfg = _config(epochs=250, batch_size=100)
        _, rows = reference_supervised(cfg, pool, test)
        assert rows[-1][5] > 0.9

    def test_deterministic(self):
        pool = synth_gaussian_labeled(_spec(), 100, seed=0)
        cfg = _config(epochs=3, batch_size=50)
        m1, _ = reference_supervised(cfg, pool, None)
        m2, _ = reference_supervised(cfg, pool, None)
        np.testing.assert_array_equal(m1.weights, m2.weights)

    def test_risk_decreases(self):
        pool = synth_gaussian_labeled(_spec(), 300, seed=2)
        cfg = _config(epochs=30, batch_size=100)
        _, rows = reference_supervised(cfg, pool, None)
        assert rows[-1][1] < rows[0][1]


# The names trisim.trainer looks up at call time, which the benchmark wraps
# (README, "The benchmark"), with the rows each call is given.
CONTRACT = ("forward", "backward", "adam_step", "empirical_risk_grad", "empirical_risk", "_accuracy")


def _record_calls(monkeypatch):
    calls = []
    for name in CONTRACT:
        def wrapper(*args, _name=name, _fn=getattr(trainer, name), **kwargs):
            x = args[1] if _name in ("forward", "backward") else None
            calls.append((_name, None if x is None else x.shape[0]))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(trainer, name, wrapper)
    return calls


class TestCallContract:
    """Per batch and per epoch, the loop makes exactly the calls the
    benchmark's counters and epoch marks rely on, in this order."""

    @pytest.mark.parametrize("with_eval_set", [True, False], ids=["eval_set", "no_eval_set"])
    def test_weak_run(self, monkeypatch, with_eval_set):
        data = _data(n_us=40, n_u=90)  # 120 similarity rows, 90 unlabeled
        eval_set = synth_gaussian_labeled(_spec(), 50, seed=2) if with_eval_set else None
        calls = _record_calls(monkeypatch)
        train(_config(epochs=3, batch_size=60), data, eval_set)
        # 4 batches: the pools split 30/30/30/30 and 23/23/22/22
        batch = lambda us, u: [
            ("forward", us), ("forward", u), ("empirical_risk_grad", None),
            ("backward", us + u), ("adam_step", None),
        ]
        epoch = (batch(30, 23) + batch(30, 23) + batch(30, 22) + batch(30, 22)
                 + [("forward", 120), ("forward", 90), ("empirical_risk", None)]
                 + [("_accuracy", None)] * with_eval_set)
        assert calls == 3 * epoch

    @pytest.mark.parametrize("with_eval_set", [True, False], ids=["eval_set", "no_eval_set"])
    def test_weak_run_with_the_shuffle_helper(self, monkeypatch, with_eval_set):
        monkeypatch.setattr(trainer, "PREFETCH_MIN", 0)
        self.test_weak_run(monkeypatch, with_eval_set)


def _risk_inputs(seed, kink):
    """Float scores, weights and a coefficient for the risk functions; with
    kink, the weights are scaled so the raw risk is 0 up to rounding, where
    the gradient's certificate declines and the exact side means decide."""
    rng = np.random.default_rng(seed)
    us, u, w = rng.normal(size=30), rng.normal(size=20), rng.uniform(0, 6, size=30)
    c = float(rng.uniform(-1, 0))
    if kink:
        a, b = risk._polynomial(ClassPrior(0.4))
        rest = c * a * u.mean() + 1.0 + (u * u).mean() + b * u.mean()
        w *= -rest * us.size / (a * np.dot(w, us))
    return us, u, w, c


class TestKernels:
    """train checks its arrays once and calls the kernels under the public
    names; each kernel gives its public function's bytes on valid inputs,
    and keeps its finiteness scan and message."""

    def test_the_trainer_names_bind_to_the_kernels(self):
        names = ("forward", "backward", "empirical_risk_grad", "empirical_risk", "_accuracy")
        kernels = (_forward, _backward, risk._empirical_risk_grad, risk._empirical_risk, _accuracy)
        assert tuple(getattr(trainer, n) for n in names) == kernels

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_accuracy_kernel_gives_the_public_float(self, kind):
        m = init_model(kind, 2, hidden=5, seed=3)
        pool = synth_gaussian_labeled(_spec(), 101, seed=4)
        signs = np.where(forward(m, pool.x) >= 0, 1, -1)  # sign(0) counts as +1
        assert _accuracy(m, *_scored(m, pool)) == accuracy(m, pool) == np.mean(signs == pool.y)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_model_kernels_give_the_public_bytes(self, kind, seed):
        rng = np.random.default_rng(seed)
        m = init_model(kind, 3, hidden=5, seed=seed)
        x, up = rng.normal(size=(40, 3)), rng.normal(size=40)
        assert _forward(m, x).tobytes() == forward(m, x).tobytes()
        assert _backward(m, x, up).tobytes() == backward(m, x, up).tobytes()
        # the trainer's form: written into its buffers, which are returned
        z, grad = np.full(40, np.nan), np.full(m.theta.size, np.nan)
        assert _forward(m, x, z) is z and z.tobytes() == forward(m, x).tobytes()
        assert _backward(m, x, up, grad) is grad and grad.tobytes() == backward(m, x, up).tobytes()

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_backward_kernel_names_a_non_finite_upstream(self, kind):
        m = init_model(kind, 3, hidden=5, seed=1)
        with pytest.raises(InvalidInputError, match="^upstream must be finite$"):
            _backward(m, np.ones((4, 3)), np.array([1.0, np.nan, 0.0, 1.0]))

    @pytest.mark.parametrize("kink", [False, True], ids=["certified", "kink"])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("correction", list(CorrectionKind))
    def test_risk_kernels_give_the_public_bytes(self, correction, seed, kink):
        us, u, w, c = _risk_inputs(seed, kink)
        prior = ClassPrior(0.4)
        public = risk.empirical_risk(us, u, prior, correction, us_weights=w, u_plus_coef=c)
        kernel = risk._empirical_risk(us, u, prior, correction, w, c)
        assert np.array(astuple(kernel)).tobytes() == np.array(astuple(public)).tobytes()
        grad = risk.empirical_risk_grad(us, u, prior, correction, us_weights=w, u_plus_coef=c)
        assert risk._empirical_risk_grad(us, u, prior, correction, w, c).tobytes() == grad.tobytes()
        out = np.full(us.size + u.size, np.nan)
        views = (out, out[: us.size], out[us.size :])
        assert risk._empirical_risk_grad(us, u, prior, correction, w, c, views) is out
        assert out.tobytes() == grad.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf on the way to the scan
    @pytest.mark.parametrize("kernel", [risk._empirical_risk, risk._empirical_risk_grad])
    def test_risk_kernels_name_a_non_finite_array(self, kernel):
        us, u, w, c = _risk_inputs(0, False)
        u[3] = np.inf
        with pytest.raises(InvalidInputError, match="^unlabeled scores contain non-finite values$"):
            kernel(us, u, ClassPrior(0.4), CorrectionKind.ABS, w, c)


_THREADS_SCRIPT = """
import hashlib
import numpy as np
from trisim.core import ClassPrior
from trisim.sampler import GaussianSourceSpec, make_weak_dataset
from trisim.trainer import TrainConfig, train
mu = np.zeros(50)
mu[0] = 1.0
data = make_weak_dataset(GaussianSourceSpec(50, mu, -mu, 1.0, ClassPrior(0.4)), 20000, 20000, "rejection", 1)
for kind, batch in (("linear", 20000), ("mlp", 20000), ("mlp", 2000)):
    config = TrainConfig(ClassPrior(0.4), epochs=2, batch_size=batch, lr=0.01, model_kind=kind, hidden=32)
    model, log = train(config, data)
    print(kind, batch, hashlib.sha256(model.theta.tobytes() + repr(log).encode()).hexdigest())
"""


def test_same_bits_on_any_blas_thread_count():
    # A BLAS call that sums over many rows may split the sum between its
    # threads. Without the row blocks of model._over_rows, a 20000 x 50
    # batch (linear) and a 2000-row batch with 32 hidden units (mlp) train
    # to other bits on 2 threads than on 1.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(trisim.__file__).resolve().parents[1]), env.get("PYTHONPATH")) if p
    )
    runs = []
    for threads in ("1", "2"):
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        res = subprocess.run(
            [sys.executable, "-c", _THREADS_SCRIPT], env=env, capture_output=True, text=True, timeout=120
        )
        assert res.returncode == 0, res.stderr
        runs.append(res.stdout.splitlines())
    assert len(runs[0]) == 3
    assert runs[0] == runs[1]
