"""Both trainers against a plain per-batch reference loop, bit for bit.

The reference below is written out independently of trisim.trainer: per
epoch it draws one permutation per pool, in pool order, splits each into
index arrays with np.array_split, fancy-indexes and concatenates every
batch, and runs Adam key by key over the model's own parameter arrays. It
calls the package's forward, backward and risk functions, so the only
things compared are the batch composition, the update order and the
optimizer bookkeeping. backward's gradient vector is sliced back into
parameters by the params() sizes. Any move in them changes the final
parameters and the log rows, which are compared with np.array_equal.
"""
import numpy as np
import pytest

from trisim.core import ClassPrior, CorrectionKind
from trisim.model import accuracy, backward, forward, init_model
from trisim.risk import (
    RiskValue,
    empirical_risk,
    empirical_risk_grad,
    slot_weights,
    square_loss,
)
from trisim.sampler import GaussianSourceSpec, make_weak_dataset, synth_gaussian_labeled
from trisim.trainer import TrainConfig, train, train_supervised_oracle

SPEC = GaussianSourceSpec(
    dim=3,
    mu_plus=np.array([1.0, 0.5, 0.0]),
    mu_minus=np.array([-1.0, -0.5, 0.0]),
    sigma=1.0,
    prior=ClassPrior(0.4),
)
EPOCHS = {"linear": 40, "mlp": 8}


def _reference_loop(config, model, pool_sizes, batch_upstream, epoch_risk, eval_set):
    n_batches = -(-sum(pool_sizes) // config.batch_size)
    _, ss_shuffle = np.random.SeedSequence(config.seed).spawn(2)
    rng = np.random.default_rng(ss_shuffle)
    params = model.params()
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    beta1, beta2, eps, lr, wd = 0.9, 0.999, 1e-8, config.lr, config.weight_decay
    step, rows = 0, []
    for epoch in range(1, config.epochs + 1):
        splits = [np.array_split(rng.permutation(n), n_batches) for n in pool_sizes]
        for indices in zip(*splits):
            x, upstream = batch_upstream(model, *indices)
            grad = backward(model, x, upstream)
            step, offset = step + 1, 0
            for key, p in params.items():
                g = grad[offset : offset + p.size].reshape(p.shape)
                offset += p.size
                p *= 1.0 - lr * wd
                m[key] *= beta1
                m[key] += (1.0 - beta1) * g
                v[key] *= beta2
                v[key] += (1.0 - beta2) * g * g
                m_hat = m[key] / (1.0 - beta1**step)
                v_hat = v[key] / (1.0 - beta2**step)
                p -= lr * m_hat / (np.sqrt(v_hat) + eps)
        rv = epoch_risk(model)
        acc = accuracy(model, eval_set)
        rows.append((epoch, rv.raw, rv.corrected, rv.us_term, rv.u_term, acc))
    return model, rows


def _reference_train(config, data, eval_set):
    us_pool = data.triplets.reshape(-1, data.triplets.shape[2])
    u_pool = data.unlabeled
    weights, u_plus_coef = slot_weights(config.prior, data.sampler_kind, config.estimator)
    us_weights = np.tile(weights, data.n_triplets)
    model = init_model(config.model_kind, us_pool.shape[1], config.hidden, seed=config.seed)

    def batch_upstream(model, us_idx, u_idx):
        us_batch, u_batch = us_pool[us_idx], u_pool[u_idx]
        g_us, g_u = empirical_risk_grad(
            forward(model, us_batch), forward(model, u_batch), config.prior,
            config.correction, us_weights=us_weights[us_idx], u_plus_coef=u_plus_coef,
        )
        return np.concatenate([us_batch, u_batch]), np.concatenate([g_us, g_u])

    def epoch_risk(model):
        return empirical_risk(
            forward(model, us_pool), forward(model, u_pool), config.prior,
            config.correction, us_weights=us_weights, u_plus_coef=u_plus_coef,
        )

    sizes = (us_pool.shape[0], u_pool.shape[0])
    return _reference_loop(config, model, sizes, batch_upstream, epoch_risk, eval_set)


def _reference_supervised(config, labeled, eval_set):
    model = init_model(config.model_kind, labeled.x.shape[1], config.hidden, seed=config.seed)

    def batch_upstream(model, idx):
        x = labeled.x[idx]
        _, dloss = square_loss(forward(model, x), labeled.y[idx])
        return x, dloss / idx.size

    def epoch_risk(model):
        loss, _ = square_loss(forward(model, labeled.x), labeled.y)
        risk = float(np.mean(loss))
        return RiskValue(us_term=risk, u_term=0.0, raw=risk, corrected=risk)

    return _reference_loop(config, model, (len(labeled),), batch_upstream, epoch_risk, eval_set)


def _config(model_kind, batch_size, correction="abs", estimator="matched"):
    return TrainConfig(
        prior=ClassPrior(0.4),
        correction=CorrectionKind(correction),
        estimator=estimator,
        epochs=EPOCHS[model_kind],
        batch_size=batch_size,
        lr=0.01,
        weight_decay=1e-3,
        model_kind=model_kind,
        hidden=8,
        seed=3,
    )


def _assert_identical(model, log, ref_model, ref_rows):
    got, want = model.params(), ref_model.params()
    assert list(got) == list(want)
    for key in want:
        assert np.array_equal(got[key], want[key]), key
    rows = [
        (r.epoch, r.raw_risk, r.corrected_risk, r.us_term, r.u_term, r.test_accuracy)
        for r in log.records
    ]
    assert len(rows) == len(ref_rows)
    for row, ref_row in zip(rows, ref_rows):
        assert np.array_equal(row, ref_row), (row, ref_row)


@pytest.mark.parametrize("model_kind", ["linear", "mlp"])
@pytest.mark.parametrize("sampler", ["rejection", "paper_case"])
# "plain" is the plain estimator under abs: its unlabeled coefficient is 0,
# the other branch of risk._side_terms
@pytest.mark.parametrize("correction", ["abs", "none", "max_zero", "plain"])
def test_weak_train_matches_reference_loop(model_kind, sampler, correction):
    # uneven pools: 999 similarity rows and 777 unlabeled rows in 8 batches
    data = make_weak_dataset(SPEC, 333, 777, sampler, 2)
    test = synth_gaussian_labeled(SPEC, 200, seed=5)
    if correction == "plain":
        config = _config(model_kind, 250, "abs", "plain")
    else:
        config = _config(model_kind, 250, correction)
    model, log = train(config, data, test)
    _assert_identical(model, log, *_reference_train(config, data, test))


@pytest.mark.parametrize("model_kind", ["linear", "mlp"])
def test_supervised_oracle_matches_reference_loop(model_kind):
    pool = synth_gaussian_labeled(SPEC, 1000, seed=4)
    test = synth_gaussian_labeled(SPEC, 200, seed=5)
    config = _config(model_kind, 300)
    model, log = train_supervised_oracle(config, pool, test)
    _assert_identical(model, log, *_reference_supervised(config, pool, test))
