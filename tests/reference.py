"""Plain per-batch reference loops for the trainer, and the supervised
oracle that the acceptance suite compares weak learning with.

The loop is written out independently of trisim.trainer: per epoch it draws
one permutation per pool, in pool order, splits each into index arrays with
np.array_split, fancy-indexes and concatenates every batch, and runs Adam
key by key over the model's own parameter arrays. backward's gradient
vector is sliced back into parameters by the params() sizes. It calls the
package's forward, backward and risk functions, so a comparison with the
trainer checks only the batch composition, the update order and the
optimizer bookkeeping.

reference_supervised runs the same loop on the plain supervised square
risk; it is the one implementation of the supervised upper reference
(criterion 6), and tests/test_trainer_golden.py pins its bits. The
derivative of the square loss, which only this oracle needs, is
square_loss_grad.

pytest does not collect this module; the test modules import it.
"""
from dataclasses import replace

import numpy as np

from trisim.evaluation import derive_seeds
from trisim.model import accuracy, backward, forward, init_model
from trisim.risk import RiskValue, empirical_risk, empirical_risk_grad, slot_weights, square_loss
from trisim.sampler import synth_gaussian_labeled


def square_loss_grad(scores, labels):
    """d/dz of risk.square_loss, (1 - y*z)^2, for labels y in {+1, -1}."""
    return -2.0 * labels * (1.0 - labels * np.asarray(scores, dtype=float))


def reference_loop(config, model, pool_sizes, batch_upstream, epoch_risk, eval_set):
    """Train model in place; returns it and one row (epoch, raw, corrected,
    us_term, u_term, test accuracy or None) per epoch."""
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
        acc = None if eval_set is None else accuracy(model, eval_set)
        rows.append((epoch, rv.raw, rv.corrected, rv.us_term, rv.u_term, acc))
    return model, rows


def reference_train(config, data, eval_set):
    """The weak trainer's objective through reference_loop."""
    us_pool = data.triplets.reshape(-1, data.triplets.shape[2])
    u_pool = data.unlabeled
    weights, u_plus_coef = slot_weights(config.prior, data.sampler_kind)
    us_weights = np.tile(weights, data.n_triplets)
    model = init_model(config.model_kind, us_pool.shape[1], config.hidden, seed=config.seed)

    def batch_upstream(model, us_idx, u_idx):
        us_batch, u_batch = us_pool[us_idx], u_pool[u_idx]
        upstream = empirical_risk_grad(
            forward(model, us_batch), forward(model, u_batch), config.prior,
            config.correction, us_weights=us_weights[us_idx], u_plus_coef=u_plus_coef,
        )
        return np.concatenate([us_batch, u_batch]), upstream

    def epoch_risk(model):
        return empirical_risk(
            forward(model, us_pool), forward(model, u_pool), config.prior,
            config.correction, us_weights=us_weights, u_plus_coef=u_plus_coef,
        )

    sizes = (us_pool.shape[0], u_pool.shape[0])
    return reference_loop(config, model, sizes, batch_upstream, epoch_risk, eval_set)


def reference_supervised(config, labeled, eval_set):
    """The plain supervised empirical square risk through reference_loop;
    the logged risk is its us_term, raw and corrected value."""
    model = init_model(config.model_kind, labeled.x.shape[1], config.hidden, seed=config.seed)

    def batch_upstream(model, idx):
        x = labeled.x[idx]
        return x, square_loss_grad(forward(model, x), labeled.y[idx]) / idx.size

    def epoch_risk(model):
        risk = float(np.mean(square_loss(forward(model, labeled.x), labeled.y)))
        return RiskValue(us_term=risk, u_term=0.0, raw=risk, corrected=risk)

    return reference_loop(config, model, (len(labeled),), batch_upstream, epoch_risk, eval_set)


def supervised_accuracy(spec, config, n_labeled, seed, n_test=2000):
    """Test accuracy of the supervised oracle trained on n_labeled draws of
    spec: the counterpart of trisim.evaluation.weak_run, with its seeds, its
    test set and a batch clamped to the pool."""
    data_seed, test_seed = derive_seeds(seed, 2)
    pool = synth_gaussian_labeled(spec, n_labeled, data_seed)
    test = synth_gaussian_labeled(spec, n_test, test_seed)
    batch = min(config.batch_size, n_labeled)
    model, _ = reference_supervised(replace(config, seed=seed, batch_size=batch), pool, None)
    return accuracy(model, test)
