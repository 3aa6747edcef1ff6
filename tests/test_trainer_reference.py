"""The trainer against the plain per-batch reference loop of
tests/reference.py, bit for bit.

The reference calls the package's forward, backward and risk functions, so
the only things compared are the batch composition, the update order and
the optimizer bookkeeping. Any move in them changes the final parameters
and the log rows, which are compared with np.array_equal.
"""
import numpy as np
import pytest

from reference import reference_train
from trisim.core import ClassPrior, CorrectionKind
from trisim.sampler import GaussianSourceSpec, make_weak_dataset, synth_gaussian_labeled
from trisim.trainer import TrainConfig, train

SPEC = GaussianSourceSpec(
    dim=3,
    mu_plus=np.array([1.0, 0.5, 0.0]),
    mu_minus=np.array([-1.0, -0.5, 0.0]),
    sigma=1.0,
    prior=ClassPrior(0.4),
)
EPOCHS = {"linear": 40, "mlp": 8}


def _config(model_kind, batch_size, correction):
    return TrainConfig(
        prior=ClassPrior(0.4),
        correction=CorrectionKind(correction),
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
        for r in log
    ]
    assert len(rows) == len(ref_rows)
    for row, ref_row in zip(rows, ref_rows):
        assert np.array_equal(row, ref_row), (row, ref_row)


@pytest.mark.parametrize("model_kind", ["linear", "mlp"])
@pytest.mark.parametrize("sampler", ["rejection", "paper_case"])
@pytest.mark.parametrize("correction", ["abs", "none", "max_zero"])
def test_weak_train_matches_reference_loop(model_kind, sampler, correction):
    # uneven pools: 999 similarity rows and 777 unlabeled rows in 8 batches
    data = make_weak_dataset(SPEC, 333, 777, sampler, 2)
    test = synth_gaussian_labeled(SPEC, 200, seed=5)
    config = _config(model_kind, 250, correction)
    model, log = train(config, data, test)
    _assert_identical(model, log, *reference_train(config, data, test))
