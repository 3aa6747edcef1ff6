"""On valid data the package warns about nothing. With every warning raised
as an error, the fast verify suites at seed 0, the trainer under both
samplers, every correction and both model kinds, and the supervised oracle
all run to the end."""
import warnings

import numpy as np
import pytest

from trisim.cli import SUITES
from trisim.core import SAMPLERS, ClassPrior, CorrectionKind
from trisim.sampler import GaussianSourceSpec, make_weak_dataset, synth_gaussian_labeled
from trisim.trainer import TrainConfig, train, train_supervised_oracle

SPEC = GaussianSourceSpec(2, np.array([2.0, 0.0]), np.array([-2.0, 0.0]), 1.0, ClassPrior(0.4))


@pytest.fixture(autouse=True)
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.mark.parametrize("suite", [name for name in SUITES if name != "trend"])
def test_fast_verify_suite(suite):
    SUITES[suite](0)


@pytest.mark.parametrize("model_kind", ["linear", "mlp"])
@pytest.mark.parametrize("correction", list(CorrectionKind))
@pytest.mark.parametrize("sampler_kind", SAMPLERS)
def test_train(sampler_kind, correction, model_kind):
    data = make_weak_dataset(SPEC, 40, 90, sampler_kind, 3)
    config = TrainConfig(SPEC.prior, correction, epochs=15, batch_size=50, lr=0.01,
                         model_kind=model_kind, hidden=8, seed=1)
    _, log = train(config, data, synth_gaussian_labeled(SPEC, 100, seed=4))
    assert len(log.records) == 15


def test_supervised_oracle():
    pool = synth_gaussian_labeled(SPEC, 130, seed=5)
    _, log = train_supervised_oracle(TrainConfig(SPEC.prior, epochs=15, batch_size=50), pool, pool)
    assert len(log.records) == 15
