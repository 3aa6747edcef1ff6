"""The finiteness contract of the training path's public functions.

A NaN or an infinity anywhere in the similarity scores, the unlabeled
scores, the similarity weights or a backward upstream raises
InvalidInputError naming the array, from empirical_risk, empirical_risk_grad
and backward alike. Finite inputs whose terms overflow are not faults: the
risk comes back infinite and nothing raises. numpy may print a
RuntimeWarning on the way to either outcome, so these tests ignore them.

The input checks of the data types, the risk and the samplers that no
other test reaches each raise their own error type and message.
"""
import re

import numpy as np
import pytest

from trisim.core import (
    ClassPrior,
    CorrectionKind,
    InsufficientDataError,
    InvalidInputError,
    LabeledPool,
    ShapeError,
    WeakDataset,
)
from trisim.model import backward, init_model
from trisim.risk import DiscreteDomainSpec, empirical_risk, empirical_risk_grad
from trisim.sampler import (
    PoolSource,
    default_gaussian_spec,
    sample_triplets_paper_case,
    sample_unlabeled,
)

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

PRIOR = ClassPrior(0.4)
N = 5
BAD = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}
POSITIONS = {"first": 0, "middle": N // 2, "last": N - 1}
RISKS = {"empirical_risk": empirical_risk, "empirical_risk_grad": empirical_risk_grad}
MESSAGES = {
    "us_scores": "similarity scores contain non-finite values",
    "u_scores": "unlabeled scores contain non-finite values",
    "us_weights": "us_weights contain non-finite values",
}


def _risk_inputs():
    rng = np.random.default_rng(0)
    return {
        "us_scores": rng.normal(size=N),
        "u_scores": rng.normal(size=N),
        "us_weights": np.array([6.0, 0.0, 0.0, 6.0, 0.0]),
    }


def _raises_exactly(message):
    return pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$")


@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize("value", BAD)
@pytest.mark.parametrize("field", MESSAGES)
@pytest.mark.parametrize("risk", RISKS)
@pytest.mark.parametrize("u_plus_coef", [0.0, -0.5])
def test_risk_names_the_non_finite_array(risk, field, value, position, u_plus_coef):
    inputs = _risk_inputs()
    inputs[field][POSITIONS[position]] = BAD[value]
    with _raises_exactly(MESSAGES[field]) as excinfo:
        RISKS[risk](prior=PRIOR, correction=CorrectionKind.ABS, u_plus_coef=u_plus_coef, **inputs)
    assert excinfo.type is InvalidInputError


@pytest.mark.parametrize("value", ["+inf", "-inf"])
@pytest.mark.parametrize("risk", RISKS)
def test_an_infinite_score_under_a_zero_weight_still_raises(risk, value):
    inputs = _risk_inputs()
    assert inputs["us_weights"][1] == 0.0
    inputs["us_scores"][1] = BAD[value]
    with _raises_exactly(MESSAGES["us_scores"]):
        RISKS[risk](prior=PRIOR, correction=CorrectionKind.NONE, **inputs)


@pytest.mark.parametrize("correction", list(CorrectionKind))
def test_overflowing_unlabeled_scores_give_an_infinite_risk(correction):
    inputs = _risk_inputs()
    inputs["u_scores"][2] = 1e200
    rv = empirical_risk(prior=PRIOR, correction=correction, **inputs)
    assert rv.u_term == rv.raw == rv.corrected == np.inf
    grad = empirical_risk_grad(prior=PRIOR, correction=correction, **inputs)
    assert grad.shape == (2 * N,)


@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize("value", BAD)
@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_backward_names_a_non_finite_upstream(kind, value, position):
    model = init_model(kind, 3, hidden=4, seed=1)
    x = np.random.default_rng(2).normal(size=(N, 3))
    upstream = np.ones(N)
    upstream[POSITIONS[position]] = BAD[value]
    with _raises_exactly("upstream must be finite") as excinfo:
        backward(model, x, upstream)
    assert excinfo.type is InvalidInputError


@pytest.mark.parametrize("kind", ["linear", "mlp"])
def test_backward_of_an_overflowing_upstream_is_infinite(kind):
    model = init_model(kind, 3, hidden=4, seed=1)
    x = np.abs(np.random.default_rng(2).normal(size=(N, 3))) + 1.0
    grad = backward(model, x, np.full(N, 1e308))
    assert grad[-1] == np.inf


EMPTY_POOL = {"x": np.zeros((0, 2)), "y": np.zeros(0)}
SPEC, RNG = default_gaussian_spec(), np.random.default_rng(0)
INPUT_CHECKS = {
    "weak-unlabeled-shape": (
        lambda: WeakDataset(np.zeros((1, 3, 2)), np.zeros(2), "rejection"),
        ShapeError, "unlabeled must have shape (m, d), got (2,)",
    ),
    "pool-shape": (
        lambda: LabeledPool(np.zeros((2, 2)), np.ones(3)),
        ShapeError, "x must be (n, d) and y must be (n,)",
    ),
    "pool-empty-prior": (
        lambda: LabeledPool(**EMPTY_POOL).empirical_prior,
        InsufficientDataError, "empty pool has no empirical prior",
    ),
    "risk-2d-scores": (
        lambda: empirical_risk(np.zeros((2, 2)), np.zeros(2), PRIOR, CorrectionKind.ABS),
        InvalidInputError, "similarity scores must be a 1-D array",
    ),
    "domain-lengths": (
        lambda: DiscreteDomainSpec(np.ones(1), np.full(2, 0.5), PRIOR, np.zeros(1)),
        InvalidInputError, "p_plus, p_minus, scores must be 1-D of equal length",
    ),
    "domain-scores": (
        lambda: DiscreteDomainSpec(np.ones(1), np.ones(1), PRIOR, np.full(1, np.inf)),
        InvalidInputError, "scores must be finite",
    ),
    "source-empty-pool": (
        lambda: PoolSource(LabeledPool(**EMPTY_POOL)),
        InsufficientDataError, "pool is empty",
    ),
    "paper-case-count": (
        lambda: sample_triplets_paper_case(SPEC, 0, RNG),
        InvalidInputError, "triplet count must be >= 1, got 0",
    ),
    "unlabeled-count": (
        lambda: sample_unlabeled(SPEC, 0, RNG),
        InvalidInputError, "unlabeled count must be >= 1, got 0",
    ),
}


@pytest.mark.parametrize("case", INPUT_CHECKS)
def test_an_input_check_raises_its_type_and_message(case):
    call, error, message = INPUT_CHECKS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as excinfo:
        call()
    assert excinfo.type is error
