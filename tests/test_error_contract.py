"""The finiteness contract of the training path's public functions.

A NaN or an infinity anywhere in the similarity scores, the unlabeled
scores, the similarity weights or a backward upstream raises
InvalidInputError naming the array, from empirical_risk, empirical_risk_grad
and backward alike. Finite inputs whose terms overflow are not faults: the
risk comes back infinite and nothing raises. numpy may print a
RuntimeWarning on the way to either outcome, so these tests ignore them.
"""
import re

import numpy as np
import pytest

from trisim.core import ClassPrior, CorrectionKind, InvalidInputError
from trisim.model import backward, init_model
from trisim.risk import empirical_risk, empirical_risk_grad

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
    g_us, g_u = empirical_risk_grad(prior=PRIOR, correction=correction, **inputs)
    assert g_us.shape == g_u.shape == (N,)


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
