"""The batch gradient's sign certificate (risk._certified_raw).

empirical_risk_grad takes dg/d raw from the raw risk written in the
polynomial's moments when a rounding bound proves that value has the exact
pairwise sum's sign, and from the exact side means otherwise. Declining the
certificate everywhere must change nothing: the same gradient bytes, the same
exceptions and messages, the same warnings, and the same trained bytes.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisim import risk
from trisim.core import (
    SAMPLERS,
    ClassPrior,
    CorrectionKind,
    InvalidInputError,
    TrainingDivergedError,
)
from trisim.risk import empirical_risk_grad, slot_weights
from trisim.sampler import GaussianSourceSpec, make_weak_dataset
from trisim.trainer import TrainConfig, train

TRAIN_ERRSTATE = dict(over="raise", divide="raise", invalid="raise")
PRIORS = [0.05, 0.3, 0.4, 0.49, 0.5 - 1e-9, 0.5 + 2**-40, 0.51, 0.6, 0.93]
# decimal exponents of the score scale: tiny, ordinary, and past where a square overflows
EXPONENTS = [-300, -8, 0, 0, 0, 3, 60, 150, 155, 160, 200, 307]
BAD = [np.nan, np.inf, -np.inf]


def _declined(*args):
    return None


def _outcome(inputs, errstate):
    """The gradient's bytes or the exception's type and message, and every
    warning on the way, as (category, message)."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(**errstate):
        warnings.simplefilter("always")
        try:
            result = empirical_risk_grad(**inputs).tobytes()
        except Exception as exc:  # the exception itself is the outcome compared
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def _exact_raw(inputs):
    us, u, w = risk._validated(inputs["us_scores"], inputs["u_scores"], inputs["us_weights"])
    a, b = risk._polynomial(inputs["prior"])
    with np.errstate(all="ignore"):
        us_term, u_term = risk._side_terms(us, u, w, a, b, inputs["u_plus_coef"])
    return us_term + u_term


def _on_the_kink(us, u, w, prior, c, ulps):
    """us_weights scaled so that the batch's raw risk is 0, up to rounding,
    then moved by ulps units in the last place of the scale; None where the
    batch has no such scale."""
    a, b = risk._polynomial(prior)
    m = u.size
    with np.errstate(all="ignore"):
        products = w * us, u * u
    if not all(np.isfinite(p).all() for p in products):
        return None
    rest = c * a * math.fsum(u) / m + 1.0 + math.fsum(products[1]) / m + b * math.fsum(u) / m
    dot = math.fsum(products[0])
    if dot == 0.0 or not math.isfinite(rest):
        return None
    scale = -rest * us.size / (a * dot)
    for _ in range(abs(ulps)):
        scale = np.nextafter(scale, math.copysign(math.inf, ulps))
    with np.errstate(all="ignore"):  # a huge scale may overflow the weights
        return w * scale


@st.composite
def batches(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    scale = 10.0 ** draw(st.sampled_from(EXPONENTS))
    us = rng.standard_normal(n) * scale
    u = rng.standard_normal(m) * scale + draw(st.sampled_from([0.0, 0.5, -3.0]))
    prior = ClassPrior(draw(st.sampled_from(PRIORS)))
    weights = draw(st.sampled_from(["none", "normal", "rejection", "paper_case"]))
    c = 0.0
    if weights == "none":
        w = None
    elif weights == "normal":
        w = rng.standard_normal(n) * 10.0 ** draw(st.sampled_from([-3, 0, 2]))
        c = float(rng.uniform(-2.0, 2.0))
    else:
        slots, c = slot_weights(prior, weights)
        w = np.resize(slots, n)
    ulps = draw(st.sampled_from([None, None, 0, 1, -1, 4, -4, 32]))
    kinked = None if ulps is None or w is None else _on_the_kink(us, u, w, prior, c, ulps)
    if kinked is not None:
        w = kinked
    inputs = dict(us_scores=us, u_scores=u, prior=prior, us_weights=w, u_plus_coef=c,
                  correction=draw(st.sampled_from(list(CorrectionKind))))
    if draw(st.booleans()) and draw(st.booleans()):  # a non-finite value in one array
        name = draw(st.sampled_from(["us_scores", "u_scores", "us_weights"]))
        if inputs[name] is not None:
            arr = inputs[name] = inputs[name].copy()
            arr[draw(st.integers(0, arr.size - 1))] = draw(st.sampled_from(BAD))
    return inputs, kinked is not None


@settings(max_examples=400, deadline=None)
@given(batches(), st.sampled_from([{}, TRAIN_ERRSTATE]))
def test_declining_the_certificate_changes_nothing(batch, errstate):
    inputs, on_kink = batch
    normal = _outcome(inputs, errstate)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(risk, "_certified_raw", _declined)
        exact = _outcome(inputs, errstate)
    assert normal == exact


@settings(max_examples=400, deadline=None)
@given(batches())
def test_a_certified_raw_has_the_exact_sums_sign(batch):
    inputs, on_kink = batch
    us, u, w = risk._validated(inputs["us_scores"], inputs["u_scores"], inputs["us_weights"])
    a, b = risk._polynomial(inputs["prior"])
    c, correction = inputs["u_plus_coef"], inputs["correction"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the certificate itself never warns
        raw = risk._certified_raw(us, u, w, a, b, c, correction)
    try:
        with np.errstate(over="raise", invalid="raise"):
            exact = sum(risk._side_terms(us, u, w, a, b, c))
    except (FloatingPointError, InvalidInputError):
        exact = math.nan
    if not math.isfinite(exact):
        assert raw is None  # non-finite or overflowing: the exact path runs
    elif on_kink and correction is not CorrectionKind.NONE:
        assert raw is None  # near the kink: the exact path runs
    elif raw is not None and correction is not CorrectionKind.NONE:
        assert exact != 0.0 and math.copysign(1.0, raw) == math.copysign(1.0, exact)


@pytest.mark.parametrize("correction", list(CorrectionKind))
@pytest.mark.parametrize("ulps", [0, 1, -1, 3, -3])
def test_a_batch_on_the_kink_takes_the_exact_path(correction, ulps):
    rng = np.random.default_rng(ulps + 7)
    prior = ClassPrior(0.4)
    slots, c = slot_weights(prior, "paper_case")
    us, u = rng.standard_normal(30), rng.standard_normal(10)
    w = _on_the_kink(us, u, np.resize(slots, 30), prior, c, ulps)
    inputs = dict(us_scores=us, u_scores=u, prior=prior, us_weights=w, u_plus_coef=c)
    assert abs(_exact_raw(inputs)) < 1e-12
    a, b = risk._polynomial(prior)
    raw = risk._certified_raw(us, u, w, a, b, c, correction)
    assert (raw is None) == (correction is not CorrectionKind.NONE)


def _spec(pi):
    return GaussianSourceSpec(2, np.array([1.0, 0.0]), np.array([-1.0, 0.0]), 1.0, ClassPrior(pi))


def _run(config, data):
    try:
        model, log = train(config, data)
    except TrainingDivergedError as exc:
        return str(exc)
    return model.theta.tobytes(), log


def _both_paths(monkeypatch, config, data):
    """The run as it is, the run with the certificate always declined, and
    how many batches the first certified."""
    certified, certify = [], risk._certified_raw

    def counting(*args):
        raw = certify(*args)
        certified.append(raw is not None)
        return raw

    monkeypatch.setattr(risk, "_certified_raw", counting)
    normal = _run(config, data)
    monkeypatch.setattr(risk, "_certified_raw", _declined)
    return normal, _run(config, data), certified


@pytest.mark.parametrize("pi", [0.49, 0.51])
@pytest.mark.parametrize("model_kind", ["linear", "mlp"])
@pytest.mark.parametrize("correction", list(CorrectionKind))
@pytest.mark.parametrize("sampler_kind", SAMPLERS)
def test_training_gives_the_exact_paths_bits(monkeypatch, sampler_kind, correction, model_kind, pi):
    data = make_weak_dataset(_spec(pi), 40, 90, sampler_kind, 3)
    config = TrainConfig(ClassPrior(pi), correction=correction, epochs=30, batch_size=50,
                         lr=0.01, model_kind=model_kind, hidden=8, seed=1)
    normal, exact, certified = _both_paths(monkeypatch, config, data)
    assert normal == exact
    assert len(normal[1]) == 30
    assert any(certified)


def test_a_diverging_run_gives_the_exact_paths_error(monkeypatch):
    data = make_weak_dataset(_spec(0.4), 60, 90, "paper_case", 0)
    config = TrainConfig(ClassPrior(0.4), epochs=50, batch_size=30, lr=1e9, seed=1)
    normal, exact, _ = _both_paths(monkeypatch, config, data)
    assert isinstance(normal, str) and normal.startswith("training diverged at epoch ")
    assert normal == exact
