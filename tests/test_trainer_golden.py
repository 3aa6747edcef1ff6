"""Golden values for the trainer and the supervised oracle.

A tiny fixed configuration for each (sampler, model, correction) of the weak
trainer and each model of the supervised oracle (tests/reference.py), with
the final parameters and the last log row pinned. Any change to the RNG draw order, the batch
split or the update order moves these values far beyond rtol=1e-9; a change
in the last bits of the risk arithmetic does not.
"""
import numpy as np
import pytest

from reference import reference_supervised
from trisim.core import ClassPrior, CorrectionKind
from trisim.sampler import GaussianSourceSpec, make_weak_dataset, synth_gaussian_labeled
from trisim.trainer import TrainConfig, train

RTOL = 1e-9

SPEC = GaussianSourceSpec(
    dim=2,
    mu_plus=np.array([1.0, 0.5]),
    mu_minus=np.array([-1.0, -0.5]),
    sigma=1.0,
    prior=ClassPrior(0.4),
)

# final parameters, then (raw_risk, corrected_risk, us_term, u_term,
# test_accuracy) of the last epoch
WEAK = {
    ("rejection", "linear", "abs"): (
        {
            "weights": [-0.09492957874694141, -0.09685733976459597],
            "bias": [0.09273370080480811],
        },
        (1.159297239796428, 1.159297239796428, 1.9124227028875853, -0.7531254630911574, 0.15),
    ),
    ("rejection", "linear", "none"): (
        {
            "weights": [0.6012262820750895, 0.04525331977576181],
            "bias": [0.06216060855606065],
        },
        (-1.6808333816563734, -1.6808333816563734, -4.526376317221561, 2.8455429355651876, 0.925),
    ),
    ("rejection", "mlp", "abs"): (
        {
            "w1": [0.4062293877345793, 0.22539321435336085, 0.5595898484209678, -0.2032434377313478, 0.15261164128606347, 0.6725419919759391],
            "b1": [-0.4045914476641755, 0.06674825065707479, -0.27067284076968445],
            "w2": [-0.2277243969776422, 0.3498625349685538, 0.23667505612532505],
            "b2": [-0.04774108087366811],
        },
        (0.2909331396274413, 0.2909331396274413, -0.17297076882595652, 0.4639039084533978, 0.825),
    ),
    ("rejection", "mlp", "none"): (
        {
            "w1": [-0.28689040261666393, 0.9316649007051802, 0.4857239078379389, -0.6443576581280159, 0.1564326551304318, 0.20082849403784556],
            "b1": [0.3802568401435974, 0.5517927207973503, -0.37074120190866294],
            "w2": [-0.9580890279645224, 0.8004750006730877, -0.06896366487236053],
            "b2": [-0.16706889170168365],
        },
        (-5.783443999274675, -5.783443999274675, -5.24183344649601, -0.5416105527786649, 0.5),
    ),
    ("paper_case", "linear", "abs"): (
        {
            "weights": [-0.026264418909074886, -0.21770898000439057],
            "bias": [-0.09209436957540211],
        },
        (-0.33743751696245095, 0.33743751696245095, -0.8329607229560698, 0.4955232059936189, 0.25),
    ),
    ("paper_case", "linear", "none"): (
        {
            "weights": [-0.08326864225162212, -0.16344411186566815],
            "bias": [-0.2035578566829111],
        },
        (-0.1642131672896623, -0.1642131672896623, -1.9629716269811892, 1.798758459691527, 0.225),
    ),
    ("paper_case", "mlp", "abs"): (
        {
            "w1": [0.12099878214541993, 0.4178190124203294, 0.1265613679480623, -0.5346462877070705, 0.019293039389084193, 0.6414420057529051],
            "b1": [-0.1184043724521427, -0.40538141206053246, -0.08827451204791298],
            "w2": [-0.38801681600590426, 0.19474298827550646, 0.26509462168753445],
            "b2": [-0.20015948782270784],
        },
        (0.6336661620617883, 0.6336661620617883, -2.0511448044210785, 2.6848109664828668, 0.575),
    ),
    ("paper_case", "mlp", "none"): (
        {
            "w1": [0.6964770540501407, 1.2607838882108022, 0.13588593947031857, -1.048141165665424, -0.3426027168859719, 0.012987298302179179],
            "b1": [0.5155328526477709, 0.09428443854369255, -0.3760711582706141],
            "w2": [-1.2833192047595756, 0.6651389477601799, -0.2434466829910077],
            "b2": [-0.22077619160015885],
        },
        (-10.611388037160278, -10.611388037160278, -13.592961909975187, 2.9815738728149084, 0.25),
    ),
}

SUPERVISED = {
    "linear": (
        {
            "weights": [0.4487608780278061, 0.12162650143945557],
            "bias": [-0.31103194886827645],
        },
        (0.42545389548098805, 0.42545389548098805, 0.42545389548098805, 0.0, 0.875),
    ),
    "mlp": (
        {
            "w1": [-0.352530510744236, 0.09111723741601564, 0.9126492053928331, 0.12642108970338198, 0.2691570944410405, 0.9928737962854574],
            "b1": [-0.14849273507889404, 0.0309495862072533, -0.1587873558819828],
            "w2": [-0.18900705846232854, 0.5397816960666221, 0.37553071763186485],
            "b2": [-0.48384418042755406],
        },
        (0.4402829969025322, 0.4402829969025322, 0.4402829969025322, 0.0, 0.875),
    ),
}


def _config(model_kind, correction="abs"):
    return TrainConfig(
        prior=ClassPrior(0.4),
        correction=CorrectionKind(correction),
        epochs=4,
        batch_size=20,
        lr=0.05,
        model_kind=model_kind,
        hidden=3,
        seed=7,
    )


def _check(model, last, expected):
    """last is the last log row: (epoch, raw_risk, corrected_risk, us_term,
    u_term, test_accuracy)."""
    params, row = expected
    got = model.params()
    assert sorted(got) == sorted(params)
    for name, values in params.items():
        np.testing.assert_allclose(got[name].ravel(), values, rtol=RTOL, atol=0)
    assert last[0] == 4
    np.testing.assert_allclose(last[1:], row, rtol=RTOL, atol=0)


@pytest.mark.parametrize("sampler,model_kind,correction", sorted(WEAK))
def test_weak_train_golden(sampler, model_kind, correction):
    data = make_weak_dataset(SPEC, 20, 30, sampler, 3)
    test = synth_gaussian_labeled(SPEC, 40, seed=5)
    model, log = train(_config(model_kind, correction), data, test)
    last = log.records[-1]
    row = (last.epoch, last.raw_risk, last.corrected_risk, last.us_term, last.u_term,
           last.test_accuracy)
    _check(model, row, WEAK[sampler, model_kind, correction])


@pytest.mark.parametrize("model_kind", sorted(SUPERVISED))
def test_supervised_oracle_golden(model_kind):
    pool = synth_gaussian_labeled(SPEC, 50, seed=4)
    test = synth_gaussian_labeled(SPEC, 40, seed=5)
    model, rows = reference_supervised(_config(model_kind), pool, test)
    _check(model, rows[-1], SUPERVISED[model_kind])
