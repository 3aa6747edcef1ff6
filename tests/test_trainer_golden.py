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
            "weights": [-0.0833647387090299, -0.16665248534130137],
            "bias": [-0.11284533096945315],
        },
        (0.12168555841491935, 0.12168555841491935, -0.7444494215066669, 0.8661349799215863, 0.15),
    ),
    ("rejection", "linear", "none"): (
        {
            "weights": [0.2627085568755206, -0.14273196936617466],
            "bias": [0.033260841601096734],
        },
        (-0.5929512144129124, -0.5929512144129124, -1.1779374407263938, 0.5849862263134814, 0.825),
    ),
    ("rejection", "mlp", "abs"): (
        {
            "w1": [-0.024753324467043595, 0.5839031925372044, 0.08554389127759215, -0.04814853376754182, -0.2805897901959574, 0.22780029206253646],
            "b1": [-0.17050457556933069, -0.19784614889749, -0.08419185868960614],
            "w2": [-0.46833344799286103, -0.06554430907393272, 0.13643110792097843],
            "b2": [0.010132407467463453],
        },
        (0.6147530754189336, 0.6147530754189336, -0.34285043784588626, 0.9576035132648199, 0.275),
    ),
    ("rejection", "mlp", "none"): (
        {
            "w1": [-0.2067345273946834, 1.1044910578547475, 0.2825726119815046, -0.7187257154529065, 0.20304895172591347, 0.1622183449562137],
            "b1": [0.421174417054727, -0.23922401203782648, -0.34894241034320106],
            "w2": [-1.0971391763796683, 0.549786982559997, -0.0685449834045942],
            "b2": [-0.07090106090618443],
        },
        (-5.1613320425076115, -5.1613320425076115, -8.699136605864654, 3.5378045633570423, 0.45),
    ),
    ("paper_case", "linear", "abs"): (
        {
            "weights": [-0.2123059807619377, -0.16295513671315154],
            "bias": [-0.10079678643220465],
        },
        (-0.29578210389207993, 0.29578210389207993, -0.7720004700655332, 0.47621836617345326, 0.075),
    ),
    ("paper_case", "linear", "none"): (
        {
            "weights": [-0.11074014033325158, -0.19658803711397],
            "bias": [-0.22190249358719355],
        },
        (-0.4017407085116007, -0.4017407085116007, -2.1124729494740406, 1.71073224096244, 0.2),
    ),
    ("paper_case", "mlp", "abs"): (
        {
            "w1": [-0.24358175024583256, 0.5204119593497383, 0.374832824489685, -0.05079537647691446, -0.21144225007251727, 0.30114383392203026],
            "b1": [-0.09611017148036766, -0.2681820003162254, 0.13524956266643048],
            "w2": [-0.3902992473710478, 0.08243171702838274, 0.0918761430270933],
            "b2": [-0.06931394479714399],
        },
        (0.6661286117072638, 0.6661286117072638, -1.1220651174911533, 1.7881937291984171, 0.6),
    ),
    ("paper_case", "mlp", "none"): (
        {
            "w1": [0.6730745568993329, 1.262164979555935, 0.08578283020669075, -1.0231379062294248, -0.09375038649358451, 0.4196532891120568],
            "b1": [0.5308670457001163, 0.1491347077188175, -0.28198825761746615],
            "w2": [-1.3152154087872185, 0.696497795696095, -0.3447161600962429],
            "b2": [-0.2736173527709509],
        },
        (-10.876074620679338, -10.876074620679338, -14.058946476003957, 3.1828718553246187, 0.225),
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
    last = log[-1]
    row = (last.epoch, last.raw_risk, last.corrected_risk, last.us_term, last.u_term,
           last.test_accuracy)
    _check(model, row, WEAK[sampler, model_kind, correction])


@pytest.mark.parametrize("model_kind", sorted(SUPERVISED))
def test_supervised_oracle_golden(model_kind):
    pool = synth_gaussian_labeled(SPEC, 50, seed=4)
    test = synth_gaussian_labeled(SPEC, 40, seed=5)
    model, rows = reference_supervised(_config(model_kind), pool, test)
    _check(model, rows[-1], SUPERVISED[model_kind])
