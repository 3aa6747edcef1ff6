"""Unit tests for metrics and sweeps; the sweeps run at tiny desk scale
since their statistical behavior is covered by the acceptance checks."""
from dataclasses import replace

import numpy as np
import pytest

from trisim import evaluation
from trisim.core import ConfigurationError, InvalidInputError, LabeledPool
from trisim.evaluation import SWEEPS, accuracy, derive_seeds, sweep, weak_run
from trisim.model import LinearModel
from trisim.trainer import TrainConfig
from trisim.verify import default_gaussian_spec

from reference import supervised_accuracy

SPEC = default_gaussian_spec()
QUICK = TrainConfig(prior=SPEC.prior, epochs=3, batch_size=50)


class TestAccuracy:
    def test_hand_computed(self):
        model = LinearModel(weights=np.array([1.0]), bias=np.array([0.0]))
        test = LabeledPool(
            x=np.array([[2.0], [-2.0], [1.0]]), y=np.array([1, 1, -1])
        )
        assert accuracy(model, test) == pytest.approx(1 / 3)

    def test_sign_zero_counts_positive(self):
        model = LinearModel(weights=np.array([0.0]), bias=np.array([0.0]))
        test = LabeledPool(x=np.array([[1.0], [2.0]]), y=np.array([1, -1]))
        assert accuracy(model, test) == pytest.approx(0.5)

    def test_empty_test_set_raises(self):
        model = LinearModel(weights=np.array([1.0]), bias=np.array([0.0]))
        with pytest.raises(InvalidInputError):
            accuracy(model, LabeledPool(x=np.zeros((0, 1)), y=np.zeros(0, dtype=int)))


class TestSeeds:
    def test_derive_seeds_deterministic(self):
        assert derive_seeds(7, 4) == derive_seeds(7, 4)
        assert derive_seeds(7, 4) != derive_seeds(8, 4)
        assert len(set(derive_seeds(0, 10))) == 10


class TestRuns:
    def test_weak_run_deterministic(self):
        a = weak_run(SPEC, QUICK, 40, 60, seed=3, n_test=100, sampler_kind="paper_case")
        b = weak_run(SPEC, QUICK, 40, 60, seed=3, n_test=100, sampler_kind="paper_case")
        assert a == b
        assert 0.0 <= a <= 1.0

    def test_weak_run_clamps_batch(self):
        # nominal batch 50 exceeds the unlabeled pool; the run must clamp
        # rather than error
        acc = weak_run(SPEC, QUICK, 40, 20, seed=0, n_test=100, sampler_kind="paper_case")
        assert 0.0 <= acc <= 1.0

    def test_supervised_run_learns(self):
        # criterion 6's supervised counterpart of weak_run (tests/reference.py)
        cfg = replace(QUICK, epochs=40, batch_size=100)
        acc = supervised_accuracy(SPEC, cfg, 400, seed=0, n_test=500)
        assert acc > 0.9


class TestSweeps:
    def test_prior_sweep_rows_and_skip(self):
        result = sweep("prior", [0.4, 0.5], [0, 1], SPEC, QUICK, 40, 60, n_test=100)
        assert result.axis == "given_prior"
        by_setting = {r.setting: r for r in result.rows}
        assert by_setting["0.4"].n_seeds == 2
        assert len(by_setting["0.4"].per_seed) == 2
        skipped = by_setting["0.5"]
        assert skipped.mean is None
        assert "degenerate" in skipped.error

    def test_fraction_sweep_validates_range(self):
        with pytest.raises(ConfigurationError):
            sweep("fraction", [0.0], [0], SPEC, QUICK, 40, 60, n_test=100)
        with pytest.raises(ConfigurationError):
            sweep("fraction", [1.5], [0], SPEC, QUICK, 40, 60, n_test=100)

    def test_fraction_sweep_rows(self):
        result = sweep("fraction", [0.5, 1.0], [0], SPEC, QUICK, 40, 60, n_test=100)
        assert [r.setting for r in result.rows] == ["0.5", "1.0"]
        # one seed: no std
        assert result.rows[0].std is None

    def test_correction_sweep_same_data_per_seed(self):
        result = sweep("correction", ["none", "abs"], [0, 1], SPEC, QUICK, 40, 60, n_test=100)
        assert [r.setting for r in result.rows] == ["none", "abs"]
        assert all(r.n_seeds == 2 for r in result.rows)

    def test_unknown_kind_names_it(self):
        with pytest.raises(ConfigurationError, match="unknown sweep kind 'bogus'"):
            sweep("bogus", [0.5], [0], SPEC, QUICK, 40, 60)

    @pytest.mark.parametrize("kind", SWEEPS)
    def test_budget_below_one_raises_before_any_run(self, monkeypatch, kind):
        monkeypatch.setattr(evaluation, "weak_run", lambda *a, **k: pytest.fail("ran"))
        values = {"prior": [0.4], "fraction": [1.0], "correction": ["none"]}[kind]
        for n_us, n_u, name in ((0, 60, "n_us"), (40, -1, "n_u")):
            with pytest.raises(ConfigurationError, match=f"^{name} must be >= 1"):
                sweep(kind, values, [0], SPEC, QUICK, n_us, n_u)

    @pytest.mark.parametrize("kind", SWEEPS)
    def test_repeated_seed_raises_before_any_run(self, monkeypatch, kind):
        # a repeated seed once ran its cells again and wrote n_seeds=2, std=0.0
        calls = []
        monkeypatch.setattr(evaluation, "weak_run", lambda *a, **k: calls.append(a) or 0.9)
        values = {"prior": [0.4], "fraction": [1.0], "correction": ["none"]}[kind]
        with pytest.raises(ConfigurationError, match="^seed 0 is listed more than once$"):
            sweep(kind, values, [0, 1, 0], SPEC, QUICK, 40, 60)
        assert calls == []

    def test_correction_sweep_unknown_name(self):
        with pytest.raises(ConfigurationError):
            sweep("correction", ["bogus"], [0], SPEC, QUICK, 40, 60)

    def test_to_dict_shape(self):
        result = sweep("fraction", [1.0], [0], SPEC, QUICK, 40, 60, n_test=100)
        d = result.to_dict()
        assert d["axis"] == "fraction"
        assert isinstance(d["rows"][0]["per_seed"], list)


# to_dict() of each sweep as the three per-sweep loops gave it, before the
# sweeps shared one runner; per-seed accuracies must match exactly
PINNED = {
    "prior": {
        "axis": "given_prior",
        "rows": [
            {"setting": "0.35", "mean": 0.655, "std": 0.24748737341529162, "n_seeds": 2,
             "per_seed": [0.83, 0.48], "error": None},
            {"setting": "0.5", "mean": None, "std": None, "n_seeds": 0,
             "per_seed": [], "error": "degenerate prior 0.5 skipped"},
            {"setting": "0.45", "mean": 0.655, "std": 0.24748737341529162, "n_seeds": 2,
             "per_seed": [0.83, 0.48], "error": None},
        ],
        "config": {"true_prior": 0.4, "n_us": 40, "n_u": 60},
    },
    "fraction": {
        "axis": "fraction",
        "rows": [
            {"setting": "0.5", "mean": 0.655, "std": 0.24748737341529162, "n_seeds": 2,
             "per_seed": [0.83, 0.48], "error": None},
            {"setting": "1.0", "mean": 0.655, "std": 0.24748737341529162, "n_seeds": 2,
             "per_seed": [0.83, 0.48], "error": None},
        ],
        "config": {"n_us": 40, "n_u": 60},
    },
    "correction": {
        "axis": "correction",
        "rows": [
            {"setting": "none", "mean": 0.6599999999999999, "std": 0.2545584412271571,
             "n_seeds": 2, "per_seed": [0.84, 0.48], "error": None},
            {"setting": "abs", "mean": 0.655, "std": 0.24748737341529162, "n_seeds": 2,
             "per_seed": [0.83, 0.48], "error": None},
        ],
        "config": {"n_us": 40, "n_u": 60},
    },
}


@pytest.mark.parametrize(
    "kind,values",
    [
        ("prior", [0.35, 0.5, 0.45]),
        ("fraction", [0.5, 1.0]),
        ("correction", ["none", "abs"]),
    ],
    ids=["prior", "fraction", "correction"],
)
def test_sweep_matches_pinned_result(kind, values):
    got = sweep(kind, values, [0, 1], SPEC, QUICK, 40, 60, n_test=100).to_dict()
    want = PINNED[kind]
    for name in ("axis", "config"):
        assert got[name] == want[name]
    assert len(got["rows"]) == len(want["rows"])
    for row, ref in zip(got["rows"], want["rows"]):
        for key in ("setting", "n_seeds", "per_seed", "error"):
            assert row[key] == ref[key], key
        for key in ("mean", "std"):
            if ref[key] is None:
                assert row[key] is None
            else:
                assert row[key] == pytest.approx(ref[key], rel=1e-9, abs=0)
