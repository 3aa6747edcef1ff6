"""Unit tests for the hypothesis classes, backprop, Adam, and model
serialization."""
import numpy as np
import pytest

from trisim.core import InvalidInputError, ShapeError
from trisim.model import (
    AdamState,
    LinearModel,
    MlpModel,
    adam_step,
    backward,
    deserialize_model,
    forward,
    init_model,
    pack_params,
    serialize_model,
)


class TestInit:
    def test_linear_shapes(self):
        m = init_model("linear", 3)
        assert isinstance(m, LinearModel)
        assert m.weights.shape == (3,)
        np.testing.assert_array_equal(m.bias, [0.0])

    def test_mlp_shapes(self):
        m = init_model("mlp", 3, hidden=5)
        assert isinstance(m, MlpModel)
        assert m.w1.shape == (5, 3)
        assert m.b1.shape == (5,)
        assert m.w2.shape == (5,)
        np.testing.assert_array_equal(m.b2, [0.0])

    def test_deterministic_under_seed(self):
        a = init_model("mlp", 4, hidden=6, seed=11)
        b = init_model("mlp", 4, hidden=6, seed=11)
        for k in a.params():
            np.testing.assert_array_equal(a.params()[k], b.params()[k])

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            init_model("tree", 2)

    def test_bad_dimensions(self):
        with pytest.raises(InvalidInputError):
            init_model("linear", 0)
        with pytest.raises(InvalidInputError):
            init_model("mlp", 2, hidden=0)


class TestForward:
    def test_linear_hand_computed(self):
        m = LinearModel(weights=np.array([1.0, -2.0]), bias=np.array([0.5]))
        np.testing.assert_allclose(forward(m, np.array([[3.0, 1.0]])), [1.5])

    def test_mlp_hand_computed(self):
        m = MlpModel(
            w1=np.array([[1.0, 0.0], [0.0, -1.0]]),
            b1=np.array([0.0, 0.0]),
            w2=np.array([1.0, 1.0]),
            b2=np.array([0.25]),
        )
        # relu kills the second unit for positive second input
        np.testing.assert_allclose(
            forward(m, np.array([[2.0, 3.0], [2.0, -3.0]])), [2.25, 5.25]
        )

    def test_batch_matches_single(self):
        m = init_model("mlp", 3, hidden=4, seed=0)
        x = np.random.default_rng(0).normal(size=(6, 3))
        batch = forward(m, x)
        assert batch.shape == (6,)
        for i in range(6):
            assert batch[i] == pytest.approx(forward(m, x[i : i + 1])[0])

    def test_dimension_mismatch(self):
        m = init_model("linear", 3)
        with pytest.raises(ShapeError):
            forward(m, np.zeros((2, 4)))

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_single_vector_rejected(self, kind):
        m = init_model(kind, 3, hidden=4)
        with pytest.raises(ShapeError):
            forward(m, np.zeros(3))
        with pytest.raises(ShapeError):
            backward(m, np.zeros(3), 1.0)


class TestBackward:
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(5)
        m = init_model(kind, 3, hidden=4, seed=1)
        for p in m.params().values():
            p += 0.2 * rng.standard_normal(p.shape)
        x = rng.uniform(-1, 1, size=(5, 3))
        up = rng.normal(size=5)
        grads = backward(m, x, up)
        eps = 1e-6
        for key, p in m.params().items():
            flat = p.ravel()
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + eps
                hi = float(np.sum(up * forward(m, x)))
                flat[j] = orig - eps
                lo = float(np.sum(up * forward(m, x)))
                flat[j] = orig
                assert grads[key].ravel()[j] == pytest.approx(
                    (hi - lo) / (2 * eps), abs=1e-5
                )

    def test_upstream_shape_mismatch(self):
        m = init_model("linear", 2)
        with pytest.raises(ShapeError):
            backward(m, np.zeros((3, 2)), np.zeros(2))


class TestAdam:
    def test_single_step_direction(self):
        params = {"w": np.array([1.0, -1.0])}
        grads = {"w": np.array([0.5, -0.5])}
        state = AdamState.for_params(params, lr=0.1)
        adam_step(params, grads, state)
        # first step moves each coordinate by about lr against the gradient
        np.testing.assert_allclose(params["w"], [0.9, -0.9], atol=1e-6)

    def test_decoupled_weight_decay_shrinks(self):
        params = {"w": np.array([1.0])}
        state = AdamState.for_params(params, lr=0.1, weight_decay=0.5)
        adam_step(params, {"w": np.array([0.0])}, state)
        assert params["w"][0] == pytest.approx(0.95)

    def test_converges_on_quadratic(self):
        params = {"w": np.array([5.0])}
        state = AdamState.for_params(params, lr=0.1)
        for _ in range(500):
            adam_step(params, {"w": 2.0 * params["w"]}, state)
        assert abs(params["w"][0]) < 1e-3

    def test_shape_mismatch(self):
        params = {"w": np.zeros(2)}
        state = AdamState.for_params(params)
        with pytest.raises(ShapeError):
            adam_step(params, {"w": np.zeros(3)}, state)

    def test_flat_vector_matches_per_key_dict_bitwise(self):
        # Adam is elementwise, so one flat array gives the per-key bits
        rng = np.random.default_rng(3)
        shapes = {"w1": (4, 3), "b1": (4,), "w2": (4,), "b2": (1,)}
        params = {k: rng.normal(size=s) for k, s in shapes.items()}
        flat = {"theta": np.concatenate(tuple(params.values()), axis=None)}
        hyper = dict(lr=0.05, weight_decay=0.01)
        state = AdamState.for_params(params, **hyper)
        flat_state = AdamState.for_params(flat, **hyper)
        def flatten(arrays):
            return np.concatenate(tuple(arrays.values()), axis=None)

        for _ in range(50):
            grads = {k: rng.normal(size=s) for k, s in shapes.items()}
            adam_step(params, grads, state)
            adam_step(flat, {"theta": flatten(grads)}, flat_state)
        assert np.array_equal(flat["theta"], flatten(params))
        assert np.array_equal(flat_state.m["theta"], flatten(state.m))
        assert np.array_equal(flat_state.v["theta"], flatten(state.v))


class TestPackParams:
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_parameters_become_views_of_one_vector(self, kind):
        m = init_model(kind, 3, hidden=4, seed=2)
        before = {k: p.copy() for k, p in m.params().items()}
        x = np.random.default_rng(0).normal(size=(5, 3))
        scores = forward(m, x)
        flat = pack_params(m)
        assert flat.size == sum(p.size for p in before.values())
        for key, p in m.params().items():
            assert np.array_equal(p, before[key]) and np.shares_memory(p, flat)
        assert np.array_equal(forward(m, x), scores)
        flat *= 0.0
        assert all(not p.any() for p in m.params().values())


class TestSerialization:
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_round_trip(self, kind):
        m = init_model(kind, 3, hidden=4, seed=2)
        doc = serialize_model(m, config_echo={"seed": 2})
        m2 = deserialize_model(doc)
        assert m2.kind == kind
        for k in m.params():
            np.testing.assert_array_equal(m.params()[k], m2.params()[k])
        x = np.random.default_rng(0).normal(size=(4, 3))
        np.testing.assert_allclose(forward(m, x), forward(m2, x))

    def test_doc_is_json_friendly(self):
        import json

        doc = serialize_model(init_model("mlp", 2, hidden=3, seed=0))
        reparsed = json.loads(json.dumps(doc))
        m = deserialize_model(reparsed)
        assert m.hidden == 3

    def test_mlp_doc_names_relu(self):
        doc = serialize_model(init_model("mlp", 2, hidden=3, seed=0))
        assert doc["activation"] == "relu"
        del doc["activation"]  # files without the key load as relu
        assert deserialize_model(doc).hidden == 3

    def test_rejects_other_activation(self):
        doc = serialize_model(init_model("mlp", 2, hidden=3, seed=0))
        doc["activation"] = "tanh"
        with pytest.raises(InvalidInputError, match="tanh"):
            deserialize_model(doc)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            deserialize_model({"kind": "tree", "dim": 2, "params": {}})
