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
    serialize_model,
)


def _key_slices(model):
    """Each params() key's slice of theta, by params() sizes."""
    slices, offset = {}, 0
    for key, p in model.params().items():
        slices[key] = slice(offset, offset + p.size)
        offset += p.size
    return slices


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
        grad = backward(m, x, up)
        assert grad.shape == m.theta.shape
        grads = {key: grad[sl] for key, sl in _key_slices(m).items()}
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
        theta = np.array([1.0, -1.0])
        state = AdamState.for_theta(theta, lr=0.1)
        adam_step(theta, np.array([0.5, -0.5]), state)
        # first step moves each coordinate by about lr against the gradient
        np.testing.assert_allclose(theta, [0.9, -0.9], atol=1e-6)

    def test_decoupled_weight_decay_shrinks(self):
        theta = np.array([1.0])
        state = AdamState.for_theta(theta, lr=0.1, weight_decay=0.5)
        adam_step(theta, np.array([0.0]), state)
        assert theta[0] == pytest.approx(0.95)

    def test_converges_on_quadratic(self):
        theta = np.array([5.0])
        state = AdamState.for_theta(theta, lr=0.1)
        for _ in range(500):
            adam_step(theta, 2.0 * theta, state)
        assert abs(theta[0]) < 1e-3

    def test_shape_mismatch(self):
        theta = np.zeros(2)
        state = AdamState.for_theta(theta)
        with pytest.raises(ShapeError):
            adam_step(theta, np.zeros(3), state)

    def test_flat_vector_matches_per_key_dict_bitwise(self):
        # adam_step on theta against an independent per-key loop: Adam is
        # elementwise, so the flat vector must give the per-key bits
        rng = np.random.default_rng(3)
        m = init_model("mlp", 3, hidden=4, seed=1)
        params = {k: p.copy() for k, p in m.params().items()}
        mom = {k: np.zeros_like(p) for k, p in params.items()}
        vel = {k: np.zeros_like(p) for k, p in params.items()}
        lr, wd, beta1, beta2, eps = 0.05, 0.01, 0.9, 0.999, 1e-8
        state = AdamState.for_theta(m.theta, lr=lr, weight_decay=wd)
        slices = _key_slices(m)

        def flatten(arrays):
            return np.concatenate(tuple(arrays.values()), axis=None)

        for t in range(1, 51):
            grad = rng.normal(size=m.theta.shape)
            adam_step(m.theta, grad, state)
            for key, p in params.items():
                g = grad[slices[key]].reshape(p.shape)
                p *= 1.0 - lr * wd
                mom[key] *= beta1
                mom[key] += (1.0 - beta1) * g
                vel[key] *= beta2
                vel[key] += (1.0 - beta2) * g * g
                m_hat = mom[key] / (1.0 - beta1**t)
                v_hat = vel[key] / (1.0 - beta2**t)
                p -= lr * m_hat / (np.sqrt(v_hat) + eps)
        assert np.array_equal(m.theta, flatten(params))
        assert np.array_equal(state.m, flatten(mom))
        assert np.array_equal(state.v, flatten(vel))


def _built(how, kind):
    """A model of the given kind, built by init_model, by
    deserialize_model, or by direct construction."""
    m = init_model(kind, 3, hidden=4, seed=2)
    if how == "deserialize":
        return deserialize_model(serialize_model(m))
    if how == "direct":
        return type(m)(**{k: p.copy() for k, p in m.params().items()})
    return m


class TestLayout:
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    @pytest.mark.parametrize("how", ["init", "deserialize", "direct"])
    def test_parameters_are_views_of_theta(self, how, kind):
        m, ref = _built(how, kind), init_model(kind, 3, hidden=4, seed=2)
        params = m.params()
        assert m.theta.dtype == float and m.theta.shape == (sum(p.size for p in params.values()),)
        for key, sl in _key_slices(m).items():
            assert np.array_equal(params[key], ref.params()[key])
            assert np.shares_memory(params[key], m.theta)
            assert np.array_equal(params[key].ravel(), m.theta[sl])
        x = np.random.default_rng(0).normal(size=(5, 3))
        scores = forward(m, x)
        assert np.array_equal(scores, forward(ref, x))
        m.theta[-1] += 1.0  # the last entry is the output bias
        np.testing.assert_allclose(forward(m, x), scores + 1.0)
        m.theta[...] = 0.0
        assert all(not p.any() for p in m.params().values())
        assert not forward(m, x).any()
        grad = backward(m, x, np.ones(5))
        assert grad.shape == m.theta.shape

    def test_rebinding_a_parameter_is_refused(self):
        m = init_model("linear", 2)
        with pytest.raises(AttributeError):
            m.weights = np.zeros(2)


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
