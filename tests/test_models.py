import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import copulashift.autodiff as ad
from copulashift.errors import ContractViolation
from copulashift.models import (LayerSpec, ModelParams, cross_entropy_loss,
                                extract_features, forward, head_outputs, init_params,
                                load_params, mse_loss, predict_proba,
                                predict_regression, save_params)
from copulashift.training import Adam


def _perturb(flat, rng):
    """Trained-looking weights in place: entries at every scale, and signed zeros."""
    flat += rng.normal(size=flat.shape) * 10.0 ** rng.integers(-12, 2, size=flat.shape)
    flat[rng.random(flat.shape) < 0.1] = -0.0


def constant_regressor(value: float, input_dim: int = 2) -> ModelParams:
    """A regression net whose output is ``value`` for every input."""
    spec = LayerSpec(hidden=(2,), task="regression")
    extractor = [(np.zeros((input_dim, 2)), np.zeros((1, 2)))]
    head = (np.zeros((2, 1)), np.array([[value]]))
    return ModelParams(spec, input_dim, extractor, head)


class TestLayerSpec:
    def test_feature_and_output_dims(self):
        spec = LayerSpec(hidden=(8, 4), n_classes=3)
        assert spec.feature_dim == 4
        assert spec.output_dim == 3
        reg = LayerSpec(hidden=(8,), task="regression")
        assert reg.output_dim == 1
        assert reg.n_classes is None

    def test_rejects_empty_hidden(self):
        with pytest.raises(ContractViolation):
            LayerSpec(hidden=())

    def test_rejects_unknown_task(self):
        with pytest.raises(ContractViolation):
            LayerSpec(hidden=(4,), task="ranking")

    def test_rejects_single_class(self):
        with pytest.raises(ContractViolation):
            LayerSpec(hidden=(4,), n_classes=1)


class TestInitParams:
    def test_shapes_follow_spec(self):
        params = init_params(LayerSpec(hidden=(8, 4), n_classes=2), 3, seed=0)
        shapes = [(w.shape, b.shape) for w, b in params.extractor]
        assert shapes == [((3, 8), (1, 8)), ((8, 4), (1, 4))]
        assert params.head[0].shape == (4, 2)
        assert params.feature_dim == 4

    def test_deterministic_per_seed(self):
        a = init_params(LayerSpec(hidden=(8,)), 2, seed=5)
        b = init_params(LayerSpec(hidden=(8,)), 2, seed=5)
        c = init_params(LayerSpec(hidden=(8,)), 2, seed=6)
        np.testing.assert_array_equal(a.extractor[0][0], b.extractor[0][0])
        assert not np.array_equal(a.extractor[0][0], c.extractor[0][0])

    def test_glorot_limit_respected(self):
        params = init_params(LayerSpec(hidden=(64,)), 64, seed=1)
        w = params.extractor[0][0]
        limit = np.sqrt(6.0 / (64 + 64))
        assert np.max(np.abs(w)) <= limit

    def test_biases_start_at_zero(self):
        params = init_params(LayerSpec(hidden=(8,)), 2, seed=1)
        np.testing.assert_array_equal(params.extractor[0][1], 0.0)
        np.testing.assert_array_equal(params.head[1], 0.0)

    @pytest.mark.parametrize("input_dim", [2.7, True, "abc", None, 0])
    def test_malformed_input_dim_is_named(self, input_dim):
        # 2.7 used to become 2 and True 1; "abc" raised a bare ValueError
        with pytest.raises(ContractViolation, match="input_dim"):
            init_params(LayerSpec(hidden=(4,)), input_dim, seed=0)


class TestForward:
    def test_feature_shape(self):
        params = init_params(LayerSpec(hidden=(8, 4)), 2, seed=0)
        feats = extract_features(np.zeros((5, 2)), params)
        assert feats.shape == (5, 4)

    def test_relu_extractor_hand_value(self):
        # One hidden unit: relu(x * 2 + (-1)); head doubles it.
        spec = LayerSpec(hidden=(1,), task="regression")
        params = ModelParams(spec, 1, [(np.array([[2.0]]), np.array([[-1.0]]))],
                             (np.array([[2.0]]), np.array([[0.0]])))
        pred = predict_regression(np.array([[3.0], [0.0]]), params)
        np.testing.assert_allclose(pred, [10.0, 0.0])

    def test_probabilities_sum_to_one(self):
        params = init_params(LayerSpec(hidden=(8, 4), n_classes=3), 2, seed=2)
        probs = predict_proba(np.random.default_rng(0).normal(size=(7, 2)),
                              params)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs >= 0.0)

    def test_task_dispatch_guards(self):
        clf = init_params(LayerSpec(hidden=(4,)), 2, seed=0)
        with pytest.raises(ContractViolation):
            predict_regression(np.zeros((2, 2)), clf)
        reg = init_params(LayerSpec(hidden=(4,), task="regression"), 2, seed=0)
        with pytest.raises(ContractViolation):
            predict_proba(np.zeros((2, 2)), reg)

    def test_input_dim_checked(self):
        params = init_params(LayerSpec(hidden=(4,)), 3, seed=0)
        with pytest.raises(ContractViolation):
            extract_features(np.zeros((2, 2)), params)


class TestPlainForward:
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_has_the_bits_of_the_graph(self, task, activation):
        spec = LayerSpec(hidden=(6, 4, 3), task=task, n_classes=3, activation=activation)
        rng = np.random.default_rng(len(task) + len(activation))
        params = init_params(spec, 5, seed=3)
        _perturb(params.flat, rng)
        x = rng.normal(size=(40, 5)) * 10.0 ** rng.integers(-3, 3, size=(40, 1))
        feats = extract_features(x, params)
        assert forward(x, params).tobytes() == feats.value.tobytes()
        out = head_outputs(feats, params).value
        if task == "classification":
            assert predict_proba(x, params).tobytes() == ad.softmax(out).tobytes()
        else:
            assert predict_regression(x, params).tobytes() == out.ravel().tobytes()

    @pytest.mark.parametrize("x", [np.zeros((2, 3)), np.zeros(2), np.float64(1.0),
                                   np.array([[0.0, np.nan]])],
                             ids=["wide", "1-d", "scalar", "nan"])
    def test_rejects_bad_input(self, x):
        params = init_params(LayerSpec(hidden=(4,)), 2, seed=0)
        with pytest.raises(ContractViolation, match="forward"):
            forward(x, params)


class TestParamsBuffer:
    @staticmethod
    def _assert_views(params):
        flat = params.flat
        assert flat.ndim == 1 and flat.dtype == np.float64 and flat.flags.c_contiguous
        address = flat.__array_interface__["data"][0]
        for a in params.flat_arrays():
            assert a.base is flat and not a.flags.writeable
            assert a.__array_interface__["data"][0] == address
            address += a.nbytes
        assert address == flat.__array_interface__["data"][0] + flat.nbytes
        assert b"".join(a.tobytes() for a in params.flat_arrays()) == flat.tobytes()

    def test_every_array_is_a_read_only_view_of_the_buffer(self, tmp_path):
        rng = np.random.default_rng(4)
        params = init_params(LayerSpec(hidden=(5, 3), n_classes=3), 4, seed=2)
        self._assert_views(params)
        _perturb(params.flat, rng)
        save_params(params, tmp_path / "model.ckpt.json")
        back = load_params(tmp_path / "model.ckpt.json")
        self._assert_views(back)
        assert back.flat.tobytes() == params.flat.tobytes()
        clone = dataclasses.replace(back)
        self._assert_views(clone)
        optimizer = Adam(clone.flat, 0.01)
        for _ in range(50):
            optimizer.step(clone.flat, [rng.normal(size=a.shape) for a in clone.flat_arrays()])
        self._assert_views(clone)
        assert clone.flat.tobytes() != back.flat.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            clone.head[0][0, 0] = 1.0


class TestLosses:
    def test_cross_entropy_hand_value(self):
        # Identity-ish single layer pushing logits [1, -1] and [-1, 1]:
        # CE = -log(softmax correct) = log(1 + e^-2) for each row.
        spec = LayerSpec(hidden=(2,), n_classes=2)
        extractor = [(np.eye(2), np.zeros((1, 2)))]
        head = (np.eye(2), np.zeros((1, 2)))
        params = ModelParams(spec, 2, extractor, head)
        x = np.array([[1.0, -1.0], [-1.0, 1.0]])
        feats = extract_features(x, params)  # relu keeps the positive entry
        loss = cross_entropy_loss(feats, np.array([0, 1]), params)
        expected = np.log(1.0 + np.exp(-1.0))  # logits become [1, 0] after relu
        np.testing.assert_allclose(loss.item(), expected, rtol=1e-12)

    def test_cross_entropy_rejects_bad_labels(self):
        params = init_params(LayerSpec(hidden=(4,), n_classes=2), 2, seed=0)
        feats = extract_features(np.zeros((2, 2)), params)
        with pytest.raises(ContractViolation):
            cross_entropy_loss(feats, np.array([0.0, 1.0]), params)
        with pytest.raises(ContractViolation):
            cross_entropy_loss(feats, np.array([0, 2]), params)

    def test_mse_hand_value(self):
        params = constant_regressor(3.0)
        feats = extract_features(np.zeros((2, 2)), params)
        loss = mse_loss(feats, np.array([2.0, 4.0]), params)
        np.testing.assert_allclose(loss.item(), 1.0)  # mean of 1^2 and 1^2

    def test_losses_backpropagate(self):
        spec = LayerSpec(hidden=(3,), n_classes=2)
        params = init_params(spec, 2, seed=4)
        w = ad.leaf(params.extractor[0][0])
        view = ModelParams(spec, 2, [(w, ad.constant(params.extractor[0][1]))],
                           (ad.constant(params.head[0]),
                            ad.constant(params.head[1])))
        feats = extract_features(np.random.default_rng(1).normal(size=(6, 2)),
                                 view)
        loss = cross_entropy_loss(feats, np.array([0, 1, 0, 1, 0, 1]), view)
        ad.backward(loss)
        assert np.any(w.grad != 0.0)


class TestCheckpointRoundTrip:
    def test_save_load_exact(self, tmp_path):
        params = init_params(LayerSpec(hidden=(8, 4), n_classes=3), 5, seed=7)
        path = tmp_path / "model.ckpt.json"
        save_params(params, path, extra={"seed": 7})
        back = load_params(path)
        assert back.spec == params.spec
        assert back.input_dim == 5
        for (w0, b0), (w1, b1) in zip(params.extractor, back.extractor):
            np.testing.assert_array_equal(w0, w1)
            np.testing.assert_array_equal(b0, b1)
        np.testing.assert_array_equal(params.head[0], back.head[0])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_predictions_survive_bit_for_bit(self, tmp_path_factory, data):
        hidden = data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=3), label="hidden")
        spec = LayerSpec(hidden=hidden, n_classes=data.draw(st.integers(2, 9), label="classes"),
                         activation=data.draw(st.sampled_from(["relu", "tanh"]), label="act"))
        dim = data.draw(st.integers(1, 5), label="input dim")
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        params = init_params(spec, dim, seed)
        # trained weights: nonzero biases, entries at every scale, signed zeros
        _perturb(params.flat, rng)
        x = rng.normal(size=(data.draw(st.integers(1, 30), label="rows"), dim))
        path = tmp_path_factory.mktemp("ckpt") / "model.ckpt.json"
        save_params(params, path)
        back = load_params(path)
        for a, b in zip(params.flat_arrays(), back.flat_arrays()):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert predict_proba(x, back).tobytes() == predict_proba(x, params).tobytes()

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ContractViolation):
            load_params(path)

    @pytest.mark.parametrize("edit", [
        lambda r: [],
        lambda r: {"format": r["format"]},
        lambda r: {**r, "layers": [{**r["layers"][0], "w": [["x"] * 4] * 2}, *r["layers"][1:]]},
        lambda r: {**r, "layers": []},
        lambda r: {**r, "spec": [4]},
        lambda r: {**r, "input_dim": float("inf")},
    ], ids=["list", "format-only", "non-numeric-weight", "no-layers", "spec-not-object",
            "infinite-input-dim"])
    def test_malformed_checkpoint_named(self, tmp_path, edit):
        path = tmp_path / "model.ckpt.json"
        save_params(init_params(LayerSpec(hidden=(4,)), 2, seed=0), path)
        record = json.loads(path.read_text())
        path.write_text(json.dumps(edit(record)))
        with pytest.raises(ContractViolation, match=f"load_params: {path} is not a checkpoint"):
            load_params(path)

    def test_copy_is_deep(self):
        params = init_params(LayerSpec(hidden=(4, 3)), 2, seed=0)
        for clone in (dataclasses.replace(params), params.map(np.copy)):
            assert clone.flat.tobytes() == params.flat.tobytes()
            assert not np.shares_memory(clone.flat, params.flat)
            clone.flat += 1.0
            for a, b in zip(params.flat_arrays(), clone.flat_arrays(), strict=True):
                assert a.tobytes() != b.tobytes()

    def test_map_applies_fn_in_flat_order(self):
        params = init_params(LayerSpec(hidden=(4, 3, 2), n_classes=3), 5, seed=1)
        seen = []

        def fn(a):
            seen.append(a)
            return a * 2.0 + 1.0

        mapped = params.map(fn)
        assert [id(a) for a in seen] == [id(a) for a in params.flat_arrays()]
        assert mapped.spec == params.spec and mapped.input_dim == params.input_dim
        for got, a in zip(mapped.flat_arrays(), params.flat_arrays(), strict=True):
            assert got.tobytes() == (a * 2.0 + 1.0).tobytes()
