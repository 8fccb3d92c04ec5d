"""The fused training nodes against the graph composites they replaced.

``autodiff.dense``, ``models._softmax_cross_entropy``, ``coral_penalty_graph``
and the flat ``training.Adam`` must give the same bits as their composites
in ``oracles`` (value and every parent's gradient), pass the
finite-difference check, and leave whole training runs bit-identical.
"""

import numpy as np
import pytest

import copulashift.autodiff as ad
import copulashift.divergences as dv
import copulashift.models as models
import copulashift.training as training
from copulashift.datasets import Dataset
from copulashift.errors import ContractViolation, ShapeError
from copulashift.experiments import moons_config, moons_pair
from oracles import (AdamPerArray, coral_penalty_composite, cross_entropy_composite,
                     dense_composite, finite_difference_check)


def _same_bits(a, b):
    # stricter than array_equal: the sign of a zero counts too
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def _value_and_grads(op, inputs, *args):
    """``op``'s value and the gradients of its leaf inputs under fixed upstream weights."""
    leaves = [ad.leaf(v) for v in inputs]
    out = op(*leaves, *args)
    upstream = np.linspace(-1.5, 2.0, out.value.size).reshape(out.shape)
    ad.backward(ad.total(out * ad.constant(upstream)))
    return [out.value] + [leaf.grad for leaf in leaves]


def _assert_matches(op, oracle, inputs, *args):
    for mine, theirs in zip(_value_and_grads(op, inputs, *args),
                            _value_and_grads(oracle, inputs, *args), strict=True):
        _same_bits(mine, theirs)


def _onehot(labels, n_classes):
    out = np.zeros((labels.size, n_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


class TestDense:
    @pytest.mark.parametrize("activation", [None, "relu", "tanh"])
    @pytest.mark.parametrize("shape", [(922, 2, 8), (922, 8, 4), (256, 4, 2), (1, 1, 1),
                                       (5, 3, 1), (7, 1, 6)])
    def test_matches_composite(self, shape, activation):
        n, d, k = shape
        rng = np.random.default_rng(n * 100 + d * 10 + k)
        inputs = [rng.normal(size=(n, d)), rng.normal(size=(d, k)), rng.normal(size=(1, k))]
        _assert_matches(ad.dense, dense_composite, inputs, activation)

    def test_relu_at_exact_zero_pre_activations(self):
        # a zero input row and a zero bias give pre-activations of exactly 0
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 3))
        x[2] = 0.0
        w = rng.normal(size=(3, 4))
        b = np.array([[0.0, 0.5, 0.0, -0.5]])
        _assert_matches(ad.dense, dense_composite, [x, w, b], "relu")
        xl, wl, bl = ad.leaf(x), ad.leaf(w), ad.leaf(b)
        ad.backward(ad.total(ad.dense(xl, wl, bl, "relu")))
        assert np.all(xl.grad[2] == np.where(b[0] > 0.0, w, 0.0).sum(axis=1))

    @pytest.mark.parametrize("activation", [None, "relu", "tanh"])
    def test_finite_differences(self, activation):
        rng = np.random.default_rng(17)
        weights = rng.normal(size=(5, 3))

        def loss(x, w, b):
            return ad.total(ad.dense(x, w, b, activation) * ad.constant(weights))

        for _ in range(5):
            x, w, b = rng.normal(size=(5, 2)), rng.normal(size=(2, 3)), rng.normal(size=(1, 3))
            if activation == "relu":  # keep the pre-activations off the kink
                z = x @ w + b
                b = b + np.where(np.abs(z).min(axis=0) < 0.05, 0.1, 0.0)
            assert finite_difference_check(loss, [x, w, b]) < 1e-5

    def test_rejects_bad_shapes_and_activation(self):
        x, w, b = np.ones((4, 3)), np.ones((3, 2)), np.ones((1, 2))
        with pytest.raises(ShapeError):
            ad.dense(x, np.ones((2, 2)), b)
        with pytest.raises(ShapeError):
            ad.dense(x, w, np.ones((1, 3)))
        with pytest.raises(ContractViolation, match="activation"):
            ad.dense(x, w, b, "sigmoid")


class TestSoftmaxCrossEntropy:
    @pytest.mark.parametrize("shape", [(922, 2), (256, 3), (7, 5), (1, 2), (1, 4), (40, 9)])
    def test_matches_composite(self, shape):
        n, c = shape
        rng = np.random.default_rng(n * 10 + c)
        onehot = _onehot(rng.integers(0, c, size=n), c)
        _assert_matches(models._softmax_cross_entropy, cross_entropy_composite,
                        [rng.normal(size=shape) * 3.0], onehot)

    def test_clamped_true_class_gives_a_zero_row(self):
        # row 1's true class has probability e^-60, far below the 1e-12 floor
        logits = np.array([[0.3, -0.2], [30.0, -30.0], [1.0, 2.0]])
        onehot = _onehot(np.array([0, 1, 1]), 2)
        _assert_matches(models._softmax_cross_entropy, cross_entropy_composite,
                        [logits], onehot)
        leaf = ad.leaf(logits)
        loss = models._softmax_cross_entropy(leaf, onehot)
        ad.backward(loss)
        assert np.all(leaf.grad[1] == 0.0) and np.all(leaf.grad[[0, 2]] != 0.0)
        assert loss.item() == pytest.approx(-(np.log(1e-12) + np.log(
            ad.softmax(logits)[[0, 2], [0, 1]]).sum()) / 3)

    @pytest.mark.parametrize("shape", [(6, 2), (1, 3), (4, 5)])
    def test_finite_differences(self, shape):
        rng = np.random.default_rng(shape[0] + shape[1])
        onehot = _onehot(rng.integers(0, shape[1], size=shape[0]), shape[1])
        for _ in range(5):
            err = finite_difference_check(
                lambda z: models._softmax_cross_entropy(z, onehot), [rng.normal(size=shape)])
            assert err < 1e-5


class TestCoral:
    @pytest.mark.parametrize("shapes", [((922, 4), (922, 4)), ((922, 8), (925, 8)),
                                        ((256, 64), (200, 64)), ((2, 3), (2, 3)),
                                        ((2, 2), (5, 2)), ((7, 1), (3, 1))])
    def test_matches_composite(self, shapes):
        (ns, m), (nt, _) = shapes
        rng = np.random.default_rng(ns * 1000 + nt + m)
        inputs = [rng.normal(size=(ns, m)) * 3.0, rng.normal(0.5, 2.0, size=(nt, m))]
        _assert_matches(dv.coral_penalty_graph, coral_penalty_composite, inputs)

    def test_one_node_with_both_domains_as_parents(self):
        fs, ft = ad.leaf(np.eye(3)), ad.leaf(np.ones((4, 3)))
        node = dv.coral_penalty_graph(fs, ft)
        assert node.parents == (fs, ft)

    @pytest.mark.parametrize("sizes", [(2, 2), (6, 4), (3, 7)])
    def test_finite_differences(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        for _ in range(5):
            xs, xt = rng.normal(size=(sizes[0], 3)), rng.normal(size=(sizes[1], 3))
            assert finite_difference_check(dv.coral_penalty_graph, [xs, xt]) < 1e-5


class TestFlatAdam:
    def test_matches_per_array_steps_in_any_layout(self):
        rng = np.random.default_rng(8)
        c_order, f_order, base = (rng.normal(size=s) for s in [(3, 4), (4, 5), (4, 10)])

        def params():
            # C order, Fortran order, a strided view of a larger array, a bias row
            big = base.copy()
            return [c_order.copy(), np.asfortranarray(f_order), big[:, ::3],
                    np.zeros((1, 5))], big

        mine, mine_base = params()
        theirs, theirs_base = params()
        assert not mine[2].flags.c_contiguous and mine[1].flags.f_contiguous
        flat, per_array = training.Adam(mine, 0.01), AdamPerArray(theirs, 0.01)
        for _ in range(50):
            grads = [rng.normal(size=a.shape) for a in mine]
            flat.step(mine, grads)
            per_array.step(theirs, grads)
            for a, b in zip(mine, theirs, strict=True):
                _same_bits(np.ascontiguousarray(a), np.ascontiguousarray(b))
        _same_bits(mine_base, theirs_base)  # the strided view wrote through to its base
        assert not np.array_equal(mine_base, base)


def _patched(monkeypatch):
    monkeypatch.setattr(ad, "dense", dense_composite)
    monkeypatch.setattr(models, "_softmax_cross_entropy", cross_entropy_composite)
    monkeypatch.setattr(dv, "coral_penalty_graph", coral_penalty_composite)
    monkeypatch.setattr(training, "Adam", AdamPerArray)


def _moons_run(method, seed, **overrides):
    src, tgt = moons_pair(3.0, seed, n_per_class=120)
    cfg = training.TrainConfig.from_dict({"seed": seed, **overrides}, base=moons_config(method))
    return training.train(src, tgt.unlabeled(), cfg)


def _regression_run(method, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(90, 3))
    src = Dataset(x, np.tanh(x[:, 0]) + 0.1 * x[:, 1])
    tgt = Dataset(rng.normal(0.4, 1.2, size=(70, 3)), None, domain="target")
    cfg = training.TrainConfig.from_dict({
        "seed": seed, "method": method, "max_epochs": 12, "batch_size": 32,
        "model": {"hidden": [5, 3], "task": "regression", "activation": "tanh"}})
    return training.train(src, tgt, cfg)


RUNS = {
    "mlp": lambda seed: _moons_run("mlp", seed, max_epochs=25),
    "coral": lambda seed: _moons_run("coral", seed, max_epochs=25),
    "cdan": lambda seed: _moons_run("cdan", seed, max_epochs=25),
    "dan": lambda seed: _moons_run("dan", seed, max_epochs=3),
    "regression-coral": lambda seed: _regression_run("coral", seed),
}


@pytest.mark.parametrize("seed", [0, 4])
@pytest.mark.parametrize("run", sorted(RUNS))
def test_training_is_bit_identical_to_the_composites(run, seed, monkeypatch):
    params, trace = RUNS[run](seed)
    with monkeypatch.context() as patch:
        _patched(patch)
        oracle_params, oracle_trace = RUNS[run](seed)
    for mine, theirs in zip(params.flat_arrays(), oracle_params.flat_arrays(), strict=True):
        _same_bits(mine, theirs)
    assert [t.to_dict() for t in trace] == [t.to_dict() for t in oracle_trace]
