"""The fused training nodes against the graph composites they replaced.

``autodiff.dense``, ``models._softmax_cross_entropy``, ``coral_penalty_graph``,
``copula_distance_graph``, ``w1_columns_graph`` and the flat ``training.Adam``
must give the same bits as their composites in ``oracles`` (value and every
parent's gradient), pass the finite-difference check, and leave whole
training runs bit-identical.
"""

import numpy as np
import pytest

import copulashift.autodiff as ad
import copulashift.copula as cop
import copulashift.divergences as dv
import copulashift.models as models
import copulashift.training as training
from copulashift.datasets import Dataset
from copulashift.errors import ContractViolation, ShapeError
from copulashift.experiments import moons_config, moons_pair
from oracles import (AdamPerArray, copula_distance_composite, coral_penalty_composite,
                     cross_entropy_composite, dense_composite, finite_difference_check,
                     w1_columns_composite)


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


def _relu_like(rng, n, m, dead=(), constant=()):
    """ReLU-style features: about half the entries 0, the ``dead`` columns all 0."""
    x = np.maximum(rng.normal(size=(n, m)) + rng.normal(size=m), 0.0)
    x[:, list(dead)] = 0.0
    x[:, list(constant)] = 1.25
    return x


def _signed_zeros(rng, n, m, live):
    """Dead columns of mixed -0.0 and +0.0 entries, but for column ``live``."""
    x = np.where(rng.random((n, m)) < 0.5, -0.0, 0.0)
    x[:, live] = rng.normal(size=n)
    return x


# (source, target) inputs by name: which columns are dead (all row pairs
# equal) in which domain, and the odd shapes
_CD_CASES = {
    "all-live": lambda rng: (rng.normal(size=(64, 5)), rng.normal(size=(64, 5))),
    "dead-in-source": lambda rng: (_relu_like(rng, 40, 6, dead=(1, 4)), _relu_like(rng, 40, 6)),
    "dead-in-both": lambda rng: (_relu_like(rng, 40, 6, dead=(0, 3)),
                                 _relu_like(rng, 40, 6, dead=(3, 5))),
    "one-live-column": lambda rng: (_relu_like(rng, 30, 4, dead=(0, 1, 3)),
                                    _relu_like(rng, 30, 4, dead=(2,))),
    "all-dead": lambda rng: (np.zeros((10, 3)), _relu_like(rng, 10, 3, dead=(0, 1, 2))),
    "constant-nonzero": lambda rng: (_relu_like(rng, 24, 5, constant=(2,)),
                                     _relu_like(rng, 24, 5, dead=(4,), constant=(0,))),
    "negative-zeros": lambda rng: (_signed_zeros(rng, 20, 4, live=2), rng.normal(size=(20, 4))),
    "odd-and-unequal": lambda rng: (_relu_like(rng, 37, 5, dead=(2,)), _relu_like(rng, 22, 5)),
    # k = 1, where einsum sums the kernel in unrolled blocks, not in order
    "one-row-pair": lambda rng: (_relu_like(rng, 3, 8, dead=(1, 4)), rng.normal(size=(2, 8))),
    "one-row-pair-m-is-2": lambda rng: (rng.normal(size=(2, 2)), _relu_like(rng, 3, 2)),
    "one-row-pair-m-is-3": lambda rng: (_relu_like(rng, 3, 3, dead=(0,)), rng.normal(size=(2, 3))),
    "m-is-2": lambda rng: (_relu_like(rng, 15, 2), _relu_like(rng, 16, 2, dead=(0,))),
    "wide": lambda rng: (_relu_like(rng, 256, 64, dead=range(0, 64, 3)),
                         _relu_like(rng, 256, 64, dead=range(1, 64, 5))),
    # every row pair differs by 20 in columns 0 and 1: tau = 1, rho on the clip
    "clipped-rho": lambda rng: (np.column_stack([np.tile([10.0, -10.0], 8)] * 2
                                                + [rng.normal(size=(16, 2))]),
                                _relu_like(rng, 16, 4, dead=(3,))),
}


class TestCopulaDistanceNode:
    @pytest.mark.parametrize("tag", cop.H2_TAGS)
    @pytest.mark.parametrize("case", sorted(_CD_CASES))
    def test_matches_composite(self, case, tag):
        rng = np.random.default_rng(sum(map(ord, case + tag)))
        fs, ft = _CD_CASES[case](rng)
        for a in (0.7, 100.0):
            _assert_matches(cop.copula_distance_graph, copula_distance_composite, [fs, ft],
                            0.35, cop.DependenceKind(tag), a)

    def test_clipped_and_dead_cases_are_what_they_say(self):
        rng = np.random.default_rng(0)
        fs, _ = _CD_CASES["clipped-rho"](rng)
        assert cop.kendall_tau_smooth(fs[:, :2], 100.0) == 1.0
        for case, dead_s, dead_t in [("one-live-column", 3, 1), ("all-dead", 3, 3),
                                     ("negative-zeros", 3, 0)]:
            fs, ft = _CD_CASES[case](rng)
            for f, dead in ((fs, dead_s), (ft, dead_t)):
                assert np.sum(~(cop._paired_diffs(f) != 0.0).any(axis=1)) == dead
        assert np.signbit(_CD_CASES["negative-zeros"](rng)[0]).any()

    def test_cases_reach_every_shape_of_the_kernel_unpack(self):
        # the backward unpacks the packed pair weights into the kernel block by
        # block, last first: no block for 0 or 1 live columns, one for 2, and
        # from 3 a first block whose row copy overlaps its own source; at k = 1
        # every column counts as live
        rng = np.random.default_rng(0)
        reached = set()
        for make in _CD_CASES.values():
            for f in make(rng):
                k = f.shape[0] // 2
                live = f.shape[1] if k == 1 else np.sum((cop._paired_diffs(f) != 0.0).any(axis=1))
                reached.add((min(int(live), 3), k == 1))
        assert reached >= {(0, False), (1, False), (2, False), (3, False), (2, True), (3, True)}

    @pytest.mark.parametrize("tag", cop.H2_TAGS)
    def test_backward_twice_gives_the_same_bits(self, tag):
        rng = np.random.default_rng(len(tag))
        for case in sorted(_CD_CASES):
            fs, ft = (ad.leaf(v) for v in _CD_CASES[case](rng))
            out = cop.copula_distance_graph(fs, ft, 0.35, cop.DependenceKind(tag), 0.7)
            grads = []
            for _ in range(2):
                ad.backward(out)
                grads.append(fs.grad.tobytes() + ft.grad.tobytes())
            assert grads[0] == grads[1], case

    def test_one_node_with_both_domains_as_parents(self):
        fs, ft = ad.leaf(np.eye(4)), ad.leaf(np.ones((6, 4)))
        node = cop.copula_distance_graph(fs, ft, 1.0, cop.DependenceKind("kl"), 10.0)
        assert node.parents == (fs, ft)

    @pytest.mark.parametrize("tag", cop.H2_TAGS)
    def test_finite_differences(self, tag):
        # a soft tanh keeps the check away from saturation; odd N, a dead column
        rng = np.random.default_rng(len(tag))
        kind = cop.DependenceKind(tag)
        for _ in range(3):
            fs, ft = rng.normal(size=(9, 4)), rng.normal(size=(8, 4))
            ft[:, 2] = 0.5
            err = finite_difference_check(
                lambda x, y: cop.copula_distance_graph(x, y, 0.6, kind, 0.7), [fs, ft])
            assert err < 1e-5


class TestW1Node:
    @pytest.mark.parametrize("shape", [(922, 4), (256, 64), (7, 3), (6, 1), (1, 3), (2, 2)])
    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_composite(self, shape, ties):
        rng = np.random.default_rng(shape[0] * 100 + shape[1] + ties)
        if ties:  # dead ReLU zeros and repeated values: the sort's order routes the gradient
            inputs = [_relu_like(rng, *shape, dead=(0,)),
                      np.round(rng.normal(size=shape), 0)]
        else:
            inputs = [rng.normal(size=shape), rng.normal(0.3, 1.2, size=shape)]
        _assert_matches(dv.w1_columns_graph, w1_columns_composite, inputs)

    @pytest.mark.parametrize("shape", [(922, 4), (256, 64), (7, 3), (6, 1)])
    def test_ties_keep_the_stable_sorts_value_and_gradients(self, shape):
        # the node sorts with numpy's default kind, which may order tied
        # values otherwise than a stable sort: the value keeps its bits, and
        # each column's gradient is the stable composite's up to an exchange
        # within each group of tied inputs
        rng = np.random.default_rng(shape[0] + shape[1])
        inputs = [_relu_like(rng, *shape, dead=(0,)), np.round(rng.normal(size=shape), 0)]
        mine = _value_and_grads(dv.w1_columns_graph, inputs)
        stable = _value_and_grads(lambda fs, ft: w1_columns_composite(fs, ft, "stable"), inputs)
        _same_bits(mine[0], stable[0])

        def by_tie_group(x, g, c):  # by input value, then gradient, -0.0 after +0.0
            return g[np.lexsort((np.signbit(g[:, c]), g[:, c], x[:, c])), c]

        for x, g_mine, g_stable in zip(inputs, mine[1:], stable[1:], strict=True):
            for c in range(shape[1]):
                _same_bits(by_tie_group(x, g_mine, c), by_tie_group(x, g_stable, c))

    def test_one_node_and_equal_shapes(self):
        fs, ft = ad.leaf(np.eye(3)), ad.leaf(np.ones((3, 3)))
        assert dv.w1_columns_graph(fs, ft).parents == (fs, ft)
        with pytest.raises(ShapeError):
            dv.w1_columns_graph(fs, ad.leaf(np.ones((4, 3))))

    def test_finite_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            # continuous draws: no ties, so the sort is locally constant
            xs, xt = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
            assert finite_difference_check(dv.w1_columns_graph, [xs, xt]) < 1e-6


class TestFlatAdam:
    def test_matches_per_array_steps_in_any_layout(self):
        # one buffer of a (3, 4), a (4, 5), a (4, 4) and a (1, 5) array, stepped
        # with gradients in C order, Fortran order, as a strided view and as a row
        rng = np.random.default_rng(8)
        shapes = [(3, 4), (4, 5), (4, 4), (1, 5)]
        start = rng.normal(size=sum(r * c for r, c in shapes))
        mine, theirs = start.copy(), start.copy()
        flat, per_array = training.Adam(mine, 0.01), AdamPerArray(theirs, 0.01)
        for _ in range(50):
            grads = [rng.normal(size=(3, 4)), np.asfortranarray(rng.normal(size=(4, 5))),
                     rng.normal(size=(4, 12))[:, ::3], rng.normal(size=(1, 5))]
            assert grads[1].flags.f_contiguous and not grads[2].flags.c_contiguous
            flat.step(mine, grads)
            per_array.step(theirs, grads)
            _same_bits(mine, theirs)
        assert not np.array_equal(mine, start)


def _patched(monkeypatch):
    monkeypatch.setattr(ad, "dense", dense_composite)
    monkeypatch.setattr(models, "_softmax_cross_entropy", cross_entropy_composite)
    monkeypatch.setattr(dv, "coral_penalty_graph", coral_penalty_composite)
    monkeypatch.setattr(training, "Adam", AdamPerArray)
    monkeypatch.setattr(cop, "copula_distance_graph", copula_distance_composite)
    monkeypatch.setattr(dv, "w1_columns_graph", w1_columns_composite)


def _moons_run(method, seed, n_per_class=120, **overrides):
    src, tgt = moons_pair(3.0, seed, n_per_class=n_per_class)
    cfg = training.TrainConfig.from_dict({"seed": seed, **overrides}, base=moons_config(method))
    return training.train(src, tgt.unlabeled(), cfg)


def _regression_run(method, seed, hidden=(5, 3), activation="tanh"):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(90, 3))
    src = Dataset(x, np.tanh(x[:, 0]) + 0.1 * x[:, 1])
    tgt = Dataset(rng.normal(0.4, 1.2, size=(70, 3)), None)
    cfg = training.TrainConfig.from_dict({
        "seed": seed, "method": method, "max_epochs": 12, "batch_size": 32,
        "model": {"hidden": list(hidden), "task": "regression", "activation": activation}})
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


# the cdan cells whose copula distance and W1 term are fused nodes
CDAN_RUNS = {
    **{f"cdan-{h1}-{h2}": (lambda seed, h1=h1, h2=h2:
                           _moons_run("cdan", seed, max_epochs=15, h1=h1, h2=h2))
       for h1 in ("w1", "kl") for h2 in cop.H2_TAGS},
    "wide-cdan": lambda seed: _moons_run("cdan", seed, n_per_class=500, max_epochs=2,
                                         batch_size=256, model={"hidden": [32, 64]}),
    "cdan-tanh": lambda seed: _moons_run("cdan", seed, max_epochs=15,
                                         model={"hidden": [6, 3], "activation": "tanh"}),
    "regression-cdan": lambda seed: _regression_run("cdan", seed, (8, 8), "relu"),
}


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("run", sorted(CDAN_RUNS))
def test_cdan_training_is_bit_identical_to_the_composites(run, seed, monkeypatch):
    params, trace = CDAN_RUNS[run](seed)
    with monkeypatch.context() as patch:
        _patched(patch)
        oracle_params, oracle_trace = CDAN_RUNS[run](seed)
    for mine, theirs in zip(params.flat_arrays(), oracle_params.flat_arrays(), strict=True):
        _same_bits(mine, theirs)
    assert [t.to_dict() for t in trace] == [t.to_dict() for t in oracle_trace]


@pytest.mark.parametrize("seed", [0, 5])
def test_shift_diagnostics_are_bit_identical_to_the_composites(seed, monkeypatch):
    src, tgt = moons_pair(3.0, seed, n_per_class=150)
    rng = np.random.default_rng(seed)
    samples = (Dataset(_relu_like(rng, 301, 6, dead=(1,))),
               Dataset(_relu_like(rng, 200, 6, constant=(4,))))

    def diagnostics():
        cfg = moons_config("cdan")
        params, _ = training.train(src, tgt.unlabeled(), cfg)
        out = []
        for h2 in cop.H2_TAGS:
            cfg_h2 = training.TrainConfig.from_dict({"h2": h2}, base=cfg)
            out.append(training.learned_shift(params, src, tgt, cfg_h2))
            out.append(training.shift_report(*samples, dv.DivergenceKind("w1"),
                                             cop.DependenceKind(h2), beta=0.7).to_dict())
        return out

    mine = diagnostics()
    with monkeypatch.context() as patch:
        _patched(patch)
        assert diagnostics() == mine


def test_a_moons_epoch_checks_only_its_two_batches(monkeypatch):
    # the leaves wrap the parameter buffer's views and validation runs the
    # plain forward pass, so tensor sees only the source and target batches
    # of each full-batch step (15 calls per epoch when every parameter array
    # and the validation rows went through it)
    calls = []
    tensor = ad.tensor
    monkeypatch.setattr(ad, "tensor", lambda values: calls.append(1) or tensor(values))
    _, trace = _moons_run("cdan", 0, max_epochs=3)
    assert len(calls) == 2 * len(trace) == 6


@pytest.mark.parametrize("tag", cop.H2_TAGS)
def test_a_moons_cdan_step_reaches_few_nodes(tag):
    # the graph composites of the copula distance and the W1 term made one
    # step reach 45, 49, 61 and 75 nodes for kl, chi2, w2 and mmd; the
    # histogram KL term is one constant, where a constant and an add per
    # feature column made 25
    src, tgt = moons_pair(3.0, 0)
    for h1 in ("w1", "kl"):
        cfg = training.TrainConfig.from_dict({"h1": h1, "h2": tag}, base=moons_config("cdan"))
        params = models.init_params(cfg.model, src.dim, 0)
        loss, _, _ = training._batch_loss(params, src.features, models.one_hot(src.labels, 2),
                                          tgt.features, cfg)
        assert len(ad._reachable(loss)) == 19, h1
