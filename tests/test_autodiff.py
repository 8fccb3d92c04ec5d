import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import copulashift.autodiff as ad
from copulashift.errors import ContractViolation, DomainError, ShapeError
from oracles import (absolute, add_bias_summed, div, finite_difference_check, log,
                     mean_rows, neg, sin, softmax_rows, softmax_rows_reduced, sort_cols,
                     transpose)


class TestTensor:
    def test_scalar_becomes_1x1(self):
        t = ad.tensor(3.5)
        assert t.shape == (1, 1)
        assert t[0, 0] == 3.5

    def test_vector_becomes_column(self):
        t = ad.tensor([1.0, 2.0, 3.0])
        assert t.shape == (3, 1)

    def test_matrix_kept(self):
        t = ad.tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)

    def test_readonly(self):
        t = ad.tensor([[1.0]])
        with pytest.raises(ValueError):
            t[0, 0] = 2.0

    def test_does_not_freeze_caller_array(self):
        src = np.zeros((2, 2))
        ad.tensor(src)
        src[0, 0] = 1.0  # must still be writable

    def test_rejects_rank3(self):
        with pytest.raises(ContractViolation):
            ad.tensor(np.zeros((2, 2, 2)))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(DomainError):
            ad.tensor([np.nan])
        with pytest.raises(DomainError):
            ad.tensor([np.inf])

    def test_rejects_empty(self):
        with pytest.raises(ContractViolation):
            ad.tensor(np.zeros((0, 3)))


class TestForwardValues:
    def test_tanh_zero(self):
        assert ad.tanh(ad.leaf(0.0)).item() == 0.0

    def test_matmul_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out = ad.matmul(ad.leaf(x), ad.constant(np.eye(3)))
        np.testing.assert_array_equal(out.value, x)

    def test_softmax_uniform(self):
        out = softmax_rows(ad.leaf([[0.0, 0.0]]))
        np.testing.assert_allclose(out.value, [[0.5, 0.5]])

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 5))
        a = softmax_rows(ad.leaf(x)).value
        b = softmax_rows(ad.leaf(x + 100.0)).value
        np.testing.assert_allclose(a, b, atol=1e-12)
        np.testing.assert_allclose(a.sum(axis=1), np.ones(4), atol=1e-12)

    def test_pairwise_diff(self):
        x = ad.leaf([1.0, 2.0])
        y = ad.leaf([10.0, 20.0, 30.0])
        out = ad.pairwise_diff(x, y)
        np.testing.assert_array_equal(
            out.value, [[-9.0, -19.0, -29.0], [-8.0, -18.0, -28.0]])

    def test_scalar_broadcast(self):
        x = ad.leaf([[1.0, 2.0], [3.0, 4.0]])
        out = 2.0 * x + 1.0
        np.testing.assert_array_equal(out.value, [[3.0, 5.0], [7.0, 9.0]])

    def test_ndarray_left_operand_defers_to_node(self):
        arr = np.array([[1.0, 2.0]])
        out = arr * ad.leaf([[3.0, 4.0]])
        assert isinstance(out, ad.Node)
        np.testing.assert_array_equal(out.value, [[3.0, 8.0]])

    def test_take_rows_and_cols(self):
        x = ad.leaf(np.arange(12.0).reshape(3, 4))
        np.testing.assert_array_equal(
            ad.take_rows(x, [2, 0]).value, [[8, 9, 10, 11], [0, 1, 2, 3]])
        np.testing.assert_array_equal(
            ad.take_cols(x, [1, 1]).value, [[1, 1], [5, 5], [9, 9]])
        np.testing.assert_array_equal(
            ad.take_rows(x, np.array([1], dtype=np.uint8)).value, [[4, 5, 6, 7]])
        # float indices would truncate and a bool mask would read as 0/1
        for gather in (ad.take_rows, ad.take_cols):
            for bad in ([0.7, 1.2], np.array([1.0]), [True, False],
                        np.array([True, False, True])):
                with pytest.raises(ContractViolation, match="integer dtype"):
                    gather(x, bad)

    def test_sort_cols(self):
        x = ad.leaf([[3.0, -1.0], [1.0, 2.0], [2.0, -1.0]])
        out = sort_cols(x)
        np.testing.assert_array_equal(out.value, [[1, -1], [2, -1], [3, 2]])
        ad.backward(ad.total(out * ad.constant([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])))
        # ties keep their row order (stable), so row 0 of column 1 is rank 0
        np.testing.assert_array_equal(x.grad, [[3, 10], [1, 30], [2, 20]])


class TestGradients:
    def test_square_at_three(self):
        # d/dx x^2 = 2x = 6 at x = 3
        x = ad.leaf(3.0)
        ad.backward(x * x)
        np.testing.assert_allclose(x.grad, [[6.0]])

    def test_mean_tanh_gradient(self):
        x = ad.leaf([0.0, 0.0])
        ad.backward(ad.mean(ad.tanh(x)))
        # d/dx_i mean(tanh(x)) = (1 - tanh(x_i)^2) / n = 0.5 at 0
        np.testing.assert_allclose(x.grad, [[0.5], [0.5]])

    def test_fanout_accumulates(self):
        x = ad.leaf(2.0)
        y = x * x + x  # dy/dx = 2x + 1 = 5
        ad.backward(y)
        np.testing.assert_allclose(x.grad, [[5.0]])

    def test_two_layer_mlp_cross_entropy_fd(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(4, 3))
        labels = np.array([0, 1, 0, 1])
        onehot = np.eye(2)[labels]
        W1 = rng.normal(size=(3, 5)) * 0.5
        b1 = np.zeros((1, 5))
        W2 = rng.normal(size=(5, 2)) * 0.5
        b2 = np.zeros((1, 2))

        def loss(w1, b1n, w2, b2n):
            h = ad.relu(ad.add_bias(ad.matmul(ad.constant(X), w1), b1n))
            p = softmax_rows(ad.add_bias(ad.matmul(h, w2), b2n))
            picked = ad.total(ad.mul(ad.constant(onehot), log(p)))
            return div(neg(picked), float(len(labels)))

        err = finite_difference_check(loss, [W1, b1, W2, b2])
        assert err < 1e-5

    def test_repeated_backward_bit_identical(self):
        rng = np.random.default_rng(11)
        x = ad.leaf(rng.normal(size=(6, 2)))
        w = ad.leaf(rng.normal(size=(2, 3)))
        out = ad.mean(ad.exp(neg(absolute(ad.matmul(x, w)))))
        ad.backward(out)
        g1x, g1w = x.grad.copy(), w.grad.copy()
        ad.backward(out)
        assert np.array_equal(g1x, x.grad)
        assert np.array_equal(g1w, w.grad)

    def test_grad_zero_before_backward(self):
        x = ad.leaf([[1.0, 2.0]])
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0]])

    def test_take_cols_duplicate_scatter(self):
        x = ad.leaf([[1.0, 2.0], [3.0, 4.0]])
        out = ad.total(ad.take_cols(x, [0, 0, 1]))
        ad.backward(out)
        np.testing.assert_array_equal(x.grad, [[2.0, 1.0], [2.0, 1.0]])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_gather_scatter_matches_add_at(self, data):
        # Oracle: np.add.at's definition, a loop that adds each gathered row
        # or column into zeros in index order.
        n = data.draw(st.integers(1, 6), label="rows")
        m = data.draw(st.integers(1, 6), label="cols")
        axis = data.draw(st.sampled_from([0, 1]), label="axis")
        bound = (n, m)[axis]
        idx = data.draw(st.lists(st.integers(0, bound - 1), min_size=1, max_size=12),
                        label="indices")
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        x = ad.leaf(rng.normal(size=(n, m)))
        gathered = ad.take_rows(x, idx) if axis == 0 else ad.take_cols(x, idx)
        weights = rng.normal(size=gathered.shape)
        weights[rng.random(weights.shape) < 0.2] = -0.0
        ad.backward(ad.total(gathered * ad.constant(weights)))
        expected = np.zeros((n, m))
        for k, i in enumerate(idx):
            if axis == 0:
                expected[i, :] += weights[k, :]
            else:
                expected[:, i] += weights[:, k]
        assert x.grad.tobytes() == expected.tobytes()
        # wide graphs hand the backward Fortran-ordered gradients
        fortran, = gathered._backward(np.asfortranarray(weights))
        assert fortran.tobytes() == expected.tobytes()

    def test_relu_subgradient_zero_at_kink(self):
        x = ad.leaf([[0.0]])
        ad.backward(ad.total(ad.relu(x)))
        np.testing.assert_array_equal(x.grad, [[0.0]])

    def test_abs_and_sqrt_subgradients_at_zero(self):
        x = ad.leaf([[0.0]])
        ad.backward(ad.total(absolute(x)))
        np.testing.assert_array_equal(x.grad, [[0.0]])
        y = ad.leaf([[0.0]])
        ad.backward(ad.total(ad.sqrt(y)))
        np.testing.assert_array_equal(y.grad, [[0.0]])

    def test_clamp_blocks_gradient_outside(self):
        x = ad.leaf([[-1.0, 0.5, 2.0]])
        ad.backward(ad.total(ad.clamp(x, lo=0.0, hi=1.0)))
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0]])


def _shifted(rng, shape, low=-2.0, high=2.0, keep_away=0.0):
    x = rng.uniform(low, high, size=shape)
    if keep_away > 0.0:
        x = np.where(np.abs(x) < keep_away, np.sign(x) * keep_away + x, x)
    return x


UNARY_CASES = {
    "exp": (ad.exp, (-2.0, 2.0), 0.0),
    "log": (log, (0.1, 2.0), 0.0),
    "sqrt": (ad.sqrt, (0.1, 2.0), 0.0),
    "tanh": (ad.tanh, (-2.0, 2.0), 0.0),
    "sin": (sin, (-2.0, 2.0), 0.0),
    "relu": (ad.relu, (-2.0, 2.0), 0.05),
    "abs": (absolute, (-2.0, 2.0), 0.05),
    "neg": (neg, (-2.0, 2.0), 0.0),
    # mean(softmax) is constant, so read the rows out through fixed weights
    "softmax": (lambda n: ad.mul(softmax_rows(n), ad.constant(_SOFTMAX_W)),
                (-2.0, 2.0), 0.0),
}

# softmax rows couple every entry, so some Jacobian entries are near zero and
# their relative-to-central error is dominated by finite-difference noise
_CASE_TOL = {"softmax": 1e-4}

_SOFTMAX_W = np.linspace(0.5, 2.0, 12).reshape(3, 4)


class TestFiniteDifferenceSweep:
    """Every primitive agrees with central differences on random inputs."""

    @pytest.mark.parametrize("name", sorted(UNARY_CASES))
    def test_unary(self, name):
        fn, (lo, hi), keep_away = UNARY_CASES[name]
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for trial in range(25):
            x = _shifted(rng, (3, 4), lo, hi, keep_away)
            err = finite_difference_check(lambda a: ad.mean(fn(a)), [x])
            tol = _CASE_TOL.get(name, 1e-5)
            assert err < tol, f"{name} trial {trial}: {err}"

    @pytest.mark.parametrize("name,fn", [
        ("add", ad.add), ("sub", ad.sub), ("mul", ad.mul), ("div", div),
    ])
    def test_binary_elementwise(self, name, fn):
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for _ in range(25):
            a = _shifted(rng, (3, 4))
            b = _shifted(rng, (3, 4), keep_away=0.2 if name == "div" else 0.0)
            err = finite_difference_check(lambda x, y: ad.mean(fn(x, y)), [a, b])
            assert err < 1e-5
            # scalar broadcast on the right
            s = _shifted(rng, (1, 1), keep_away=0.2 if name == "div" else 0.0)
            err = finite_difference_check(lambda x, y: ad.mean(fn(x, y)), [a, s])
            assert err < 1e-5

    def test_matmul_transpose_bias(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            a = rng.uniform(-2, 2, size=(3, 4))
            b = rng.uniform(-2, 2, size=(4, 2))
            bias = rng.uniform(-2, 2, size=(1, 2))

            def build(x, y, z):
                return ad.mean(ad.add_bias(ad.matmul(x, y), z))

            assert finite_difference_check(build, [a, b, bias]) < 1e-6
            assert finite_difference_check(
                lambda x: ad.mean(transpose(x)), [a]) < 1e-6

    def test_reductions_and_gather(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            a = rng.uniform(-2, 2, size=(4, 3))
            for red in (ad.total, ad.mean,
                        lambda n: ad.mean(mean_rows(n)),
                        lambda n: ad.mean(ad.take_rows(n, [0, 0, 2])),
                        lambda n: ad.mean(ad.take_cols(n, [1, 1, 2]))):
                assert finite_difference_check(lambda x: _as_scalar(red(x)), [a]) < 1e-6

    def test_sort_cols_fd(self):
        rng = np.random.default_rng(46)
        for _ in range(10):
            # continuous draws: no ties, so the sort is locally constant
            a = rng.uniform(-2, 2, size=(5, 3))
            weights = ad.constant(rng.normal(size=(5, 3)))
            assert finite_difference_check(
                lambda x: ad.total(sort_cols(x) * weights), [a]) < 1e-6

    def test_pairwise_diff_kernel(self):
        rng = np.random.default_rng(44)
        for _ in range(25):
            x = rng.uniform(-2, 2, size=(4, 1))
            y = rng.uniform(-2, 2, size=(3, 1))

            def build(a, b):
                d = ad.pairwise_diff(a, b)
                return ad.total(ad.exp(neg(d * d)))

            assert finite_difference_check(build, [x, y]) < 1e-6

    def test_clamp_inside_region(self):
        rng = np.random.default_rng(45)
        for _ in range(25):
            # keep samples strictly inside so FD is valid
            x = rng.uniform(-0.8, 0.8, size=(3, 3))
            err = finite_difference_check(
                lambda a: ad.mean(ad.clamp(a, lo=-1.0, hi=1.0)), [x])
            assert err < 1e-6


def _as_scalar(node):
    return node if node.shape == (1, 1) else ad.mean(node)


class TestErrorContracts:
    def test_shape_error_names_op_and_shapes(self):
        with pytest.raises(ShapeError) as ei:
            ad.add(ad.leaf(np.zeros((2, 3))), ad.leaf(np.zeros((3, 2))))
        msg = str(ei.value)
        assert "add" in msg and "(2, 3)" in msg and "(3, 2)" in msg

    def test_matmul_inner_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(ad.leaf(np.zeros((2, 3))), ad.leaf(np.zeros((2, 3))))

    def test_log_domain(self):
        with pytest.raises(DomainError):
            log(ad.leaf([[1.0, 0.0]]))
        with pytest.raises(DomainError):
            log(ad.leaf([[-1.0]]))

    def test_div_by_zero(self):
        with pytest.raises(DomainError):
            div(ad.leaf(1.0), ad.leaf(0.0))

    @pytest.mark.parametrize("factor", [float("inf"), float("nan"), 10 ** 400],
                             ids=["inf", "nan", "10**400"])
    @pytest.mark.parametrize("product", [lambda x, k: x * k, lambda x, k: k * x,
                                         lambda x, k: ad.mul(k, x)],
                             ids=["node*k", "k*node", "mul(k,node)"])
    def test_non_finite_scalar_factor(self, factor, product):
        # 10**400 used to escape float() as a bare OverflowError
        with pytest.raises(DomainError, match="non-finite scalar factor"):
            product(ad.leaf([[1.0, 2.0]]), factor)

    def test_sqrt_negative(self):
        with pytest.raises(DomainError):
            ad.sqrt(ad.leaf(-0.5))

    def test_backward_requires_scalar(self):
        with pytest.raises(ContractViolation):
            ad.backward(ad.leaf([[1.0, 2.0]]))

    def test_fd_check_rejects_bad_step(self):
        with pytest.raises(ContractViolation):
            finite_difference_check(lambda x: ad.mean(x), [np.ones((2, 2))], step=0.0)
        with pytest.raises(ContractViolation):
            finite_difference_check(lambda x: ad.mean(x), [np.ones((2, 2))], step=-1e-6)

    def test_item_requires_scalar(self):
        with pytest.raises(ContractViolation):
            ad.leaf([[1.0, 2.0]]).item()


def _same_bits(a, b):
    # stricter than array_equal: the sign of a zero counts too
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def _spread(rng, shape):
    """Values over six decades, with some entries set to +0.0 and -0.0."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    x[rng.random(shape) < 0.1] = 0.0
    x[rng.random(shape) < 0.1] = -0.0
    return x


def _value_and_grads(op, inputs, upstream):
    """``op``'s value and the gradients of its inputs under ``upstream``."""
    leaves = [ad.leaf(v) for v in inputs]
    out = op(*leaves)
    # d total(out * U) / d out is U exactly: total gives ones, mul gives 1.0 * U
    ad.backward(ad.total(out * ad.constant(upstream)))
    return [out.value] + [leaf.grad for leaf in leaves]


# moons-sized batches at the widths the models use, a wide batch, one row,
# and a single column (a regression head), whose column numpy sums pairwise
NARROW_SHAPES = [(922, 2), (922, 4), (922, 8), (256, 64), (1, 1), (1, 2), (1, 5),
                 (922, 1)]


class TestReductionsMatchNumpy:
    """``add_bias`` and ``softmax_rows`` against the numpy reductions they replaced."""

    @pytest.mark.parametrize("shape", NARROW_SHAPES)
    def test_add_bias_gradient(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        inputs = [_spread(rng, shape), _spread(rng, (1, shape[1]))]
        upstream = _spread(rng, shape)
        for mine, oracle in zip(_value_and_grads(ad.add_bias, inputs, upstream),
                                _value_and_grads(add_bias_summed, inputs, upstream)):
            _same_bits(mine, oracle)

    @pytest.mark.parametrize("shape", NARROW_SHAPES + [(922, 3), (5, 7), (5, 9)])
    def test_softmax_rows(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        inputs = [_spread(rng, shape) * 0.01]
        upstream = _spread(rng, shape)
        for mine, oracle in zip(_value_and_grads(softmax_rows, inputs, upstream),
                                _value_and_grads(softmax_rows_reduced, inputs, upstream)):
            _same_bits(mine, oracle)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_column_sums_in_any_layout(self, data):
        n = data.draw(st.integers(1, 40), label="rows")
        m = data.draw(st.integers(1, 12), label="cols")
        layout = data.draw(st.sampled_from(["C", "F", "strided"]), label="layout")
        g = _spread(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))), (n, 2 * m))
        g = {"C": np.ascontiguousarray(g[:, :m]), "F": np.asfortranarray(g[:, :m]),
             "strided": g[:, ::2]}[layout]
        _same_bits(ad._column_sums(g), g.sum(axis=0, keepdims=True))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_row_reductions(self, data):
        n = data.draw(st.integers(1, 40), label="rows")
        k = data.draw(st.integers(1, 12), label="cols")
        x = _spread(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))), (n, k))
        _same_bits(ad._row_sums(x), x.sum(axis=1, keepdims=True))
        _same_bits(ad._row_max(x), x.max(axis=1, keepdims=True))
