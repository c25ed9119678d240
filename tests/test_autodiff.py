import gc

import numpy as np
import pytest

from crossnet import autodiff as ad


def finite_diff_check(f, params, step=1e-4, tol=1e-3):
    report = ad.grad_check(f, params, step=step, tol=tol)
    assert report["ok"], f"max rel err {report['max_rel_err']:.3e} at {report['worst']}"
    return report


class TestMatmul:
    def test_identity(self):
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(ad.Tensor(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, [[1, 2], [3, 4]])

    def test_hand_product(self):
        out = ad.matmul(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        a = ad.Param(rng.normal(size=(3, 4)), name="a")
        b = ad.Param(rng.normal(size=(4, 2)), name="b")
        finite_diff_check(lambda: ad.tsum(ad.matmul(a, b)), [a, b])

    def test_batched_gradient(self):
        rng = np.random.default_rng(4)
        a = ad.Param(rng.normal(size=(2, 3, 4)), name="a")
        b = ad.Param(rng.normal(size=(4, 5)), name="b")
        finite_diff_check(lambda: ad.tsum(ad.tanh(ad.matmul(a, b))), [a, b])


class TestSoftmax:
    def test_uniform_logits(self):
        out = ad.softmax(ad.Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3)

    def test_overflow_stability(self):
        out = ad.softmax(ad.Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-300)

    def test_exact_exponentials(self):
        out = ad.softmax(ad.Tensor(np.log([1.0, 2.0, 3.0])))
        np.testing.assert_allclose(out.data, [1 / 6, 2 / 6, 3 / 6])

    def test_gradient(self):
        rng = np.random.default_rng(5)
        x = ad.Param(rng.normal(size=(4, 5)), name="x")
        w = ad.Tensor(rng.normal(size=(4, 5)))
        finite_diff_check(lambda: ad.tsum(ad.mul(ad.softmax(x, axis=-1), w)), [x])


class TestElementwise:
    def test_leaky_relu_values(self):
        out = ad.leaky_relu(ad.Tensor([2.0, -1.0, 0.0]))
        np.testing.assert_allclose(out.data, [2.0, -0.1, 0.0])

    def test_sigmoid_zero(self):
        assert float(ad.sigmoid(ad.Tensor(0.0)).data) == 0.5

    def test_tanh_zero(self):
        assert float(ad.tanh(ad.Tensor(0.0)).data) == 0.0

    def test_hadamard(self):
        out = ad.mul(ad.Tensor([1.0, 2.0]), ad.Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [3.0, 8.0])

    def test_abs_subgradient_at_zero(self):
        p = ad.Param(np.array([0.0, 1.0, -2.0]), name="p")
        ad.backward(ad.tsum(ad.absolute(p)))
        np.testing.assert_array_equal(p.grad, [0.0, 1.0, -1.0])

    def test_clip_gradient(self):
        p = ad.Param(np.array([0.5, 2.0, -1.0]), name="p")
        ad.backward(ad.tsum(ad.clip(p, 0.0, 1.0)))
        np.testing.assert_array_equal(p.grad, [1.0, 0.0, 0.0])


class TestBackward:
    def test_square_derivative(self):
        p = ad.Param(np.array(3.0), name="p")
        ad.backward(ad.mul(p, p))
        assert p.grad == 6.0

    def test_sigmoid_dot_finite_diff(self):
        rng = np.random.default_rng(6)
        w = ad.Param(rng.normal(size=(3, 4)), name="w")
        x = ad.Tensor(rng.normal(size=(4,)))
        finite_diff_check(lambda: ad.tsum(ad.sigmoid(ad.matmul(w, x))), [w])

    def test_grads_accumulate_across_passes(self):
        p = ad.Param(np.array(3.0), name="p")
        ad.backward(ad.mul(p, p))
        first = p.grad.copy()
        ad.backward(ad.mul(p, p))
        np.testing.assert_array_equal(p.grad, 2 * first)

    def test_non_scalar_loss_rejected(self):
        p = ad.Param(np.ones(3), name="p")
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(ad.mul(p, p))

    def test_shared_parameter_gradient(self):
        # the same param used twice gets the sum of both contributions
        p = ad.Param(np.array(2.0), name="p")
        ad.backward(ad.add(ad.mul(p, p), p))   # d/dp (p^2 + p) = 2p + 1
        assert p.grad == 5.0


class TestSgdStep:
    def test_basic_update(self):
        p = ad.Param(np.array(1.0), name="p")
        p.grad[...] = 2.0
        ad.sgd_step([p], 0.5)
        assert p.data == 0.0

    def test_zero_lr(self):
        p = ad.Param(np.array(1.0), name="p")
        p.grad[...] = 2.0
        ad.sgd_step([p], 0.0)
        assert p.data == 1.0

    def test_non_trainable_untouched(self):
        p = ad.Param(np.array(1.0), name="p", trainable=False)
        p.grad[...] = 2.0
        ad.sgd_step([p], 0.5)
        assert p.data == 1.0

    def test_zero_grads(self):
        p = ad.Param(np.ones(4), name="p")
        p.grad[...] = 3.0
        ad.zero_grads([p])
        np.testing.assert_array_equal(p.grad, np.zeros(4))


class TestGradCheck:
    def test_quadratic(self):
        p = ad.Param(np.array([1.0, -2.0, 0.5]), name="p")
        report = ad.grad_check(lambda: ad.tsum(ad.mul(p, p)), [p], tol=1e-6)
        assert report["ok"]

    def test_zero_function(self):
        p = ad.Param(np.array([1.0, 2.0]), name="p")
        report = ad.grad_check(lambda: ad.tsum(ad.scale(p, 0.0)), [p])
        assert report["max_rel_err"] <= 1e-4

    def test_composite_ops(self):
        rng = np.random.default_rng(8)
        a = ad.Param(rng.normal(size=(2, 3)), name="a")
        b = ad.Param(rng.normal(size=(3,)), name="b")

        def f():
            h = ad.leaky_relu(ad.matmul(a, b))
            return ad.tmean(ad.exp(ad.scale(h, 0.1)))

        finite_diff_check(f, [a, b])


class TestStructuralOps:
    def test_concat_split_gradient(self):
        rng = np.random.default_rng(9)
        a = ad.Param(rng.normal(size=(2, 3)), name="a")
        b = ad.Param(rng.normal(size=(2, 2)), name="b")
        finite_diff_check(lambda: ad.tsum(ad.power(ad.concat([a, b], axis=1), 2.0)),
                          [a, b])

    def test_gather_rows_repeated_indices(self):
        table = ad.Param(np.arange(6.0).reshape(3, 2), name="t")
        out = ad.gather_rows(table, np.array([1, 1, 0]))
        np.testing.assert_array_equal(out.data, [[2, 3], [2, 3], [0, 1]])
        ad.backward(ad.tsum(out))
        np.testing.assert_array_equal(table.grad, [[1, 1], [2, 2], [0, 0]])

    def test_gather_out_of_range(self):
        table = ad.Param(np.zeros((3, 2)), name="t")
        with pytest.raises(IndexError):
            ad.gather_rows(table, np.array([3]))

    def test_pad_and_slice_gradient(self):
        rng = np.random.default_rng(10)
        a = ad.Param(rng.normal(size=(2, 3, 2)), name="a")

        def f():
            padded = ad.pad_axis(a, 1, 1, 1)
            return ad.tsum(ad.power(ad.slice_axis(padded, 1, 0, 3), 2.0))

        finite_diff_check(f, [a])

    def test_stack_transpose_reshape(self):
        rng = np.random.default_rng(11)
        a = ad.Param(rng.normal(size=(2, 3)), name="a")
        b = ad.Param(rng.normal(size=(2, 3)), name="b")

        def f():
            s = ad.stack([a, b], axis=1)            # [2, 2, 3]
            t = ad.transpose(s, (2, 0, 1))          # [3, 2, 2]
            return ad.tsum(ad.power(ad.reshape(t, (12,)), 2.0))

        finite_diff_check(f, [a, b])


def test_determinism():
    def run():
        rng = np.random.default_rng(42)
        a = ad.Param(rng.normal(size=(5, 5)), name="a")
        ad.backward(ad.tsum(ad.sigmoid(ad.matmul(a, a))))
        return a.data.copy(), a.grad.copy()

    d1, g1 = run()
    d2, g2 = run()
    np.testing.assert_array_equal(d1, d2)
    np.testing.assert_array_equal(g1, g2)


def every_op(x, y, rows):
    """Each op of the module once; x [2, 3] > 0, y [3, 3], rows [4, 3]."""
    return [
        ad.add(x, 1.0), ad.mul(x, x), ad.scale(x, 2.0), ad.matmul(x, y),
        x + x, x * x, -x, x - x, x @ y,
        ad.sigmoid(x), ad.tanh(x), ad.relu(x), ad.leaky_relu(x), ad.exp(x),
        ad.log(x), ad.absolute(x), ad.power(x, 2.0), ad.clip(x, 0.2, 0.8),
        ad.tsum(x), ad.tsum(x, axis=1, keepdims=True), ad.tmean(x, axis=0),
        ad.softmax(x), ad.reshape(x, (3, 2)), ad.transpose(x, (1, 0)),
        ad.concat([x, x], axis=0), ad.stack([x, x], axis=1),
        ad.slice_axis(x, 1, 0, 2), ad.gather_rows(rows, [0, 3, 0]),
        ad.pad_axis(x, 0, 1, 2),
    ]


class TestNoGrad:
    def inputs(self):
        rng = np.random.default_rng(3)
        return (ad.Param(rng.uniform(0.1, 1.0, size=(2, 3)), name="x"),
                ad.Param(rng.normal(size=(3, 3)), name="y"),
                ad.Param(rng.normal(size=(4, 3)), name="rows"))

    def test_every_op_records_nothing_and_computes_the_same(self):
        x, y, rows = self.inputs()
        graph = every_op(x, y, rows)
        with ad.no_grad():
            bare = every_op(x, y, rows)
        assert all(t._parents for t in graph)
        for g, b in zip(graph, bare):
            assert b._parents == () and b._backward is None
            np.testing.assert_array_equal(b.data, g.data)

    def test_forward_graph_is_freed_without_the_collector(self):
        x, y, rows = self.inputs()
        gc.collect()
        with ad.no_grad():
            out = every_op(x, y, rows)
        del out
        assert gc.collect() == 0

    def test_nesting_restores_the_mode(self):
        assert ad.grad_enabled()
        with ad.no_grad():
            with ad.no_grad():
                assert not ad.grad_enabled()
            assert not ad.grad_enabled()
        assert ad.grad_enabled()

    def test_exception_restores_the_mode(self):
        with pytest.raises(ad.ShapeError):
            with ad.no_grad():
                ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))
        assert ad.grad_enabled()
        p = ad.Param(np.ones(2), name="p")
        ad.backward(ad.tsum(ad.mul(p, p)))
        np.testing.assert_array_equal(p.grad, [2.0, 2.0])

    def test_backward_rejects_a_loss_without_a_graph(self):
        p = ad.Param(np.array([1.0, 2.0]), name="p")
        with ad.no_grad():
            loss = ad.tsum(ad.mul(p, p))
        with pytest.raises(ValueError, match="no_grad"):
            ad.backward(loss)
        with pytest.raises(ValueError, match="no parents"):
            ad.backward(ad.Tensor(3.0))
        np.testing.assert_array_equal(p.grad, [0.0, 0.0])
