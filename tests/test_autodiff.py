import gc
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

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

    @pytest.mark.parametrize("a, b", [((2, 3), (3,)), ((3,), (3, 2)), ((3,), (3,))],
                             ids=["vector_right", "vector_left", "two_vectors"])
    def test_one_axis_operand_is_rejected(self, a, b):
        with pytest.raises(ad.ShapeError, match="2 or more axes"):
            ad.matmul(ad.Tensor(np.ones(a)), ad.Tensor(np.ones(b)))

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
        x = ad.Tensor(rng.normal(size=(4, 1)))
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
        b = ad.Param(rng.normal(size=(3, 1)), name="b")

        def f():
            h = ad.leaky_relu(ad.matmul(a, b))
            return ad.tmean(ad.tanh(ad.scale(h, 0.1)))

        finite_diff_check(f, [a, b])


class TestStructuralOps:
    def test_concat_split_gradient(self):
        rng = np.random.default_rng(9)
        a = ad.Param(rng.normal(size=(2, 3)), name="a")
        b = ad.Param(rng.normal(size=(2, 2)), name="b")
        finite_diff_check(lambda: ad.tsum(ad.power(ad.concat([a, b], axis=1), 2.0)),
                          [a, b])

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


def every_op(x, y):
    """Each op of the module once; x [2, 3] > 0, y [3, 3]."""
    return [
        ad.add(x, 1.0), ad.mul(x, x), ad.scale(x, 2.0), ad.matmul(x, y),
        ad.sigmoid(x), ad.tanh(x), ad.relu(x), ad.leaky_relu(x),
        ad.absolute(x), ad.power(x, 2.0), ad.clip(x, 0.2, 0.8),
        ad.tsum(x), ad.tsum(x, axis=1, keepdims=True), ad.tmean(x),
        ad.softmax(x), ad.reshape(x, (3, 2)), ad.transpose(x, (1, 0)),
        ad.concat([x, x], axis=0), ad.stack([x, x], axis=1),
        ad.slice_axis(x, 1, 0, 2), ad.pad_axis(x, 0, 1, 2),
    ]


class TestNoGrad:
    def inputs(self):
        rng = np.random.default_rng(3)
        return (ad.Param(rng.uniform(0.1, 1.0, size=(2, 3)), name="x"),
                ad.Param(rng.normal(size=(3, 3)), name="y"))

    def test_every_op_records_nothing_and_computes_the_same(self):
        x, y = self.inputs()
        graph = every_op(x, y)
        with ad.no_grad():
            bare = every_op(x, y)
        assert all(t._parents for t in graph)
        for g, b in zip(graph, bare):
            assert b._parents == () and b._backward is None
            np.testing.assert_array_equal(b.data, g.data)

    def test_forward_graph_is_freed_without_the_collector(self):
        x, y = self.inputs()
        gc.collect()
        with ad.no_grad():
            out = every_op(x, y)
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
        scalar = ad.Param(np.array(2.0), name="scalar")
        with pytest.raises(ValueError, match="a bare Param"):
            ad.backward(scalar)
        assert scalar.grad == 0.0
        np.testing.assert_array_equal(p.grad, [0.0, 0.0])


# ---------------------------------------------------------------------------
# every op against finite differences, on random shapes
# ---------------------------------------------------------------------------

# at least 0.1 from every kink: 0 (relu, leaky_relu, absolute) and ±1 (clip)
_VALUES = st.one_of(st.floats(-2.0, -1.1), st.floats(-0.9, -0.1),
                    st.floats(0.1, 0.9), st.floats(1.1, 2.0))
_DIM = st.integers(1, 3)


def _param(data, shape, name="p"):
    return ad.Param(data.draw(hnp.arrays(np.float64, shape, elements=_VALUES)), name=name)


def _shape(data, min_dims=1):
    return data.draw(hnp.array_shapes(min_dims=min_dims, max_dims=3, max_side=3))


def _axis(data, ndim):
    return data.draw(st.integers(-ndim, ndim - 1))


def _broadcast(op):
    def build(data):
        shapes = data.draw(hnp.mutually_broadcastable_shapes(
            num_shapes=2, min_dims=0, max_dims=3, max_side=3)).input_shapes
        a, b = _param(data, shapes[0], "a"), _param(data, shapes[1], "b")
        return (lambda: op(a, b)), [a, b]
    return build


def _unary(op):
    def build(data):
        x = _param(data, _shape(data, min_dims=0), "x")
        return (lambda: op(x)), [x]
    return build


def _matmul(data):
    b, n, k, m = (data.draw(_DIM) for _ in range(4))
    shapes = data.draw(st.sampled_from([
        ((n, k), (k, m)), ((b, n, k), (k, m)), ((b, n, k), (b, k, m)),
        ((1, n, k), (b, k, m))]))
    x, y = _param(data, shapes[0], "a"), _param(data, shapes[1], "b")
    return (lambda: ad.matmul(x, y)), [x, y]


def _tsum(data):
    x = _param(data, _shape(data), "x")
    axes = data.draw(st.lists(st.integers(0, x.ndim - 1), min_size=1, unique=True))
    axis = data.draw(st.sampled_from([None, axes[0] - x.ndim, tuple(axes)]))
    keepdims = data.draw(st.booleans())
    return (lambda: ad.tsum(x, axis=axis, keepdims=keepdims)), [x]


def _tmean(data):
    x = _param(data, _shape(data), "x")
    return (lambda: ad.tmean(x)), [x]


def _softmax(data):
    x = _param(data, _shape(data), "x")
    axis = _axis(data, x.ndim)
    return (lambda: ad.softmax(x, axis=axis)), [x]


def _reshape(data):
    x = _param(data, _shape(data), "x")
    return (lambda: ad.reshape(x, x.shape[::-1])), [x]


def _transpose(data):
    x = _param(data, _shape(data), "x")
    axes = data.draw(st.permutations(range(x.ndim)))
    return (lambda: ad.transpose(x, axes)), [x]


def _concat(data):
    shape = _shape(data)
    axis = _axis(data, len(shape))
    other = list(shape)
    other[axis] = data.draw(_DIM)
    a, b = _param(data, shape, "a"), _param(data, tuple(other), "b")
    return (lambda: ad.concat([a, b, a], axis=axis)), [a, b]


def _stack(data):
    shape = _shape(data)
    axis = data.draw(st.integers(0, len(shape)))
    a, b = _param(data, shape, "a"), _param(data, shape, "b")
    return (lambda: ad.stack([a, b], axis=axis)), [a, b]


def _slice(data):
    x = _param(data, _shape(data), "x")
    axis = _axis(data, x.ndim)
    start = data.draw(st.integers(0, x.shape[axis] - 1))
    stop = data.draw(st.integers(start + 1, x.shape[axis]))
    return (lambda: ad.slice_axis(x, axis, start, stop)), [x]


def _pad(data):
    x = _param(data, _shape(data), "x")
    axis = _axis(data, x.ndim)
    before, after = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    return (lambda: ad.pad_axis(x, axis, before, after)), [x]


OPS = {
    "add": _broadcast(ad.add), "mul": _broadcast(ad.mul),
    "scale": _unary(lambda x: ad.scale(x, -1.5)), "matmul": _matmul,
    "sigmoid": _unary(ad.sigmoid), "tanh": _unary(ad.tanh), "relu": _unary(ad.relu),
    "leaky_relu": _unary(ad.leaky_relu), "absolute": _unary(ad.absolute),
    "power": _unary(lambda x: ad.power(x, 3.0)), "clip": _unary(lambda x: ad.clip(x, -1.0, 1.0)),
    "tsum": _tsum, "tmean": _tmean, "softmax": _softmax, "reshape": _reshape,
    "transpose": _transpose, "concat": _concat, "stack": _stack, "slice_axis": _slice,
    "pad_axis": _pad,
}


class TestEveryOpGradient:
    @pytest.mark.parametrize("op", sorted(OPS))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_finite_differences(self, op, data):
        build, params = OPS[op](data)
        # positive weights, so no gradient entry cancels to a rounding-level zero
        R = ad.Tensor(np.random.default_rng(0).uniform(0.5, 1.5, size=build().shape))
        finite_diff_check(lambda: ad.tsum(ad.mul(build(), R)), params)


# ---------------------------------------------------------------------------
# in-place accumulation against the allocating reference
# ---------------------------------------------------------------------------

def reference_backward(loss):
    """``ad.backward`` as it was before gradients were accumulated in place.

    Every sum is a new array and every slice contribution is first spread
    into a zero-filled array of its node's shape. Same traversal as
    ``ad.backward``, so contributions arrive in the same order.
    """
    topo = []
    visited = set()
    stack_ = [(loss, False)]
    while stack_:
        node, processed = stack_.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack_.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack_.append((p, False))

    grads = {id(loss): np.ones_like(loss.data)}

    def acc(t, g, idx=None):
        if idx is not None:
            full = np.zeros(t.shape)
            full[idx] = g
            g = full
        if isinstance(t, ad.Param):
            t.grad += g
        elif t._parents:
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g

    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None or node._backward is None:
            continue
        node._backward(g, acc)


def graph_nodes(loss):
    nodes, todo, seen = [], [loss], set()
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            todo.extend(node._parents)
    return nodes


def recorded_backward(backward, loss, params):
    """Run ``backward`` on ``loss`` and return what it computed.

    Returns each node's incoming gradient (by id), the params' grads, and for
    each receiving node its contributions in arrival order as "view" (read
    only), "slice" (added into a region) or "array". Fails if any node's data,
    or any array handed from one node to another, changed after it was made.
    """
    ad.zero_grads(params)
    nodes = graph_nodes(loss)
    handed = [(n.data, n.data.copy()) for n in nodes]
    incoming, arrivals = {}, {}
    saved = [(n, n._backward) for n in nodes if n._backward is not None]

    def spy(node, rule):
        def run(g, acc):
            incoming[id(node)] = g.copy()

            def spy_acc(t, c, *idx):
                handed.append((c, np.array(c)))
                kind = "slice" if idx else ("array" if c.flags.writeable else "view")
                arrivals.setdefault(id(t), []).append(kind)
                acc(t, c, *idx)

            rule(g, spy_acc)
        return run

    for n, rule in saved:
        n._backward = spy(n, rule)
    try:
        backward(loss)
    finally:
        for n, rule in saved:
            n._backward = rule
    for array, copy in handed:
        assert array.tobytes() == copy.tobytes(), "an array was written after it was handed on"
    grads = [p.grad.copy() for p in params]
    ad.zero_grads(params)
    return incoming, grads, arrivals


def assert_same_as_reference(loss, params, target):
    """In-place and reference backward give the same bits; ``target`` gets 3+ contributions."""
    got, got_grads, arrivals = recorded_backward(ad.backward, loss, params)
    want, want_grads, _ = recorded_backward(reference_backward, loss, params)
    assert len(arrivals[id(target)]) >= 3
    assert got.keys() == want.keys()
    for key in want:
        assert got[key].tobytes() == want[key].tobytes()
    for g, w in zip(got_grads, want_grads):
        assert g.tobytes() == w.tobytes()
    return arrivals[id(target)]


def _rand(rng, *shape):
    return ad.Tensor(rng.normal(size=shape))


class TestInPlaceAccumulation:
    def test_overlapping_windows_of_a_padded_tensor(self):
        rng = np.random.default_rng(20)
        x = ad.Param(rng.normal(size=(2, 4, 3)), name="x")
        padded = ad.pad_axis(ad.tanh(x), 1, 2, 2)                     # [2, 8, 3]
        windows = [ad.tsum(ad.mul(ad.slice_axis(padded, 1, s, s + 3), _rand(rng, 2, 3, 3)))
                   for s in range(6)]
        loss = windows[0]
        for w in windows[1:]:
            loss = ad.add(loss, w)
        assert assert_same_as_reference(loss, [x], padded) == ["slice"] * 6

    def test_a_node_added_to_itself_and_used_again(self):
        rng = np.random.default_rng(21)
        p = ad.Param(rng.normal(size=(3, 4)), name="p")
        h = ad.tanh(p)
        y = ad.add(ad.add(h, h), ad.mul(h, _rand(rng, 3, 4)))
        loss = ad.tsum(ad.mul(y, _rand(rng, 3, 4)))
        assert_same_as_reference(loss, [p], h)

    def test_broadcast_view_then_slice_in_every_order(self):
        orders = set()
        for perm in itertools.permutations(range(3)):
            rng = np.random.default_rng(22)
            p = ad.Param(rng.normal(size=(4, 3)), name="p")
            h = ad.mul(p, _rand(rng, 4, 3))
            terms = [ad.tsum(h),
                     ad.tsum(ad.mul(ad.slice_axis(h, 0, 1, 3), _rand(rng, 2, 3))),
                     ad.tsum(ad.mul(h, _rand(rng, 4, 3)))]
            loss = terms[perm[0]]
            for i in perm[1:]:
                loss = ad.add(loss, terms[i])
            orders.add(tuple(assert_same_as_reference(loss, [p], h)))
        assert ("view", "slice", "array") in orders

    def test_param_read_through_slices(self):
        rng = np.random.default_rng(23)
        basis = ad.Param(rng.normal(size=(4, 3)), name="basis")
        reads = [ad.slice_axis(basis, 0, i, i + 1) for i in range(4)]
        reads += [ad.slice_axis(basis, 0, 0, 2), ad.slice_axis(basis, 0, 1, 4), basis]
        loss = ad.tsum(ad.mul(reads[0], _rand(rng, 1, 3)))
        for r in reads[1:]:
            loss = ad.add(loss, ad.tsum(ad.mul(r, _rand(rng, *r.shape))))
        assert_same_as_reference(loss, [basis], basis)
