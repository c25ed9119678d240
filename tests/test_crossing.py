import contextlib
import gc
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from crossnet import autodiff as ad
from crossnet import crossing
from crossnet.autodiff import Tensor
from crossnet.crossing import (CrossingBlock, cross_attention, cross_block,
                               cross_product, lasso_penalty, make_blocks,
                               pca_select, residual_scale, run_stack,
                               temporal_aggregate)
from crossnet.data import build_schema, gen_synthetic_interaction, synthetic_schema_config
from crossnet.model import Model, TrainConfig


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestTemporalAggregate:
    def test_onehot_selects_step(self):
        X = Tensor(rand((2, 3, 4, 2)))
        w = Tensor(np.array([0.0, 1.0, 0.0]))
        out = temporal_aggregate(X, w)
        np.testing.assert_array_equal(out.data, X.data[:, 1])

    def test_zero_weights(self):
        X = Tensor(rand((1, 2, 3, 2)))
        out = temporal_aggregate(X, Tensor(np.zeros(2)))
        np.testing.assert_array_equal(out.data, np.zeros((1, 3, 2)))

    def test_uniform_on_constant_sequence(self):
        step = rand((3, 2), seed=1)
        X = Tensor(np.broadcast_to(step, (1, 4, 3, 2)).copy())
        out = temporal_aggregate(X, Tensor(np.full(4, 0.25)))
        np.testing.assert_allclose(out.data[0], step)


class TestCrossProduct:
    def test_hadamard_pair(self):
        X1 = Tensor(np.array([[1.0, 2.0]]))       # n1=1, d=2
        Xp = Tensor(np.array([[3.0, 4.0]]))
        out = cross_product(X1, Xp)
        np.testing.assert_array_equal(out.data, [[3.0, 8.0]])

    def test_ones_identity(self):
        v = rand((3, 4), seed=2)
        out = cross_product(Tensor(np.ones((1, 4))), Tensor(v))
        np.testing.assert_allclose(out.data, v)

    def test_channel_count_and_order(self):
        X1 = Tensor(rand((1, 1, 3, 2), seed=3))
        Xp = Tensor(rand((1, 1, 2, 2), seed=4))
        out = cross_product(X1, Xp)
        assert out.shape == (1, 1, 6, 2)
        for m in range(2):
            for k in range(3):
                np.testing.assert_allclose(
                    out.data[0, 0, m * 3 + k],
                    Xp.data[0, 0, m] * X1.data[0, 0, k])


class TestCrossAttention:
    def make_block(self, n1, n_prev, T):
        return CrossingBlock(2, n1, n_prev, 4, T, np.random.default_rng(0))

    def test_zero_weights_uniform(self):
        block = self.make_block(3, 2, 2)
        block.w_query.data[...] = 0.0
        block.w_key.data[...] = 0.0
        a = cross_attention(Tensor(rand((2, 2, 3, 4))), Tensor(rand((2, 2, 2, 4), 1)),
                            block)
        np.testing.assert_allclose(a.data, 0.5)

    def test_columns_sum_to_one(self):
        block = self.make_block(3, 2, 2)
        block.w_query.data[...] = rand(2, 5)
        a = cross_attention(Tensor(rand((4, 2, 3, 4), 2)),
                            Tensor(rand((4, 2, 2, 4), 3)), block)
        np.testing.assert_allclose(a.data.sum(axis=-2), 1.0, atol=1e-9)

    def test_single_prev_feature(self):
        block = self.make_block(3, 1, 2)
        a = cross_attention(Tensor(rand((1, 2, 3, 4), 4)),
                            Tensor(rand((1, 2, 1, 4), 5)), block)
        np.testing.assert_allclose(a.data, 1.0)


class TestResidualScale:
    def test_positive_path(self):
        crossed = Tensor(np.full((1, 1, 1, 1), 2.0))
        a = Tensor(np.full((1, 1, 1), 1.0))
        assert residual_scale(crossed, a).data.item() == 4.0

    def test_negative_path_leaky(self):
        crossed = Tensor(np.full((1, 1, 1, 1), -2.0))
        a = Tensor(np.full((1, 1, 1), 0.5))
        assert residual_scale(crossed, a).data.item() == pytest.approx(-0.3)

    def test_zero_attention(self):
        x = rand((1, 2, 6, 3), seed=6)
        out = residual_scale(Tensor(x), Tensor(np.zeros((1, 2, 3))))
        np.testing.assert_allclose(out.data, np.where(x > 0, x, 0.1 * x))


class TestPcaSelect:
    def test_identity(self):
        x = rand((1, 2, 3, 4), seed=7)
        out = pca_select(Tensor(x), Tensor(np.eye(3)))
        np.testing.assert_allclose(out.data, x)

    def test_zero_column(self):
        x = rand((1, 2, 3, 4), seed=8)
        W = np.zeros((3, 2))
        W[:, 1] = 1.0
        out = pca_select(Tensor(x), Tensor(W))
        np.testing.assert_array_equal(out.data[:, :, 0, :], np.zeros((1, 2, 4)))

    def test_mixing(self):
        v, w = rand(4, 9), rand(4, 10)
        x = np.stack([v, w])[None, None]           # [1,1,2,4]
        W = np.array([[0.5], [0.5]])
        out = pca_select(Tensor(x), Tensor(W))
        np.testing.assert_allclose(out.data[0, 0, 0], 0.5 * (v + w))


class TestLassoPenalty:
    def make_block(self, W):
        block = CrossingBlock(2, 1, W.shape[0], W.shape[1], 1,
                              np.random.default_rng(0))
        block.w_pca.data = W.astype(float)
        return block

    def test_abs_sum(self):
        block = self.make_block(np.array([[1.0, -2.0], [0.0, 3.0]]))
        assert float(lasso_penalty([block]).data) == 6.0

    def test_zero(self):
        block = self.make_block(np.zeros((2, 2)))
        assert float(lasso_penalty([block]).data) == 0.0

    def test_sign_subgradient(self):
        block = self.make_block(np.array([[1.0, -2.0], [0.0, 3.0]]))
        ad.backward(lasso_penalty([block]))
        np.testing.assert_array_equal(block.w_pca.grad, [[1.0, -1.0], [0.0, 1.0]])


@contextlib.contextmanager
def chunk_bytes(n):
    """Run cross_block with ``n`` bytes per chunk of each loop (one sample when tiny)."""
    saved = crossing._CHUNK_BYTES
    crossing._CHUNK_BYTES = n
    try:
        yield
    finally:
        crossing._CHUNK_BYTES = saved


class TestChunkBuffers:
    @settings(max_examples=60, deadline=None)
    @given(B=st.integers(1, 300),
           shapes=st.lists(st.lists(st.integers(1, 12), min_size=1, max_size=4).map(tuple),
                           min_size=1, max_size=7),
           budget=st.sampled_from([8, 4096, 1 << 20]))
    def test_chunks_fit_the_budget_and_buffers_fit_a_chunk(self, B, shapes, budget):
        with chunk_bytes(budget):
            step, buffers = crossing._chunk_buffers(B, *shapes)
        per_sample = 8 * sum(int(np.prod(shape)) for shape in shapes)
        assert step >= 1
        if step > 1:
            assert step * per_sample <= budget
        assert [b.shape for b in buffers] == [(min(step, B),) + shape for shape in shapes]
        assert all(b.dtype == np.float64 for b in buffers)


def block_inputs(B, T, n1, n_prev, d, c_o, seed):
    rng = np.random.default_rng(seed)
    return (ad.Param(rng.normal(size=(B, T, n1, d)), name="X1"),
            ad.Param(rng.normal(size=(B, T, n_prev, d)), name="Xprev"),
            ad.Param(rng.uniform(size=(B, n_prev, n1)), name="a"),
            ad.Param(rng.normal(size=(n_prev * n1, c_o)), name="w_pca"))


def forward_sizes(R, n1, n_prev, c_o):
    """Float64s per sample in each array that cross_block's forward loop touches."""
    c_i = n_prev * n1
    if c_i < crossing._SPLIT_CHANNELS:
        return R * c_i, R * c_i                           # L and its lrelu scratch
    return n1 * n_prev * c_o, 2 * R * n1, 2 * R * n_prev, 2 * R * n_prev * c_o   # W, F, P, F W


def chain(X1, Xprev, a, w_pca):
    return pca_select(residual_scale(cross_product(X1, Xprev), a), w_pca)


def value_and_grads(op, params, R):
    ad.zero_grads(params)
    out = op(*params)
    ad.backward(ad.tsum(ad.mul(out, Tensor(R))))
    grads = [p.grad.copy() for p in params]
    ad.zero_grads(params)
    return [out.data] + grads


def assert_matches_chain(params, R, chunk):
    """cross_block's value and four gradients equal the unfused chain's."""
    want = value_and_grads(chain, params, R)
    with chunk_bytes(chunk):
        got = value_and_grads(cross_block, params, R)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)


class TestCrossBlock:
    @pytest.mark.parametrize("B,T,n1,n_prev,d,c_o,chunk", [
        (2, 2, 3, 2, 2, 3, 1 << 20),   # n_prev != n1
        (1, 2, 2, 3, 2, 2, 1 << 20),   # B = 1
        (2, 1, 2, 2, 3, 2, 1 << 20),   # T = 1
        (2, 2, 3, 2, 1, 2, 1 << 20),   # d = 1
        (2, 2, 2, 3, 2, 1, 1 << 20),   # c_o = 1
        (3, 2, 2, 3, 2, 2, 8),         # one sample per chunk
        (2, 2, 16, 8, 2, 3, 1 << 20),  # c_i = 128: the sign-split forward
        (3, 1, 13, 10, 2, 2, 8),       # c_i = 130, one sample per chunk
    ])
    def test_grad_check(self, B, T, n1, n_prev, d, c_o, chunk):
        params = block_inputs(B, T, n1, n_prev, d, c_o, seed=B + 10 * n_prev + c_o)
        R = Tensor(np.random.default_rng(c_o).normal(size=(B, T, c_o, d)))

        # linear in each input between lrelu kinks, so central differences are
        # exact up to rounding and a wide step keeps rounding small
        def f():
            return ad.tsum(ad.mul(cross_block(*params), R))

        with chunk_bytes(chunk):
            report = ad.grad_check(f, list(params), step=1e-3, tol=1e-6)
        assert report["ok"], report

    def test_zero_product_takes_slope_one_tenth(self):
        # out = w (1 + a) lrelu(xp x1); at x1 = 0 the x1-gradient is w (1 + a) 0.1 xp
        for xp in (2.0, -2.0, 0.0, -0.0):
            X1 = ad.Param(np.zeros((1, 1, 1, 1)), name="X1")
            Xprev = ad.Param(np.full((1, 1, 1, 1), xp), name="Xprev")
            a = ad.Param(np.full((1, 1, 1), 0.5), name="a")
            w = ad.Param(np.full((1, 1), 3.0), name="w_pca")
            out = cross_block(X1, Xprev, a, w)
            assert out.data.item() == 0.0
            ad.backward(ad.tsum(out))
            assert X1.grad.item() == pytest.approx(3.0 * 1.5 * 0.1 * xp)
            assert Xprev.grad.item() == 0.0
            assert a.grad.item() == 0.0 and w.grad.item() == 0.0

    def test_zero_products_match_chain(self):
        params = block_inputs(3, 2, 3, 4, 2, 3, seed=5)
        params[0].data[:, :, 1, :] = 0.0      # a rank-1 feature that is exactly zero
        params[1].data[0, 1, 2, :] = -0.0     # and a previous-rank entry at -0
        R = np.random.default_rng(6).normal(size=(3, 2, 3, 2))
        for chunk in (8, 1 << 20):
            assert_matches_chain(params, R, chunk)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_chain(self, data):
        dims = st.integers(1, 4)
        B, T, n1, n_prev, d, c_o = (data.draw(dims) for _ in range(6))
        values = st.floats(-2.0, 2.0, allow_subnormal=False)

        def draw(shape, elements=values):
            return data.draw(hnp.arrays(np.float64, shape, elements=elements))

        params = [ad.Param(draw((B, T, n1, d)), name="X1"),
                  ad.Param(draw((B, T, n_prev, d)), name="Xprev"),
                  ad.Param(draw((B, n_prev, n1), st.floats(0.0, 1.0)), name="a"),
                  ad.Param(draw((n_prev * n1, c_o)), name="w_pca")]
        assert_matches_chain(params, draw((B, T, c_o, d)),
                             data.draw(st.sampled_from([8, 1 << 20])))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_both_kernels_match_chain_with_exact_zeros(self, data):
        # crossed-channel counts on both sides of the crossover, inputs with
        # exact zeros (a missing number embeds to a zero vector) and -0.0
        assert crossing._SPLIT_CHANNELS == 128
        n_prev, n1 = data.draw(st.sampled_from(
            [(1, 1), (3, 4), (8, 8), (11, 11), (10, 12), (16, 8), (8, 16), (12, 12), (5, 26)]))
        B, T, d, c_o = (data.draw(st.integers(1, 3)) for _ in range(4))
        params = block_inputs(B, T, n1, n_prev, d, c_o, seed=data.draw(st.integers(0, 2**16)))
        for p in params[:2]:
            zero = data.draw(hnp.arrays(np.bool_, p.data.shape))
            p.data[zero] = data.draw(st.sampled_from([0.0, -0.0]))
        R = np.random.default_rng(n_prev).normal(size=(B, T, c_o, d))
        assert_matches_chain(params, R, data.draw(st.sampled_from([8, 1 << 20])))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_bits_do_not_depend_on_the_chunk_budget(self, data):
        # one sample per chunk, the default, and the whole batch in one chunk,
        # on both sides of the crossover and with exact 0.0 and -0.0 inputs
        n_prev, n1 = data.draw(st.sampled_from(
            [(1, 1), (3, 4), (11, 11), (10, 12), (12, 12), (16, 8), (5, 26), (8, 25)]))
        B = data.draw(st.integers(1, 5))
        T, d, c_o = (data.draw(st.integers(1, 3)) for _ in range(3))
        params = block_inputs(B, T, n1, n_prev, d, c_o, seed=data.draw(st.integers(0, 2**16)))
        for p in params[:2]:
            zero = data.draw(hnp.arrays(np.bool_, p.data.shape))
            p.data[zero] = data.draw(st.sampled_from([0.0, -0.0]))
        R = np.random.default_rng(B).normal(size=(B, T, c_o, d))
        runs = []
        for budget in (8, crossing._CHUNK_BYTES, 1 << 30):
            with chunk_bytes(budget):
                runs.append([x.tobytes() for x in value_and_grads(cross_block, params, R)])
        assert runs[0] == runs[1] == runs[2]

    def test_backward_scratch_stays_under_two_chunks_of_the_budget(self):
        B, T, n1, n_prev, d, c_o = 16, 2, 12, 12, 16, 1
        params = block_inputs(B, T, n1, n_prev, d, c_o, seed=11)
        L_sample = 8 * T * d * n_prev * n1
        budget = 2 * 2 * L_sample                      # two samples of L and of dP
        grads = []
        with chunk_bytes(budget):
            out = cross_block(*params)
            gc.collect()
            tracemalloc.start()
            try:
                out._backward(np.ones(out.shape), lambda t, g: grads.append(g))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        scratch = peak - sum(g.nbytes for g in grads)
        assert n_prev * n1 >= crossing._SPLIT_CHANNELS and B * L_sample == 4 * budget
        # L and dP fill the budget; the rest (the transposed upstream gradient,
        # M, a chunk of W_b and one temporary) is under a third of it, so one
        # more L-sized chunk buffer would take the scratch past 1.5 budgets
        assert scratch < 1.5 * budget

    def test_grad_mode_forward_keeps_under_two_chunks_of_products(self):
        B, T, n1, n_prev, d, c_o = 16, 2, 8, 8, 16, 2
        params = block_inputs(B, T, n1, n_prev, d, c_o, seed=7)
        chunk = 2 * 8 * T * d * n_prev * n1            # the bytes of two samples of L
        gc.collect()
        with chunk_bytes(chunk):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = cross_block(*params)
                kept = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        X1, Xprev, a, _ = params
        # beyond its output the node may keep a copy of X1 and Xprev and, per
        # sample, 1 + a and the weights (1 + a)·w_pca; any more is crossed products
        inputs = X1.data.nbytes + Xprev.data.nbytes + a.data.nbytes * (1 + c_o)
        assert B * T * d * n_prev * n1 * 8 == 8 * chunk
        assert kept - out.data.nbytes - inputs < 2 * chunk

    def test_sign_split_scoring_builds_no_per_sample_weights(self):
        B, T, n1, n_prev, d, c_o = 64, 2, 16, 16, 4, 16
        params = block_inputs(B, T, n1, n_prev, d, c_o, seed=10)
        w_b = 8 * B * n_prev * n1 * c_o             # (1 + a)·w_pca per sample: 2 MB
        R = T * d
        chunk = 2 * 8 * sum(forward_sizes(R, n1, n_prev, c_o))   # two samples per chunk

        def peak(mode):
            gc.collect()
            with chunk_bytes(chunk), mode:
                tracemalloc.start()
                try:
                    cross_block(*params)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        assert n_prev * n1 >= crossing._SPLIT_CHANNELS
        with chunk_bytes(chunk):
            assert crossing._chunk_step(*forward_sizes(R, n1, n_prev, c_o)) == 2
        # backward builds W_b a chunk at a time, so neither mode needs half of it
        assert w_b > 2 * peak(ad.no_grad())
        assert w_b > 2 * peak(contextlib.nullcontext())

    def test_graph_after_backward_keeps_under_one_chunk_beyond_the_output(self):
        B, T, n1, n_prev, d, c_o = 16, 2, 8, 8, 16, 2
        params = block_inputs(B, T, n1, n_prev, d, c_o, seed=9)
        chunk = 2 * 8 * T * d * n_prev * n1            # the bytes of two samples of L
        gc.collect()
        with chunk_bytes(chunk):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = cross_block(*params)
                loss = ad.tsum(out)
                ad.backward(loss)
                kept = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        # L spans 8 chunks; the transposed inputs are a chunk each, and the
        # per-sample weights and scales half and a quarter of one
        assert B // 2 == 8
        assert kept - out.data.nbytes < chunk

    def test_second_backward_through_the_graph_is_rejected(self):
        params = block_inputs(2, 2, 3, 2, 2, 3, seed=8)
        loss = ad.tsum(cross_block(*params))
        ad.backward(loss)
        with pytest.raises(ValueError, match="cross_block's backward already ran"):
            ad.backward(loss)

    def test_shape_mismatch_rejected(self):
        X1, Xprev, a, w = block_inputs(1, 2, 3, 2, 2, 2, seed=0)
        with pytest.raises(ad.ShapeError):
            cross_block(X1, Xprev, a, ad.Tensor(np.ones((5, 2))))


def symmetric(op):
    """``op`` with one tensor as both X1 and Xprev, as run_stack passes block 1."""
    return lambda X, a, w_pca: op(X, X, a, w_pca)


def symmetric_inputs(B, T, n, d, c_o, seed):
    X, _, a, w = block_inputs(B, T, n, n, d, c_o, seed)
    return [X, a, w]


def symmetric_backward_bytes(R, n, c_o):
    """Bytes per sample of the arrays that the symmetric backward's loop touches."""
    return 8 * (2 * R * c_o * n + 6 * R * n + 3 * c_o * n * n)   # Z; P, F, D; W, W + Wᵀ, M


def add_zeros(data, X):
    """Set a drawn subset of X's entries to exact 0.0 or -0.0."""
    zero = data.draw(hnp.arrays(np.bool_, X.data.shape))
    X.data[zero] = data.draw(st.sampled_from([0.0, -0.0]))


def count_sign_split_grad(monkeypatch):
    """A list that gets the input shape of each call of the symmetric backward."""
    calls = []
    real = crossing._sign_split_grad

    def counted(*args):
        calls.append(args[1].shape)
        return real(*args)

    monkeypatch.setattr(crossing, "_sign_split_grad", counted)
    return calls


class TestSymmetricBlock:
    """cross_block(X, X, a, w) from _SPLIT_CHANNELS crossed channels on, the
    backward of run_stack's first block, which builds no crossed products."""

    @pytest.mark.parametrize("B,T,n,d,c_o,chunk", [
        (2, 1, 12, 2, 2, 1 << 20),     # c_i = 144
        (2, 1, 25, 1, 2, 8),           # c_i = 625, one sample per chunk
    ])
    def test_grad_check(self, B, T, n, d, c_o, chunk, monkeypatch):
        params = symmetric_inputs(B, T, n, d, c_o, seed=n)
        X = params[0]
        # no entry within 0.05 of the lrelu kink: central differences across
        # x = 0 would straddle it
        X.data[np.abs(X.data) < 0.05] = 0.05
        R = Tensor(np.random.default_rng(c_o).normal(size=(B, T, c_o, d)))
        assert n * n >= crossing._SPLIT_CHANNELS

        def f():
            return ad.tsum(ad.mul(cross_block(X, X, *params[1:]), R))

        calls = count_sign_split_grad(monkeypatch)
        with chunk_bytes(chunk):
            report = ad.grad_check(f, params, step=1e-3, tol=1e-6)
        assert report["ok"], report
        assert calls

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_chain_with_exact_zeros(self, data):
        # n·n on both sides of the crossover: 121 takes the L backward
        assert crossing._SPLIT_CHANNELS == 128
        n = data.draw(st.sampled_from([1, 4, 11, 12, 13, 25]))
        B, T, d, c_o = (data.draw(st.integers(1, 3)) for _ in range(4))
        params = symmetric_inputs(B, T, n, d, c_o, seed=data.draw(st.integers(0, 2**16)))
        add_zeros(data, params[0])
        R = np.random.default_rng(n).normal(size=(B, T, c_o, d))
        want = value_and_grads(symmetric(chain), params, R)
        with chunk_bytes(data.draw(st.sampled_from([8, 1 << 20]))):
            got = value_and_grads(symmetric(cross_block), params, R)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_bits_do_not_depend_on_the_chunk_budget(self, data):
        n = data.draw(st.sampled_from([12, 13, 25]))
        B = data.draw(st.integers(1, 5))
        T, d, c_o = (data.draw(st.integers(1, 3)) for _ in range(3))
        params = symmetric_inputs(B, T, n, d, c_o, seed=data.draw(st.integers(0, 2**16)))
        add_zeros(data, params[0])
        R = np.random.default_rng(B).normal(size=(B, T, c_o, d))
        runs = []
        # one sample per chunk, two, the default, and the whole batch
        for budget in (8, 2 * symmetric_backward_bytes(T * d, n, c_o), crossing._CHUNK_BYTES,
                       1 << 30):
            with chunk_bytes(budget):
                runs.append([x.tobytes() for x in value_and_grads(symmetric(cross_block),
                                                                  params, R)])
        assert runs[0] == runs[1] == runs[2] == runs[3]

    def test_second_backward_is_rejected_and_the_saved_arrays_freed(self):
        B, T, n, d, c_o = 16, 2, 12, 8, 2
        X, a, w = symmetric_inputs(B, T, n, d, c_o, seed=12)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = cross_block(X, X, a, w)
            loss = ad.tsum(out)
            ad.backward(loss)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the node saves the transposed input and 1 + a; both must be let go
        saved = X.data.nbytes + a.data.nbytes
        assert kept - out.data.nbytes < saved / 4
        with pytest.raises(ValueError, match="cross_block's backward already ran"):
            ad.backward(loss)

    def test_backward_scratch_stays_under_the_budget(self):
        B, T, n, d, c_o = 16, 2, 12, 32, 8
        X, a, w = symmetric_inputs(B, T, n, d, c_o, seed=13)
        sample = symmetric_backward_bytes(T * d, n, c_o)
        budget = 2 * sample
        grads = []
        with chunk_bytes(budget):
            out = cross_block(X, X, a, w)
            gc.collect()
            tracemalloc.start()
            try:
                out._backward(np.ones(out.shape), lambda t, g: grads.append(g))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        scratch = peak - sum(g.nbytes for g in grads)
        assert n * n >= crossing._SPLIT_CHANNELS and len(grads) == 3
        # a broadcasting ufunc call may allocate a NumPy buffer per input
        ufunc_buffers = 2 * 8 * np.getbufsize()
        # the chunk buffers fill the budget; the rest (the transposed upstream
        # gradient and a copy of w_pca) is under a quarter of it, while M or Z
        # for the whole batch would take the scratch past 1.5 budgets
        assert B * sample == 8 * budget
        assert scratch < 1.5 * budget + ufunc_buffers

    def test_a_distinct_xprev_equal_to_x1_takes_the_l_backward(self, monkeypatch):
        # a second block with c_o = n1 gets a Xprev of X1's shape: equal
        # shapes and values are not the same tensor, and its backward is the L one
        B, T, n, d, c_o = 2, 2, 12, 2, 3
        X, a, w = symmetric_inputs(B, T, n, d, c_o, seed=14)
        Xprev = ad.Param(X.data.copy(), name="Xprev")
        R = np.random.default_rng(15).normal(size=(B, T, c_o, d))
        calls = count_sign_split_grad(monkeypatch)
        assert_matches_chain([X, Xprev, a, w], R, 1 << 20)
        assert calls == []
        value_and_grads(symmetric(cross_block), [X, a, w], R)
        assert calls == [(B, T * d, n)]

    def test_run_stack_takes_it_for_the_first_block_only(self, monkeypatch):
        n1 = 12
        blocks = make_blocks(n1, [n1, 3], 2, np.random.default_rng(16))
        X1 = ad.Param(rand((2, 2, n1, 2), seed=17), name="x1")
        calls = count_sign_split_grad(monkeypatch)
        ad.backward(ad.tsum(run_stack(X1, blocks).x_tilde))
        assert calls == [(2, 4, n1)]


def reference_stack(X1, blocks):
    """Unfused step-by-step re-implementation in plain numpy."""
    B, T, n1, d = X1.shape
    ranks = [X1]
    prev = X1
    for block in blocks:
        n_prev = prev.shape[2]
        Q = np.einsum("t,btmd->bmd", block.w_query.data, prev)
        K = np.einsum("t,btkd->bkd", block.w_key.data, X1)
        logits = np.einsum("bmd,bkd->bmk", Q, K)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        out = np.zeros((B, T, block.c_o, d))
        crossed = np.zeros((B, T, n_prev * n1, d))
        for m in range(n_prev):
            for k in range(n1):
                x = prev[:, :, m, :] * X1[:, :, k, :]
                x = (1.0 + a[:, m, k])[:, None, None] * x
                crossed[:, :, m * n1 + k, :] = np.where(x > 0, x, 0.1 * x)
        for o in range(block.c_o):
            out[:, :, o, :] = np.einsum("c,btcd->btd", block.w_pca.data[:, o], crossed)
        ranks.append(out)
        prev = out
    return np.concatenate(ranks, axis=2) if len(ranks) > 1 else ranks[0]


class TestRunStack:
    def test_degenerate_stack(self):
        X1 = Tensor(rand((2, 3, 4, 2), seed=11))
        stack = run_stack(X1, [])
        np.testing.assert_array_equal(stack.x_tilde.data, X1.data)
        assert stack.widths == [4]

    def test_width_accounting(self):
        rng = np.random.default_rng(12)
        blocks = make_blocks(2, [3], 2, rng)
        stack = run_stack(Tensor(rand((1, 2, 2, 4), 13)), blocks)
        assert stack.widths == [2, 3]
        assert stack.x_tilde.shape == (1, 2, 5, 4)

    def test_matches_reference_three_ranks(self):
        rng = np.random.default_rng(14)
        blocks = make_blocks(3, [4, 2], 2, rng)
        for b in blocks:
            b.w_query.data = rng.normal(size=b.w_query.shape)
            b.w_key.data = rng.normal(size=b.w_key.shape)
        X1 = rand((2, 2, 3, 2), seed=15)
        stack = run_stack(Tensor(X1), blocks)
        np.testing.assert_allclose(stack.x_tilde.data, reference_stack(X1, blocks),
                                   atol=1e-12)

    def test_shape_mismatch_rejected(self):
        blocks = make_blocks(3, [4], 2, np.random.default_rng(16))
        with pytest.raises(ad.ShapeError):
            run_stack(Tensor(rand((1, 2, 2, 2))), blocks)

    def test_attention_columns_normalized(self):
        rng = np.random.default_rng(17)
        blocks = make_blocks(3, [4, 3], 2, rng)
        for b in blocks:
            b.w_query.data = rng.normal(size=b.w_query.shape)
        stack = run_stack(Tensor(rand((3, 2, 3, 2), 18)), blocks)
        for a in stack.attentions:
            np.testing.assert_allclose(a.data.sum(axis=-2), 1.0, atol=1e-9)

    def test_zeroed_feature_zeroes_descendant_channels(self):
        # identity selection and uniform attention keep channel semantics pure
        rng = np.random.default_rng(19)
        n1 = 3
        blocks = make_blocks(n1, [n1 * n1], 2, rng)
        blocks[0].w_pca.data = np.eye(n1 * n1)
        blocks[0].w_query.data[...] = 0.0
        blocks[0].w_key.data[...] = 0.0
        X1 = rand((1, 2, n1, 2), seed=20)
        X1[:, :, 1, :] = 0.0   # kill raw feature 1
        stack = run_stack(Tensor(X1), blocks)
        rank2 = stack.ranks[1].data
        for m in range(n1):
            for k in range(n1):
                if m == 1 or k == 1:
                    np.testing.assert_array_equal(rank2[0, :, m * n1 + k, :], 0.0)

    def test_identity_pca_zero_attention_is_scaled_hadamard(self):
        rng = np.random.default_rng(21)
        for n1, d, T in itertools.product([1, 2, 3], [1, 2], [1, 2]):
            blocks = make_blocks(n1, [n1 * n1], T, rng)
            blocks[0].w_pca.data = np.eye(n1 * n1)
            blocks[0].w_query.data[...] = 0.0
            blocks[0].w_key.data[...] = 0.0
            X1 = rng.normal(size=(1, T, n1, d))
            stack = run_stack(Tensor(X1), blocks)
            factor = 1.0 + 1.0 / n1
            for m in range(n1):
                for k in range(n1):
                    x = factor * X1[0, :, m, :] * X1[0, :, k, :]
                    expected = np.where(x > 0, x, 0.1 * x)
                    np.testing.assert_allclose(
                        stack.ranks[1].data[0, :, m * n1 + k, :], expected,
                        atol=1e-12)

    def test_gradients_flow(self):
        rng = np.random.default_rng(22)
        blocks = make_blocks(2, [3], 2, rng)
        X1 = ad.Param(rand((1, 2, 2, 2), seed=23), name="x1")

        def f():
            return ad.tsum(ad.power(run_stack(X1, blocks).x_tilde, 2.0))

        params = [X1] + [p for b in blocks for p in b.params()]
        report = ad.grad_check(f, params)
        assert report["ok"], report


def scoring_setup(B, T, noise, d, widths, seed):
    """A seeded model and B raw samples (schema fitted on 8 more)."""
    raw = gen_synthetic_interaction(B + 8, T, noise, seed=seed)
    schema = build_schema(raw, synthetic_schema_config(noise, T))
    config = TrainConfig(T=T, d=d, rank_widths=widths, s=1, h=5, k=2, seed=seed)
    return Model(schema, config), raw[:B]


def block1_step(T, noise, d, c_o):
    """Samples per chunk of the first block's forward loop."""
    return crossing._chunk_step(*forward_sizes(T * d, 2 + noise, 2 + noise, c_o))


def assert_forward_matches_grad_mode(model, samples):
    want = model.forward(samples)
    with ad.no_grad():
        got = model.forward(samples)
    for key in ("y", "r", "p", "q"):
        np.testing.assert_array_equal(got[key].data, want[key].data)
    for g, w in zip(got["stack"].ranks, want["stack"].ranks):
        np.testing.assert_array_equal(g.data, w.data)


class TestNoGradForward:
    # noise 9 and 10 make n1 = 11 and 12, so a first block of 121 or 144
    # crossed channels, and widths (12, 3) a second block of 12·n1: both
    # sides of the crossover at 128
    @settings(max_examples=40, deadline=None)
    @given(T=st.integers(1, 3), noise=st.sampled_from([0, 1, 2, 9, 10]), d=st.integers(1, 4),
           widths=st.sampled_from([(2,), (3, 2), (12, 3)]), step=st.integers(1, 3),
           past_step=st.booleans(), seed=st.integers(0, 2**16))
    def test_bit_identical_to_grad_mode(self, T, noise, d, widths, step, past_step, seed):
        # B = 1, or one past the first block's chunk step so its last chunk is partial
        B = step + 1 if past_step else 1
        model, samples = scoring_setup(B, T, noise, d, widths, seed)
        n1 = 2 + noise
        with chunk_bytes(8 * sum(forward_sizes(T * d, n1, n1, widths[0])) * step):
            assert block1_step(T, noise, d, widths[0]) == step
            assert_forward_matches_grad_mode(model, samples)

    def test_bit_identical_past_the_default_chunk_step(self):
        B = block1_step(T=2, noise=2, d=8, c_o=8) + 1
        model, samples = scoring_setup(B, 2, 2, 8, (8, 4), seed=4)
        assert_forward_matches_grad_mode(model, samples)

    def test_results_have_no_parents(self):
        model, samples = scoring_setup(3, 2, 1, 4, (3, 2), seed=5)
        with ad.no_grad():
            fwd = model.forward(samples)
        stack = fwd["stack"]
        tensors = ([fwd[k] for k in ("y", "r", "p", "q")] + stack.ranks
                   + stack.attentions + [stack.x_tilde])
        for t in tensors:
            assert t._parents == () and t._backward is None

    def test_dropped_forward_leaves_no_cyclic_garbage(self):
        model, samples = scoring_setup(3, 2, 1, 4, (3, 2), seed=6)
        gc.collect()
        with ad.no_grad():
            fwd = model.forward(samples)
        del fwd
        assert gc.collect() == 0
