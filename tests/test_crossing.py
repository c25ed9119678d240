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
    """Run cross_block with ``n`` bytes of L per chunk (one sample when tiny)."""
    saved = crossing._CHUNK_BYTES
    crossing._CHUNK_BYTES = n
    try:
        yield
    finally:
        crossing._CHUNK_BYTES = saved


def block_inputs(B, T, n1, n_prev, d, c_o, seed):
    rng = np.random.default_rng(seed)
    return (ad.Param(rng.normal(size=(B, T, n1, d)), name="X1"),
            ad.Param(rng.normal(size=(B, T, n_prev, d)), name="Xprev"),
            ad.Param(rng.uniform(size=(B, n_prev, n1)), name="a"),
            ad.Param(rng.normal(size=(n_prev * n1, c_o)), name="w_pca"))


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

    def test_grad_mode_forward_keeps_under_two_chunks_of_products(self):
        B, T, n1, n_prev, d, c_o = 16, 2, 8, 8, 16, 2
        params = block_inputs(B, T, n1, n_prev, d, c_o, seed=7)
        chunk = 2 * 8 * T * d * n_prev * n1            # two samples of L per chunk
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

    def test_graph_after_backward_keeps_under_one_chunk_beyond_the_output(self):
        B, T, n1, n_prev, d, c_o = 16, 2, 8, 8, 16, 2
        params = block_inputs(B, T, n1, n_prev, d, c_o, seed=9)
        chunk = 2 * 8 * T * d * n_prev * n1            # two samples of L per chunk
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


def block1_step(T, noise, d):
    """Samples per cross_block chunk in the first block."""
    n1 = 2 + noise
    return max(1, crossing._CHUNK_BYTES // (8 * T * d * n1 * n1))


def assert_forward_matches_grad_mode(model, samples):
    want = model.forward(samples)
    with ad.no_grad():
        got = model.forward(samples)
    for key in ("y", "r", "p", "q"):
        np.testing.assert_array_equal(got[key].data, want[key].data)
    for g, w in zip(got["stack"].ranks, want["stack"].ranks):
        np.testing.assert_array_equal(g.data, w.data)


class TestNoGradForward:
    @settings(max_examples=40, deadline=None)
    @given(T=st.integers(1, 3), noise=st.integers(0, 2), d=st.integers(1, 4),
           widths=st.sampled_from([(2,), (3, 2)]), step=st.integers(1, 3),
           past_step=st.booleans(), seed=st.integers(0, 2**16))
    def test_bit_identical_to_grad_mode(self, T, noise, d, widths, step, past_step, seed):
        # B = 1, or one past the first block's chunk step so its last chunk is partial
        B = step + 1 if past_step else 1
        model, samples = scoring_setup(B, T, noise, d, widths, seed)
        with chunk_bytes(8 * T * d * (2 + noise) ** 2 * step):
            assert block1_step(T, noise, d) == step
            assert_forward_matches_grad_mode(model, samples)

    def test_bit_identical_past_the_default_chunk_step(self):
        B = block1_step(T=2, noise=2, d=8) + 1
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
