"""Stacked attentive feature-crossing blocks with lasso-pruned channel mixing.

Each block crosses the first-rank tensor with the previous rank's output
(pairwise Hadamard products of embedding vectors), scales each crossed
channel by an attention coefficient through a residual leaky-ReLU, and
mixes channels with a lasso-regularized selection matrix. Stacking blocks
yields the multi-rank concatenation used downstream.

``run_stack`` does the cross, scale and mix of a block in one fused node,
``cross_block``; ``cross_product``, ``residual_scale`` and ``pca_select`` are
the same steps as separate tensor ops, kept as its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Param


class CrossingBlock:
    """Parameters for producing rank-``rank`` features (rank >= 2)."""

    def __init__(self, rank, n1, n_prev, c_o, T, rng):
        self.rank = rank
        self.n1 = n1
        self.n_prev = n_prev
        self.c_i = n1 * n_prev
        self.c_o = c_o
        bound = 1.0 / np.sqrt(self.c_i)
        self.w_query = Param(np.full(T, 1.0 / T), name=f"cross{rank}.w_query")
        self.w_key = Param(np.full(T, 1.0 / T), name=f"cross{rank}.w_key")
        self.w_pca = Param(rng.uniform(-bound, bound, size=(self.c_i, c_o)),
                           name=f"cross{rank}.w_pca")

    def params(self):
        return [self.w_query, self.w_key, self.w_pca]


@dataclass
class RankStack:
    """All per-rank outputs of a crossing stack for one forward pass."""
    ranks: list          # rank i -> Tensor [B, T, n_i, d], index 0 is rank 1
    attentions: list     # per block: Tensor [B, n_prev, n1]
    x_tilde: "ad.Tensor"  # [B, T, N, d]
    widths: list         # [n_1, n_2, ..., n_l]


def temporal_aggregate(X, w):
    """Collapse the time axis with weights w: out[..., m, :] = sum_t w[t] X[..., t, m, :]."""
    T = w.shape[0]
    return ad.tsum(ad.mul(X, ad.reshape(w, (T, 1, 1))), axis=-3)


def cross_product(X1, Xprev):
    """All pairwise Hadamard products; channel (m*n1 + k) = Xprev[m] * X1[k].

    Accepts [..., n, d] tensors with matching leading axes.
    """
    n1 = X1.shape[-2]
    n_prev = Xprev.shape[-2]
    d = X1.shape[-1]
    lead = X1.shape[:-2]
    a = ad.reshape(Xprev, lead + (n_prev, 1, d))
    b = ad.reshape(X1, lead + (1, n1, d))
    return ad.reshape(ad.mul(a, b), lead + (n_prev * n1, d))


def cross_attention(X1, Xprev, block):
    """Key-value attention between rank-1 and previous-rank features.

    Queries/keys are temporal aggregates; scores are inner products; each
    column k is softmax-normalized over the previous-rank features m.
    Returns [B, n_prev, n1].
    """
    Q = temporal_aggregate(Xprev, block.w_query)   # [B, n_prev, d]
    K = temporal_aggregate(X1, block.w_key)        # [B, n1, d]
    scores = ad.matmul(Q, ad.transpose(K, (0, 2, 1)))  # [B, n_prev, n1]
    return ad.softmax(scores, axis=-2)


def residual_scale(crossed, a):
    """leaky_relu((1 + a_{m,k}) * x) per channel, slope 0.1."""
    B = crossed.shape[0]
    c_i = crossed.shape[2]
    factor = ad.add(ad.reshape(a, (B, 1, c_i, 1)), 1.0)
    return ad.leaky_relu(ad.mul(crossed, factor))


def pca_select(crossed, w_pca):
    """Channel mixing shared across time and embedding dims."""
    swapped = ad.transpose(crossed, (0, 1, 3, 2))      # [B, T, d, c_i]
    mixed = ad.matmul(swapped, w_pca)                   # [B, T, d, c_o]
    return ad.transpose(mixed, (0, 1, 3, 2))


# each loop of cross_block takes samples in chunks that touch about this many
# bytes, so every pass over a chunk runs from cache
_CHUNK_BYTES = 1 << 20
# blocks with at least this many crossed channels n_prev·n1 run the sign-split
# forward; below it, building L is faster (measured: they meet near 100)
_SPLIT_CHANNELS = 128


def _chunk_step(*sizes):
    """Samples per chunk of a loop whose arrays hold ``sizes`` float64s per sample."""
    return max(1, _CHUNK_BYTES // (8 * sum(sizes)))


def _chunk_buffers(B, *shapes):
    """Samples per chunk of a loop over B samples whose per-sample buffers have
    ``shapes``, sized by ``_chunk_step``, and one chunk's buffer of each shape."""
    step = _chunk_step(*(math.prod(shape) for shape in shapes))
    return step, [np.empty((min(step, B),) + shape) for shape in shapes]


def _lrelu_cross(xp, x1, L, tmp):
    """lrelu(xp_m ⊙ x1_k) for [n, R, n_prev] and [n, R, n1], as [n, R, n_prev*n1].

    It is written to the front of the chunk buffer L, with ``tmp`` (as large
    as L) for scratch: a fresh megabyte per chunk would page-fault.
    """
    n, R, _ = xp.shape
    Lc = L[:n]
    scaled = tmp.reshape(L.shape)[:n]
    np.einsum("brm,brk->brmk", xp, x1, out=Lc)
    np.multiply(Lc, 0.1, out=scaled)
    np.maximum(Lc, scaled, out=Lc)
    return Lc.reshape(n, R, -1)


def _sign_split_mix(xp, x1, scale, w_pca):
    """L_b W_b of ``cross_block`` without building L or W_b, as [B, R, c_o].

    lrelu(x·y) = max(x, 0)·lrelu(y) + min(x, 0)·min(y, 0.1·y), so with
    F = [lrelu(x1); min(x1, 0.1·x1)] and P = [max(xp, 0); min(xp, 0)] stacked
    per row, mixed[r, o] = Σ_(s,m) P[r, s, m] · (F W)[r, s, m, o], where
    W[k, (m, o)] = (1 + a_mk)·w_pca[m·n1 + k, o]. Each chunk of samples is one
    batched GEMM of F against W and one row-wise contraction with P.
    """
    B, R, n_prev = xp.shape
    n1 = x1.shape[2]
    c_o = w_pca.shape[1]
    w = w_pca.reshape(n_prev, n1, c_o).transpose(1, 0, 2)          # [n1, n_prev, c_o]
    s = scale.reshape(B, n_prev, n1, 1).transpose(0, 2, 1, 3)      # [B, n1, n_prev, 1]
    step, (W, F, P, FW) = _chunk_buffers(B, (n1, n_prev, c_o), (R, 2, n1), (R, 2, n_prev),
                                         (R, 2 * n_prev, c_o))
    mixed = np.empty((B, R, 1, c_o))
    for start in range(0, B, step):
        cs = slice(start, min(start + step, B))
        n = cs.stop - start
        np.multiply(s[cs], w, out=W[:n])
        np.multiply(x1[cs], 0.1, out=F[:n, :, 1])
        np.maximum(x1[cs], F[:n, :, 1], out=F[:n, :, 0])
        np.minimum(x1[cs], F[:n, :, 1], out=F[:n, :, 1])
        np.maximum(xp[cs], 0.0, out=P[:n, :, 0])
        np.minimum(xp[cs], 0.0, out=P[:n, :, 1])
        np.matmul(F[:n].reshape(n, 2 * R, n1), W[:n].reshape(n, n1, n_prev * c_o),
                  out=FW[:n].reshape(n, 2 * R, n_prev * c_o))
        np.matmul(P[:n].reshape(n, R, 1, 2 * n_prev), FW[:n], out=mixed[cs])
    return mixed.reshape(B, R, c_o)


def _sign_split_grad(Gt, x, scale, w_pca):
    """Backward of ``cross_block(X, X, a, w_pca)`` without building L or dP.

    Gt [B, c_o, R] is the upstream gradient and x [B, R, n] the input.
    Returns the gradients of w_pca, of a and of X as [B, R, n].
    With P and F as in ``_sign_split_mix``, L[m, k] = Σ_s P[s, m] F[s, k], and
    F = A P for A = [[1, 0.1], [0.1, 1]], so L = Pᵀ A P is symmetric. So with
    Z = G ⊗ P, as [2R, c_o·n], the GEMM Zᵀ F is M = Lᵀ G, as [c_o·n, n], and
    the GEMM D = Z (W_b + W_b with m and k swapped) gives
    dX = (0.1 + 0.9·[x > 0])·D_0 + (0.1 + 0.9·[x < 0])·D_1, which keeps
    lrelu'(0) = 0.1. Each chunk of samples is the two GEMMs. The w_pca
    gradient adds the samples' terms in order, so no sum depends on the
    chunks.
    """
    B, R, n = x.shape
    c_o = w_pca.shape[1]
    G = Gt.transpose(0, 2, 1)
    w = np.ascontiguousarray(w_pca.T).reshape(c_o, n, n)          # [c_o, m, k]
    s = scale.reshape(B, 1, n, n)
    # P is then the slopes of F, and W is W_b, then M ⊙ w
    step, (Z, P, F, D, W, Ws, M) = _chunk_buffers(B, (2, R, c_o, n), (2, R, n), (2, R, n),
                                                  (2, R, n), (c_o, n, n), (c_o, n, n), (c_o, n, n))
    dw = np.zeros((c_o, n, n))
    da = np.empty((B, n, n))
    dx = np.empty((B, R, n))
    for start in range(0, B, step):
        cs = slice(start, min(start + step, B))
        b = cs.stop - start
        xc = x[cs]
        np.maximum(xc, 0.0, out=P[:b, 0])
        np.minimum(xc, 0.0, out=P[:b, 1])
        np.multiply(xc, 0.1, out=F[:b, 1])
        np.maximum(xc, F[:b, 1], out=F[:b, 0])
        np.minimum(xc, F[:b, 1], out=F[:b, 1])
        np.multiply(G[cs, None, :, :, None], P[:b, :, :, None, :], out=Z[:b])
        Zc = Z[:b].reshape(b, 2 * R, c_o * n)
        np.matmul(Zc.transpose(0, 2, 1), F[:b].reshape(b, 2 * R, n),
                  out=M[:b].reshape(b, c_o * n, n))
        np.multiply(s[cs], w, out=W[:b])
        np.add(W[:b], W[:b].transpose(0, 1, 3, 2), out=Ws[:b])
        np.matmul(Zc, Ws[:b].reshape(b, c_o * n, n), out=D[:b].reshape(b, 2 * R, n))
        np.greater(xc, 0.0, out=P[:b, 0])
        np.less(xc, 0.0, out=P[:b, 1])
        P[:b] *= 0.9
        P[:b] += 0.1
        D[:b] *= P[:b]
        np.add(D[:b, 0], D[:b, 1], out=dx[cs])
        np.multiply(M[:b], w, out=W[:b])
        np.sum(W[:b], axis=1, out=da[cs])
        M[:b] *= s[cs]
        for Mb in M[:b]:
            dw += Mb
    return dw.reshape(c_o, n * n).T, da, dx


def cross_block(X1, Xprev, a, w_pca):
    """``pca_select(residual_scale(cross_product(X1, Xprev), a), w_pca)`` as one node.

    X1 [B, T, n1, d], Xprev [B, T, n_prev, d], a [B, n_prev, n1] and
    w_pca [n_prev*n1, c_o] give [B, T, c_o, d], worked channel-last on rows
    r = (t, d) by crossed channels c = m*n1 + k, with lrelu'(0) = 0.1 as in
    ``ad.leaky_relu``. ``a`` is a softmax, so 1 + a > 0, and the attention
    scale folds into a per-sample weight W_b = diag(1 + a_b)·w_pca.

    The forward kernel depends on the shape alone, so a forward under
    ``no_grad`` gives the same bits as one in grad mode: below
    ``_SPLIT_CHANNELS`` crossed channels it builds L = lrelu(Xprev_m ⊙ X1_k)
    a chunk at a time, from there on it is ``_sign_split_mix``. Backward is
    ``_sign_split_grad`` only when ``Xprev is X1``, the one tensor that
    ``run_stack`` passes to the first block, and c_i ≥ ``_SPLIT_CHANNELS``;
    equal shapes are not enough. Every other backward recomputes L in the L
    forward's chunks, bit for bit. Backward releases the saved arrays, so a
    second backward through the node raises ValueError.
    """
    B, T, n1, d = X1.shape
    n_prev = Xprev.shape[2]
    c_i, c_o = w_pca.shape
    if Xprev.shape != (B, T, n_prev, d) or a.shape != (B, n_prev, n1) or c_i != n_prev * n1:
        raise ad.ShapeError(f"cross_block shapes disagree: X1 {X1.shape}, Xprev {Xprev.shape}, "
                            f"a {a.shape}, w_pca {w_pca.shape}")
    R = T * d
    x1 = np.ascontiguousarray(X1.data.transpose(0, 1, 3, 2)).reshape(B, R, n1)
    xp = x1 if Xprev is X1 else np.ascontiguousarray(
        Xprev.data.transpose(0, 1, 3, 2)).reshape(B, R, n_prev)
    scale = 1.0 + a.data.reshape(B, c_i, 1)
    step = _chunk_step(R * c_i, R * c_i)    # L and its scratch, or L and dP in backward
    chunks = [slice(s, min(s + step, B)) for s in range(0, B, step)]
    W_b = L = None              # chunk buffers of W_b and L: the L forward's, or backward's
    if c_i < _SPLIT_CHANNELS:
        mixed = np.empty((B, R, c_o))
        W_b = np.empty((min(step, B), c_i, c_o))
        L = np.empty((min(step, B), R, n_prev, n1))
        tmp = np.empty_like(L)  # after the output: freed on return, it leaves no heap hole
        for cs in chunks:
            Lc = _lrelu_cross(xp[cs], x1[cs], L, tmp)
            Wc = np.multiply(scale[cs], w_pca.data, out=W_b[:Lc.shape[0]])
            np.matmul(Lc, Wc, out=mixed[cs])
    else:
        mixed = _sign_split_mix(xp, x1, scale, w_pca.data)
    out = ad.Tensor(mixed.reshape(B, T, d, c_o).transpose(0, 1, 3, 2), (X1, Xprev, a, w_pca))
    if not ad.grad_enabled():
        return out

    def _bw(g, acc):
        nonlocal xp, x1, W_b, scale, L
        if xp is None:
            raise ValueError("cross_block's backward already ran on this graph, "
                             "and its saved arrays are freed")
        Gt = np.ascontiguousarray(g.transpose(0, 2, 1, 3)).reshape(B, c_o, R)
        if Xprev is X1 and c_i >= _SPLIT_CHANNELS:
            dw, da, dx1 = _sign_split_grad(Gt, x1, scale, w_pca.data)
        else:
            Mt = np.empty((B, c_o, c_i))                       # M_b = L_bᵀ G_b, transposed
            dxp = np.empty((B, R, n_prev, 1))
            dx1 = np.empty((B, R, 1, n1))
            if L is None:
                W_b = np.empty((min(step, B), c_i, c_o))
                L = np.empty((min(step, B), R, n_prev, n1))    # L, then lrelu'
            dP = np.empty((min(step, B), R, c_i))              # lrelu scratch, then dP
            for cs in chunks:
                Lc = _lrelu_cross(xp[cs], x1[cs], L, dP)
                n = Lc.shape[0]
                np.matmul(Gt[cs], Lc, out=Mt[cs])
                np.multiply(scale[cs], w_pca.data, out=W_b[:n])
                np.matmul(Gt[cs].transpose(0, 2, 1), W_b[:n].transpose(0, 2, 1), out=dP[:n])
                np.greater(Lc, 0.0, out=Lc)                    # lrelu' = 0.1 + 0.9·[L > 0]
                Lc *= 0.9
                Lc += 0.1
                dP[:n] *= Lc
                dPc = dP[:n].reshape(n, R, n_prev, n1)
                np.matmul(dPc, x1[cs, :, :, None], out=dxp[cs])
                np.matmul(xp[cs, :, None, :], dPc, out=dx1[cs])
            acc(Xprev, dxp.reshape(B, T, d, n_prev).transpose(0, 1, 3, 2))
            M = Mt.transpose(0, 2, 1)
            dw, da = (scale * M).sum(axis=0), (M * w_pca.data).sum(axis=2)
        acc(w_pca, dw)
        acc(a, da.reshape(B, n_prev, n1))
        acc(X1, dx1.reshape(B, T, d, n1).transpose(0, 1, 3, 2))
        # the graph can outlive this call, waiting for the cyclic collector
        xp = x1 = W_b = scale = L = None

    out._backward = _bw
    return out


def lasso_penalty(blocks):
    """Sum of absolute selection weights over all blocks (sign subgradient)."""
    terms = [ad.tsum(ad.absolute(b.w_pca)) for b in blocks]
    if not terms:
        return ad.Tensor(0.0)
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return total


def make_blocks(n1, rank_widths, T, rng):
    """One block per entry of rank_widths; widths are the c_o channel counts."""
    blocks = []
    n_prev = n1
    for i, c_o in enumerate(rank_widths):
        blocks.append(CrossingBlock(i + 2, n1, n_prev, c_o, T, rng))
        n_prev = c_o
    return blocks


def run_stack(X1, blocks):
    """Run all crossing blocks and concatenate the ranks along the feature axis."""
    ranks = [X1]
    attentions = []
    widths = [X1.shape[2]]
    prev = X1
    for block in blocks:
        if block.n_prev != prev.shape[2] or block.n1 != X1.shape[2]:
            raise ad.ShapeError(
                f"block for rank {block.rank} expects ({block.n_prev}, {block.n1}) "
                f"inputs, got ({prev.shape[2]}, {X1.shape[2]})")
        a = cross_attention(X1, prev, block)
        out = cross_block(X1, prev, a, block.w_pca)
        ranks.append(out)
        attentions.append(a)
        widths.append(block.c_o)
        prev = out
    x_tilde = ranks[0] if len(ranks) == 1 else ad.concat(ranks, axis=2)
    return RankStack(ranks=ranks, attentions=attentions, x_tilde=x_tilde, widths=widths)
