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

    def channel_parents(self, channel):
        """Pre-mixing channel index -> (m, k) parent pair."""
        return divmod(channel, self.n1)


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


# samples per cross_block chunk are chosen so one chunk of L stays in cache
_CHUNK_BYTES = 1 << 20


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


def cross_block(X1, Xprev, a, w_pca):
    """``pca_select(residual_scale(cross_product(X1, Xprev), a), w_pca)`` as one node.

    X1 [B, T, n1, d], Xprev [B, T, n_prev, d], a [B, n_prev, n1] and
    w_pca [n_prev*n1, c_o] give [B, T, c_o, d]. The work is done channel-last,
    on rows r = (t, d) by crossed channels c = m*n1 + k. ``a`` is a softmax,
    so 1 + a > 0 and lrelu((1+a)·x) = (1+a)·lrelu(x): the attention scale folds
    into a per-sample weight W_b = diag(1 + a_b)·w_pca, and the block is
    L = lrelu(Xprev_m ⊙ X1_k) followed by the GEMM L_b W_b, with lrelu'(0) = 0.1
    as in ``ad.leaky_relu``. Samples are taken in chunks of about
    ``_CHUNK_BYTES`` of L, so each pass over a chunk runs from cache, and L is
    never held whole: each chunk is written to one reused scratch buffer, and
    backward recomputes it there with the same operations, so bit for bit.
    """
    B, T, n1, d = X1.shape
    n_prev = Xprev.shape[2]
    c_i, c_o = w_pca.shape
    if Xprev.shape != (B, T, n_prev, d) or a.shape != (B, n_prev, n1) or c_i != n_prev * n1:
        raise ad.ShapeError(f"cross_block shapes disagree: X1 {X1.shape}, Xprev {Xprev.shape}, "
                            f"a {a.shape}, w_pca {w_pca.shape}")
    R = T * d
    x1 = np.ascontiguousarray(X1.data.transpose(0, 1, 3, 2)).reshape(B, R, n1)
    xp = np.ascontiguousarray(Xprev.data.transpose(0, 1, 3, 2)).reshape(B, R, n_prev)
    scale = 1.0 + a.data.reshape(B, c_i, 1)
    W_b = scale * w_pca.data                                   # [B, c_i, c_o]
    step = max(1, _CHUNK_BYTES // (8 * R * c_i))
    chunks = [slice(s, min(s + step, B)) for s in range(0, B, step)]
    L = np.empty((min(step, B), R, n_prev, n1))
    mixed = np.empty((B, R, c_o))
    tmp = np.empty_like(L)      # after the output: freed on return, it leaves no heap hole
    for cs in chunks:
        np.matmul(_lrelu_cross(xp[cs], x1[cs], L, tmp), W_b[cs], out=mixed[cs])
    out = ad.Tensor(mixed.reshape(B, T, d, c_o).transpose(0, 1, 3, 2), (X1, Xprev, a, w_pca))
    if not ad.grad_enabled():
        return out

    def _bw(g, acc):
        Gt = np.ascontiguousarray(g.transpose(0, 2, 1, 3)).reshape(B, c_o, R)
        Mt = np.empty((B, c_o, c_i))                           # M_b = L_bᵀ G_b, transposed
        dxp = np.empty((B, R, n_prev, 1))
        dx1 = np.empty((B, R, 1, n1))
        dP = np.empty((min(step, B), R, c_i))
        slope = np.empty_like(dP)
        for cs in chunks:
            Lc = _lrelu_cross(xp[cs], x1[cs], L, slope)
            n = Lc.shape[0]
            np.matmul(Gt[cs], Lc, out=Mt[cs])
            np.matmul(Gt[cs].transpose(0, 2, 1), W_b[cs].transpose(0, 2, 1), out=dP[:n])
            np.greater(Lc, 0.0, out=slope[:n])                 # lrelu' = 0.1 + 0.9·[L > 0]
            slope[:n] *= 0.9
            slope[:n] += 0.1
            dP[:n] *= slope[:n]
            dPc = dP[:n].reshape(n, R, n_prev, n1)
            np.matmul(dPc, x1[cs, :, :, None], out=dxp[cs])
            np.matmul(xp[cs, :, None, :], dPc, out=dx1[cs])
        M = Mt.transpose(0, 2, 1)
        acc(w_pca, (scale * M).sum(axis=0))
        acc(a, (M * w_pca.data).sum(axis=2).reshape(B, n_prev, n1))
        acc(Xprev, dxp.reshape(B, T, d, n_prev).transpose(0, 1, 3, 2))
        acc(X1, dx1.reshape(B, T, d, n1).transpose(0, 1, 3, 2))

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
