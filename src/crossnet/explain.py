"""Static and per-sample explanations backtracked from the trained model.

Static patterns: the selection ("PCA") layers are backtracked once, through
their above-threshold weights down to raw fields, into one array per rank of
path weights per (field multiset, channel); a rank's patterns are its row
sums, normalized, and a channel's name is its column's largest multiset.
Per-sample: the feature/temporal attention vectors and the predicted-class
score factor into a T x N importance matrix whose top-K cells are reported.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import write_rows

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CombinationPattern:
    rank: int
    features: tuple   # raw field names, sorted by field index, with multiplicity
    weight: float


@dataclass
class IndividualExplanation:
    entries: list     # (time_index, channel_index, pattern_str, score), score desc


def check_selection_weights(blocks):
    """Raise ValueError naming the first selection matrix with a non-finite entry:
    backtracking would turn an infinity into NaN weights and a NaN into a pruned path."""
    for block in blocks:
        if not np.isfinite(block.w_pca.data).all():
            raise ValueError(f"{block.w_pca.name} holds a non-finite selection weight")


def path_weights(blocks, n1, epsilon):
    """Per rank, ``(multisets, weights)``: the sorted rows of raw-field indices
    that reach the rank's channels, and a ``[multisets, channels]`` array of
    their path weights. Rank 1 is the raw fields with weight 1; a rank-i
    channel o sums |W[c, o]| * parent weight over every above-threshold entry
    c = m * n1 + k, extending each multiset of parent channel m with field k."""
    check_selection_weights(blocks)
    per_rank = [(np.arange(n1)[:, None], np.eye(n1))]
    for block in blocks:
        parents, weights = per_rank[-1]
        w = np.abs(block.w_pca.data).reshape(block.n_prev, n1, 1, block.c_o)
        w[w <= epsilon] = 0.0
        # k-major, so that np.add.at sums each cell's terms in c = m * n1 + k order
        fields = np.repeat(np.arange(n1), len(parents))[:, None]
        children = np.sort(np.hstack([np.tile(parents, (n1, 1)), fields]), axis=1)
        multisets, index = np.unique(children, axis=0, return_inverse=True)
        summed = np.zeros((len(multisets), block.c_o))
        for m in range(block.n_prev):
            np.add.at(summed, index, (w[m] * weights[:, m, None]).reshape(-1, block.c_o))
        kept = summed.any(axis=1)
        per_rank.append((multisets[kept], summed[kept]))
    return per_rank


def backtrack_patterns(blocks, schema, epsilon, rank1_weights=None):
    """Per-rank combination patterns: each multiset's path weights summed over
    the rank's channels, normalized within the rank. Rank-1 weights come from
    ``rank1_weights`` (e.g. the feature-attention vector averaged over a data
    pass, restricted to rank-1 channels) and default to uniform.
    """
    n1 = len(schema)
    names = [f.name for f in schema]
    out = []
    for rank, (multisets, weights) in enumerate(path_weights(blocks, n1, epsilon), start=1):
        agg = np.zeros(len(multisets))
        for column in weights.T:    # channels left to right
            agg += column
        if rank == 1 and rank1_weights is not None:
            agg = np.asarray(rank1_weights, dtype=np.float64)
        agg = agg.tolist()
        total = sum(agg)
        for multiset, weight in zip(multisets.tolist(), agg):
            out.append(CombinationPattern(
                rank=rank,
                features=tuple(names[i] for i in multiset),
                weight=weight / total if total > 0 else 0.0))
    return out


def rank1_attention_weights(model, samples):
    """Average feature-attention mass on the rank-1 channels, renormalized.

    Used as the rank-1 row of the static pattern report, since raw fields
    pass through no selection layer. ``samples`` are raw, scored by
    ``Model.score``.
    """
    n1 = len(model.schema)
    acc = np.zeros(n1)
    for out in model.score(samples):
        acc += out["p"][:, :n1].sum(axis=0)
    total = acc.sum()
    return acc / total if total > 0 else np.full(n1, 1.0 / n1)


def channel_pattern_names(blocks, schema, epsilon):
    """For each of the N concatenated channels, a printable dominant pattern:
    the multiset with the largest path weight (argmax takes the first, and
    multisets are sorted, so a tie goes to the lexicographically smallest), or
    a positional name when every path is below threshold. Rank 1 is the fields.
    """
    names = [f.name for f in schema]
    out = []
    for rank, (multisets, weights) in enumerate(path_weights(blocks, len(names), epsilon), 1):
        for chan, column in enumerate(weights.T):
            if column.any():
                out.append(",".join(names[i] for i in multisets[column.argmax()]))
            else:
                out.append(f"rank{rank}_ch{chan}")
    return out


def individual_explanation(p, q, r, predicted_class, K, pattern_names=None):
    """Top-K cells of E[t, i] = r[pred] * q[t] * p[i], ties by (time, channel).

    p, q, r are plain arrays (the retained attention/score vectors for one
    sample). Returns the explanation and the full E matrix.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    scale = float(np.asarray(r).reshape(-1)[predicted_class])
    E = scale * np.outer(q, p)          # [T, N]
    T, N = E.shape
    if K > T * N:
        log.warning("K=%d exceeds T*N=%d, clipping", K, T * N)
        K = T * N
    # a stable sort of the row-major cells breaks ties by (time, channel)
    entries = []
    for flat in np.argsort(-E, axis=None, kind="stable")[:K].tolist():
        t, i = divmod(flat, N)
        name = pattern_names[i] if pattern_names else f"ch{i}"
        entries.append((t, i, name, float(E[t, i])))
    return IndividualExplanation(entries=entries), E


def emit_reports(patterns, explanations, out_dir):
    """Write patterns.csv plus explain_<id>.csv and heatmap_<id>.svg per entity.

    patterns.csv is written only when ``patterns`` is non-empty.
    ``explanations`` maps entity_id -> (IndividualExplanation, E matrix).
    Heatmap cells are min-max normalized and rendered as grayscale rects
    (a lone value maps to full intensity). Every entity id must be a plain
    file name, so nothing is written outside ``out_dir``; a bad one raises
    ValueError before any file is written.
    """
    for entity_id in explanations:
        name = str(entity_id)
        if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
            raise ValueError(f"entity id {entity_id!r} is not a plain file name")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    if patterns:
        path = out_dir / "patterns.csv"
        write_rows(path, ["rank", "pattern", "weight"],
                   ([p.rank, ",".join(p.features), f"{p.weight:.6g}"] for p in patterns))
        written.append(path)

    for entity_id, (expl, E) in explanations.items():
        path = out_dir / f"explain_{entity_id}.csv"
        write_rows(path, ["time", "channel", "pattern", "score"],
                   ([t, i, name, f"{score:.6g}"] for t, i, name, score in expl.entries))
        written.append(path)
        path = out_dir / f"heatmap_{entity_id}.svg"
        path.write_text(heatmap_svg(E), encoding="utf-8")
        written.append(path)
    return written


def heatmap_svg(E):
    """T x N grayscale grid of 20 px cells; darker means more important."""
    cell = 20
    E = np.asarray(E, dtype=np.float64)
    lo, hi = E.min(), E.max()
    norm = np.ones_like(E) if hi == lo else (E - lo) / (hi - lo)
    T, N = E.shape
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{N * cell}" height="{T * cell}">']
    # np.round rounds halves to even, as Python's round does
    gray = np.round(255 * (1.0 - norm)).astype(np.int64).tolist()
    for t, row in enumerate(gray):
        for i, g in enumerate(row):
            lines.append(f'<rect x="{i * cell}" y="{t * cell}" width="{cell}" '
                         f'height="{cell}" fill="rgb({g},{g},{g})"/>')
    lines.append("</svg>")
    return "\n".join(lines)
