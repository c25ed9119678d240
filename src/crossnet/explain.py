"""Static and per-sample explanations backtracked from the trained model.

Static patterns: every output channel of every selection ("PCA") layer is
expanded recursively through its above-threshold weights down to raw
fields, giving per-rank multisets of field names with normalized path
weights. Per-sample: the feature/temporal attention vectors and the
predicted-class score factor into a T x N importance matrix whose top-K
cells are reported with their expanded patterns.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CombinationPattern:
    rank: int
    features: tuple   # raw field names, sorted by field index, with multiplicity
    weight: float


@dataclass
class IndividualExplanation:
    entries: list     # (time_index, channel_index, pattern_str, score), score desc


def extract_nonzero(w_pca, epsilon):
    """(input_channel, output_channel, weight) triples with |weight| > epsilon."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    w = np.asarray(w_pca)
    ci, co = np.nonzero(np.abs(w) > epsilon)
    return {(int(c), int(o), float(w[c, o])) for c, o in zip(ci, co)}


def channel_multisets(blocks, n1, epsilon):
    """Per rank, per output channel: dict of raw-field-index multiset -> path weight.

    Rank 1 channels are the raw fields themselves with weight 1; a rank-i
    channel o accumulates |W[c, o]| * parent_weight over every above-threshold
    entry c = m * n1 + k, extending the parent multiset of m with field k.
    """
    per_rank = [{m: {(m,): 1.0} for m in range(n1)}]
    for block in blocks:
        prev = per_rank[-1]
        cur = {o: {} for o in range(block.c_o)}
        w = np.abs(block.w_pca.data)
        for c, o in zip(*np.nonzero(w > epsilon)):
            m, k = block.channel_parents(int(c))
            for multiset, pw in prev[m].items():
                key = tuple(sorted(multiset + (int(k),)))
                cur[int(o)][key] = cur[int(o)].get(key, 0.0) + pw * w[c, o]
        per_rank.append(cur)
    return per_rank


def backtrack_patterns(blocks, schema, epsilon, rank1_weights=None):
    """Per-rank combination patterns with weights normalized within each rank.

    Rank-1 weights come from ``rank1_weights`` (e.g. the feature-attention
    vector averaged over a data pass, restricted to rank-1 channels) and
    default to uniform.
    """
    n1 = len(schema)
    names = [f.name for f in schema]
    out = []
    for rank, channels in enumerate(channel_multisets(blocks, n1, epsilon), start=1):
        agg = {}
        if rank == 1:
            weights = (np.full(n1, 1.0 / n1) if rank1_weights is None
                       else np.asarray(rank1_weights, dtype=np.float64))
            for m in range(n1):
                agg[(m,)] = float(weights[m])
        else:
            for chan_patterns in channels.values():
                for multiset, w in chan_patterns.items():
                    agg[multiset] = agg.get(multiset, 0.0) + w
        total = sum(agg.values())
        for multiset in sorted(agg):
            weight = agg[multiset] / total if total > 0 else 0.0
            out.append(CombinationPattern(
                rank=rank,
                features=tuple(names[i] for i in multiset),
                weight=weight))
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
    """For each of the N concatenated channels, a printable dominant pattern.

    Rank-1 channels print their field name; higher-rank channels print the
    highest-weight multiset among their retained paths, falling back to a
    positional name when every path is below threshold.
    """
    names = [f.name for f in schema]
    out = []
    for rank, channels in enumerate(channel_multisets(blocks, len(schema), epsilon), start=1):
        for chan in sorted(channels):
            patterns = channels[chan]
            if not patterns:
                out.append(f"rank{rank}_ch{chan}")
                continue
            best = max(patterns.items(), key=lambda kv: (kv[1], [-i for i in kv[0]]))
            out.append(",".join(names[i] for i in best[0]))
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

    ``patterns`` of None writes no patterns.csv (an empty list writes its
    header). ``explanations`` maps entity_id -> (IndividualExplanation, E matrix).
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

    if patterns is not None:
        path = out_dir / "patterns.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rank", "pattern", "weight"])
            for pat in patterns:
                writer.writerow([pat.rank, ",".join(pat.features), f"{pat.weight:.6g}"])
        written.append(path)

    for entity_id, (expl, E) in explanations.items():
        path = out_dir / f"explain_{entity_id}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "channel", "pattern", "score"])
            for t, i, name, score in expl.entries:
                writer.writerow([t, i, name, f"{score:.6g}"])
        written.append(path)
        path = out_dir / f"heatmap_{entity_id}.svg"
        path.write_text(heatmap_svg(E), encoding="utf-8")
        written.append(path)
    return written


def heatmap_svg(E, cell=20):
    """T x N grayscale grid; darker means more important."""
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
