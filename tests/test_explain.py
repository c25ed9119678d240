import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossnet.crossing import CrossingBlock, make_blocks
from crossnet.data import FeatureField
from crossnet.explain import (IndividualExplanation, backtrack_patterns,
                              channel_pattern_names, emit_reports, heatmap_svg,
                              individual_explanation)


def schema_of(n):
    return [FeatureField(f"f{i}", "numerical") for i in range(n)]


def block_with(W, n1, T=1, rank=2, n_prev=None):
    W = np.asarray(W, dtype=float)
    n_prev = n_prev if n_prev is not None else W.shape[0] // n1
    block = CrossingBlock(rank, n1, n_prev, W.shape[1], T, np.random.default_rng(0))
    block.w_pca.data = W
    return block


def extract_nonzero(w_pca, epsilon):
    """(input_channel, output_channel, weight) triples with |weight| > epsilon."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    w = np.asarray(w_pca)
    ci, co = np.nonzero(np.abs(w) > epsilon)
    return {(int(c), int(o), float(w[c, o])) for c, o in zip(ci, co)}


class TestExtractNonzero:
    def test_threshold(self):
        W = np.array([[0.5, 0.0], [1e-6, 0.2]])
        assert extract_nonzero(W, 1e-4) == {(0, 0, 0.5), (1, 1, 0.2)}

    def test_all_zero(self):
        assert extract_nonzero(np.zeros((3, 2)), 1e-4) == set()

    def test_epsilon_above_max(self):
        assert extract_nonzero(np.array([[0.1]]), 0.5) == set()

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            extract_nonzero(np.zeros((2, 2)), 0.0)


class TestBacktrackPatterns:
    def test_single_path(self):
        # 2 raw fields, one rank-2 block; only channel (m=0 -> f0, k=1 -> f1) kept
        W = np.zeros((4, 1))
        W[0 * 2 + 1, 0] = 0.8
        patterns = backtrack_patterns([block_with(W, 2)], schema_of(2), 1e-4)
        rank2 = [p for p in patterns if p.rank == 2]
        assert len(rank2) == 1
        assert rank2[0].features == ("f0", "f1")
        assert rank2[0].weight == pytest.approx(1.0)

    def test_normalization_arithmetic(self):
        # (f0,f0) with weight 0.3 and (f0,f1) with 0.1 -> 0.75 / 0.25
        W = np.zeros((4, 2))
        W[0 * 2 + 0, 0] = 0.3
        W[0 * 2 + 1, 1] = 0.1
        patterns = backtrack_patterns([block_with(W, 2)], schema_of(2), 1e-4)
        by_feat = {p.features: p.weight for p in patterns if p.rank == 2}
        assert by_feat[("f0", "f0")] == pytest.approx(0.75)
        assert by_feat[("f0", "f1")] == pytest.approx(0.25)

    def test_rank1_weights_from_argument(self):
        patterns = backtrack_patterns([], schema_of(2), 1e-4,
                                      rank1_weights=[0.9, 0.1])
        by_feat = {p.features: p.weight for p in patterns}
        assert by_feat[("f0",)] == pytest.approx(0.9)
        assert by_feat[("f1",)] == pytest.approx(0.1)

    def test_multiset_keeps_multiplicity(self):
        W = np.zeros((4, 1))
        W[1 * 2 + 1, 0] = 0.5   # parent channel 1 (= f1) crossed with f1
        patterns = backtrack_patterns([block_with(W, 2)], schema_of(2), 1e-4)
        rank2 = [p for p in patterns if p.rank == 2]
        assert rank2[0].features == ("f1", "f1")


def enumerate_paths(blocks, n1, epsilon):
    """Independent oracle: explicit enumeration of every weight path."""
    per_rank = []
    # rank 1: raw channels
    chains = {m: {(m,): 1.0} for m in range(n1)}
    per_rank.append(chains)
    for block in blocks:
        prev = per_rank[-1]
        cur = {o: {} for o in range(block.c_o)}
        W = block.w_pca.data
        for m in prev:
            for k in range(n1):
                for o in range(block.c_o):
                    w = abs(W[m * n1 + k, o])
                    if w <= epsilon:
                        continue
                    for multiset, pw in prev[m].items():
                        key = tuple(sorted(multiset + (k,)))
                        cur[o][key] = cur[o].get(key, 0.0) + pw * w
        per_rank.append(cur)
    # aggregate per rank, normalized
    out = []
    for rank, channels in enumerate(per_rank, start=1):
        agg = {}
        for d in channels.values():
            for key, w in d.items():
                agg[key] = agg.get(key, 0.0) + w
        total = sum(agg.values())
        out.append({k: (v / total if total else 0.0) for k, v in agg.items()})
    return out


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(20))
    def test_three_rank_toy_nets(self, seed):
        rng = np.random.default_rng(seed)
        n1 = int(rng.integers(2, 4))
        w2 = int(rng.integers(2, 5))
        w3 = int(rng.integers(2, 4))
        assert n1 * n1 * w2 <= 64 and n1 * w2 * w3 <= 64
        blocks = make_blocks(n1, [w2, w3], 2, rng)
        for b in blocks:
            mask = rng.uniform(size=b.w_pca.shape) < 0.5
            b.w_pca.data = np.where(mask, rng.normal(size=b.w_pca.shape), 0.0)
        eps = 1e-4
        schema = schema_of(n1)
        got = backtrack_patterns(blocks, schema, eps)
        expected = enumerate_paths(blocks, n1, eps)
        for rank in (2, 3):
            got_rank = {p.features: p.weight for p in got if p.rank == rank}
            exp_rank = {tuple(f"f{i}" for i in key): w
                        for key, w in expected[rank - 1].items()}
            assert set(got_rank) == set(exp_rank)
            for key, w in exp_rank.items():
                assert got_rank[key] == pytest.approx(w, abs=1e-9)


class TestIndividualExplanation:
    def test_tie_break(self):
        expl, E = individual_explanation([0.5, 0.5], [1.0], [0.2, 0.8], 1, 1)
        assert expl.entries == [(0, 0, "ch0", pytest.approx(0.4))]

    def test_uniform_cells(self):
        N, T = 4, 3
        expl, E = individual_explanation(np.full(N, 1 / N), np.full(T, 1 / T),
                                         [0.3, 0.7], 1, K=N * T)
        np.testing.assert_allclose(E, 0.7 / (N * T))
        assert len(expl.entries) == N * T

    def test_k_clipped(self):
        expl, _ = individual_explanation([1.0], [1.0], [1.0], 0, K=10)
        assert len(expl.entries) == 1

    def test_sorted_descending_with_tie_order(self):
        p = np.array([0.25, 0.5, 0.25])
        q = np.array([0.5, 0.5])
        expl, _ = individual_explanation(p, q, [1.0], 0, K=6)
        scores = [e[3] for e in expl.entries]
        assert scores == sorted(scores, reverse=True)
        assert [(e[0], e[1]) for e in expl.entries[:2]] == [(0, 1), (1, 1)]

    def test_rank_one_structure(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(4))
        _, E = individual_explanation(p, q, [0.4, 0.6], 1, 3)
        for t1 in range(3):
            for t2 in range(t1 + 1, 4):
                for i1 in range(4):
                    for i2 in range(i1 + 1, 5):
                        minor = E[t1, i1] * E[t2, i2] - E[t1, i2] * E[t2, i1]
                        assert abs(minor) <= 1e-9

    def test_scale_invariance_of_selection(self):
        rng = np.random.default_rng(2)
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(3))
        e1, _ = individual_explanation(p, q, [0.5, 0.5], 0, 5)
        e2, _ = individual_explanation(p, q, [0.05, 0.95], 0, 5)
        assert [(e[0], e[1]) for e in e1.entries] == [(e[0], e[1]) for e in e2.entries]


def reference_individual_explanation(p, q, r, predicted_class, K, pattern_names=None):
    """The per-cell sort that ``individual_explanation`` replaced."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    scale = float(np.asarray(r).reshape(-1)[predicted_class])
    E = scale * np.outer(q, p)
    T, N = E.shape
    K = min(K, T * N)
    cells = [(t, i) for t in range(T) for i in range(N)]
    cells.sort(key=lambda ti: (-E[ti], ti[0], ti[1]))
    entries = []
    for t, i in cells[:K]:
        name = pattern_names[i] if pattern_names else f"ch{i}"
        entries.append((t, i, name, float(E[t, i])))
    return IndividualExplanation(entries=entries), E


def reference_heatmap_svg(E, cell=20):
    """The per-cell rounding that ``heatmap_svg`` replaced."""
    E = np.asarray(E, dtype=np.float64)
    lo, hi = E.min(), E.max()
    norm = np.ones_like(E) if hi == lo else (E - lo) / (hi - lo)
    T, N = E.shape
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{N * cell}" height="{T * cell}">']
    for t in range(T):
        for i in range(N):
            g = int(round(255 * (1.0 - norm[t, i])))
            lines.append(f'<rect x="{i * cell}" y="{t * cell}" width="{cell}" '
                         f'height="{cell}" fill="rgb({g},{g},{g})"/>')
    lines.append("</svg>")
    return "\n".join(lines)


# few distinct values make ties; k / 510 puts gray levels on exact halves
_RANDOM = st.floats(0.0, 1.0)
_TIED = st.sampled_from([0.0, 0.25, 0.5, 1.0])
_HALVES = st.integers(0, 510).map(lambda k: k / 510)


@st.composite
def _vectors(draw, values):
    T, N = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    return (draw(st.lists(values, min_size=N, max_size=N)),
            draw(st.lists(values, min_size=T, max_size=T)))


class TestReportsMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(_vectors(_RANDOM | _TIED), st.floats(-2.0, 2.0), st.integers(1, 50),
           st.booleans())
    def test_individual_explanation(self, pq, scale, K, named):
        p, q = pq
        names = [f"pat{i}" for i in range(len(p))] if named else None
        got, E = individual_explanation(p, q, [0.1, scale], 1, K, pattern_names=names)
        want, E_ref = reference_individual_explanation(p, q, [0.1, scale], 1, K,
                                                       pattern_names=names)
        assert got.entries == want.entries
        assert np.array_equal(E, E_ref)

    @settings(max_examples=200, deadline=None)
    @given(_vectors(_RANDOM | _TIED | _HALVES), st.sampled_from([1, 20]))
    def test_heatmap_svg(self, pq, cell):
        p, q = pq
        E = np.outer(q, p)
        assert heatmap_svg(E, cell) == reference_heatmap_svg(E, cell)

    def test_heatmap_rounds_halves_to_even(self):
        E = np.array([[0.0, 1 / 510, 3 / 510, 1.0]])   # 254.5, 253.5
        svg = heatmap_svg(E)
        assert svg == reference_heatmap_svg(E)
        assert svg.count('rgb(254,254,254)') == 2


class TestChannelPatternNames:
    def test_rank1_names_and_dominant_pattern(self):
        W = np.zeros((4, 2))
        W[0 * 2 + 1, 0] = 0.9   # f0 x f1 dominates channel 0
        W[0 * 2 + 0, 0] = 0.1
        names = channel_pattern_names([block_with(W, 2)], schema_of(2), 1e-4)
        assert names[:2] == ["f0", "f1"]
        assert names[2] == "f0,f1"

    def test_empty_channel_fallback(self):
        W = np.zeros((4, 1))
        names = channel_pattern_names([block_with(W, 2)], schema_of(2), 1e-4)
        assert names[2] == "rank2_ch0"


class TestEmitReports:
    def test_empty_patterns_header_only(self, tmp_path):
        emit_reports([], {}, tmp_path)
        rows = list(csv.reader(open(tmp_path / "patterns.csv")))
        assert rows == [["rank", "pattern", "weight"]]

    def test_pattern_formatting(self, tmp_path):
        patterns = backtrack_patterns([], schema_of(2), 1e-4,
                                      rank1_weights=[0.5, 0.5])
        emit_reports(patterns, {}, tmp_path)
        rows = list(csv.reader(open(tmp_path / "patterns.csv")))
        assert rows[1][:2] == ["1", "f0"]

    def test_per_entity_files(self, tmp_path):
        expl, E = individual_explanation([0.5, 0.5], [1.0], [1.0], 0, 2)
        written = emit_reports([], {"acme": (expl, E)}, tmp_path)
        assert (tmp_path / "explain_acme.csv").exists()
        assert (tmp_path / "heatmap_acme.svg").exists()
        rows = list(csv.reader(open(tmp_path / "explain_acme.csv")))
        assert rows[0] == ["time", "channel", "pattern", "score"]
        assert len(rows) == 3

    def test_no_patterns_file_without_patterns(self, tmp_path):
        expl, E = individual_explanation([0.5, 0.5], [1.0], [1.0], 0, 2)
        written = emit_reports(None, {"acme": (expl, E)}, tmp_path)
        assert written == [tmp_path / "explain_acme.csv", tmp_path / "heatmap_acme.svg"]
        assert sorted(tmp_path.iterdir()) == sorted(written)

    @pytest.mark.parametrize("bad", ["a/b", "..", ".", "", "a\\b", "x/../../escaped"])
    def test_entity_id_must_be_a_plain_file_name(self, tmp_path, bad):
        expl, E = individual_explanation([0.5, 0.5], [1.0], [1.0], 0, 2)
        out = tmp_path / "out"
        (out / "explain_x").mkdir(parents=True)   # would let "x/../../escaped" out
        with pytest.raises(ValueError, match="not a plain file name"):
            emit_reports([], {"acme": (expl, E), bad: (expl, E)}, out)
        assert [p.name for p in out.iterdir()] == ["explain_x"]
        assert list(tmp_path.iterdir()) == [out]

    def test_single_cell_heatmap_full_intensity(self):
        svg = heatmap_svg(np.array([[0.37]]))
        assert 'fill="rgb(0,0,0)"' in svg

    def test_heatmap_grayscale_range(self):
        svg = heatmap_svg(np.array([[0.0, 1.0]]))
        assert 'fill="rgb(255,255,255)"' in svg
        assert 'fill="rgb(0,0,0)"' in svg
