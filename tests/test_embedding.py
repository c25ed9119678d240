import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossnet import autodiff as ad
from crossnet.autodiff import Tensor
from crossnet.data import EncodedBatch, FeatureField, SequencedSample, encode
from crossnet.embedding import EmbeddingLayer

from test_data import _NAMES, normalize_ref

# the numerical fields below have mean 0 and std 1, so encode keeps their values


def make_schema():
    return [
        FeatureField("cat", "categorical", vocab=["a", "b"]),
        FeatureField("num1", "numerical", mean=0.0, std=1.0),
        FeatureField("num2", "numerical", mean=0.0, std=1.0),
    ]


def make_sample(cat, n1, n2, T=2):
    steps = [{"cat": cat, "num1": n1, "num2": n2} for _ in range(T)]
    return SequencedSample("e", steps, 0)


def embed_step(layer, step):
    """embed_batch of a single one-period raw sample: one [n1, d] array."""
    return layer.embed_batch([SequencedSample("e", [step], 0)]).data[0, 0]


def categorical_layer(table, multi_valued=False, vocab=("a", "b")):
    """One categorical field whose lookup table (vocab rows, then OOV) is ``table``."""
    schema = [FeatureField("c", "categorical", vocab=list(vocab), multi_valued=multi_valued)]
    layer = EmbeddingLayer(schema, d=table.shape[1], rng=np.random.default_rng(0))
    layer.tables["c"].data = table
    return layer


def numerical_layer(basis_vector):
    layer = EmbeddingLayer([FeatureField("n", "numerical")], d=basis_vector.shape[0],
                           rng=np.random.default_rng(0))
    layer.basis.data = basis_vector[None, :].copy()
    return layer


class TestEmbedCategorical:
    def test_index_lookup(self):
        layer = categorical_layer(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_array_equal(embed_step(layer, {"c": "b"}), [[3.0, 4.0]])

    def test_oov_index_takes_the_trailing_row(self):
        layer = categorical_layer(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_array_equal(embed_step(layer, {"c": "zz"}), [[5.0, 6.0]])

    def test_distribution_weighted_sum(self):
        layer = categorical_layer(np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]]),
                                  multi_valued=True)
        np.testing.assert_allclose(embed_step(layer, {"c": {"a": 0.5, "b": 0.5}}),
                                   [[2.0, 3.0]])

    def test_degenerate_distribution(self):
        layer = categorical_layer(np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]]),
                                  multi_valued=True)
        np.testing.assert_allclose(embed_step(layer, {"c": {"a": 1.0}}), [[1.0, 2.0]])

    def test_onehot_equals_lookup(self):
        table = np.random.default_rng(0).normal(size=(4, 3))
        vocab = ("a", "b", "c")
        multi = categorical_layer(table, multi_valued=True, vocab=vocab)
        single = categorical_layer(table, vocab=vocab)
        for name in vocab:
            np.testing.assert_array_equal(embed_step(multi, {"c": {name: 1.0}}),
                                          embed_step(single, {"c": name}))

    def test_out_of_range(self):
        # a weight row with a slot past the OOV one has no table row to weigh
        layer = categorical_layer(np.zeros((3, 2)))
        batch = EncodedBatch(np.zeros((0, 1, 1)), {"c": np.zeros((1, 1, 4))})
        with pytest.raises(ad.ShapeError, match="inner extents differ"):
            layer.embed_batch(batch)

    def test_a_row_without_the_oov_column_is_rejected(self):
        # a [B, T, V] row would otherwise be read against the first V table rows
        layer = categorical_layer(np.zeros((3, 2)))
        batch = EncodedBatch(np.zeros((0, 1, 1)), {"c": np.ones((1, 1, 2))})
        with pytest.raises(ad.ShapeError, match="inner extents differ"):
            layer.embed_batch(batch)


def single_valued_layer_and_raw(vocab, cells, seed=0):
    """A ``categorical_layer`` over ``vocab`` with a random d = 3 table, and one
    raw sample per row of ``cells`` (its categories, one per period)."""
    table = np.random.default_rng(seed).normal(size=(len(vocab) + 1, 3))
    raw = [SequencedSample(f"e{b}", [{"c": v} for v in row], 0) for b, row in enumerate(cells)]
    return categorical_layer(table, vocab=vocab), raw


def scatter_table_grad(table, vocab, cells, g):
    """The table gradient of a per-cell row lookup, as the lookup op that the
    one-hot form replaced accumulated it: g's [d] vector of each cell is added
    into its category's row (an unseen one's into the OOV row) in cell order."""
    index = np.array([[vocab.index(v) if v in vocab else len(vocab) for v in row]
                      for row in cells], dtype=np.intp)
    full = np.zeros(table.shape)
    np.add.at(full, index.reshape(-1), g.reshape(-1, table.shape[1]))
    return full


class TestOneHotForm:
    """A single-valued cell is a one-hot weight row, so embedding it reads its
    category's table row and its gradient goes back to that row alone."""

    # repeated categories, and one the vocabulary does not hold
    CELLS = [["b", "a", "b"], ["zz", "b", "a"]]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_embedding_is_the_table_row_of_the_vocab_index(self, data):
        vocab = sorted(data.draw(st.lists(_NAMES, min_size=1, max_size=5, unique=True)))
        B, T = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        name = st.sampled_from(vocab) | _NAMES
        cells = [[data.draw(name) for _ in range(T)] for _ in range(B)]
        layer, raw = single_valued_layer_and_raw(vocab, cells, seed=data.draw(st.integers(0, 9)))
        table = layer.tables["c"].data
        index = [[vocab.index(v) if v in vocab else len(vocab) for v in row] for row in cells]
        assert np.array_equal(layer.embed_batch(raw).data[:, :, 0], table[index])

    def test_gradcheck_through_embed_batch(self):
        layer, raw = single_valued_layer_and_raw(["a", "b", "c"], self.CELLS)
        weights = Tensor(np.random.default_rng(1).normal(size=(2, 3, 1, 3)))

        def f():
            return ad.tsum(ad.power(ad.mul(layer.embed_batch(raw), weights), 2.0))

        report = ad.grad_check(f, layer.params(), step=1e-5, tol=1e-6)
        assert report["ok"], report

    def test_table_gradient_is_the_scatter_of_the_output_gradient(self):
        vocab = ["a", "b", "c"]
        layer, raw = single_valued_layer_and_raw(vocab, self.CELLS)
        g = np.random.default_rng(2).normal(size=(2, 3, 1, 3))
        ad.backward(ad.tsum(ad.mul(layer.embed_batch(raw), Tensor(g))))
        want = scatter_table_grad(layer.tables["c"].data, vocab, self.CELLS, g)
        np.testing.assert_allclose(layer.tables["c"].grad, want, rtol=1e-12, atol=0)
        assert not want[2].any()    # "c" occurs in no cell


class TestEmbedNumerical:
    def test_scaling(self):
        layer = numerical_layer(np.array([0.1, 0.2]))
        np.testing.assert_allclose(embed_step(layer, {"n": 2.0}), [[0.2, 0.4]])

    def test_zero(self):
        layer = numerical_layer(np.array([0.1, 0.2]))
        np.testing.assert_array_equal(embed_step(layer, {"n": 0.0}), [[0.0, 0.0]])

    def test_identity_scale(self):
        layer = numerical_layer(np.array([0.1, 0.2]))
        np.testing.assert_array_equal(embed_step(layer, {"n": 1.0}), layer.basis.data)


class TestEmbedSample:
    def test_shape_contract(self):
        layer = EmbeddingLayer(make_schema(), d=4, rng=np.random.default_rng(1))
        out = layer.embed_batch([make_sample("a", 0.5, -0.5), make_sample("b", 1.0, 2.0)])
        assert out.shape == (2, 2, 3, 4)

    def test_zero_numeric_with_zero_tables(self):
        schema = [FeatureField("n", "numerical")]
        layer = EmbeddingLayer(schema, d=3, rng=np.random.default_rng(2))
        layer.basis.data[...] = 0.0
        out = layer.embed_batch([SequencedSample("e", [{"n": 0.0}], 0)])
        np.testing.assert_array_equal(out.data, np.zeros((1, 1, 1, 3)))

    def test_linear_in_numeric_value(self):
        layer = EmbeddingLayer(make_schema(), d=4, rng=np.random.default_rng(3))
        base = layer.embed_batch([make_sample("a", 1.0, 0.7)]).data
        scaled = layer.embed_batch([make_sample("a", 3.0, 0.7)]).data
        np.testing.assert_allclose(scaled[:, :, 1, :], 3.0 * base[:, :, 1, :])
        np.testing.assert_allclose(scaled[:, :, 2, :], base[:, :, 2, :])

    def test_field_order_follows_schema(self):
        schema = make_schema()
        layer = EmbeddingLayer(schema, d=2, rng=np.random.default_rng(4))
        out = layer.embed_batch([make_sample("b", 0.0, 1.0, T=1)]).data
        np.testing.assert_array_equal(out[0, 0, 0], layer.tables["cat"].data[1])
        np.testing.assert_array_equal(out[0, 0, 1], np.zeros(2))
        np.testing.assert_array_equal(out[0, 0, 2], layer.basis.data[1])

    def test_multi_valued_field(self):
        schema = [FeatureField("biz", "categorical", vocab=["x", "y"],
                               multi_valued=True)]
        layer = EmbeddingLayer(schema, d=2, rng=np.random.default_rng(5))
        s = SequencedSample("e", [{"biz": {"x": 0.25, "y": 0.75}}], 0)
        out = layer.embed_batch([s]).data[0, 0, 0]
        table = layer.tables["biz"].data
        np.testing.assert_allclose(out, 0.25 * table[0] + 0.75 * table[1])

    def test_gradients_reach_tables(self):
        layer = EmbeddingLayer(make_schema(), d=3, rng=np.random.default_rng(6))
        out = layer.embed_batch([make_sample("a", 1.0, 2.0)])
        ad.backward(ad.tsum(ad.power(out, 2.0)))
        assert np.abs(layer.tables["cat"].grad).sum() > 0
        assert np.abs(layer.basis.grad).sum() > 0


# ---------------------------------------------------------------------------
# the array core against the per-field reference
# ---------------------------------------------------------------------------

def reference_embed_batch(layer, samples):
    """The per-field embedding of ``normalize_ref``'d samples that the array core
    replaced: each field's values are read back from the step dicts one field at
    a time."""
    B = len(samples)
    T = len(samples[0].steps)
    per_field = []
    for f in layer.schema:
        if f.kind == "categorical":
            rows = np.array([[s.steps[t][f.name] for t in range(T)] for s in samples])
            per_field.append(ad.matmul(Tensor(rows), layer.tables[f.name]))
        else:
            vals = np.array([[s.steps[t][f.name] for t in range(T)] for s in samples])
            row = ad.slice_axis(layer.basis, 0, layer.basis_rows[f.name],
                                layer.basis_rows[f.name] + 1)
            per_field.append(ad.mul(Tensor(vals[:, :, None]),
                                    ad.reshape(row, (layer.d,))))
    return ad.stack(per_field, axis=2)


def graph_ops(root):
    """The graph behind ``root`` in depth-first parent order: each node's op
    (its backward rule's function), or its class and bytes for a leaf."""
    out, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is None:
            out.append((type(node).__name__, node.data.shape, node.data.tobytes()))
        else:
            out.append((node._backward.__qualname__.split(".")[0], node.data.shape))
        stack.extend(reversed(node._parents))
    return out


def mixed_layer_and_raw(B=5, T=3, seed=0):
    rng = np.random.default_rng(seed)
    schema = [
        FeatureField("n1", "numerical", mean=0.5, std=2.0),
        FeatureField("sector", "categorical", vocab=["a", "b", "c"]),
        FeatureField("n2", "numerical", mean=-1.0, std=0.3),
        FeatureField("seg", "categorical", vocab=["p", "q"], multi_valued=True),
    ]
    samples = []
    for i in range(B):
        steps = [{"n1": float(rng.normal()) if (i + t) % 4 else float("nan"),
                  "sector": ["a", "b", "c", "zz"][(i + t) % 4],
                  "n2": float(rng.normal()),
                  "seg": [{"p": 0.25, "q": 0.75}, {"q": 1.0}, {"zz": 1.0},
                          {"p": 0.5, "zz": 0.5}][(i * t) % 4]}
                 for t in range(T)]
        samples.append(SequencedSample(f"e{i}", steps, i % 2))
    return EmbeddingLayer(schema, d=4, rng=np.random.default_rng(seed + 1)), samples


class TestArrayCore:
    """embed_batch builds the reference's graph, node for node, from a list of
    raw samples or their EncodedBatch."""

    @pytest.mark.parametrize("B", [1, 5])
    def test_same_bytes_and_graph_as_the_reference(self, B):
        layer, raw = mixed_layer_and_raw(B)
        want = reference_embed_batch(layer, [normalize_ref(s, layer.schema) for s in raw])
        for got in (layer.embed_batch(raw), layer.embed_batch(encode(raw, layer.schema))):
            assert got.data.tobytes() == want.data.tobytes()
            assert graph_ops(got) == graph_ops(want)

    def test_same_gradients_as_the_reference(self):
        layer, raw = mixed_layer_and_raw()
        norm = [normalize_ref(s, layer.schema) for s in raw]
        weights = Tensor(np.random.default_rng(9).normal(size=(5, 3, 4, 4)))
        grads = []
        for x1 in (reference_embed_batch(layer, norm),
                   layer.embed_batch(raw)):
            ad.backward(ad.tsum(ad.mul(x1, weights)))
            grads.append([p.grad.tobytes() for p in layer.params()])
            ad.zero_grads(layer.params())
        assert grads[0] == grads[1]
