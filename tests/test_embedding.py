import numpy as np
import pytest

from crossnet import autodiff as ad
from crossnet.data import FeatureField, SequencedSample
from crossnet.embedding import EmbeddingLayer


def make_schema():
    return [
        FeatureField("cat", "categorical", vocab=["a", "b"]),
        FeatureField("num1", "numerical", mean=0.0, std=1.0),
        FeatureField("num2", "numerical", mean=0.0, std=1.0),
    ]


def make_sample(cat_idx, n1, n2, T=2):
    steps = [{"cat": cat_idx, "num1": n1, "num2": n2} for _ in range(T)]
    return SequencedSample("e", steps, 0)


def embed_step(layer, step):
    """embed_batch of a single one-period sample: one [n1, d] array."""
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
        np.testing.assert_array_equal(embed_step(layer, {"c": 1}), [[3.0, 4.0]])

    def test_oov_index_takes_the_trailing_row(self):
        layer = categorical_layer(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_array_equal(embed_step(layer, {"c": 2}), [[5.0, 6.0]])

    def test_distribution_weighted_sum(self):
        layer = categorical_layer(np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]]),
                                  multi_valued=True)
        np.testing.assert_allclose(embed_step(layer, {"c": [0.5, 0.5]}), [[2.0, 3.0]])

    def test_degenerate_distribution(self):
        layer = categorical_layer(np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]]),
                                  multi_valued=True)
        np.testing.assert_allclose(embed_step(layer, {"c": [1.0, 0.0]}), [[1.0, 2.0]])

    def test_onehot_equals_lookup(self):
        table = np.random.default_rng(0).normal(size=(4, 3))
        vocab = ("a", "b", "c")
        multi = categorical_layer(table, multi_valued=True, vocab=vocab)
        single = categorical_layer(table, vocab=vocab)
        for i in range(3):
            probs = [0.0] * 3
            probs[i] = 1.0
            np.testing.assert_array_equal(embed_step(multi, {"c": probs}),
                                          embed_step(single, {"c": i}))

    def test_out_of_range(self):
        layer = categorical_layer(np.zeros((3, 2)))
        with pytest.raises(IndexError):
            embed_step(layer, {"c": 3})


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
        out = layer.embed_batch([make_sample(0, 0.5, -0.5), make_sample(1, 1.0, 2.0)])
        assert out.shape == (2, 2, 3, 4)

    def test_zero_numeric_with_zero_tables(self):
        schema = [FeatureField("n", "numerical")]
        layer = EmbeddingLayer(schema, d=3, rng=np.random.default_rng(2))
        layer.basis.data[...] = 0.0
        out = layer.embed_batch([SequencedSample("e", [{"n": 0.0}], 0)])
        np.testing.assert_array_equal(out.data, np.zeros((1, 1, 1, 3)))

    def test_linear_in_numeric_value(self):
        layer = EmbeddingLayer(make_schema(), d=4, rng=np.random.default_rng(3))
        base = layer.embed_batch([make_sample(0, 1.0, 0.7)]).data
        scaled = layer.embed_batch([make_sample(0, 3.0, 0.7)]).data
        np.testing.assert_allclose(scaled[:, :, 1, :], 3.0 * base[:, :, 1, :])
        np.testing.assert_allclose(scaled[:, :, 2, :], base[:, :, 2, :])

    def test_field_order_follows_schema(self):
        schema = make_schema()
        layer = EmbeddingLayer(schema, d=2, rng=np.random.default_rng(4))
        out = layer.embed_batch([make_sample(1, 0.0, 1.0, T=1)]).data
        np.testing.assert_array_equal(out[0, 0, 0], layer.tables["cat"].data[1])
        np.testing.assert_array_equal(out[0, 0, 1], np.zeros(2))
        np.testing.assert_array_equal(out[0, 0, 2], layer.basis.data[1])

    def test_multi_valued_field(self):
        schema = [FeatureField("biz", "categorical", vocab=["x", "y"],
                               multi_valued=True)]
        layer = EmbeddingLayer(schema, d=2, rng=np.random.default_rng(5))
        s = SequencedSample("e", [{"biz": [0.25, 0.75]}], 0)
        out = layer.embed_batch([s]).data[0, 0, 0]
        table = layer.tables["biz"].data
        np.testing.assert_allclose(out, 0.25 * table[0] + 0.75 * table[1])

    def test_gradients_reach_tables(self):
        layer = EmbeddingLayer(make_schema(), d=3, rng=np.random.default_rng(6))
        out = layer.embed_batch([make_sample(0, 1.0, 2.0)])
        ad.backward(ad.tsum(ad.power(out, 2.0)))
        assert np.abs(layer.tables["cat"].grad).sum() > 0
        assert np.abs(layer.basis.grad).sum() > 0
