import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossnet import baselines
from crossnet.baselines import (ALTMAN_COEFFICIENTS, ALTMAN_THRESHOLD, LrModel,
                                flatten_samples, lr_predict, lr_train, zscore_rate)
from crossnet.data import FeatureField, SequencedSample

from test_data import normalize_ref


class TestZScore:
    def test_all_ones(self):
        score, positive = zscore_rate(np.ones(5))
        assert score == pytest.approx(20.243)
        assert positive

    def test_all_zeros_negative(self):
        score, positive = zscore_rate(np.zeros(5))
        assert score == 0.0
        assert not positive

    def test_near_threshold(self):
        # 0.05 * 18.640 = 0.932, just above the 0.9 cut
        score, positive = zscore_rate([0.0, 0.0, 0.05, 0.0, 0.0])
        assert score == pytest.approx(0.932)
        assert positive

    def test_linearity(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=5), rng.normal(size=5)
        sa, _ = zscore_rate(a)
        sb, _ = zscore_rate(b)
        sab, _ = zscore_rate(a + b)
        assert sab == pytest.approx(sa + sb)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            zscore_rate([1.0, 2.0, 3.0])

    def test_coefficient_signs(self):
        assert ALTMAN_COEFFICIENTS[1] < 0
        assert all(c > 0 for i, c in enumerate(ALTMAN_COEFFICIENTS) if i != 1)
        assert ALTMAN_THRESHOLD == 0.9


def reference_flatten(samples, schema):
    """flatten_samples as a loop over ``normalize_ref``'d samples: the reference."""
    rows = []
    for s in samples:
        vec = []
        for step in s.steps:
            for f in schema:
                v = step[f.name]
                if f.kind == "numerical":
                    vec.append(v)
                else:
                    vec.extend(v)     # V + 1 slots, the last OOV
        rows.append(vec)
    return np.array(rows, dtype=np.float64)


class TestFlattenSamples:
    def test_numeric_concatenation(self):
        schema = [FeatureField("a", "numerical"), FeatureField("b", "numerical")]
        s = SequencedSample("e", [{"a": 1.0, "b": 2.0}, {"a": 3.0, "b": 4.0}], 0)
        X = flatten_samples([s], schema)
        np.testing.assert_array_equal(X, [[1.0, 2.0, 3.0, 4.0]])

    def test_numeric_values_are_standardized(self):
        schema = [FeatureField("a", "numerical", mean=1.0, std=2.0)]
        s = SequencedSample("e", [{"a": 5.0}, {"a": math.nan}], 0)
        np.testing.assert_array_equal(flatten_samples([s], schema), [[2.0, 0.0]])

    def test_onehot_width(self):
        schema = [FeatureField("c", "categorical", vocab=["x", "y", "z"])]
        s = SequencedSample("e", [{"c": "y"}], 0)
        X = flatten_samples([s], schema)
        np.testing.assert_array_equal(X, [[0.0, 1.0, 0.0, 0.0]])

    def test_oov_index_uses_last_slot(self):
        schema = [FeatureField("c", "categorical", vocab=["x", "y"])]
        s = SequencedSample("e", [{"c": "unseen"}], 0)
        X = flatten_samples([s], schema)
        np.testing.assert_array_equal(X, [[0.0, 0.0, 1.0]])

    def test_multi_valued_probs_kept(self):
        schema = [FeatureField("m", "categorical", vocab=["x", "y"],
                               multi_valued=True)]
        s = SequencedSample("e", [{"m": {"x": 0.25, "y": 0.75}}], 0)
        X = flatten_samples([s], schema)
        np.testing.assert_array_equal(X, [[0.25, 0.75, 0.0]])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_the_reference_on_normalized_samples(self, data):
        n_num = data.draw(st.integers(0, 2))
        vocab = ["a", "b", "c"]
        schema = [FeatureField(f"n{i}", "numerical",
                               mean=data.draw(st.floats(-3.0, 3.0)),
                               std=data.draw(st.floats(0.1, 4.0))) for i in range(n_num)]
        schema += [FeatureField("cat", "categorical", vocab=vocab[:data.draw(st.integers(1, 3))]),
                   FeatureField("multi", "categorical", vocab=vocab[:data.draw(st.integers(1, 3))],
                                multi_valued=True)]
        number = st.one_of(st.just(math.nan), st.floats(-1e3, 1e3))
        category = st.sampled_from(vocab + ["oov"])
        # weights of known and unknown names; a cell of unknown names only has no known mass
        multi = st.dictionaries(category, st.floats(0.01, 1.0), min_size=1, max_size=4).map(
            lambda d: {k: w / sum(d.values()) for k, w in d.items()})
        step = st.fixed_dictionaries({**{f"n{i}": number for i in range(n_num)},
                                      "cat": category, "multi": multi})
        T = data.draw(st.integers(1, 3))
        B = data.draw(st.integers(1, 4))
        samples = [SequencedSample(f"e{b}", data.draw(st.lists(step, min_size=T, max_size=T)), 0)
                   for b in range(B)]
        got = flatten_samples(samples, schema)
        want = reference_flatten([normalize_ref(s, schema) for s in samples], schema)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestLrTrain:
    def separable_data(self):
        X = np.array([[1.0], [-1.0]])
        y = np.array([1, 0])
        return X, y

    def test_separable_points(self):
        X, y = self.separable_data()
        model = lr_train(X, y)
        preds = (lr_predict(X, model) > 0.5).astype(int)
        np.testing.assert_array_equal(preds, y)

    def test_strong_l1_shrinks_weights(self, monkeypatch):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(64, 4))
        y = (X[:, 0] > 0).astype(int)
        monkeypatch.setattr(baselines, "LR_EPOCHS", 50)
        monkeypatch.setattr(baselines, "LR_STEP", 0.01)
        free = lr_train(X, y)
        # a subgradient step leaves weights within about LR_STEP * l1 of 0
        monkeypatch.setattr(baselines, "LR_STEP", 0.001)
        tight = lr_train(X, y, l1=5.0)
        assert np.all(np.abs(tight.weights) <= 1e-2)
        assert np.abs(tight.weights).sum() < 0.1 * np.abs(free.weights).sum()

    def test_zero_lr_leaves_model(self, monkeypatch):
        X, y = self.separable_data()
        monkeypatch.setattr(baselines, "LR_STEP", 0.0)
        monkeypatch.setattr(baselines, "LR_EPOCHS", 10)
        model = lr_train(X, y)
        np.testing.assert_array_equal(model.weights, np.zeros(1))
        assert model.bias == 0.0

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, size=40)
        y[:2] = [0, 1]
        m1 = lr_train(X, y, l1=0.01, seed=5)
        m2 = lr_train(X, y, l1=0.01, seed=5)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            lr_train(np.ones((4, 2)), np.ones(4))


class TestLrPredict:
    def test_zero_model(self):
        model = LrModel(weights=np.zeros(3), bias=0.0)
        assert lr_predict(np.ones(3), model) == pytest.approx(0.5)

    def test_log_odds_fixture(self):
        # logit ln(3) -> probability 0.75
        model = LrModel(weights=np.array([np.log(3.0)]), bias=0.0)
        assert lr_predict(np.array([1.0]), model) == pytest.approx(0.75)

    def test_monotone_in_score(self):
        model = LrModel(weights=np.array([1.0]), bias=0.0)
        xs = np.linspace(-3, 3, 7)[:, None]
        probs = lr_predict(xs, model)
        assert np.all(np.diff(probs) > 0)

    def test_matrix_input_shape(self):
        model = LrModel(weights=np.array([1.0, -1.0]), bias=0.5)
        probs = lr_predict(np.zeros((4, 2)), model)
        assert probs.shape == (4,)
        np.testing.assert_allclose(probs, 1.0 / (1.0 + np.exp(-0.5)))
