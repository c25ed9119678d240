import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossnet.data import (DataError, SchemaConfig, SequencedSample,
                           build_schema, gen_synthetic_interaction, load_csv,
                           normalize, split, synthetic_schema_config, write_csv)


@pytest.fixture
def basic_config():
    return SchemaConfig(fields=["f1", "f2"], time_span=3)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_two_entities(self, tmp_path, basic_config):
        path = write(tmp_path / "d.csv",
                     "entity_id,period_index,f1,f2,label\n"
                     "a,0,1.0,2.0,\n" "a,1,1.5,2.5,\n" "a,2,2.0,3.0,1\n"
                     "b,0,0.1,0.2,\n" "b,1,0.2,0.3,\n" "b,2,0.3,0.4,0\n")
        samples = load_csv(path, basic_config)
        assert [s.entity_id for s in samples] == ["a", "b"]
        assert all(len(s.steps) == 3 for s in samples)
        assert samples[0].label == 1 and samples[1].label == 0

    def test_gap_in_periods_drops_entity(self, tmp_path, basic_config):
        path = write(tmp_path / "d.csv",
                     "entity_id,period_index,f1,f2,label\n"
                     "a,0,1,1,\n" "a,1,1,1,\n" "a,3,1,1,1\n"
                     "b,0,1,1,\n" "b,1,1,1,\n" "b,2,1,1,0\n")
        samples = load_csv(path, basic_config)
        assert [s.entity_id for s in samples] == ["b"]

    def test_longer_history_keeps_trailing_window(self, tmp_path, basic_config):
        path = write(tmp_path / "d.csv",
                     "entity_id,period_index,f1,f2,label\n"
                     "a,0,9,9,\n" "a,1,1,1,\n" "a,2,2,2,\n" "a,3,3,3,1\n")
        (sample,) = load_csv(path, basic_config)
        assert [step["f1"] for step in sample.steps] == [1.0, 2.0, 3.0]

    def test_empty_file(self, tmp_path, basic_config):
        path = write(tmp_path / "d.csv", "")
        assert load_csv(path, basic_config) == []

    def test_missing_column_named(self, tmp_path, basic_config):
        path = write(tmp_path / "d.csv", "entity_id,period_index,f1,label\na,0,1,\n")
        with pytest.raises(DataError, match="f2"):
            load_csv(path, basic_config)

    def test_non_numeric_row_skipped(self, tmp_path, basic_config):
        path = write(tmp_path / "d.csv",
                     "entity_id,period_index,f1,f2,label\n"
                     "a,0,1,1,\n" "a,1,oops,1,\n" "a,2,1,1,1\n")
        assert load_csv(path, basic_config) == []  # gap created by the bad row

    def test_non_integer_label_names_line(self, tmp_path, basic_config):
        path = write(tmp_path / "d.csv",
                     "entity_id,period_index,f1,f2,label\n"
                     "a,0,1,1,\n" "a,1,1,1,\n" "a,2,1,1,yes\n")
        with pytest.raises(DataError, match=r"d\.csv:4: label 'yes' is not an integer"):
            load_csv(path, basic_config)

    def test_short_row_names_line(self, tmp_path, basic_config):
        path = write(tmp_path / "d.csv",
                     "entity_id,period_index,f1,f2,label\n"
                     "a,0,1,1,\n" "a,1,1\n" "a,2,1,1,1\n")
        with pytest.raises(DataError, match=r"d\.csv:3: expected 5 cells, got 3"):
            load_csv(path, basic_config)

    def test_long_row_names_line(self, tmp_path):
        # one cell too many shifts nothing: f1 = 2 and label 7 would load silently
        path = write(tmp_path / "d.csv",
                     "entity_id,period_index,f1,label\n" "a,0,1,1\n" "a,1,2,7,1\n")
        with pytest.raises(DataError, match=r"d\.csv:3: expected 4 cells, got 5"):
            load_csv(path, SchemaConfig(fields=["f1"], time_span=1))

    @pytest.mark.parametrize("cell, message", [("x:oops", "bad weight 'oops'"),
                                               ("x:1;y:inf", "non-finite weight 'inf'")])
    def test_bad_multi_valued_weight_names_line(self, tmp_path, cell, message):
        cfg = SchemaConfig(fields=["biz"], categorical={"biz"},
                           multi_valued={"biz"}, time_span=1)
        path = write(tmp_path / "d.csv",
                     "entity_id,period_index,biz,label\n" "a,0,x:1,1\n" f"b,0,{cell},0\n")
        with pytest.raises(DataError, match=rf"d\.csv:3: field 'biz': {message}"):
            load_csv(path, cfg)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e999"])
    def test_infinite_numeric_cell_names_line(self, tmp_path, basic_config, cell):
        path = write(tmp_path / "d.csv",
                     "entity_id,period_index,f1,f2,label\n"
                     f"a,0,1,1,\n" f"a,1,1,{cell},\n" "a,2,1,1,1\n")
        with pytest.raises(DataError, match=rf"d\.csv:3: infinite value '{cell}' in field 'f2'"):
            load_csv(path, basic_config)

    def test_line_numbers_count_blank_lines(self, tmp_path, basic_config):
        path = write(tmp_path / "d.csv",
                     "entity_id,period_index,f1,f2,label\n"
                     "a,0,1,1,\n" "\n" "a,1,1,1,\n" "a,2,1,1,\n" "b,0,1,1,yes\n")
        with pytest.raises(DataError, match=r"d\.csv:6: label 'yes'"):
            load_csv(path, basic_config)

    def test_missing_numeric_cell_becomes_nan(self, tmp_path, basic_config):
        path = write(tmp_path / "d.csv",
                     "entity_id,period_index,f1,f2,label\n"
                     "a,0,,1,\n" "a,1,1,1,\n" "a,2,1,1,1\n")
        (sample,) = load_csv(path, basic_config)
        assert math.isnan(sample.steps[0]["f1"])

    def test_multi_valued_parse_and_renormalize(self, tmp_path):
        cfg = SchemaConfig(fields=["biz"], categorical={"biz"},
                           multi_valued={"biz"}, time_span=1)
        path = write(tmp_path / "d.csv",
                     "entity_id,period_index,biz,label\n"
                     "a,0,x:2;y:2,1\n")
        (sample,) = load_csv(path, cfg)
        assert sample.steps[0]["biz"] == {"x": 0.5, "y": 0.5}


_ID_CHARS = st.characters(codec="utf-8", exclude_characters="\0\r\n")
_NAMES = st.text("abcxyz_-.0123456789", min_size=1, max_size=4)
_NUMBERS = st.floats(allow_infinity=False) | st.just(math.nan)
_WEIGHTS = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def _samples(draw):
    """Entities with a numeric, a categorical and a multi-valued field."""
    T = draw(st.integers(1, 3))
    ids = draw(st.lists(st.text(_ID_CHARS, min_size=1, max_size=6) | st.sampled_from(
        ['a,b', '"q"', 'x, "y"', ' ,"', '""']), min_size=1, max_size=5, unique=True))
    samples = []
    for entity_id in ids:
        steps = [{"num": draw(_NUMBERS), "cat": draw(_NAMES),
                  "multi": draw(st.dictionaries(_NAMES, _WEIGHTS, min_size=1, max_size=3))}
                 for _ in range(T)]
        samples.append(SequencedSample(entity_id, steps, draw(st.integers(0, 3))))
    return samples


def _same(a, b):
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


class TestRoundTrip:
    def test_write_then_load(self, tmp_path, basic_config):
        samples = [
            SequencedSample("a", [{"f1": 1.0, "f2": 2.0}, {"f1": 1.5, "f2": 2.5},
                                  {"f1": 2.0, "f2": 3.0}], 1),
            SequencedSample("b", [{"f1": -1.0, "f2": 0.25}, {"f1": 0.0, "f2": 0.5},
                                  {"f1": 1.0, "f2": 0.75}], 0),
        ]
        path = tmp_path / "out.csv"
        write_csv(samples, path, basic_config)
        loaded = load_csv(str(path), basic_config)
        assert loaded == samples

    @settings(max_examples=150, deadline=None)
    @given(_samples())
    def test_write_then_load_property(self, samples):
        T = len(samples[0].steps)
        cfg = SchemaConfig(fields=["num", "cat", "multi"], categorical={"cat", "multi"},
                           multi_valued={"multi"}, time_span=T)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            write_csv(samples, path, cfg)
            loaded = load_csv(str(path), cfg)
        assert [s.entity_id for s in loaded] == sorted(s.entity_id for s in samples)
        for got in loaded:
            want = next(s for s in samples if s.entity_id == got.entity_id)
            assert got.label == want.label and len(got.steps) == T
            for g, w in zip(got.steps, want.steps):
                assert _same(g["num"], w["num"]) and g["cat"] == w["cat"]
                # the loader renormalizes the weights it reads, in written order
                total = sum(w["multi"][k] for k in sorted(w["multi"]))
                assert g["multi"] == {k: v / total for k, v in w["multi"].items()}


class TestBuildSchema:
    def test_vocab_sorted(self):
        cfg = SchemaConfig(fields=["c"], categorical={"c"}, time_span=2)
        samples = [SequencedSample("a", [{"c": "b"}, {"c": "a"}], 0)]
        (f,) = build_schema(samples, cfg)
        assert f.vocab == ["a", "b"]

    def test_sample_std(self):
        cfg = SchemaConfig(fields=["x"], time_span=3)
        samples = [SequencedSample("a", [{"x": 1.0}, {"x": 2.0}, {"x": 3.0}], 0)]
        (f,) = build_schema(samples, cfg)
        assert f.mean == 2.0
        assert f.std == pytest.approx(1.0)

    def test_constant_field_dropped(self):
        cfg = SchemaConfig(fields=["x", "y"], time_span=2)
        samples = [SequencedSample("a", [{"x": 5.0, "y": 1.0}, {"x": 5.0, "y": 2.0}], 0)]
        schema = build_schema(samples, cfg)
        assert [f.name for f in schema] == ["y"]

    def test_empty_train_rejected(self, basic_config):
        with pytest.raises(DataError):
            build_schema([], basic_config)


class TestNormalize:
    def make(self):
        cfg = SchemaConfig(fields=["x", "c"], categorical={"c"}, time_span=2)
        train = [SequencedSample("a", [{"x": 1.0, "c": "p"}, {"x": 3.0, "c": "q"}], 0)]
        return cfg, build_schema(train, cfg), train

    def test_mean_maps_to_zero(self):
        _, schema, train = self.make()
        out = normalize(train[0], schema)
        f = schema[0]
        assert normalize(SequencedSample("z", [{"x": f.mean, "c": "p"}], 0),
                         schema).steps[0]["x"] == 0.0
        assert out.steps[0]["c"] == 0

    def test_mean_plus_std_maps_to_one(self):
        _, schema, _ = self.make()
        f = schema[0]
        s = SequencedSample("z", [{"x": f.mean + f.std, "c": "q"}], 0)
        assert normalize(s, schema).steps[0]["x"] == pytest.approx(1.0)

    def test_unseen_category_maps_to_oov(self):
        _, schema, _ = self.make()
        s = SequencedSample("z", [{"x": 0.0, "c": "zz"}], 0)
        assert normalize(s, schema).steps[0]["c"] == schema[1].oov_index == 2

    def test_train_split_standardized(self):
        rng = np.random.default_rng(0)
        cfg = SchemaConfig(fields=["x"], time_span=4)
        train = [SequencedSample(f"e{i}",
                                 [{"x": float(v)} for v in rng.normal(5, 3, 4)], 0)
                 for i in range(20)]
        schema = build_schema(train, cfg)
        vals = np.array([st["x"] for s in train for st in normalize(s, schema).steps])
        assert abs(vals.mean()) <= 1e-9
        assert abs(vals.std(ddof=1) - 1.0) <= 1e-9


class TestSplit:
    def test_sizes(self):
        samples = gen_synthetic_interaction(10, 1, 0, seed=0)
        ds = split(samples, 0.7, seed=1)
        assert len(ds.train) == 7 and len(ds.test) == 3

    def test_deterministic(self):
        samples = gen_synthetic_interaction(10, 1, 0, seed=0)
        a = split(samples, 0.7, seed=1)
        b = split(samples, 0.7, seed=1)
        assert [s.entity_id for s in a.train] == [s.entity_id for s in b.train]

    def test_disjoint_and_total(self):
        samples = gen_synthetic_interaction(3, 1, 0, seed=0)
        ds = split(samples, 0.5, seed=2)
        ids_train = {s.entity_id for s in ds.train}
        ids_test = {s.entity_id for s in ds.test}
        assert not ids_train & ids_test
        assert len(ids_train) + len(ids_test) == 3

    def test_too_few_samples(self):
        samples = gen_synthetic_interaction(1, 1, 0, seed=0)
        with pytest.raises(DataError):
            split(samples, 0.5, seed=0)

    def test_bad_ratio(self):
        samples = gen_synthetic_interaction(4, 1, 0, seed=0)
        with pytest.raises(DataError):
            split(samples, 1.5, seed=0)


class TestSynthetic:
    def test_sign_rule(self):
        samples = gen_synthetic_interaction(200, 2, 1, seed=3)
        for s in samples:
            last = s.steps[-1]
            expected = 1 if last["x1"] * last["x2"] > 0 else 0
            assert s.label == expected

    def test_class_balance(self):
        samples = gen_synthetic_interaction(10_000, 1, 0, seed=4)
        balance = np.mean([s.label for s in samples])
        assert abs(balance - 0.5) <= 0.02

    def test_field_set(self):
        samples = gen_synthetic_interaction(2, 3, 2, seed=5)
        cfg = synthetic_schema_config(2, 3)
        assert set(samples[0].steps[0]) == set(cfg.fields) == {"x1", "x2",
                                                               "noise0", "noise1"}
