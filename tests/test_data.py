import math
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crossnet.data import (DataError, EncodedBatch, FeatureField, SchemaConfig,
                           SequencedSample, build_schema, encode, gen_synthetic_interaction,
                           load_csv, normalize, split, synthetic_schema_config, write_csv)


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
                                               ("x:1;y:inf", "non-finite weight 'inf'"),
                                               ("x:2;y:-1", "negative weight '-1'")])
    def test_bad_multi_valued_weight_names_line(self, tmp_path, cell, message):
        cfg = SchemaConfig(fields=["biz"], categorical={"biz"},
                           multi_valued={"biz"}, time_span=1)
        path = write(tmp_path / "d.csv",
                     "entity_id,period_index,biz,label\n" "a,0,x:1,1\n" f"b,0,{cell},0\n")
        with pytest.raises(DataError, match=rf"d\.csv:3: field 'biz': {message}"):
            load_csv(path, cfg)

    @pytest.mark.parametrize("rows, line, first", [
        # a later row for a period would silently win
        ("a,0,1.0,1,\n" "a,1,1,1,\n" "a,2,1,1,1\n" "a,0,5.0,1,\n", 5, 2),
        # a repeated final period would drop the entity as if it had a gap
        ("a,0,1,1,\n" "a,1,1,1,\n" "a,2,1,1,1\n" "b,0,1,1,\n" "a,2,1,1,1\n", 6, 4),
    ], ids=["later_row", "final_period"])
    def test_repeated_period_names_both_lines(self, tmp_path, basic_config, rows, line, first):
        path = write(tmp_path / "d.csv", "entity_id,period_index,f1,f2,label\n" + rows)
        with pytest.raises(DataError, match=rf"d\.csv:{line}: entity 'a' repeats period "
                                            rf"\d of line {first}$"):
            load_csv(path, basic_config)

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

    def test_step_keys_follow_the_configured_fields(self, tmp_path):
        cfg = SchemaConfig(fields=["f2", "c", "f1"], categorical={"c"}, time_span=1)
        path = write(tmp_path / "d.csv",
                     "label,f1,c,entity_id,f2,period_index\n" "1,0.5,u,a,,0\n")
        (sample,) = load_csv(path, cfg)
        assert list(sample.steps[0]) == ["f2", "c", "f1"]
        assert sample.steps[0]["f1"] == 0.5 and math.isnan(sample.steps[0]["f2"])

    def test_multi_valued_zero_weight_allowed(self, tmp_path):
        cfg = SchemaConfig(fields=["biz"], categorical={"biz"},
                           multi_valued={"biz"}, time_span=1)
        path = write(tmp_path / "d.csv", "entity_id,period_index,biz,label\n" "a,0,x:2;y:0,1\n")
        (sample,) = load_csv(path, cfg)
        assert sample.steps[0]["biz"] == {"x": 1.0, "y": 0.0}


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


def _build_schema_per_field(train, schema_config):
    """build_schema with one pass over the steps per numerical field: the reference."""
    if not train:
        raise DataError("cannot build a schema from an empty training split")
    fields = []
    for name in schema_config.fields:
        if name in schema_config.categorical:
            cats = set()
            for s in train:
                for step in s.steps:
                    v = step[name]
                    if isinstance(v, dict):
                        cats.update(v.keys())
                    else:
                        cats.add(v)
            if not cats:
                raise DataError(f"categorical field {name!r} has an empty vocabulary")
            fields.append(FeatureField(name, "categorical", vocab=sorted(cats),
                                       multi_valued=name in schema_config.multi_valued))
        else:
            vals = np.array([step[name] for s in train for step in s.steps])
            vals = vals[~np.isnan(vals)]
            if vals.size == 0:
                continue
            mean = float(vals.mean())
            std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
            if std <= 0.0:
                continue
            fields.append(FeatureField(name, "numerical", mean=mean, std=std))
    return fields


_FINITE = st.floats(-1e150, 1e150)


@st.composite
def _schema_cases(draw):
    """A training split and its SchemaConfig: numerical fields that mix floats
    and NaN, are all NaN or are constant, in any order with a categorical and a
    multi-valued field; a split of one entity of one step occurs."""
    n, T = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    numeric = [f"x{j}" for j in range(draw(st.integers(0, 4)))]
    cells = {"c": _NAMES, "m": st.dictionaries(_NAMES, _WEIGHTS, min_size=1, max_size=3)}
    for name in numeric:
        kind = draw(st.sampled_from(["mixed", "nan", "constant"]))
        cells[name] = (_FINITE | st.just(math.nan) if kind == "mixed" else
                       st.just(math.nan) if kind == "nan" else st.just(draw(_FINITE)))
    fields = draw(st.permutations(numeric + ["c", "m"]))
    samples = [SequencedSample(f"e{i}", [{f: draw(cells[f]) for f in fields}
                                         for _ in range(T)], 0)
               for i in range(n)]
    return samples, SchemaConfig(fields=list(fields), categorical={"c", "m"},
                                 multi_valued={"m"}, time_span=T)


class TestBuildSchema:
    @settings(max_examples=200, deadline=None)
    @given(_schema_cases())
    def test_same_fields_as_one_pass_per_field(self, case):
        samples, cfg = case
        got = [asdict(f) for f in build_schema(samples, cfg)]
        want = [asdict(f) for f in _build_schema_per_field(samples, cfg)]
        # repr tells every float bit pattern apart (-0.0 too) and a NumPy scalar from a float
        assert repr(got) == repr(want)

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


def normalize_ref(sample, schema):
    """The per-cell normalization that ``encode`` replaced: the reference.

    Numbers are standardized, a missing one imputed with the mean (0);
    a category becomes its vocab index, an unseen one the OOV index; a
    multi-valued cell becomes its V weights renormalized over the known
    names (all 0 when none is known).
    """
    steps = []
    for step in sample.steps:
        out = {}
        for f in schema:
            v = step[f.name]
            if f.kind == "numerical":
                if isinstance(v, float) and math.isnan(v):
                    out[f.name] = 0.0
                else:
                    out[f.name] = (v - f.mean) / f.std
            elif f.multi_valued:
                probs = [0.0] * len(f.vocab)
                known = 0.0
                for name, w in v.items():
                    if name in f.vocab:
                        probs[f.vocab.index(name)] = w
                        known += w
                out[f.name] = [p / known for p in probs] if known > 0 else probs
            else:
                out[f.name] = f.vocab.index(v) if v in f.vocab else f.oov_index
        steps.append(out)
    return SequencedSample(sample.entity_id, steps, sample.label)


def gather_ref(samples, schema):
    """The EncodedBatch of ``normalize_ref``'d samples, read cell by cell: the reference."""
    B, T = len(samples), len(samples[0].steps)

    def cells(f):
        return [[s.steps[t][f.name] for t in range(T)] for s in samples]

    numeric = np.array([cells(f) for f in schema if f.kind == "numerical"],
                       dtype=np.float64).reshape(-1, B, T)
    categorical = {}
    for f in schema:
        if f.kind == "categorical" and f.multi_valued:
            categorical[f.name] = np.zeros((B, T, len(f.vocab) + 1))
            categorical[f.name][:, :, :-1] = cells(f)
        elif f.kind == "categorical":
            categorical[f.name] = np.array(cells(f), dtype=np.intp)
    return EncodedBatch(numeric, categorical)


class TestNormalize:
    """Standardization and vocab lookup, as ``encode`` does them."""

    def make(self):
        cfg = SchemaConfig(fields=["x", "c"], categorical={"c"}, time_span=2)
        train = [SequencedSample("a", [{"x": 1.0, "c": "p"}, {"x": 3.0, "c": "q"}], 0)]
        return cfg, build_schema(train, cfg), train

    def test_mean_maps_to_zero(self):
        _, schema, _ = self.make()
        out = encode([SequencedSample("z", [{"x": schema[0].mean, "c": "p"}], 0)], schema)
        assert out.numeric[0, 0, 0] == 0.0
        assert out.categorical["c"][0, 0] == 0

    def test_mean_plus_std_maps_to_one(self):
        _, schema, _ = self.make()
        f = schema[0]
        s = SequencedSample("z", [{"x": f.mean + f.std, "c": "q"}], 0)
        assert encode([s], schema).numeric[0, 0, 0] == pytest.approx(1.0)

    def test_unseen_category_maps_to_oov(self):
        _, schema, _ = self.make()
        s = SequencedSample("z", [{"x": 0.0, "c": "zz"}], 0)
        assert encode([s], schema).categorical["c"][0, 0] == schema[1].oov_index == 2

    def test_normalize_returns_its_argument(self):
        _, schema, train = self.make()
        assert normalize(train[0], schema) is train[0]

    def test_train_split_standardized(self):
        rng = np.random.default_rng(0)
        cfg = SchemaConfig(fields=["x"], time_span=4)
        train = [SequencedSample(f"e{i}",
                                 [{"x": float(v)} for v in rng.normal(5, 3, 4)], 0)
                 for i in range(20)]
        schema = build_schema(train, cfg)
        vals = encode(train, schema).numeric.ravel()
        assert abs(vals.mean()) <= 1e-9
        assert abs(vals.std(ddof=1) - 1.0) <= 1e-9


_VOCAB = st.lists(_NAMES, min_size=1, max_size=4, unique=True).map(sorted)


@st.composite
def encoding_cases(draw):
    """A schema of two numerical, a categorical and a multi-valued field, and a
    batch of raw samples: missing numbers, unseen categories, and multi-valued
    cells with unseen names or no known mass all occur."""
    def stat():
        return draw(st.floats(-100, 100))

    cats, multi = draw(_VOCAB), draw(_VOCAB)
    schema = [FeatureField("a", "numerical", mean=stat(), std=draw(st.floats(1e-3, 100))),
              FeatureField("c", "categorical", vocab=cats),
              FeatureField("b", "numerical", mean=stat(), std=draw(st.floats(1e-3, 100))),
              FeatureField("m", "categorical", vocab=multi, multi_valued=True)]
    number = st.floats(-1e6, 1e6) | st.just(math.nan)
    name = st.sampled_from(cats) | _NAMES
    weight = st.sampled_from([0.0, 1.0]) | st.floats(0, 10)
    cell = st.dictionaries(st.sampled_from(multi) | _NAMES, weight, min_size=1, max_size=3)
    B, T = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    samples = [SequencedSample(f"e{i}", [{"a": draw(number), "c": draw(name),
                                          "b": draw(number), "m": draw(cell)}
                                         for _ in range(T)], 0)
               for i in range(B)]
    return schema, samples


# a missing number, an unseen category and a multi-valued cell of unseen names only
SPECIAL_CELLS = ([FeatureField("x", "numerical", mean=1.0, std=2.0),
                  FeatureField("c", "categorical", vocab=["p", "q"]),
                  FeatureField("m", "categorical", vocab=["p", "q"], multi_valued=True)],
                 [SequencedSample("e", [{"x": math.nan, "c": "zz", "m": {"zz": 1.0}},
                                        {"x": 1.0, "c": "q", "m": {"p": 0.0, "zz": 2.0}},
                                        {"x": 5.0, "c": "p",
                                         "m": {"q": 3.0, "p": 1.0, "zz": 4.0}}], 0)])


def assert_same_arrays(got, want):
    """Two EncodedBatches hold the same fields and arrays, bit for bit."""
    pairs = [(got.numeric, want.numeric)] + [
        (got.categorical[k], want.categorical[k]) for k in want.categorical]
    assert list(got.categorical) == list(want.categorical)
    for g, w in pairs:
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


class TestEncode:
    """encode of raw samples is the reference's gather of their normalized copies,
    bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(encoding_cases())
    @example(SPECIAL_CELLS)
    def test_encode_is_gather_of_normalize(self, case):
        schema, samples = case
        assert_same_arrays(encode(samples, schema),
                           gather_ref([normalize_ref(s, schema) for s in samples], schema))

    def test_cells_that_normalize_specially(self):
        schema, samples = SPECIAL_CELLS
        got = encode(samples, schema)
        assert got.numeric.tolist() == [[[0.0, 0.0, 2.0]]]
        assert got.categorical["c"].tolist() == [[2, 1, 0]]
        assert got.categorical["m"].tolist() == [[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                                                  [0.25, 0.75, 0.0]]]

    def test_mixed_step_counts_are_refused(self):
        # 3 + 2 + 4 steps make B * T = 9, but no entity's steps may run into the next
        schema = [FeatureField("x", "numerical", mean=0.0, std=1.0)]
        samples = [SequencedSample(f"e{i}", [{"x": float(t)} for t in range(T)], 0)
                   for i, T in enumerate([3, 2, 4])]
        with pytest.raises(ValueError, match="'e1' has 2"):
            encode(samples, schema)


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


def _synthetic_per_entity(n_samples, T, noise_fields, seed):
    """gen_synthetic_interaction with one draw and one label test per entity: the reference."""
    rng = np.random.default_rng(seed)
    names = ["x1", "x2"] + [f"noise{i}" for i in range(noise_fields)]
    samples = []
    for i in range(n_samples):
        vals = rng.uniform(-1.0, 1.0, size=(T, len(names)))
        steps = [{n: float(vals[t, j]) for j, n in enumerate(names)} for t in range(T)]
        label = 1 if vals[-1, 0] * vals[-1, 1] > 0 else 0
        samples.append(SequencedSample(f"s{i:05d}", steps, label))
    return samples


class TestSynthetic:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 6), st.integers(0, 5), st.integers(0, 2**32 - 1))
    def test_same_samples_as_a_draw_per_entity(self, n, T, noise, seed):
        def view(samples):
            return [(s.entity_id, type(s.label), s.label,
                     [[(k, type(v), v.hex()) for k, v in step.items()] for step in s.steps])
                    for s in samples]

        assert view(gen_synthetic_interaction(n, T, noise, seed)) == view(
            _synthetic_per_entity(n, T, noise, seed))

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
