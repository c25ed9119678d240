import logging
import math
import re
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crossnet.data import (DataError, EncodedBatch, FeatureField, SchemaConfig,
                           SequencedSample, build_schema, check_field_names, encode,
                           gen_synthetic_interaction, load_csv, normalize, schema_config_of,
                           split, synthetic_schema_config, write_csv)


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
        with pytest.raises(DataError, match=r"d\.csv: empty file$"):
            load_csv(path, basic_config)

    @pytest.mark.parametrize("line", [1, 3, 2000])
    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path, basic_config, line):
        # line 2000 lies past the first chunk that the text layer decodes
        rows = [b"entity_id,period_index,f1,f2,label"] + [
            b"e%d,0,1.25,2.5,1" % i for i in range(2500)]
        rows[line - 1] = rows[line - 1].replace(b",", b"\xe9,", 1)
        path = tmp_path / "d.csv"
        path.write_bytes(b"\n".join(rows) + b"\n")
        with pytest.raises(DataError, match=rf"d\.csv:{line}: byte 0xe9 is not UTF-8$"):
            load_csv(path, basic_config)

    def test_missing_column_named(self, tmp_path, basic_config):
        path = write(tmp_path / "d.csv", "entity_id,period_index,f1,label\na,0,1,\n")
        with pytest.raises(DataError, match="f2"):
            load_csv(path, basic_config)

    def test_non_numeric_row_skipped(self, tmp_path, basic_config):
        path = write(tmp_path / "d.csv",
                     "entity_id,period_index,f1,f2,label\n"
                     "a,0,1,1,\n" "a,1,oops,1,\n" "a,2,1,1,1\n")
        assert load_csv(path, basic_config) == []  # gap created by the bad row

    SKIPS = ("entity_id,period_index,f1,f2,label\n"
             "a,0,1,1,\n" "a,x,1,1,\n" "a,2,oops,1,1\n" "b,0,1,1,\n" "b,1,2,1,\n" "b,2,3,1,\n")

    def test_warnings_are_logged_as_the_file_is_read(self, tmp_path, basic_config, caplog):
        caplog.set_level(logging.INFO, logger="crossnet.data")
        path = write(tmp_path / "d.csv", self.SKIPS)
        assert load_csv(path, basic_config) == []
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}:3: bad period_index 'x', row skipped",
            f"{path}:4: non-numeric value 'oops' in field 'f1', row skipped",
            f"{path}:7: entity b has no label on its final period, dropped",
            "dropped 2 entities without 3 consecutive labeled periods"]
        caplog.clear()
        # a load that stops on an error has logged the rows skipped before it
        bad = write(tmp_path / "bad.csv", self.SKIPS + "c,0,1,1,yes\n")
        with pytest.raises(DataError, match=r"bad\.csv:8: label 'yes' is not an integer$"):
            load_csv(bad, basic_config)
        assert [r.getMessage() for r in caplog.records] == [
            f"{bad}:3: bad period_index 'x', row skipped",
            f"{bad}:4: non-numeric value 'oops' in field 'f1', row skipped"]

    @pytest.mark.parametrize("entity, line, why", [
        ("a", 3, "bad period_index 'x', row skipped"),
        ("b", 7, "entity b has no label on its final period, dropped")])
    def test_an_entity_without_a_window_quotes_its_first_warning(self, tmp_path, basic_config,
                                                                 caplog, entity, line, why):
        caplog.set_level(logging.INFO, logger="crossnet.data")
        path = write(tmp_path / "d.csv", self.SKIPS)
        with pytest.raises(DataError) as exc:
            load_csv(path, basic_config, entity=entity)
        assert str(exc.value) == (f"entity {entity!r} has no 3 consecutive periods ending in "
                                  f"a labeled one ({path}:{line}: {why})")
        assert caplog.records == []

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

    def test_short_row_counts_its_cells_under_a_repeated_name(self, tmp_path):
        path = write(tmp_path / "d.csv",
                     "entity_id,f1,period_index,f1,label\n" "a,1,0,1,1\n" "b,2\n")
        with pytest.raises(DataError, match=r"d\.csv:3: expected 5 cells, got 2$"):
            load_csv(path, SchemaConfig(fields=["f1"], time_span=1))

    def test_oversized_cell_names_line(self, tmp_path, basic_config):
        path = write(tmp_path / "d.csv", "entity_id,period_index,f1,f2,label\n"
                     "a,0,1,1,\n" f"a,1,{'1' * 131073},1,\n" "a,2,1,1,1\n")
        with pytest.raises(DataError, match=r"d\.csv:3: field larger than field limit"):
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

    ENTITIES = ("entity_id,period_index,f1,f2,label\n"
                "a,0,1,1,\n" "b,0,1,oops,\n" "a,1,2,2,\n" "b,1\n" "a,2,3,3,1\n" "b,2,1,1,yes\n")

    def test_entity_reads_only_its_rows(self, tmp_path, basic_config):
        # b's rows are broken three ways, none of which is checked for a
        path = write(tmp_path / "d.csv", self.ENTITIES)
        (sample,) = load_csv(path, basic_config, entity="a")
        assert sample.entity_id == "a" and sample.label == 1
        assert [step["f1"] for step in sample.steps] == [1.0, 2.0, 3.0]
        assert load_csv(path, basic_config, entity="nobody") == []
        with pytest.raises(DataError, match=r"d\.csv:5: expected 5 cells, got 2"):
            load_csv(path, basic_config)

    def test_entity_row_still_names_its_line(self, tmp_path, basic_config):
        path = write(tmp_path / "d.csv", self.ENTITIES)
        with pytest.raises(DataError, match=r"d\.csv:5: expected 5 cells, got 2"):
            load_csv(path, basic_config, entity="b")

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
    def test_write_csv_bytes(self, tmp_path):
        """An empty number, a float that needs 17 digits, a category that needs
        quoting and a two-name multi-valued cell; the label on the final row only."""
        sample = SequencedSample("acme", [
            {"x": math.nan, "sector": "bank", "segments": {"retail": 0.25, "corp": 0.75}},
            {"x": 0.1, "sector": "bank, ltd", "segments": {"corp": 1.0}}], 1)
        cfg = SchemaConfig(fields=["x", "sector", "segments"], categorical={"sector", "segments"},
                           multi_valued={"segments"}, time_span=2)
        path = tmp_path / "d.csv"
        write_csv([sample], path, cfg)
        assert path.read_bytes() == (b"entity_id,period_index,x,sector,segments,label\r\n"
                                     b"acme,0,,bank,corp:0.75;retail:0.25,\r\n"
                                     b'acme,1,0.10000000000000001,"bank, ltd",corp:1,1\r\n')

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


class TestSchemaConfig:
    @pytest.mark.parametrize("kwargs, message", [
        ({"fields": ["m"], "multi_valued": {"m"}},
         "multi_valued field 'm' is not a listed categorical field"),
        ({"fields": ["x", "sector"], "categorical": {"sectr"}},
         "categorical field 'sectr' is not a listed field"),
    ], ids=["multi-valued-numerical", "categorical-unlisted"])
    def test_a_field_of_the_wrong_kind_is_named(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SchemaConfig(**kwargs)

    def test_a_multi_valued_numerical_field_is_rejected(self):
        with pytest.raises(ValueError, match="numerical field 'x' cannot be multi_valued"):
            FeatureField("x", "numerical", multi_valued=True)


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

    @pytest.mark.parametrize("fields", [["x"], []])
    def test_no_usable_field_rejected(self, fields):
        cfg = SchemaConfig(fields=fields, time_span=2)
        samples = [SequencedSample("a", [{"x": 5.0}, {"x": 5.0}], 0)]
        with pytest.raises(DataError, match=re.escape(
                f"no usable field among the configured fields {fields}")):
            build_schema(samples, cfg)

    def test_empty_train_rejected(self, basic_config):
        with pytest.raises(DataError):
            build_schema([], basic_config)

    @settings(max_examples=100, deadline=None)
    @given(_schema_cases())
    def test_schema_config_of_is_its_inverse(self, case):
        samples, cfg = case
        schema = build_schema(samples, cfg)
        assert schema_config_of(schema, cfg.time_span, cfg) == cfg
        back = schema_config_of(schema, cfg.time_span, SchemaConfig(fields=[]))
        assert back.fields == [f.name for f in schema]
        assert (back.categorical, back.multi_valued, back.time_span) == (
            {"c", "m"}, {"m"}, cfg.time_span)
        assert repr([asdict(f) for f in build_schema(samples, back)]) == repr(
            [asdict(f) for f in schema])

    def test_schema_config_of_takes_the_schema_over_the_config(self):
        schema = [FeatureField("x", "numerical", mean=0.0, std=1.0),
                  FeatureField("m", "categorical", vocab=["a"], multi_valued=True)]
        listed = SchemaConfig(fields=["flat", "x", "c"], categorical={"x", "c"},
                              multi_valued={"x"}, time_span=2)
        assert schema_config_of(schema, 3, listed) == SchemaConfig(
            fields=["flat", "x", "c", "m"], categorical={"c", "m"}, multi_valued={"m"},
            time_span=3)


class TestCheckFieldNames:
    @pytest.mark.parametrize("names, message", [
        (["a", "b", "a", "b"], "fields lists 'a' twice"),
        (["a", "period_index", "a"], "field 'period_index' is a column of the long format "
                                     "itself"),
        (["entity_id"], "field 'entity_id' is a column of the long format itself"),
    ])
    def test_the_first_fault_is_named(self, names, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_field_names(names)

    def test_the_key_names_the_list(self):
        with pytest.raises(ValueError, match="^the schema lists 'x' twice$"):
            check_field_names(["x", "x"], "the schema")
        check_field_names(["x", "y", "labels"])


def normalize_ref(sample, schema):
    """The per-cell normalization that ``encode`` replaced: the reference.

    Numbers are standardized, a missing one imputed with the mean (0);
    a category becomes the one-hot list of its V + 1 slots, an unseen one
    at the OOV slot; a multi-valued cell becomes its V + 1 weights
    renormalized over the known names (all 0 when none is known, and the
    OOV slot always 0).
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
                probs = [0.0] * (len(f.vocab) + 1)
                known = 0.0
                for name, w in v.items():
                    if name in f.vocab:
                        probs[f.vocab.index(name)] = w
                        known += w
                out[f.name] = [p / known for p in probs] if known > 0 else probs
            else:
                onehot = [0.0] * (len(f.vocab) + 1)
                onehot[f.vocab.index(v) if v in f.vocab else f.oov_index] = 1.0
                out[f.name] = onehot
        steps.append(out)
    return SequencedSample(sample.entity_id, steps, sample.label)


def gather_ref(samples, schema):
    """The EncodedBatch of ``normalize_ref``'d samples, read cell by cell: the reference."""
    B, T = len(samples), len(samples[0].steps)

    def cells(f):
        return [[s.steps[t][f.name] for t in range(T)] for s in samples]

    numeric = np.array([cells(f) for f in schema if f.kind == "numerical"],
                       dtype=np.float64).reshape(-1, B, T)
    categorical = {f.name: np.array(cells(f), dtype=np.float64)
                   for f in schema if f.kind == "categorical"}
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
        assert out.categorical["c"][0, 0].tolist() == [1.0, 0.0, 0.0]

    def test_mean_plus_std_maps_to_one(self):
        _, schema, _ = self.make()
        f = schema[0]
        s = SequencedSample("z", [{"x": f.mean + f.std, "c": "q"}], 0)
        assert encode([s], schema).numeric[0, 0, 0] == pytest.approx(1.0)

    def test_unseen_category_maps_to_oov(self):
        _, schema, _ = self.make()
        s = SequencedSample("z", [{"x": 0.0, "c": "zz"}], 0)
        assert schema[1].oov_index == 2
        assert encode([s], schema).categorical["c"][0, 0].tolist() == [0.0, 0.0, 1.0]

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

# multi-valued cells of several known and unknown names, in both orders, whose
# known weights sum with rounding (0.1 + 0.2 + 0.7), across two samples
MANY_NAMES = ([FeatureField("x", "numerical", mean=0.0, std=1.0),
               FeatureField("m", "categorical", vocab=["p", "q", "r", "s"], multi_valued=True)],
              [SequencedSample("e", [{"x": 1.0, "m": {"p": 0.1, "zz": 5.0, "q": 0.2, "r": 0.7}},
                                     {"x": 2.0, "m": {"yy": 1.0, "s": 3.0, "zz": 2.0, "p": 1e-300}}],
                               0),
               SequencedSample("f", [{"x": 3.0, "m": {"r": 0.7, "q": 0.2, "p": 0.1, "yy": 0.5}},
                                     {"x": 4.0, "m": {"zz": 1.0, "yy": 2.0}}], 1)])


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
    @example(MANY_NAMES)
    def test_encode_is_gather_of_normalize(self, case):
        schema, samples = case
        assert_same_arrays(encode(samples, schema),
                           gather_ref([normalize_ref(s, schema) for s in samples], schema))

    def test_cells_that_normalize_specially(self):
        schema, samples = SPECIAL_CELLS
        got = encode(samples, schema)
        assert got.numeric.tolist() == [[[0.0, 0.0, 2.0]]]
        assert got.categorical["c"].tolist() == [[[0.0, 0.0, 1.0], [0.0, 1.0, 0.0],
                                                  [1.0, 0.0, 0.0]]]
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
