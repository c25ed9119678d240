import csv
import dataclasses
import math
import re
import struct

import numpy as np
import pytest

from crossnet import cli, embedding, explain, model
from crossnet.cli import ConfigError, main, parse_config
from crossnet.data import (SchemaConfig, build_schema, encode, gen_synthetic_interaction,
                           synthetic_schema_config, write_csv)
from crossnet.model import TrainConfig

from test_data import gather_ref, normalize_ref

SMALL_CONFIG = """
# small synthetic run
fields = x1, x2, noise0
T = 2
d = 4
rank_widths = 3
s = 1
h = 5
epochs = 2
batch_size = 8
lambda = 0.001
lr = 0.01
seed = 3
ratio = 0.75
"""


def with_line(line):
    """SMALL_CONFIG with ``line`` in place of the line setting the same key."""
    key = line.partition("=")[0].strip()
    text, n = re.subn(rf"^{key} = .*$", line, SMALL_CONFIG, flags=re.M)
    return text if n else text + line + "\n"


def changed_value(default):
    """A valid value other than a TrainConfig field's default, and its spelling."""
    if isinstance(default, tuple):
        value = default + default[-1:]
        return value, ", ".join(map(str, value))
    value = default * 2 if isinstance(default, float) else default + 2
    return value, str(value)


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(SMALL_CONFIG)
    return p


@pytest.fixture
def data_path(tmp_path):
    samples = gen_synthetic_interaction(24, T=2, noise_fields=1, seed=0)
    p = tmp_path / "data.csv"
    write_csv(samples, p, synthetic_schema_config(1, 2))
    return p


class TestParseConfig:
    def test_round_trip_values(self, config_path):
        cfg = parse_config(config_path)
        assert cfg.fields == ["x1", "x2", "noise0"]
        assert cfg.train.rank_widths == (3,)
        assert cfg.train.lam == 0.001
        assert cfg.train.T == 2 and cfg.train.seed == 3

    @pytest.mark.parametrize("f", dataclasses.fields(TrainConfig), ids=lambda f: f.name)
    def test_every_train_field_is_a_key(self, tmp_path, f):
        value, text = changed_value(f.default)
        p = tmp_path / "run.cfg"
        p.write_text(f"{f.name} = {text}\n")
        train = parse_config(p).train
        assert getattr(train, f.name) == value
        assert train == dataclasses.replace(TrainConfig(), **{f.name: value})

    @pytest.mark.parametrize("line, name, value", [("lambda = 0.25", "lam", 0.25),
                                                   ("K = 3", "top_k", 3)])
    def test_aliases(self, tmp_path, line, name, value):
        p = tmp_path / "run.cfg"
        p.write_text(line + "\n")
        assert getattr(parse_config(p).train, name) == value

    @pytest.mark.parametrize("text, message", [
        ("T = 2\nT = 7\n", ":2: 'T' is already set on line 1"),
        ("lambda = 0.5\n# comment\nlam = 0.1\n", ":3: 'lam' is already set on line 1"),
        ("K = 4\ntop_k = 4\n", ":2: 'top_k' is already set on line 1"),
        ("fields = a\nfields = b\n", ":2: 'fields' is already set on line 1"),
    ])
    def test_key_given_twice(self, tmp_path, text, message):
        p = tmp_path / "run.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(p)

    @pytest.mark.parametrize("line, name", [
        ("batch_size = 0", "batch_size"), ("batch_size = -3", "batch_size"),
        ("epochs = -1", "epochs"), ("d = 0", "d"), ("h = 0", "h"),
        ("rank_widths = 0", "rank_widths"), ("rank_widths = 3, -2", "rank_widths"),
        ("epsilon = 0", "epsilon"), ("epsilon = -1", "epsilon"),
        ("K = 0", "top_k"), ("K = -5", "top_k"), ("seed = -1", "seed"),
        ("lr = nan", "lr"), ("lambda = inf", "lam"), ("q = nan", "q"),
        ("ratio = nan", "ratio"),
    ])
    def test_out_of_range_value_is_a_config_error(self, tmp_path, data_path, capsys,
                                                  line, name):
        p = tmp_path / "bad.cfg"
        p.write_text(with_line(line))
        with pytest.raises(ConfigError, match=f": {name} "):
            parse_config(p)
        rc = main(["train", "--data", str(data_path), "--config", str(p),
                   "--out", str(tmp_path / "m.ckpt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and f": {name} " in err
        assert not (tmp_path / "m.ckpt").exists()

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("bogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(p)

    def test_bad_value_reports_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("T = 2\nepochs = soon\n")
        with pytest.raises(ConfigError, match=":2"):
            parse_config(p)

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("just a line\n")
        with pytest.raises(ConfigError):
            parse_config(p)

    def test_ratio_bounds(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("ratio = 1.5\n")
        with pytest.raises(ConfigError, match="ratio"):
            parse_config(p)

    def test_window_longer_than_time_span(self, tmp_path, data_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("fields = x1, x2, noise0\nT = 2\ns = 3\n")
        with pytest.raises(ConfigError, match="s must be at most T=2"):
            parse_config(p)
        rc = main(["train", "--data", str(data_path), "--config", str(p),
                   "--out", str(tmp_path / "m.ckpt")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_multi_valued_field_must_be_categorical(self, tmp_path, data_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(with_line("multi_valued = noise0"))
        with pytest.raises(ConfigError, match="multi_valued field 'noise0' is not a listed "
                                              "categorical field"):
            parse_config(p)
        # refused before the data, whose numeric noise0 cells are no name:weight lists
        rc = main(["train", "--data", str(data_path), "--config", str(p),
                   "--out", str(tmp_path / "m.ckpt")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error")
        assert not (tmp_path / "m.ckpt").exists()

    def test_config_error_exit_code(self, tmp_path, data_path):
        p = tmp_path / "bad.cfg"
        p.write_text("bogus = 1\n")
        rc = main(["train", "--data", str(data_path), "--config", str(p),
                   "--out", str(tmp_path / "m.ckpt")])
        assert rc == 2


class TestIngest:
    def write_period(self, path, rows, with_label=False):
        header = ["entity_id", "x1", "x2", "noise0"] + (["label"] if with_label else [])
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)

    def test_two_period_files(self, tmp_path, config_path):
        y1, y2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        self.write_period(y1, [["acme", 1, 2, 3]])
        self.write_period(y2, [["acme", 4, 5, 6, 1]], with_label=True)
        out = tmp_path / "long.csv"
        rc = main(["ingest", "--in", str(y1), str(y2), "--out", str(out),
                   "--config", str(config_path)])
        assert rc == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["entity_id", "period_index", "x1", "x2", "noise0", "label"]
        assert rows[1] == ["acme", "0", "1", "2", "3", ""]
        assert rows[2] == ["acme", "1", "4", "5", "6", "1"]

    def test_duplicate_entity_period(self, tmp_path, config_path, capsys):
        y1 = tmp_path / "p1.csv"
        self.write_period(y1, [["acme", 1, 2, 3, 0], ["acme", 7, 8, 9, 0]],
                          with_label=True)
        rc = main(["ingest", "--in", str(y1), "--out", str(tmp_path / "o.csv"),
                   "--config", str(config_path)])
        assert rc == 1
        assert f"{y1}:3: duplicate (entity, period) pair" in capsys.readouterr().err

    @pytest.mark.parametrize("row, got", [(["e2", 3], 2), (["e2", 3, 4, 1, 9], 5)])
    def test_short_or_long_row(self, tmp_path, config_path, capsys, row, got):
        y1, y2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        self.write_period(y1, [["e1", 1, 2, 3], [], row])
        self.write_period(y2, [["e1", 4, 5, 6, 1], ["e2", 4, 5, 6, 0]], with_label=True)
        out = tmp_path / "o.csv"
        rc = main(["ingest", "--in", str(y1), str(y2), "--out", str(out),
                   "--config", str(config_path)])
        assert rc == 1
        assert f"{y1}:4: expected 4 cells, got {got}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_final_label(self, tmp_path, config_path):
        y1, y2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        self.write_period(y1, [["acme", 1, 2, 3]])
        self.write_period(y2, [["acme", 4, 5, 6]])
        rc = main(["ingest", "--in", str(y1), str(y2), "--out", str(tmp_path / "o.csv"),
                   "--config", str(config_path)])
        assert rc == 1

    def test_missing_column(self, tmp_path, config_path):
        y1 = tmp_path / "p1.csv"
        with open(y1, "w", newline="") as fh:
            csv.writer(fh).writerows([["entity_id", "x1"], ["acme", 1]])
        rc = main(["ingest", "--in", str(y1), "--out", str(tmp_path / "o.csv"),
                   "--config", str(config_path)])
        assert rc == 1


class TestTrainEval:
    def test_train_writes_checkpoint_and_trace(self, tmp_path, config_path, data_path):
        out = tmp_path / "m.ckpt"
        assert main(["train", "--data", str(data_path), "--config", str(config_path),
                     "--out", str(out)]) == 0
        assert out.exists()
        trace = list(csv.reader(open(tmp_path / "m.trace.csv")))
        assert trace[0] == ["epoch", "mean_loss", "train_acc"]
        assert len(trace) == 3   # header + 2 epochs

    def test_checkpoint_config_header(self, tmp_path, data_path):
        # config-file values become the checkpoint's config JSON, byte for byte
        cfg = tmp_path / "run.cfg"
        cfg.write_text("fields = x1, x2, noise0\nT = 2\nd = 4\nrank_widths = 3, 2\n"
                       "s = 1\nh = 5\nepochs = 1\nq = 1\nlambda = 0\nlr = 1\nK = 6\n"
                       "epsilon = 1e-3\n")
        out = tmp_path / "m.ckpt"
        assert main(["train", "--data", str(data_path), "--config", str(cfg),
                     "--out", str(out)]) == 0
        blob = out.read_bytes()
        at = 9 + struct.unpack_from("<I", blob, 5)[0]
        (n,) = struct.unpack_from("<I", blob, at)
        assert blob[at + 4:at + 4 + n] == (
            b'{"T": 2, "batch_size": 32, "d": 4, "epochs": 1, "epsilon": 0.001, "h": 5, '
            b'"k": 2, "lam": 0.0, "lr": 1.0, "q": 1.0, "rank_widths": [3, 2], "s": 1, '
            b'"seed": 0, "top_k": 6}')

    def test_repeat_run_bit_identical(self, tmp_path, config_path, data_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        for out in (a, b):
            assert main(["train", "--data", str(data_path),
                         "--config", str(config_path), "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_label_outside_classes_exits_one(self, tmp_path, config_path, capsys):
        samples = gen_synthetic_interaction(24, T=2, noise_fields=1, seed=0)
        for s in samples[::4]:
            s.label = 2
        data = tmp_path / "data.csv"
        write_csv(samples, data, synthetic_schema_config(1, 2))
        rc = main(["train", "--data", str(data), "--config", str(config_path),
                   "--out", str(tmp_path / "m.ckpt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "has label 2, outside [0, 2)" in err and "Traceback" not in err
        assert not (tmp_path / "m.ckpt").exists()

    def test_eval_prints_metrics(self, tmp_path, config_path, data_path, capsys):
        out = tmp_path / "m.ckpt"
        main(["train", "--data", str(data_path), "--config", str(config_path),
              "--out", str(out)])
        rc = main(["eval", "--data", str(data_path), "--model", str(out),
                   "--config", str(config_path)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "tp,fp,fn,tn,acc,err1,err2,auc" in text
        assert "acc" in text


class TestExplainCommand:
    @pytest.fixture
    def trained(self, tmp_path, config_path, data_path):
        out = tmp_path / "m.ckpt"
        main(["train", "--data", str(data_path), "--config", str(config_path),
              "--out", str(out)])
        return out

    def test_static_patterns(self, tmp_path, config_path, data_path, trained):
        out_dir = tmp_path / "expl"
        rc = main(["explain", "--data", str(data_path), "--model", str(trained),
                   "--config", str(config_path), "--out", str(out_dir), "--static"])
        assert rc == 0
        rows = list(csv.reader(open(out_dir / "patterns.csv")))
        assert rows[0] == ["rank", "pattern", "weight"]
        ranks = {r[0] for r in rows[1:]}
        assert "1" in ranks

    def test_entity_files(self, tmp_path, config_path, data_path, trained):
        out_dir = tmp_path / "expl"
        rc = main(["explain", "--data", str(data_path), "--model", str(trained),
                   "--config", str(config_path), "--out", str(out_dir),
                   "--entity", "s00000"])
        assert rc == 0
        # patterns.csv is --static's output
        assert sorted(p.name for p in out_dir.iterdir()) == ["explain_s00000.csv",
                                                             "heatmap_s00000.svg"]

    def test_entity_encodes_only_that_sample(self, tmp_path, config_path, data_path,
                                             trained, monkeypatch):
        calls = []

        def counting_encode(samples, schema):
            calls.extend(s.entity_id for s in samples)
            return encode(samples, schema)

        def no_split_pass(*args, **kwargs):
            raise AssertionError("explain --entity scored the test split")

        monkeypatch.setattr(embedding, "encode", counting_encode)
        monkeypatch.setattr(explain, "rank1_attention_weights", no_split_pass)
        ds = cli._load_split(data_path, parse_config(config_path))
        entity = ds.train[0].entity_id
        rc = main(["explain", "--data", str(data_path), "--model", str(trained),
                   "--config", str(config_path), "--out", str(tmp_path / "expl"),
                   "--entity", entity])
        assert rc == 0
        assert calls == [entity]

    def test_entity_id_cannot_escape_out(self, tmp_path, config_path):
        samples = gen_synthetic_interaction(24, T=2, noise_fields=1, seed=0)
        samples[0].entity_id = "x/../../escaped"
        data = tmp_path / "data.csv"
        write_csv(samples, data, synthetic_schema_config(1, 2))
        model = tmp_path / "m.ckpt"
        assert main(["train", "--data", str(data), "--config", str(config_path),
                     "--out", str(model)]) == 0
        out_dir = tmp_path / "expl"
        (out_dir / "explain_x").mkdir(parents=True)
        rc = main(["explain", "--data", str(data), "--model", str(model),
                   "--config", str(config_path), "--out", str(out_dir),
                   "--entity", "x/../../escaped"])
        assert rc == 1
        assert not (tmp_path / "escaped.csv").exists()
        assert [p.name for p in out_dir.iterdir()] == ["explain_x"]

    def test_unknown_entity(self, tmp_path, config_path, data_path, trained):
        rc = main(["explain", "--data", str(data_path), "--model", str(trained),
                   "--config", str(config_path), "--out", str(tmp_path / "x"),
                   "--entity", "nobody"])
        assert rc == 1


class TestScoringHoldsOneBatch:
    """eval and explain encode each batch when they take it."""

    @pytest.fixture
    def portfolio(self, tmp_path, config_path):
        # 700 entities: eval --all takes three batches of at most 256
        samples = gen_synthetic_interaction(700, T=2, noise_fields=1, seed=1)
        data = tmp_path / "big.csv"
        write_csv(samples, data, synthetic_schema_config(1, 2))
        cfg = parse_config(config_path)
        ds = cli._load_split(data, cfg)
        ckpt = tmp_path / "m.ckpt"
        schema = build_schema(ds.train, cfg.schema_config())
        model.save_checkpoint(model.Model(schema, cfg.train), ckpt)
        return data, ckpt, ds

    @pytest.fixture
    def events(self, monkeypatch):
        """("encode", n) for each batch of n samples encoded, and ("forward", n)
        for each forward pass on n samples."""
        log = []

        def counting_encode(samples, schema):
            log.append(("encode", len(samples)))
            return encode(samples, schema)

        forward = model.Model.forward

        def logging_forward(self, batch):
            log.append(("forward", len(batch)))
            return forward(self, batch)

        monkeypatch.setattr(embedding, "encode", counting_encode)
        monkeypatch.setattr(model.Model, "forward", logging_forward)
        return log

    def assert_one_batch_at_a_time(self, log, n_samples):
        # each forward pass encodes its own batch, and nothing else is encoded
        sizes = [n for _, n in log[::2]]
        assert log == [(event, n) for n in sizes for event in ("forward", "encode")]
        assert max(sizes) <= 256 and sum(sizes) == n_samples and len(sizes) > 1

    def test_eval(self, config_path, portfolio, events, capsys):
        data, ckpt, ds = portfolio
        assert main(["eval", "--data", str(data), "--model", str(ckpt),
                     "--config", str(config_path), "--all"]) == 0
        self.assert_one_batch_at_a_time(events, len(ds.train) + len(ds.test))

    def test_explain_static(self, tmp_path, portfolio, events):
        data, ckpt, _ = portfolio
        cfg = tmp_path / "wide_test.cfg"
        cfg.write_text(SMALL_CONFIG.replace("ratio = 0.75", "ratio = 0.25"))
        ds = cli._load_split(data, parse_config(cfg))
        assert main(["explain", "--data", str(data), "--model", str(ckpt),
                     "--config", str(cfg), "--out", str(tmp_path / "expl"),
                     "--static"]) == 0
        self.assert_one_batch_at_a_time(events, len(ds.test))

    def test_eval_report_matches_a_normalized_list(self, portfolio):
        _, ckpt, ds = portfolio
        m = model.load_checkpoint(ckpt)
        samples = ds.train + ds.test
        norm = [normalize_ref(s, m.schema) for s in samples]
        y = np.concatenate([m.forward(gather_ref(norm[i:i + 256], m.schema))["y"].data
                            for i in range(0, len(norm), 256)])
        assert model.evaluate(m, samples) == model.confusion_report(
            y.argmax(axis=-1), [s.label for s in samples], y[:, 1])

    def test_entity_backtracks_the_patterns_once(self, tmp_path, config_path, portfolio,
                                                 monkeypatch):
        data, ckpt, ds = portfolio
        calls = []
        multisets = explain.channel_multisets

        def counting(*args):
            calls.append(args)
            return multisets(*args)

        monkeypatch.setattr(explain, "channel_multisets", counting)
        assert main(["explain", "--data", str(data), "--model", str(ckpt),
                     "--config", str(config_path), "--out", str(tmp_path / "expl"),
                     "--entity", ds.test[0].entity_id]) == 0
        assert len(calls) == 1


class TestBaselineCommand:
    def test_lr_baseline_runs(self, config_path, data_path, capsys):
        rc = main(["baseline", "--data", str(data_path), "--config", str(config_path),
                   "--which", "lr"])
        assert rc == 0
        assert "acc" in capsys.readouterr().out

    def test_zscore_needs_five_fields(self, config_path, data_path):
        rc = main(["baseline", "--data", str(data_path), "--config", str(config_path),
                   "--which", "zscore"])
        assert rc == 2

    @pytest.mark.parametrize("config", [
        SMALL_CONFIG + "zscore_fields = x1, x2, noise0, x1, size\n",
        SMALL_CONFIG.replace("noise0", "noise0, sector") + "categorical = sector\n"
        "zscore_fields = x1, x2, noise0, x1, sector\n"], ids=["unlisted", "categorical"])
    def test_zscore_fields_must_be_listed_numerical_fields(self, tmp_path, data_path,
                                                            capsys, config):
        cfg = tmp_path / "z.cfg"
        cfg.write_text(config)
        rc = main(["baseline", "--data", str(data_path), "--config", str(cfg),
                   "--which", "zscore"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and "is not a listed numerical field" in err

    def test_zscore_refuses_an_empty_cell(self, tmp_path, capsys):
        samples = gen_synthetic_interaction(10, T=2, noise_fields=1, seed=0)
        for s in samples[::2]:
            s.steps[-1]["x1"] = math.nan
        data = tmp_path / "gaps.csv"
        write_csv(samples, data, synthetic_schema_config(1, 2))
        cfg = tmp_path / "z.cfg"
        cfg.write_text(SMALL_CONFIG + "zscore_fields = x1, x2, noise0, x1, x2\n")
        rc = main(["baseline", "--data", str(data), "--config", str(cfg),
                   "--which", "zscore"])
        assert rc == 1
        err = capsys.readouterr().err
        assert re.search(r"entity 's0000[02468]' has an empty 'x1' cell", err), err
        assert "Traceback" not in err

    def test_zscore_runs_with_fields(self, tmp_path, data_path, capsys):
        cfg = tmp_path / "z.cfg"
        cfg.write_text(SMALL_CONFIG +
                       "zscore_fields = x1, x2, noise0, x1, x2\n")
        rc = main(["baseline", "--data", str(data_path), "--config", str(cfg),
                   "--which", "zscore"])
        assert rc == 0
        assert "acc" in capsys.readouterr().out


class TestGradcheckCommand:
    def test_passes_at_default_tolerance(self, tmp_path, config_path, capsys):
        rc = main(["gradcheck", "--config", str(config_path)])
        assert rc == 0
        assert "max relative error" in capsys.readouterr().out

    def test_fails_at_impossible_tolerance(self, config_path):
        rc = main(["gradcheck", "--config", str(config_path), "--tol", "1e-300"])
        assert rc == 1

    def test_selection_weights_clear_the_lasso_kink(self, tmp_path, monkeypatch):
        # at seed 12 an initial cross3.w_pca entry is 8.3e-5, within one
        # finite-difference step of the kink of |w|
        cfg = tmp_path / "kink.cfg"
        cfg.write_text("fields = x1, x2, noise0\nT = 3\nd = 4\nrank_widths = 4, 3\n"
                       "s = 3\nh = 8\nseed = 12\n")
        tc = dataclasses.replace(parse_config(cfg).train, h=5, rank_widths=[3, 3])   # as capped
        schema = build_schema(gen_synthetic_interaction(4, 3, 1, seed=12),
                              synthetic_schema_config(1, 3))
        fresh = np.concatenate([b.w_pca.data.ravel() for b in model.Model(schema, tc).blocks])
        assert np.abs(fresh).min() < 1e-4
        checked = []
        grad_check = cli.ad.grad_check

        def keeping(f, params, **kwargs):
            checked.extend(p.data.ravel().copy() for p in params if p.name.endswith("w_pca"))
            return grad_check(f, params, **kwargs)

        monkeypatch.setattr(cli.ad, "grad_check", keeping)
        assert main(["gradcheck", "--config", str(cfg)]) == 0
        w = np.concatenate(checked)
        near = np.abs(fresh) < 2e-4
        assert np.array_equal(w[~near], fresh[~near])
        assert np.array_equal(w[near], np.copysign(2e-4, fresh[near]))

    def test_checks_a_small_model_at_any_configured_size(self, tmp_path, monkeypatch):
        fields = ", ".join(["x1", "x2"] + [f"noise{i}" for i in range(23)])
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(f"fields = {fields}\nT = 5\nd = 16\nrank_widths = 4, 3\n"
                       "s = 3\nh = 12\nq = 0.7\nlambda = 0.002\n")
        checked = []
        grad_check = cli.ad.grad_check

        def counting(f, params, **kwargs):
            checked.append(sum(p.data.size for p in params))
            return grad_check(f, params, **kwargs)

        monkeypatch.setattr(cli.ad, "grad_check", counting)
        assert main(["gradcheck", "--config", str(cfg)]) == 0
        assert len(checked) == 1 and checked[0] <= 1000


class TestSweepCommand:
    def test_rank_sweep_rows(self, tmp_path, config_path, data_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--data", str(data_path), "--config", str(config_path),
                   "--axis", "rank", "--values", "1,2,3", "--out", str(out)])
        assert rc == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["rank", "acc", "auc"]
        assert [r[0] for r in rows[1:]] == ["1", "2", "3"]

    def test_timespan_sweep(self, tmp_path, config_path, data_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--data", str(data_path), "--config", str(config_path),
                   "--axis", "timespan", "--values", "1,2", "--out", str(out)])
        assert rc == 0
        rows = list(csv.reader(open(out)))
        assert len(rows) == 3

    @pytest.mark.parametrize("axis, values", [
        ("rank", "1,x"), ("rank", "2,0"), ("rank", "2,"),
        ("timespan", "2,0"), ("timespan", "2.5"),
    ])
    def test_bad_value_exits_two_before_training(self, tmp_path, config_path, data_path,
                                                  monkeypatch, capsys, axis, values):
        def no_training(*args, **kwargs):
            raise AssertionError("sweep trained a run")

        monkeypatch.setattr(cli, "train", no_training)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--data", str(data_path), "--config", str(config_path),
                   "--axis", axis, "--values", values, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error")
        assert not out.exists()


class TestMalformedCheckpoint:
    def test_eval_exits_one_with_a_message(self, tmp_path, config_path, data_path, capsys):
        cfg = parse_config(config_path)
        samples = cli._load_split(data_path, cfg).train
        ckpt = tmp_path / "m.ckpt"
        schema = build_schema(samples, cfg.schema_config())
        model.save_checkpoint(model.Model(schema, cfg.train), ckpt)
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob.replace(b'"d": 4', b'"d": 0'))
        rc = main(["eval", "--data", str(data_path), "--model", str(ckpt),
                   "--config", str(config_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{ckpt} has a malformed header: d must be >= 1" in err
        assert "Traceback" not in err


class TestCheckpointAgainstConfig:
    """eval and explain refuse a config that reads the data otherwise than the
    checkpoint's schema embeds it."""

    FIELDS = "fields = x1, x2, noise0, sector, segments\n"
    KINDS = "categorical = sector, segments\nmulti_valued = segments\n"

    @pytest.fixture
    def setup(self, tmp_path):
        samples = gen_synthetic_interaction(24, T=2, noise_fields=1, seed=0)
        for i, s in enumerate(samples):
            for step in s.steps:
                step["sector"] = "ab"[i % 2]
                step["segments"] = {"p": 0.5, "q": 0.5} if i % 3 else {"q": 1.0}
        data = tmp_path / "data.csv"
        write_csv(samples, data, SchemaConfig(fields=["x1", "x2", "noise0", "sector",
                                                      "segments"], time_span=2))
        config = SMALL_CONFIG.replace("fields = x1, x2, noise0\n", self.FIELDS + self.KINDS)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--out", str(ckpt)]) == 0
        return data, ckpt, config

    COMMANDS = {"eval": ["eval"], "static": ["explain", "--static"],
                "entity": ["explain", "--entity", "s00000"]}
    MISMATCHES = {
        "missing": ((FIELDS, "fields = x1, x2, sector, segments\n"),
                    "embeds field 'noise0', which the config does not list"),
        "T": (("T = 2\n", "T = 3\n"), "the config's T = 3 but .* with T = 2"),
        "numerical": ((KINDS, "categorical = segments\nmulti_valued = segments\n"),
                      "field 'sector' as categorical, but the config lists it as numerical"),
        "single": ((KINDS, "categorical = sector, segments\n"),
                   "field 'segments' as multi-valued, but the config lists it as categorical"),
    }

    @pytest.mark.parametrize("mismatch", MISMATCHES)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_mismatch_exits_one_naming_it(self, tmp_path, setup, capsys, command,
                                            mismatch):
        data, ckpt, config = setup
        (old, new), message = self.MISMATCHES[mismatch]
        cfg = tmp_path / "other.cfg"
        cfg.write_text(config.replace(old, new))
        argv = self.COMMANDS[command]
        rc = main(argv[:1] + ["--data", str(data), "--model", str(ckpt), "--config", str(cfg)]
                  + (["--out", str(tmp_path / "expl")] + argv[1:] if argv[1:] else []))
        assert rc == 1
        err = capsys.readouterr().err
        assert re.search(message, err), err
        assert "Traceback" not in err
        assert not (tmp_path / "expl").exists()
