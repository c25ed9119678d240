import contextlib
import csv
import dataclasses
import logging
import math
import os
import re
import shutil
import signal
import struct
import sys
import warnings

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


@contextlib.contextmanager
def logging_to_stderr():
    """Write log records to ``sys.stderr`` as it is now (capsys's stream in a
    test), as ``main``'s handler writes them to the terminal."""
    root = logging.getLogger()
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    level = root.level
    root.addHandler(handler)
    root.setLevel(logging.INFO)
    try:
        yield
    finally:
        root.removeHandler(handler)
        root.setLevel(level)


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

    @pytest.mark.parametrize("argv", [
        ["train", "--out", "m.ckpt"], ["sweep", "--axis", "rank", "--values", "1"],
        ["baseline", "--which", "lr"], ["gradcheck"],
    ], ids=["train", "sweep", "baseline", "gradcheck"])
    def test_a_command_that_trains_checks_every_training_value(self, tmp_path, data_path,
                                                                capsys, argv):
        p = tmp_path / "bad.cfg"
        p.write_text(with_line("s = 3"))
        data = ["--data", str(data_path)] if argv[0] != "gradcheck" else []
        assert main(argv[:1] + data + ["--config", str(p)] + argv[1:]) == 2
        assert capsys.readouterr().err == f"config error: {p}: s must be at most T=2, got 3\n"

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

    def test_categorical_field_must_be_listed(self, tmp_path, data_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(with_line("categorical = sectr"))
        with pytest.raises(ConfigError, match="categorical field 'sectr' is not a listed field"):
            parse_config(p)
        # refused before the data, whose rows have no sectr column to warn about
        rc = main(["train", "--data", str(data_path), "--config", str(p),
                   "--out", str(tmp_path / "m.ckpt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1, err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("line, message", [
        ("fields = x1, x2, x1", "fields lists 'x1' twice"),
        ("zscore_fields = x1, x2, x1", "zscore_fields lists 'x1' twice"),
    ] + [(f"fields = x1, x2, {column}",
          f"field {column!r} is a column of the long format itself")
         for column in ("entity_id", "period_index", "label")])
    def test_a_repeated_or_reserved_field_name_is_a_config_error(self, tmp_path, data_path,
                                                                 capsys, line, message):
        p = tmp_path / "bad.cfg"
        p.write_text(with_line(line))
        rc = main(["train", "--data", str(data_path), "--config", str(p),
                   "--out", str(tmp_path / "m.ckpt")])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: {p}: {message}\n"
        assert not (tmp_path / "m.ckpt").exists()

    def test_a_byte_that_is_not_utf8_is_a_config_error(self, tmp_path, data_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"fields = a\xff\n")
        rc = main(["train", "--data", str(data_path), "--config", str(cfg),
                   "--out", str(tmp_path / "m.ckpt")])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: {cfg}:1: byte 0xff is not UTF-8\n"

    def test_a_leading_byte_order_mark_is_skipped(self, tmp_path, config_path):
        cfg = tmp_path / "marked.cfg"
        # from the fields line, so that the mark sits before a key
        cfg.write_bytes(b"\xef\xbb\xbf" + SMALL_CONFIG.split("\n", 2)[2].encode())
        assert parse_config(cfg) == parse_config(config_path)

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

    def test_oversized_cell_names_its_line(self, tmp_path, config_path, capsys):
        y1 = tmp_path / "p1.csv"
        self.write_period(y1, [["e1", 1, 2, 3], ["e2", "9" * 131073, 2, 3]])
        out = tmp_path / "o.csv"
        rc = main(["ingest", "--in", str(y1), "--out", str(out), "--config", str(config_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{y1}:3: field larger than field limit (131072)" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_a_leading_byte_order_mark_is_skipped(self, tmp_path, config_path):
        y1, y2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        self.write_period(y1, [["acme", 1, 2, 3]])
        self.write_period(y2, [["acme", 4, 5, 6, 1]], with_label=True)
        argv = ["ingest", "--config", str(config_path), "--in", str(y1), str(y2), "--out"]
        assert main(argv + [str(tmp_path / "plain.csv")]) == 0
        for path in (y1, y2):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert main(argv + [str(tmp_path / "marked.csv")]) == 0
        assert (tmp_path / "marked.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

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

    @pytest.mark.parametrize("fields", ["noise0", ""])
    def test_no_usable_field_exits_one(self, tmp_path, capsys, fields):
        samples = gen_synthetic_interaction(40, T=2, noise_fields=1, seed=0)
        for s in samples:
            for step in s.steps:
                step["noise0"] = 1.0
        data = tmp_path / "data.csv"
        write_csv(samples, data, synthetic_schema_config(1, 2))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(with_line(f"fields = {fields}"))
        rc = main(["train", "--data", str(data), "--config", str(cfg),
                   "--out", str(tmp_path / "m.ckpt")])
        assert rc == 1
        configured = [fields] if fields else []
        assert capsys.readouterr().err == (
            f"error: no usable field among the configured fields {configured}\n")
        assert not (tmp_path / "m.ckpt").exists()

    def test_eval_of_an_oversized_cell_names_its_line(self, tmp_path, config_path, data_path,
                                                      capsys):
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--data", str(data_path), "--config", str(config_path),
                     "--out", str(ckpt)]) == 0
        rows = list(csv.reader(open(data_path, newline="")))
        rows[5][2] = "1" * 131073
        bad = tmp_path / "bad.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        rc = main(["eval", "--data", str(bad), "--model", str(ckpt),
                   "--config", str(config_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}:6: field larger than field limit (131072)\n"

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

    @pytest.mark.parametrize("zeroed, silent", [
        ((), ()),
        (("cross2", "cross3"), (2, 3)),
        (("cross3",), (3,)),
    ], ids=["none", "every_block", "block_2"])
    def test_a_rank_without_a_pattern_is_named(self, tmp_path, data_path, capsys, zeroed,
                                               silent):
        cfg = tmp_path / "two_blocks.cfg"
        cfg.write_text(with_line("rank_widths = 3, 2"))
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--data", str(data_path), "--config", str(cfg),
                     "--out", str(ckpt)]) == 0
        m = model.load_checkpoint(ckpt)
        for block in m.blocks:
            if block.w_pca.name.split(".")[0] in zeroed:
                block.w_pca.data[...] = 0.0
        model.save_checkpoint(m, ckpt)
        out_dir = tmp_path / "expl"
        capsys.readouterr()
        assert main(["explain", "--data", str(data_path), "--model", str(ckpt),
                     "--config", str(cfg), "--out", str(out_dir), "--static"]) == 0
        assert capsys.readouterr().out == "".join(
            f"rank {rank}: no pattern survives epsilon = 0.0001\n" for rank in silent
        ) + f"wrote {out_dir / 'patterns.csv'}\n"
        rows = list(csv.reader(open(out_dir / "patterns.csv")))
        assert {int(r[0]) for r in rows[1:]} == {1, 2, 3} - set(silent)

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
        cfg = parse_config(config_path)
        ds = cli._load_split(data_path, cfg.schema_config(), cfg.ratio, cfg.train.seed)
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

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("mode", [["--static"], ["--entity", "s00000"]],
                             ids=["static", "entity"])
    def test_non_finite_selection_weight(self, tmp_path, config_path, data_path, trained,
                                         capsys, mode, value):
        m = model.load_checkpoint(trained)
        m.blocks[0].w_pca.data[1, 0] = value
        bad = tmp_path / "bad.ckpt"
        model.save_checkpoint(m, bad)
        capsys.readouterr()
        rc = main(["explain", "--data", str(data_path), "--model", str(bad),
                   "--config", str(config_path), "--out", str(tmp_path / "x")] + mode)
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: parameter cross2.w_pca holds a non-finite value\n")
        assert not (tmp_path / "x").exists()

    def test_unknown_entity(self, tmp_path, config_path, data_path, trained):
        rc = main(["explain", "--data", str(data_path), "--model", str(trained),
                   "--config", str(config_path), "--out", str(tmp_path / "x"),
                   "--entity", "nobody"])
        assert rc == 1


    def entity_rows(self, data_path, entity):
        """The header and ``entity``'s rows of the CSV, and their line numbers."""
        rows = list(csv.reader(open(data_path, newline="")))
        return rows[0], [(i + 1, r) for i, r in enumerate(rows) if r[0] == entity], rows

    def explain_entity(self, data, trained, config_path, out_dir, entity="s00000"):
        return main(["explain", "--data", str(data), "--model", str(trained),
                     "--config", str(config_path), "--out", str(out_dir),
                     "--entity", entity])

    def test_one_entity_csv_gives_the_same_files(self, tmp_path, config_path, data_path,
                                                 trained):
        header, own, _ = self.entity_rows(data_path, "s00000")
        one = tmp_path / "one.csv"
        with open(one, "w", newline="") as fh:
            csv.writer(fh).writerows([header] + [r for _, r in own])
        assert self.explain_entity(data_path, trained, config_path, tmp_path / "all") == 0
        assert self.explain_entity(one, trained, config_path, tmp_path / "one") == 0
        for name in ("explain_s00000.csv", "heatmap_s00000.svg"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "all" / name).read_bytes()

    def test_a_bad_row_of_the_entity_names_its_line(self, tmp_path, config_path, data_path,
                                                   trained, capsys):
        _, own, rows = self.entity_rows(data_path, "s00000")
        line, _ = own[1]
        rows[line - 1] = rows[line - 1][:3]
        bad = tmp_path / "bad.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert self.explain_entity(bad, trained, config_path, tmp_path / "x") == 1
        err = capsys.readouterr().err
        assert f"{bad}:{line}: expected {len(rows[0])} cells, got 3" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_other_entities_rows_are_not_checked(self, tmp_path, config_path, data_path,
                                                 trained):
        _, other, rows = self.entity_rows(data_path, "s00001")
        line, _ = other[0]
        rows[line - 1] = rows[line - 1][:3]
        bad = tmp_path / "bad.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert self.explain_entity(bad, trained, config_path, tmp_path / "x") == 0
        assert main(["eval", "--data", str(bad), "--model", str(trained),
                     "--config", str(config_path)]) == 1

    def test_unknown_entity_is_named(self, tmp_path, config_path, data_path, trained, capsys):
        assert self.explain_entity(data_path, trained, config_path, tmp_path / "x",
                                   entity="nobody") == 1
        assert "unknown entity id 'nobody'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("fault", ["period 0 removed", "every row skipped"])
    def test_an_entity_without_a_window_is_named_with_t(self, tmp_path, config_path,
                                                        data_path, trained, capsys, fault):
        header, own, rows = self.entity_rows(data_path, "s00003")
        line, first = own[0]
        assert first[1] == "0"
        short = tmp_path / "short.csv"
        why = ""
        if fault == "period 0 removed":
            del rows[line - 1]
        else:
            for row_line, _ in own:
                rows[row_line - 1][header.index("x1")] = "n/a"     # a non-numeric cell
            why = f" ({short}:{line}: non-numeric value 'n/a' in field 'x1', row skipped)"
        with open(short, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert self.explain_entity(short, trained, config_path, tmp_path / "x",
                                   entity="s00003") == 1
        err = capsys.readouterr().err
        assert err == (f"error: entity 's00003' has no 2 consecutive periods ending in a "
                       f"labeled one{why}\n")
        assert not (tmp_path / "x").exists()
        # the other entities still explain
        assert self.explain_entity(short, trained, config_path, tmp_path / "x") == 0

    # the three forms of a skipped row the boundary fuzz found: the cell
    # changed in the entity's final-period row, and the reason given
    SKIPPED = {"non-numeric cell": ("x1", "n/a", "non-numeric value 'n/a' in field 'x1', "
                                                 "row skipped"),
               "bad period_index": ("period_index", "one", "bad period_index 'one', "
                                                           "row skipped"),
               "unlabeled final period": ("label", "", "entity s00003 has no label on its "
                                                       "final period, dropped")}

    @pytest.mark.parametrize("form", SKIPPED)
    def test_a_skipped_row_is_named_in_one_line(self, tmp_path, config_path, data_path,
                                                trained, capsys, form):
        column, cell, why = self.SKIPPED[form]
        header, own, rows = self.entity_rows(data_path, "s00003")
        line, final = own[-1]
        assert final[1] == "1"
        rows[line - 1][header.index(column)] = cell
        bad = tmp_path / "bad.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        with logging_to_stderr():
            assert self.explain_entity(bad, trained, config_path, tmp_path / "x",
                                       entity="s00003") == 1
            # the whole-file load still warns of the row it skips
            assert main(["eval", "--data", str(bad), "--model", str(trained),
                         "--config", str(config_path), "--all"]) == 0
        err, warned = capsys.readouterr().err.split("\n", 1)
        assert err + "\n" == (
            f"error: entity 's00003' has no 2 consecutive periods ending in a labeled one "
            f"({bad}:{line}: {why})\n")
        assert warned.startswith("WARNING ") and "INFO dropped 1 entities" in warned
        assert not (tmp_path / "x").exists()


class TestBadDataFile:
    """A data file that is empty or holds a byte that is not UTF-8 stops every
    command that reads it with one line naming the file."""

    @pytest.fixture
    def argv(self, tmp_path, config_path, data_path):
        cfg = parse_config(config_path)
        ds = cli._load_split(data_path, cfg.schema_config(), cfg.ratio, cfg.train.seed)
        schema = build_schema(ds.train, cfg.schema_config())
        ckpt = tmp_path / "m.ckpt"
        model.save_checkpoint(model.Model(schema, cfg.train), ckpt)
        commands = {
            "ingest": ["ingest", "--out", str(tmp_path / "o.csv"), "--in"],
            "eval": ["eval", "--model", str(ckpt), "--data"],
            "explain": ["explain", "--model", str(ckpt), "--out", str(tmp_path / "x"),
                        "--entity", "s00000", "--data"]}
        return lambda command, data: (commands[command] + [str(data)]
                                      + ["--config", str(config_path)])

    @pytest.mark.parametrize("command", ["ingest", "eval"])
    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path, argv, capsys, command):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"entity_id,period_index,x1,x2,noise0,label\n"
                        b"e1,0,1,2,3,\n" b"e1,1,1,\xff,3,1\n")
        assert main(argv(command, bad)) == 1
        assert capsys.readouterr().err == f"error: {bad}:3: byte 0xff is not UTF-8\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("command", ["ingest", "eval", "explain"])
    def test_an_empty_file_gives_one_message(self, tmp_path, argv, capsys, command):
        empty = tmp_path / "empty.csv"
        empty.write_bytes(b"")
        assert main(argv(command, empty)) == 1
        assert capsys.readouterr().err == f"error: {empty}: empty file\n"
        assert not (tmp_path / "o.csv").exists() and not (tmp_path / "x").exists()


class TestScoringHoldsOneBatch:
    """eval and explain encode each batch when they take it. With the scoring
    helper on, the caller scores the even batches and a forked child process
    the odd ones, each process one batch at a time."""

    @pytest.fixture
    def portfolio(self, tmp_path, config_path, monkeypatch):
        # a stack of T=2, N=6 and d=4 is 384 bytes a sample; with 256 samples'
        # worth a batch, 700 entities make eval --all take three batches
        monkeypatch.setattr(model, "SCORE_BYTES", 256 * 384)
        samples = gen_synthetic_interaction(700, T=2, noise_fields=1, seed=1)
        data = tmp_path / "big.csv"
        write_csv(samples, data, synthetic_schema_config(1, 2))
        cfg = parse_config(config_path)
        ds = cli._load_split(data, cfg.schema_config(), cfg.ratio, cfg.train.seed)
        ckpt = tmp_path / "m.ckpt"
        schema = build_schema(ds.train, cfg.schema_config())
        m = model.Model(schema, cfg.train)
        assert m.score_batch == 256
        model.save_checkpoint(m, ckpt)
        return data, ckpt, ds

    @pytest.fixture
    def events(self, monkeypatch, process_log):
        """A log with an ("encode", first, n, pid) event for each batch of n
        samples encoded, and a ("forward", first, n, pid) event for each forward
        pass on n samples, where first is the batch's first entity id; the
        helper is on whatever the machine's CPU count and BLAS."""
        def counting_encode(samples, schema):
            process_log.append("encode", samples[0].entity_id, len(samples))
            return encode(samples, schema)

        forward = model.Model.forward

        def logging_forward(self, batch):
            process_log.append("forward", batch[0].entity_id, len(batch))
            return forward(self, batch)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(model, "ONE_BLAS_THREAD", True)
        monkeypatch.setattr(embedding, "encode", counting_encode)
        monkeypatch.setattr(model.Model, "forward", logging_forward)
        return process_log

    def assert_one_batch_at_a_time(self, log, samples):
        # in each scoring process, each forward pass encodes its own batch, and
        # nothing else is encoded
        log = [(event, first, int(n), pid) for event, first, n, pid in log.events()]
        pids = {pid for *_, pid in log}
        assert len(pids) == 2
        for pid in pids:
            events = [e[:3] for e in log if e[3] == pid]
            assert events == [(event, first, n) for _, first, n in events[::2]
                              for event in ("forward", "encode")]
        # one forward pass a batch: the caller takes the even batches and the
        # child the odd ones
        caller = os.getpid()
        child, = pids - {caller}
        forwards = {first: (n, pid) for event, first, n, pid in log if event == "forward"}
        starts = range(0, len(samples), 256)
        assert len(forwards) == len(log) // 2 == len(starts) > 1
        assert [forwards[samples[s].entity_id] for s in starts] == [
            (len(samples[s:s + 256]), child if i % 2 else caller) for i, s in enumerate(starts)]

    def test_eval(self, config_path, portfolio, events, capsys):
        data, ckpt, ds = portfolio
        assert main(["eval", "--data", str(data), "--model", str(ckpt),
                     "--config", str(config_path), "--all"]) == 0
        self.assert_one_batch_at_a_time(events, ds.train + ds.test)

    def test_explain_static(self, tmp_path, portfolio, events):
        data, ckpt, _ = portfolio
        cfg = tmp_path / "wide_test.cfg"
        cfg.write_text(SMALL_CONFIG.replace("ratio = 0.75", "ratio = 0.25"))
        parsed = parse_config(cfg)
        ds = cli._load_split(data, parsed.schema_config(), parsed.ratio, parsed.train.seed)
        assert main(["explain", "--data", str(data), "--model", str(ckpt),
                     "--config", str(cfg), "--out", str(tmp_path / "expl"),
                     "--static"]) == 0
        self.assert_one_batch_at_a_time(events, ds.test)

    def test_a_killed_helper_exits_1_with_one_line(self, config_path, portfolio, monkeypatch,
                                                   capsys):
        data, ckpt, _ = portfolio
        parent, forward = os.getpid(), model.Model.forward

        def dying_in_the_child(self, batch):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return forward(self, batch)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(model, "ONE_BLAS_THREAD", True)
        monkeypatch.setattr(model.Model, "forward", dying_in_the_child)
        assert main(["eval", "--data", str(data), "--model", str(ckpt),
                     "--config", str(config_path), "--all"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the scoring child process ended with no result "
                                "(killed by signal 9)\n")

    def test_a_half_written_result_exits_1_with_one_line(self, config_path, portfolio,
                                                         monkeypatch, capsys):
        data, ckpt, _ = portfolio
        outcome = model._outcome
        # eval --all takes three batches, so the child scores one and then ends
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(model, "ONE_BLAS_THREAD", True)
        monkeypatch.setattr(model, "_outcome", lambda score, start: outcome(score, start)[:100])
        assert main(["eval", "--data", str(data), "--model", str(ckpt),
                     "--config", str(config_path), "--all"]) == 1
        assert capsys.readouterr() == ("", (
            "error: the scoring child process's result could not be read: UnpicklingError: "
            "pickle data was truncated\n"))

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
        path_weights = explain.path_weights

        def counting(*args):
            calls.append(args)
            return path_weights(*args)

        monkeypatch.setattr(explain, "path_weights", counting)
        assert main(["explain", "--data", str(data), "--model", str(ckpt),
                     "--config", str(config_path), "--out", str(tmp_path / "expl"),
                     "--entity", ds.test[0].entity_id]) == 0
        assert len(calls) == 1


# the zscore baseline reads five distinct numerical fields
FIVE_FIELD_CONFIG = (SMALL_CONFIG.replace("fields = x1, x2, noise0",
                                          "fields = x1, x2, noise0, noise1, noise2")
                     + "zscore_fields = x1, x2, noise0, noise1, noise2\n")


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
        SMALL_CONFIG + "zscore_fields = x1, x2, noise0, size, debt\n",
        SMALL_CONFIG.replace("noise0", "noise0, sector") + "categorical = sector\n"
        "zscore_fields = x1, x2, noise0, sector, debt\n"], ids=["unlisted", "categorical"])
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
        samples = gen_synthetic_interaction(10, T=2, noise_fields=3, seed=0)
        for s in samples[::2]:
            s.steps[-1]["x1"] = math.nan
        data = tmp_path / "gaps.csv"
        write_csv(samples, data, synthetic_schema_config(3, 2))
        cfg = tmp_path / "z.cfg"
        cfg.write_text(FIVE_FIELD_CONFIG)
        rc = main(["baseline", "--data", str(data), "--config", str(cfg),
                   "--which", "zscore"])
        assert rc == 1
        err = capsys.readouterr().err
        assert re.search(r"entity 's0000[02468]' has an empty 'x1' cell", err), err
        assert "Traceback" not in err

    def test_zscore_runs_with_fields(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_csv(gen_synthetic_interaction(24, T=2, noise_fields=3, seed=0), data,
                  synthetic_schema_config(3, 2))
        cfg = tmp_path / "z.cfg"
        cfg.write_text(FIVE_FIELD_CONFIG)
        rc = main(["baseline", "--data", str(data), "--config", str(cfg),
                   "--which", "zscore"])
        assert rc == 0
        assert "acc" in capsys.readouterr().out

    @pytest.fixture
    def five_field_inputs(self, tmp_path):
        samples = gen_synthetic_interaction(24, T=2, noise_fields=3, seed=0)
        data, cfg = tmp_path / "data.csv", tmp_path / "z.cfg"
        cfg.write_text(FIVE_FIELD_CONFIG)
        return samples, data, cfg

    @pytest.mark.parametrize("which", ["lr", "zscore"])
    def test_more_than_two_classes_is_a_config_error(self, five_field_inputs, capsys, which):
        samples, data, cfg = five_field_inputs
        write_csv(samples, data, synthetic_schema_config(3, 2))
        cfg.write_text(FIVE_FIELD_CONFIG + "k = 3\n")
        rc = main(["baseline", "--data", str(data), "--config", str(cfg), "--which", which])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: the baselines rate two classes, but the config sets k = 3\n")

    @pytest.mark.parametrize("which", ["lr", "zscore"])
    def test_a_label_outside_the_classes_exits_one(self, five_field_inputs, capsys, which):
        samples, data, cfg = five_field_inputs
        samples[5].label = 2
        write_csv(samples, data, synthetic_schema_config(3, 2))
        rc = main(["baseline", "--data", str(data), "--config", str(cfg), "--which", which])
        assert rc == 1
        assert capsys.readouterr() == ("", "error: entity 's00005' has label 2, "
                                           "outside [0, 2)\n")


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

    @pytest.mark.parametrize("argv", [["train", "--out", "m.ckpt"],
                                      ["sweep", "--axis", "rank", "--values", "1,2"]],
                             ids=["train", "sweep"])
    def test_divergence_exits_one_without_a_traceback(self, tmp_path, data_path, capsys,
                                                      monkeypatch, argv):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(with_line("lr = 1e306"))
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv[:1] + ["--data", str(data_path), "--config", str(cfg)] + argv[1:])
        assert rc == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], [
            str(w.message) for w in caught]
        err = capsys.readouterr().err
        assert re.fullmatch(r"training diverged: loss became non-finite at epoch \d+, "
                            r"batch \d+\n", err), err
        assert not (tmp_path / "sweep.csv").exists() and not (tmp_path / "m.ckpt").exists()

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


class TestNonFiniteScores:
    """A model whose parameters stay finite while its forward pass overflows
    (one epoch at lr = 1e306) is refused where it is scored, in one line."""

    CONFIG = ("fields = x1, x2\nT = 2\nd = 4\nrank_widths = 3\nh = 5\ns = 1\n"
              "epochs = 1\nlr = 1e306\n")

    def write_inputs(self, tmp_path):
        data, cfg = tmp_path / "data.csv", tmp_path / "huge.cfg"
        write_csv(gen_synthetic_interaction(40, T=2, noise_fields=0, seed=0), data,
                  synthetic_schema_config(0, 2))
        cfg.write_text(self.CONFIG)
        return data, cfg

    def test_train_exits_one_and_saves_nothing(self, tmp_path, capsys, monkeypatch):
        data, cfg = self.write_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["train", "--data", str(data), "--config", str(cfg), "--out", "m.ckpt"])
        assert rc == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], [
            str(w.message) for w in caught]
        assert re.fullmatch(r"error: entity 's\d{5}' scores non-finite: the model's "
                            r"forward pass overflows\n", capsys.readouterr().err)
        assert not (tmp_path / "m.ckpt").exists()
        assert not (tmp_path / "m.trace.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--axis", "rank", "--values", "1,2"],
        ["eval", "--model", "m.ckpt"],
        ["explain", "--model", "m.ckpt", "--out", "expl", "--static"],
        ["explain", "--model", "m.ckpt", "--out", "expl", "--entity", "s00000"],
    ], ids=["sweep", "eval", "static", "entity"])
    def test_scoring_exits_one_with_one_line(self, tmp_path, capsys, monkeypatch, argv):
        data, cfg = self.write_inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        if argv[0] != "sweep":
            # train refuses to save this model, so it is trained and saved here
            parsed = parse_config(cfg)
            ds = cli._load_split(data, parsed.schema_config(), parsed.ratio, parsed.train.seed)
            with np.errstate(all="ignore"):
                trained, _ = model.train(ds.train, build_schema(ds.train, parsed.schema_config()),
                                         parsed.train)
            model.save_checkpoint(trained, tmp_path / "m.ckpt")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv[:1] + ["--data", str(data), "--config", str(cfg)] + argv[1:])
        assert rc == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], [
            str(w.message) for w in caught]
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"error: entity 's\d{5}' scores non-finite: the model's "
                            r"forward pass overflows\n", err), err
        assert not (tmp_path / "sweep.csv").exists() and not (tmp_path / "expl").exists()


class TestNonFiniteCheckpoint:
    @pytest.mark.parametrize("name, index, value", [
        ("gru.w_h", (0, 1), math.inf), ("cross2.w_pca", (1, 0), math.nan),
        ("embed.basis", (2, 3), -math.inf)])
    def test_eval_exits_one_before_reading_data(self, tmp_path, config_path, data_path,
                                                capsys, name, index, value):
        cfg = parse_config(config_path)
        ds = cli._load_split(data_path, cfg.schema_config(), cfg.ratio, cfg.train.seed)
        schema = build_schema(ds.train, cfg.schema_config())
        m = model.Model(schema, cfg.train)
        m.named_params()[name].data[index] = value
        ckpt = tmp_path / "m.ckpt"
        model.save_checkpoint(m, ckpt)
        for data in (data_path, tmp_path / "absent.csv"):
            rc = main(["eval", "--data", str(data), "--model", str(ckpt),
                       "--config", str(config_path)])
            assert rc == 1
            assert capsys.readouterr() == (
                "", f"error: {ckpt}: parameter {name} holds a non-finite value\n")


class TestMalformedCheckpoint:
    def test_eval_exits_one_with_a_message(self, tmp_path, config_path, data_path, capsys):
        cfg = parse_config(config_path)
        samples = cli._load_split(data_path, cfg.schema_config(), cfg.ratio, cfg.train.seed).train
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

    NAME_RULE = {"x1": "the schema lists 'x1' twice",
                 "label": "field 'label' is a column of the long format itself"}

    @pytest.mark.parametrize("name", NAME_RULE)
    def test_a_repeated_or_reserved_field_name_is_malformed(self, tmp_path, config_path,
                                                            data_path, capsys, name):
        cfg = parse_config(config_path)
        samples = cli._load_split(data_path, cfg.schema_config(), cfg.ratio, cfg.train.seed).train
        schema = [dataclasses.replace(f, name=name if f.name == "noise0" else f.name)
                  for f in build_schema(samples, cfg.schema_config())]
        ckpt = tmp_path / "m.ckpt"
        model.save_checkpoint(model.Model(schema, cfg.train), ckpt)
        with pytest.raises(ValueError, match=re.escape(
                f"{ckpt} has a malformed header: {self.NAME_RULE[name]}")):
            model.load_checkpoint(ckpt)
        rc = main(["eval", "--data", str(data_path), "--model", str(ckpt),
                   "--config", str(config_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{ckpt} has a malformed header" in err and err.count("\n") == 1, err


    def test_a_vocab_entry_that_is_not_a_string_is_malformed(self, tmp_path, config_path,
                                                             data_path, capsys):
        cfg = parse_config(config_path)
        samples = cli._load_split(data_path, cfg.schema_config(), cfg.ratio, cfg.train.seed).train
        schema = [dataclasses.replace(f, kind="categorical", vocab=["a", "b"])
                  if f.name == "noise0" else f for f in build_schema(samples, cfg.schema_config())]
        ckpt = tmp_path / "m.ckpt"
        model.save_checkpoint(model.Model(schema, cfg.train), ckpt)
        blob = ckpt.read_bytes()
        # the same length, so the header's length prefix still holds
        assert blob.count(b'"vocab": ["a", "b"]') == 1
        ckpt.write_bytes(blob.replace(b'"vocab": ["a", "b"]', b'"vocab": ["a", [0]]'))
        rc = main(["eval", "--data", str(data_path), "--model", str(ckpt),
                   "--config", str(config_path)])
        assert rc == 1
        assert capsys.readouterr() == ("", (
            f"error: {ckpt} has a malformed header: categorical field 'noise0' needs a "
            f"non-empty vocab list of strings\n"))

class TestCheckpointAgainstConfig:
    """eval and explain read the fields the checkpoint embeds as it embeds
    them, over its T, and split with its seed, so a config that lists them
    otherwise or sets another seed gives the same output as the training
    config; from the config they take its ratio and the fields the model
    dropped. The ids of
    test_a_mismatch_exits_one_naming_it are kept as lists of passing tests
    name them; it checks that a mismatch gives the training config's output."""

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
        "missing": (FIELDS, "fields = x1, x2, sector, segments\n"),
        "T": ("T = 2\n", "T = 3\n"),
        "numerical": (KINDS, "categorical = segments\nmulti_valued = segments\n"),
        "single": (KINDS, "categorical = sector, segments\n"),
    }

    def run(self, tmp_path, argv, data, ckpt, config, capsys):
        """Exit code, stdout, stderr and the files written of one command,
        run with ``config`` as its config file."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out_dir = tmp_path / "expl"
        capsys.readouterr()
        rc = main(argv[:1] + ["--data", str(data), "--model", str(ckpt), "--config", str(cfg)]
                  + (["--out", str(out_dir)] if argv[0] == "explain" else []) + argv[1:])
        files = {}
        if out_dir.exists():
            files = {f.name: f.read_bytes() for f in out_dir.iterdir()}
            shutil.rmtree(out_dir)
        return rc, capsys.readouterr(), files

    @pytest.mark.parametrize("mismatch", MISMATCHES)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_mismatch_exits_one_naming_it(self, tmp_path, setup, capsys, command,
                                            mismatch):
        data, ckpt, config = setup
        old, new = self.MISMATCHES[mismatch]
        argv = self.COMMANDS[command]
        matching = self.run(tmp_path, argv, data, ckpt, config, capsys)
        assert matching[0] == 0 and matching[1].out
        assert self.run(tmp_path, argv, data, ckpt, config.replace(old, new),
                        capsys) == matching

    READERS = {"all": ["eval", "--all"], "static": ["explain", "--static"],
               "entity": ["explain", "--entity", "s00000"]}

    @pytest.mark.parametrize("command", READERS)
    def test_a_training_value_it_never_reads_is_not_checked(self, tmp_path, setup, capsys,
                                                             command):
        data, ckpt, config = setup
        argv = self.READERS[command]
        matching = self.run(tmp_path, argv, data, ckpt, config, capsys)
        assert matching[0] == 0 and matching[1].out
        # s = 3 is more than T = 2, which train refuses
        assert "s = 1\nh" in config
        unchecked = config.replace("s = 1\n", "s = 3\n")
        assert self.run(tmp_path, argv, data, ckpt, unchecked, capsys) == matching

    @pytest.mark.parametrize("old, new, message", [
        ("s = 1", "just a line", ":9: expected 'key = value', got 'just a line'"),
        ("s = 1", "bogus = 1", ":9: unknown config key 'bogus'"),
        ("s = 1", "s = three", ":9: bad value for 's'"),
        ("ratio = 0.75", "ratio = 1.5", ": ratio must be in (0,1), got 1.5"),
    ], ids=["malformed", "unknown", "unparsed", "ratio"])
    @pytest.mark.parametrize("command", READERS)
    def test_a_config_it_cannot_read_still_exits_2(self, tmp_path, setup, capsys, command,
                                                  old, new, message):
        data, ckpt, config = setup
        assert f"\n{old}\n" in config
        rc, captured, files = self.run(tmp_path, self.READERS[command], data, ckpt,
                                       config.replace(f"\n{old}\n", f"\n{new}\n"), capsys)
        assert (rc, captured.out, files) == (2, "", {})
        assert captured.err.startswith(f"config error: {tmp_path / 'run.cfg'}{message}")
        assert captured.err.count("\n") == 1

    def test_eval_splits_with_the_checkpoints_seed(self, tmp_path, data_path, config_path,
                                                   capsys):
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--data", str(data_path), "--config", str(config_path),
                     "--out", str(ckpt)]) == 0
        argv = ["eval", "--data", str(data_path), "--model", str(ckpt), "--config"]
        capsys.readouterr()
        assert main(argv + [str(config_path)]) == 0
        trained = capsys.readouterr()
        other = tmp_path / "seed4.cfg"
        other.write_text(with_line("seed = 4"))
        assert main(argv + [str(other)]) == 0
        assert capsys.readouterr() == trained

    def test_eval_splits_as_train_did(self, tmp_path, capsys):
        samples = gen_synthetic_interaction(24, T=2, noise_fields=1, seed=0)
        for s in samples:
            for step in s.steps:
                step["flat"] = 1.0      # zero variance: build_schema drops it
        config = SMALL_CONFIG.replace("fields = x1, x2, noise0", "fields = x1, x2, noise0, flat")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(config)
        data = tmp_path / "data.csv"
        fields = ["x1", "x2", "noise0", "flat"]
        write_csv(samples, data, SchemaConfig(fields=fields, time_span=2))
        rows = list(csv.reader(open(data, newline="")))
        rows[2][rows[0].index("flat")] = "n/a"     # the first entity's final period
        with open(data, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--data", str(data), "--config", str(cfg_path),
                     "--out", str(ckpt)]) == 0
        assert [f.name for f in model.load_checkpoint(ckpt).schema] == fields[:3]
        cfg = cli.parse_config(cfg_path)
        trained = cli._load_split(data, cfg.schema_config(), cfg.ratio, cfg.train.seed)
        assert len(trained.train) + len(trained.test) == len(samples) - 1
        _, schema_config = cli._load_model(ckpt, cfg)
        evaluated = cli._load_split(data, schema_config, cfg.ratio, cfg.train.seed)
        for part in ("train", "test"):
            assert ([s.entity_id for s in getattr(evaluated, part)]
                    == [s.entity_id for s in getattr(trained, part)])
        capsys.readouterr()
        assert main(["eval", "--data", str(data), "--model", str(ckpt),
                     "--config", str(cfg_path)]) == 0
        counts = capsys.readouterr().out.strip().splitlines()[-1].split(",")[:4]
        assert sum(map(int, counts)) == len(trained.test)
