"""Command-line entry points: ingest, train, eval, explain, baseline,
gradcheck and sweep.

Configuration is a flat ``key = value`` file with ``#`` comments; every
value is validated at parse time. Exit codes: 0 ok, 1 runtime error,
2 usage/config error.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import baselines, explain
from .data import (ENTITY, LABEL, PERIOD, DataError, SchemaConfig, build_schema,
                   check_field_names, gen_synthetic_interaction, load_csv, read_rows,
                   read_text, schema_config_of, split, synthetic_schema_config, write_rows)
from .model import (Model, TrainConfig, TrainingDiverged, _check_labels, confusion_report,
                    evaluate, load_checkpoint, objective, save_checkpoint, train)

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Data and split settings, and the ``TrainConfig`` of the model."""
    fields: list = field(default_factory=list)
    categorical: list = field(default_factory=list)
    multi_valued: list = field(default_factory=list)
    entity_column: str = "entity_id"
    label_column: str = "label"
    zscore_fields: list = field(default_factory=list)
    ratio: float = 0.7
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"ratio must be in (0,1), got {self.ratio}")
        check_field_names(self.fields)
        check_field_names(self.zscore_fields, "zscore_fields")
        self.schema_config()    # checks the field kinds
        for name in self.zscore_fields:
            if name not in self.fields or name in self.categorical:
                raise ValueError(f"zscore field {name!r} is not a listed numerical field")

    def schema_config(self):
        return SchemaConfig(fields=list(self.fields),
                            categorical=set(self.categorical),
                            multi_valued=set(self.multi_valued),
                            time_span=self.train.T)


# config-file spellings of TrainConfig fields
_ALIASES = {"lambda": "lam", "K": "top_k"}


def parse_config(path, training=True):
    """Parse the flat key=value config file, rejecting unknown, repeated or bad keys.

    The keys are RunConfig's and TrainConfig's fields; each value takes the
    type of its field's default, with lists and tuples comma-separated. A
    byte that is not UTF-8 is a DataError naming its line. With ``training``
    false the TrainConfig values are parsed but not checked, and ``train``
    is left at its defaults: for commands that read every training value
    from a checkpoint.
    """
    defaults = asdict(RunConfig())
    train_defaults = defaults.pop("train")
    defaults.update(train_defaults)
    kwargs, lines = {}, {}
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = _ALIASES.get(key.strip(), key.strip()), value.strip()
        if key not in defaults:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: {key!r} is already set on line {lines[key]}")
        lines[key] = lineno
        kind = type(defaults[key])
        try:
            if kind in (list, tuple):
                items = [v.strip() for v in value.split(",") if v.strip()]
                kwargs[key] = tuple(int(v) for v in items) if kind is tuple else items
            else:
                kwargs[key] = kind(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    train = {k: kwargs.pop(k) for k in list(kwargs) if k in train_defaults}
    try:
        return RunConfig(train=TrainConfig(**train) if training else TrainConfig(), **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _load_split(data_path, schema_config, ratio, seed):
    """``data_path`` read through ``schema_config``, split by ``ratio`` and ``seed``."""
    samples = load_csv(data_path, schema_config)
    if len(samples) < 2:
        raise DataError(f"{data_path}: need at least 2 usable entities, got {len(samples)}")
    return split(samples, ratio, seed)


def _load_model(path, cfg):
    """The checkpoint at ``path`` and the SchemaConfig that reads the data as the
    training config ``cfg`` did; DataError unless every parameter is finite."""
    model = load_checkpoint(path)
    for p in model.params():
        if not np.isfinite(p.data).all():
            raise DataError(f"{path}: parameter {p.name} holds a non-finite value")
    return model, schema_config_of(model.schema, model.config.T, cfg.schema_config())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_ingest(args, cfg):
    """Convert wide per-period CSV files (one file per period, in order) to long."""
    rows = {}
    for period, path in enumerate(args.inputs):
        with read_rows(path, [cfg.entity_column, *cfg.fields]) as (width, column, lines):
            entity_col, label_col = column[cfg.entity_column], column.get(cfg.label_column)
            field_cols = [column[f] for f in cfg.fields]
            for lineno, row in lines:
                if len(row) != width:
                    raise DataError(f"{path}:{lineno}: expected {width} cells, got {len(row)}")
                key = (row[entity_col], period)
                if key in rows:
                    raise DataError(f"{path}:{lineno}: duplicate (entity, period) pair {key}")
                label = row[label_col] if label_col is not None else ""
                rows[key] = ([row[c] for c in field_cols], label)

    final = len(args.inputs) - 1
    unlabeled = sorted(e for (e, period), (_, label) in rows.items()
                       if period == final and label == "")
    if unlabeled:
        raise DataError(f"entity {unlabeled[0]!r} has no label on its final period")
    write_rows(args.out, [ENTITY, PERIOD, *cfg.fields, LABEL],
               ([e, period, *vals, label if period == final else ""]
                for (e, period), (vals, label) in sorted(rows.items())))
    print(f"wrote {args.out} ({len({e for e, _ in rows})} entities, {len(rows)} rows)")
    return 0


def cmd_train(args, cfg):
    schema_config = cfg.schema_config()
    ds = _load_split(args.data, schema_config, cfg.ratio, cfg.train.seed)
    schema = build_schema(ds.train, schema_config)
    with np.errstate(all="ignore"):     # a non-finite loss raises TrainingDiverged
        model, trace = train(ds.train, schema, cfg.train, log_every=1)
    # the last update can leave every parameter finite and the forward pass
    # overflowing; scoring raises ValueError on that before anything is saved
    for _ in model.score(ds.train):
        pass
    save_checkpoint(model, args.out)
    trace_path = Path(args.out).with_suffix(".trace.csv")
    write_rows(trace_path, ["epoch", "mean_loss", "train_acc"],
               ([epoch, f"{loss:.8g}", f"{acc:.6g}"] for epoch, loss, acc in trace))
    print(f"wrote {args.out} and {trace_path}")
    return 0


def cmd_eval(args, cfg):
    model, schema_config = _load_model(args.model, cfg)
    ds = _load_split(args.data, schema_config, cfg.ratio, model.config.seed)
    report = evaluate(model, ds.train + ds.test if args.all else ds.test)
    print(report.as_table())
    print("tp,fp,fn,tn,acc,err1,err2,auc")
    print(f"{report.tp},{report.fp},{report.fn},{report.tn},"
          f"{report.acc:.6g},{report.err1:.6g},{report.err2:.6g},{report.auc:.6g}")
    return 0


def cmd_explain(args, cfg):
    model, schema_config = _load_model(args.model, cfg)
    eps = model.config.epsilon
    out_dir = Path(args.out)

    if args.static:
        test = _load_split(args.data, schema_config, cfg.ratio, model.config.seed).test
        r1 = explain.rank1_attention_weights(model, test)
        patterns = explain.backtrack_patterns(model.blocks, model.schema, eps,
                                              rank1_weights=r1)
        explain.emit_reports(patterns, {}, out_dir)
        ranks = {p.rank for p in patterns}
        for block in model.blocks:
            if block.rank not in ranks:
                print(f"rank {block.rank}: no pattern survives epsilon = {eps:g}")
        print(f"wrote {out_dir / 'patterns.csv'}")
        return 0

    found = load_csv(args.data, schema_config, entity=args.entity)
    if not found:
        raise DataError(f"unknown entity id {args.entity!r}")
    out = next(model.score(found))
    names = explain.channel_pattern_names(model.blocks, model.schema, eps)
    pred = int(out["y"][0].argmax())
    expl, E = explain.individual_explanation(
        out["p"][0], out["q"][0], out["r"][0], pred,
        model.config.top_k, pattern_names=names)
    explain.emit_reports(None, {args.entity: (expl, E)}, out_dir)
    print(f"wrote explanation files for {args.entity} in {out_dir}")
    return 0


def cmd_baseline(args, cfg):
    if cfg.train.k > 2:
        raise ConfigError(f"the baselines rate two classes, but the config sets k = {cfg.train.k}")
    schema_config = cfg.schema_config()
    ds = _load_split(args.data, schema_config, cfg.ratio, cfg.train.seed)
    _check_labels(ds.train + ds.test, cfg.train.k)
    if args.which == "zscore":
        if len(cfg.zscore_fields) != 5:
            raise ConfigError("zscore baseline needs exactly 5 zscore_fields in config")
        preds, labels = [], []
        for s in ds.test:
            empty = [f for f in cfg.zscore_fields if math.isnan(s.steps[-1][f])]
            if empty:
                raise DataError(f"entity {s.entity_id!r} has an empty {empty[0]!r} cell "
                                f"in its final period, which the zscore baseline reads")
            x = np.array([s.steps[-1][f] for f in cfg.zscore_fields], dtype=np.float64)
            _, positive = baselines.zscore_rate(x)
            preds.append(1 if positive else 0)
            labels.append(s.label)
        report = confusion_report(preds, labels)
    else:
        schema = build_schema(ds.train, schema_config)
        Xtr = baselines.flatten_samples(ds.train, schema)
        Xte = baselines.flatten_samples(ds.test, schema)
        ytr = np.array([s.label for s in ds.train])
        yte = np.array([s.label for s in ds.test])
        lrm = baselines.lr_train(Xtr, ytr, l1=cfg.train.lam, seed=cfg.train.seed)
        scores = baselines.lr_predict(Xte, lrm)
        report = confusion_report((scores > 0.5).astype(int), yte, scores)
    print(report.as_table())
    return 0


def cmd_gradcheck(args, cfg):
    """End-to-end gradient check on a small random model and batch.

    The check runs two forward passes per parameter entry, so the model is
    kept small whatever the config's size: it has the synthetic set's three
    fields, and d, h and every rank width are capped at 4, 5 and 3. T, s,
    k, q, lambda and the number of crossing blocks are the config's.

    A selection weight within two steps of 0 is moved out to two steps, with
    its sign kept, so that no central difference crosses the kink of the
    lasso term |w_pca| and reports a false failure.
    """
    step = 1e-4
    tc = replace(cfg.train, d=min(cfg.train.d, 4), h=min(cfg.train.h, 5),
                 rank_widths=[min(w, 3) for w in cfg.train.rank_widths])
    samples = gen_synthetic_interaction(4, tc.T, 1, seed=tc.seed)
    schema = build_schema(samples, synthetic_schema_config(1, tc.T))
    model = Model(schema, tc)
    for block in model.blocks:
        w = block.w_pca.data
        near = np.abs(w) < 2 * step
        w[near] = np.copysign(2 * step, w[near])

    def f():
        loss, _ = objective(samples, model, tc)
        return loss

    report = ad.grad_check(f, model.params(), step=step, tol=args.tol)
    print(f"max relative error: {report['max_rel_err']:.3e} (tol {report['tol']:.1e})")
    return 0 if report["ok"] else 1


def _sweep_run(cfg, axis, value):
    if axis == "timespan":
        return replace(cfg, train=replace(cfg.train, T=value))
    if value < 1:
        raise ValueError(f"rank must be >= 1, got {value}")
    # rank l means l-1 crossing blocks; reuse the leading widths
    widths = list(cfg.train.rank_widths)[:value - 1]
    while len(widths) < value - 1:
        widths.append(widths[-1] if widths else 8)
    return replace(cfg, train=replace(cfg.train, rank_widths=widths))


def cmd_sweep(args, cfg):
    """Retrain per axis value and emit (value, acc, auc) rows.

    Every run's config is built, and so checked, before the first one trains.
    """
    try:
        values = [int(v) for v in args.values.split(",")]
        runs = [_sweep_run(cfg, args.axis, v) for v in values]
    except ValueError as exc:
        raise ConfigError(f"--values {args.values!r}: {exc}") from exc
    rows = []
    for v, run in zip(values, runs):
        schema_config = run.schema_config()
        ds = _load_split(args.data, schema_config, run.ratio, run.train.seed)
        schema = build_schema(ds.train, schema_config)
        with np.errstate(all="ignore"):     # a non-finite loss raises TrainingDiverged
            model, _ = train(ds.train, schema, run.train)
        report = evaluate(model, ds.test)
        rows.append((v, report.acc, report.auc))
        print(f"{args.axis}={v}: acc={report.acc:.4f} auc={report.auc:.4f}")
    write_rows(args.out, [args.axis, "acc", "auc"],
               ([v, f"{acc:.6g}", f"{auc_val:.6g}"] for v, acc, auc_val in rows))
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(prog="crossnet",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert wide per-period files to long format")
    p.add_argument("--in", dest="inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--all", action="store_true",
                   help="evaluate on all entities, not just the test split")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("explain", help="emit static or per-entity explanations")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="explanations")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--entity", help="write explain_<id>.csv and heatmap_<id>.svg")
    group.add_argument("--static", action="store_true", help="write patterns.csv")
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("baseline", help="run a linear baseline")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--which", choices=["zscore", "lr"], required=True)
    p.set_defaults(fn=cmd_baseline)

    p = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    p.add_argument("--config", required=True)
    p.add_argument("--tol", type=float, default=1e-3)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("sweep", help="retrain across rank or time-span values")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--axis", choices=["rank", "timespan"], required=True)
    p.add_argument("--values", required=True, help="comma-separated integers")
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, training=args.fn not in (cmd_eval, cmd_explain))
    except (ConfigError, DataError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        return args.fn(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1
    except (DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
