"""CSV ingestion, schema fitting, normalization, splitting and synthetic data.

The on-disk format is "long": one row per (entity, period) with columns
``entity_id, period_index, <fields...>, label``; the label is only required
on the final period row of each entity. Multi-valued categorical cells use
the ``name:weight;name:weight`` syntax and are renormalized to sum to 1.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)


class DataError(ValueError):
    pass


@dataclass
class SchemaConfig:
    """Which columns to read and how to interpret them."""
    fields: list[str]
    categorical: set[str] = field(default_factory=set)
    multi_valued: set[str] = field(default_factory=set)
    time_span: int = 5

    def kind(self, name):
        return "categorical" if name in self.categorical else "numerical"


@dataclass
class FeatureField:
    name: str
    kind: str                      # "categorical" | "numerical"
    vocab: list[str] | None = None  # categorical only, sorted, OOV index == len(vocab)
    mean: float = 0.0
    std: float = 1.0
    multi_valued: bool = False

    @property
    def oov_index(self):
        return len(self.vocab)


@dataclass
class SequencedSample:
    entity_id: str
    steps: list[dict]   # per time step: field name -> raw or normalized value
    label: int


@dataclass
class DatasetSplit:
    train: list[SequencedSample]
    test: list[SequencedSample]
    seed: int


def _parse_multi(cell):
    parts = [p for p in cell.split(";") if p.strip()]
    out = {}
    for p in parts:
        name, _, w = p.partition(":")
        try:
            weight = float(w)
        except ValueError:
            raise DataError(f"bad weight {w!r} in multi-valued cell {cell!r}") from None
        if not math.isfinite(weight):
            raise DataError(f"non-finite weight {w!r} in multi-valued cell {cell!r}")
        out[name.strip()] = out.get(name.strip(), 0.0) + weight
    total = sum(out.values())
    if total <= 0:
        raise DataError(f"multi-valued cell has no positive mass: {cell!r}")
    return {k: v / total for k, v in out.items()}


def load_csv(path, schema_config):
    """Read the long format, returning one SequencedSample per usable entity.

    Entities without ``time_span`` consecutive trailing periods are dropped
    (count logged); rows with non-numeric cells in numerical fields are
    skipped with a line-level warning. A short or long row, an infinite
    numeric cell, a bad multi-valued cell or a non-integer label raises
    DataError naming ``path:line``.
    """
    T = schema_config.time_span
    by_entity = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            log.warning("empty csv file: %s", path)
            return []
        required = ["entity_id", "period_index", "label"] + list(schema_config.fields)
        for col in required:
            if col not in reader.fieldnames:
                raise DataError(f"missing required column {col!r} in {path}")
        width = len(reader.fieldnames)
        last = reader.fieldnames[-1]    # a short row leaves the trailing cells None
        for row in reader:
            lineno = reader.line_num
            if row[last] is None:
                raise DataError(f"{path}:{lineno}: expected {width} "
                                f"cells, got {sum(v is not None for v in row.values())}")
            if None in row:             # a long row puts its extra cells under the key None
                raise DataError(f"{path}:{lineno}: expected {width} "
                                f"cells, got {width + len(row[None])}")
            values = {}
            try:
                period = int(row["period_index"])
            except ValueError:
                log.warning("%s:%d: bad period_index %r, row skipped",
                            path, lineno, row["period_index"])
                continue
            ok = True
            for name in schema_config.fields:
                cell = row[name]
                if name in schema_config.multi_valued:
                    try:
                        values[name] = _parse_multi(cell)
                    except DataError as exc:
                        raise DataError(f"{path}:{lineno}: field {name!r}: {exc}") from None
                elif name in schema_config.categorical:
                    values[name] = cell
                else:
                    if cell == "":
                        values[name] = math.nan   # imputed at normalize time
                        continue
                    try:
                        x = float(cell)
                    except ValueError:
                        log.warning("%s:%d: non-numeric value %r in field %r, row skipped",
                                    path, lineno, cell, name)
                        ok = False
                        break
                    if x - x and math.isinf(x):     # x - x is 0.0 unless x is inf or nan
                        raise DataError(
                            f"{path}:{lineno}: infinite value {cell!r} in field {name!r}")
                    values[name] = x
            if not ok:
                continue
            label_cell = row["label"]
            try:
                label = int(label_cell) if label_cell != "" else None
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: label {label_cell!r} is not an integer") from None
            by_entity.setdefault(row["entity_id"], []).append((period, values, label))

    samples = []
    dropped = 0
    for entity_id, rows in by_entity.items():
        rows.sort(key=lambda r: r[0])
        periods = [r[0] for r in rows]
        # take the trailing window of T consecutive periods, if there is one
        if len(rows) < T or periods[-T:] != list(range(periods[-T], periods[-T] + T)):
            dropped += 1
            continue
        window = rows[-T:]
        label = window[-1][2]
        if label is None:
            dropped += 1
            log.warning("entity %s has no label on its final period, dropped", entity_id)
            continue
        samples.append(SequencedSample(entity_id, [r[1] for r in window], label))
    if dropped:
        log.info("dropped %d entities without %d consecutive labeled periods", dropped, T)
    samples.sort(key=lambda s: s.entity_id)
    return samples


def write_csv(samples, path, schema_config):
    """Inverse of load_csv for valid sample lists."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entity_id", "period_index"] + list(schema_config.fields) + ["label"])
        for s in samples:
            for t, step in enumerate(s.steps):
                cells = [s.entity_id, t]
                for name in schema_config.fields:
                    v = step[name]
                    if isinstance(v, dict):
                        cells.append(";".join(f"{k}:{w:.17g}" for k, w in sorted(v.items())))
                    elif isinstance(v, float) and math.isnan(v):
                        cells.append("")
                    elif isinstance(v, float):
                        cells.append(f"{v:.17g}")
                    else:
                        cells.append(v)
                cells.append(s.label if t == len(s.steps) - 1 else "")
                writer.writerow(cells)


def build_schema(train, schema_config):
    """Fit vocabularies and normalization statistics on the training split.

    Zero-variance numerical fields are dropped with a warning. Standard
    deviation uses the (n-1) sample convention.
    """
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
                log.warning("numerical field %r has no values, dropped", name)
                continue
            mean = float(vals.mean())
            std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
            if std <= 0.0:
                log.warning("numerical field %r has zero variance, dropped", name)
                continue
            fields.append(FeatureField(name, "numerical", mean=mean, std=std))
    return fields


def normalize(sample, schema):
    """Standardize numerical values and index-encode categorical ones.

    Unseen categories map to the reserved OOV index (appended vocab slot);
    missing numerical cells are imputed with the training mean.
    """
    steps = []
    for step in sample.steps:
        out = {}
        for f in schema:
            v = step[f.name]
            if f.kind == "numerical":
                if isinstance(v, float) and math.isnan(v):
                    out[f.name] = 0.0   # mean imputation, then standardized
                else:
                    out[f.name] = (v - f.mean) / f.std
            elif f.multi_valued:
                probs = [0.0] * len(f.vocab)
                known = 0.0
                for name, w in v.items():
                    try:
                        probs[f.vocab.index(name)] = w
                        known += w
                    except ValueError:
                        pass
                if known > 0:
                    out[f.name] = [p / known for p in probs]
                else:
                    out[f.name] = probs
            else:
                try:
                    out[f.name] = f.vocab.index(v)
                except ValueError:
                    out[f.name] = f.oov_index
        steps.append(out)
    return SequencedSample(sample.entity_id, steps, sample.label)


def split(samples, ratio, seed):
    """Deterministic entity-level train/test split."""
    if not 0.0 < ratio < 1.0:
        raise DataError(f"split ratio must be in (0,1), got {ratio}")
    if len(samples) < 2:
        raise DataError("need at least 2 samples to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(samples))
    n_train = int(round(ratio * len(samples)))
    n_train = min(max(n_train, 1), len(samples) - 1)
    train = [samples[i] for i in order[:n_train]]
    test = [samples[i] for i in order[n_train:]]
    return DatasetSplit(train=train, test=test, seed=seed)


def gen_synthetic_interaction(n_samples, T, noise_fields, seed):
    """Planted second-rank interaction: label = [x1 * x2 > 0] at the final step.

    All fields are i.i.d. Uniform(-1, 1) per step; the label depends only on
    the product of the two signal fields, so it is invisible to any linear
    model on the raw values.
    """
    if n_samples < 1:
        raise DataError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    names = ["x1", "x2"] + [f"noise{i}" for i in range(noise_fields)]
    samples = []
    for i in range(n_samples):
        vals = rng.uniform(-1.0, 1.0, size=(T, len(names)))
        steps = [{n: float(vals[t, j]) for j, n in enumerate(names)} for t in range(T)]
        label = 1 if vals[-1, 0] * vals[-1, 1] > 0 else 0
        samples.append(SequencedSample(f"s{i:05d}", steps, label))
    return samples


def synthetic_schema_config(noise_fields, T):
    names = ["x1", "x2"] + [f"noise{i}" for i in range(noise_fields)]
    return SchemaConfig(fields=names, time_span=T)
