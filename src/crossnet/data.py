"""CSV ingestion, schema fitting, encoding, splitting and synthetic data.

The on-disk format is "long": one row per (entity, period) with columns
``entity_id, period_index, <fields...>, label``; the label is only required
on the final period row of each entity. Multi-valued categorical cells use
the ``name:weight;name:weight`` syntax and are renormalized to sum to 1.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import logging
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

ENTITY, PERIOD, LABEL = "entity_id", "period_index", "label"  # the long format's own columns


class DataError(ValueError):
    pass


@dataclass
class SchemaConfig:
    """Which columns to read and how to interpret them."""
    fields: list[str]
    categorical: set[str] = field(default_factory=set)
    multi_valued: set[str] = field(default_factory=set)
    time_span: int = 5

    def __post_init__(self):
        """Reject a multi-valued field that is not categorical, or a categorical
        one that is not among ``fields``: ValueError naming the field."""
        for name in sorted(self.multi_valued):
            if name not in self.categorical:
                raise ValueError(f"multi_valued field {name!r} is not a listed categorical field")
        for name in sorted(self.categorical):
            if name not in self.fields:
                raise ValueError(f"categorical field {name!r} is not a listed field")


def check_field_names(names, key="fields"):
    """ValueError naming the first of ``names`` that repeats an earlier one or
    is a column of the long format itself; ``key`` names the list."""
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"{key} lists {name!r} twice")
        if name in (ENTITY, PERIOD, LABEL):
            raise ValueError(f"field {name!r} is a column of the long format itself")


@dataclass
class FeatureField:
    name: str
    kind: str                      # "categorical" | "numerical"
    vocab: list[str] | None = None  # categorical only, sorted, OOV index == len(vocab)
    mean: float = 0.0
    std: float = 1.0
    multi_valued: bool = False

    def __post_init__(self):
        """Reject a field that encode and the embedding could not use."""
        if not isinstance(self.name, str) or self.kind not in ("categorical", "numerical"):
            raise ValueError(f"bad field name or kind: {self.name!r}, {self.kind!r}")
        if self.kind == "categorical" and not (isinstance(self.vocab, list) and self.vocab and
                                               all(isinstance(v, str) for v in self.vocab)):
            raise ValueError(f"categorical field {self.name!r} needs a non-empty vocab list "
                             f"of strings")
        finite = all(isinstance(x, (int, float)) and not isinstance(x, bool)
                     and math.isfinite(x) for x in (self.mean, self.std))
        if not finite or self.std <= 0 or not isinstance(self.multi_valued, bool):
            raise ValueError(f"field {self.name!r} needs a finite mean, a finite std > 0 "
                             f"and a bool multi_valued")
        if self.multi_valued and self.kind != "categorical":
            raise ValueError(f"numerical field {self.name!r} cannot be multi_valued")

    @property
    def oov_index(self):
        return len(self.vocab)

    @cached_property
    def vocab_index(self):
        """Category name -> vocab index; a repeated name keeps its first index."""
        index = {}
        for i, name in enumerate(self.vocab):
            index.setdefault(name, i)
        return index


@dataclass
class SequencedSample:
    entity_id: str
    # per time step, field name -> raw value: a float (NaN for an empty
    # cell), a category name, or a multi-valued cell's name -> weight dict
    steps: list[dict]
    label: int


@dataclass
class DatasetSplit:
    train: list[SequencedSample]
    test: list[SequencedSample]


def _parse_multi(cell):
    out = {}
    for p in cell.split(";"):
        if not p.strip():
            continue
        name, _, w = p.partition(":")
        try:
            weight = float(w)
        except ValueError:
            raise DataError(f"bad weight {w!r} in multi-valued cell {cell!r}") from None
        if not math.isfinite(weight):
            raise DataError(f"non-finite weight {w!r} in multi-valued cell {cell!r}")
        if weight < 0:
            raise DataError(f"negative weight {w!r} in multi-valued cell {cell!r}")
        name = name.strip()
        out[name] = out.get(name, 0.0) + weight
    total = sum(out.values())
    if total <= 0:
        raise DataError(f"multi-valued cell has no positive mass: {cell!r}")
    return {k: v / total for k, v in out.items()}


def _checked_values(fields, row, path, lineno):
    """One row's values, converted field by field; for a row to skip, the
    reason as a string; and DataError naming the line for a bad cell.

    ``fields`` holds (name, column, kind) with kind 0 numerical,
    1 categorical or 2 multi-valued.
    """
    values = {}
    for name, col, kind in fields:
        cell = row[col]
        if kind == 2:
            try:
                values[name] = _parse_multi(cell)
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: field {name!r}: {exc}") from None
        elif kind == 1:
            values[name] = cell
        elif cell == "":
            values[name] = math.nan   # imputed by encode
        else:
            try:
                x = float(cell)
            except ValueError:
                return f"non-numeric value {cell!r} in field {name!r}"
            if x - x and math.isinf(x):     # x - x is 0.0 unless x is inf or nan
                raise DataError(f"{path}:{lineno}: infinite value {cell!r} in field {name!r}")
            values[name] = x
    return values


def read_text(path):
    """The text of ``path`` without a leading byte-order mark; DataError naming
    the line of a byte that is not UTF-8."""
    raw = Path(path).read_bytes()
    try:
        # not "utf-8-sig", whose errors count their offset from past the mark
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line}: byte 0x{raw[exc.start]:02x} is not UTF-8") from None


@contextlib.contextmanager
def read_rows(path, required):
    """The UTF-8 CSV file at ``path``, past a leading byte-order mark (as Excel's
    "CSV UTF-8" writes), as ``(width, column, lines)``: its header's
    width, name -> column map (a repeated name takes its last) and iterator of
    (line number, row) over the non-blank rows. An empty file or a missing
    ``required`` column is a DataError naming ``path``; a line the csv module
    rejects (such as a cell over its field limit) or a byte that is not UTF-8,
    in the header or in the caller's loop, is one naming ``path:line``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            if fh.read(1) != "\ufeff":
                fh.seek(0)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            for col in required:
                if col not in header:
                    raise DataError(f"{path}: missing required column {col!r}")
            yield (len(header), {name: i for i, name in enumerate(header)},
                   ((reader.line_num, row) for row in reader if row))
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            read_text(path)     # raises, naming the line
            raise


def write_rows(path, header, rows):
    """Write ``header`` and then each of ``rows`` to the CSV file at ``path``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def load_csv(path, schema_config, entity=None):
    """Read the long format, returning one SequencedSample per usable entity.

    Entities without ``time_span`` consecutive trailing periods are dropped
    (count logged). Rows with a bad period or a non-numeric cell in a
    numerical field are skipped, and entities whose final period has no
    label dropped, each logged as a warning naming its line, so a later
    DataError follows the warnings of the rows before it. An empty file or
    a missing column raises DataError naming ``path``; a byte that is not
    UTF-8, a line the csv module rejects, a short or long row, an infinite
    numeric cell, a bad multi-valued cell, a non-integer label or a second
    row for an (entity, period) pair raises DataError naming ``path:line``.
    Each step's values are keyed in ``schema_config.fields`` order. Given an
    ``entity`` id, only that entity's rows are checked; every other row is
    parsed and skipped, nothing is logged, and an entity with rows but no
    usable window raises DataError quoting the first of its warnings.
    """
    T = schema_config.time_span
    by_entity = {}
    seen = False                # whether a row of ``entity`` was read
    skips = []                  # the entity path's warnings, quoted instead of logged
    warn = skips.append if entity is not None else lambda warning: log.warning("%s", warning)
    with read_rows(path, [ENTITY, PERIOD, LABEL, *schema_config.fields]) as (width, column, lines):
        entity_col, period_col, label_col = column[ENTITY], column[PERIOD], column[LABEL]
        fields = [(name, column[name], 2 if name in schema_config.multi_valued else
                   1 if name in schema_config.categorical else 0)
                  for name in schema_config.fields]
        for lineno, row in lines:
            if entity is not None and (len(row) <= entity_col or row[entity_col] != entity):
                continue
            seen = True
            if len(row) != width:
                raise DataError(f"{path}:{lineno}: expected {width} cells, got {len(row)}")
            try:
                period = int(row[period_col])
            except ValueError:
                warn(f"{path}:{lineno}: bad period_index {row[period_col]!r}, row skipped")
                continue
            values = _checked_values(fields, row, path, lineno)
            if isinstance(values, str):
                warn(f"{path}:{lineno}: {values}, row skipped")
                continue
            label_cell = row[label_col]
            try:
                label = int(label_cell) if label_cell != "" else None
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: label {label_cell!r} is not an integer") from None
            by_entity.setdefault(row[entity_col], []).append((period, values, label, lineno))

    samples = []
    dropped = 0
    for entity_id, rows in by_entity.items():
        rows.sort(key=lambda r: r[0])
        periods = [r[0] for r in rows]
        if len(set(periods)) < len(periods):
            # the sort is stable, so a repeat follows its first row
            first, again = next((a, b) for a, b in zip(rows, rows[1:]) if a[0] == b[0])
            raise DataError(f"{path}:{again[3]}: entity {entity_id!r} repeats period "
                            f"{again[0]} of line {first[3]}")
        # take the trailing window of T consecutive periods, if there is one
        if len(rows) < T or periods[-T:] != list(range(periods[-T], periods[-T] + T)):
            dropped += 1
            continue
        window = rows[-T:]
        label = window[-1][2]
        if label is None:
            dropped += 1
            warn(f"{path}:{window[-1][3]}: entity {entity_id} has no label on "
                 f"its final period, dropped")
            continue
        samples.append(SequencedSample(entity_id, [r[1] for r in window], label))
    if entity is not None:
        if seen and not samples:
            why = f" ({skips[0]})" if skips else ""
            raise DataError(f"entity {entity!r} has no {T} consecutive periods "
                            f"ending in a labeled one{why}")
        return samples
    if dropped:
        log.info("dropped %d entities without %d consecutive labeled periods", dropped, T)
    samples.sort(key=lambda s: s.entity_id)
    return samples


def write_csv(samples, path, schema_config):
    """Inverse of load_csv for valid sample lists."""
    def rows():
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
                yield cells
    write_rows(path, [ENTITY, PERIOD, *schema_config.fields, LABEL], rows())


def build_schema(train, schema_config):
    """Fit vocabularies and normalization statistics on the training split.

    Zero-variance numerical fields are dropped with a warning, and a schema
    left with no field is a DataError. Standard deviation uses the (n-1)
    sample convention.
    """
    if not train:
        raise DataError("cannot build a schema from an empty training split")
    numeric = [name for name in schema_config.fields if name not in schema_config.categorical]
    columns = dict(zip(numeric, _numeric_columns(train, numeric).T))
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
            vals = columns[name]
            vals = vals[~np.isnan(vals)]    # a contiguous copy, summed as one array
            if vals.size == 0:
                log.warning("numerical field %r has no values, dropped", name)
                continue
            mean = float(vals.mean())
            std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
            if std <= 0.0:
                log.warning("numerical field %r has zero variance, dropped", name)
                continue
            fields.append(FeatureField(name, "numerical", mean=mean, std=std))
    if not fields:      # every configured field was dropped above, or none is configured
        raise DataError(f"no usable field among the configured fields {schema_config.fields}")
    return fields


def schema_config_of(schema, time_span, config):
    """The SchemaConfig that reads the data as ``config`` did for build_schema: the
    fields ``schema`` embeds as it embeds them, over ``time_span``, and the rest as listed."""
    kept = {f.name for f in schema}
    categorical = {f.name for f in schema if f.kind == "categorical"}
    return SchemaConfig(config.fields + [f.name for f in schema if f.name not in config.fields],
                        (config.categorical - kept) | categorical,
                        (config.multi_valued - kept) | {f.name for f in schema if f.multi_valued},
                        time_span)


def _numeric_columns(samples, names):
    """The [steps, len(names)] float64 values at ``names`` of every step, in
    one pass that holds one step's tuple at a time."""
    steps = sum(len(s.steps) for s in samples)
    row = _items(names)
    cells = itertools.chain.from_iterable(map(row, (step for s in samples for step in s.steps)))
    return np.fromiter(cells, dtype=np.float64, count=steps * len(names)).reshape(
        steps, len(names))


def normalize(sample, schema):
    """Return ``sample``: samples stay raw (``encode`` standardizes); perfbench calls this."""
    return sample


@dataclass
class EncodedBatch:
    """The embedding's input arrays for a batch of B samples of T steps.

    ``numeric`` is [n_num, B, T]: one standardized [B, T] array per
    numerical field, in schema order. ``categorical`` maps each categorical
    field to its [B, T, V + 1] float64 weight rows, one per cell: one-hot for
    a single-valued cell (an unseen category at the OOV column V), and the
    renormalized known weights for a multi-valued one (its OOV column stays
    0). A categorical cell so costs 8 * (V + 1) bytes.
    """
    numeric: np.ndarray
    categorical: dict


def _items(keys):
    """A function giving the tuple of a step's values at ``keys``."""
    if len(keys) == 1:
        (key,) = keys
        return lambda step: (step[key],)
    return operator.itemgetter(*keys) if keys else lambda step: ()


def encode(samples, schema):
    """The embedding's input arrays for a batch of raw samples, in one pass.

    Numbers are standardized, a missing one imputed with the mean (so 0); a
    category becomes the one-hot row of its vocab index, an unseen one of the
    OOV index; and multi-valued weights are renormalized over the known
    categories.
    """
    B, T = len(samples), len(samples[0].steps)
    for s in samples:
        if len(s.steps) != T:
            raise ValueError(f"every sample in a batch needs {T} steps; "
                             f"{s.entity_id!r} has {len(s.steps)}")
    steps = [step for s in samples for step in s.steps]     # B*T, in sample order
    numeric = [f for f in schema if f.kind == "numerical"]
    row = _items([f.name for f in numeric])
    raw = np.array([row(step) for step in steps], dtype=np.float64)
    columns = [(f, [step[f.name] for step in steps]) for f in schema if f.kind == "categorical"]
    values = ((raw - np.array([f.mean for f in numeric], dtype=np.float64))
              / np.array([f.std for f in numeric], dtype=np.float64))
    values[np.isnan(raw)] = 0.0     # mean imputation, then standardized
    categorical = {}
    for f, cells in columns:
        index = f.vocab_index
        probs = np.zeros((len(cells), len(f.vocab) + 1))
        if not f.multi_valued:
            probs[np.arange(len(cells)), [index.get(v, f.oov_index) for v in cells]] = 1.0
        else:
            rows, cols, weights, known = [], [], [], []
            for i, cell in enumerate(cells):
                total = 0.0
                for name, w in cell.items():
                    j = index.get(name)
                    if j is not None:
                        rows.append(i)
                        cols.append(j)
                        weights.append(w)
                        total += w
                known.append(total)
            probs[rows, cols] = weights
            known = np.array(known)[:, None]
            np.divide(probs, known, out=probs, where=known > 0)
        categorical[f.name] = probs.reshape(B, T, -1)
    return EncodedBatch(np.ascontiguousarray(values.T).reshape(-1, B, T), categorical)


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
    return DatasetSplit(train=train, test=test)


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
    # one draw of the whole set gives the stream of one draw per entity
    vals = rng.uniform(-1.0, 1.0, size=(n_samples, T, len(names)))
    labels = (vals[:, -1, 0] * vals[:, -1, 1] > 0).tolist()
    return [SequencedSample(f"s{i:05d}", [dict(zip(names, row)) for row in vals[i].tolist()],
                            int(labels[i]))
            for i in range(n_samples)]


def synthetic_schema_config(noise_fields, T):
    names = ["x1", "x2"] + [f"noise{i}" for i in range(noise_fields)]
    return SchemaConfig(fields=names, time_span=T)
