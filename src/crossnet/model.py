"""Full model assembly: GRU head, generalized cross-entropy training, metrics.

The per-time-step feature maps are flattened, fed through a GRU, and the
last hidden state is projected to per-class sigmoid scores. Training
minimizes the mean L_q loss (1 - p_true^q) / q plus a lasso penalty on the
crossing-block selection matrices, with plain minibatch SGD.
"""

from __future__ import annotations

import gc
import json
import logging
import math
import operator
import os
import pickle
import signal
import struct
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import ONE_BLAS_THREAD
from . import autodiff as ad
from .autodiff import Param, Tensor
from .attention import (FeatureAttentionParams, TemporalAttentionParams,
                        feature_attention, temporal_attention)
from .crossing import lasso_penalty, make_blocks, run_stack
from .data import FeatureField, check_field_names
from .embedding import EmbeddingLayer

log = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"DCRS1"
SCORE_BYTES = 1 << 20   # bytes of the [B, T, N, d] stack per forward pass when scoring


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    T: int = 5
    d: int = 8
    rank_widths: tuple = (8, 4)
    s: int = 3
    h: int = 32
    k: int = 2
    q: float = 0.5
    lam: float = 1e-3
    lr: float = 0.001
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0
    epsilon: float = 1e-4
    top_k: int = 10

    def __post_init__(self):
        """Check every field; a bad value raises ValueError naming it.

        Int fields take ints (numpy ints too, not bool). Float fields take
        finite floats or ints, kept as given so checkpoint bytes do not move.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, tuple):
                if not isinstance(value, (list, tuple)):
                    raise ValueError(f"{f.name} must be a list of ints, got {value!r}")
                value = tuple(_as_int(f.name, v) for v in value)
            elif isinstance(f.default, int):
                value = _as_int(f.name, value)
            elif not isinstance(value, float):
                value = _as_int(f.name, value, "a number")
            elif not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            setattr(self, f.name, value)
        for name, low in dict(T=1, d=1, h=1, k=2, lam=0, lr=0, epochs=1, batch_size=1,
                              seed=0, top_k=1).items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if any(w < 1 for w in self.rank_widths):
            raise ValueError(f"rank_widths entries must be >= 1, got {self.rank_widths}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {self.q}")
        if self.s % 2 == 0 or self.s < 1:
            raise ValueError(f"s must be odd and positive, got {self.s}")
        if self.s > self.T:
            raise ValueError(f"s must be at most T={self.T}, got {self.s}")


def _as_int(name, value, kind="an int"):
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be {kind}, got {value!r}")


class GruParams:
    def __init__(self, h, in_dim, rng):
        bound = 1.0 / np.sqrt(h + in_dim)
        shape = (h, h + in_dim)
        self.w_r = Param(rng.uniform(-bound, bound, shape), name="gru.w_r")
        self.w_z = Param(rng.uniform(-bound, bound, shape), name="gru.w_z")
        self.w_h = Param(rng.uniform(-bound, bound, shape), name="gru.w_h")
        self.h = h

    def params(self):
        return [self.w_r, self.w_z, self.w_h]


class OutputParams:
    def __init__(self, k, h, rng):
        bound = 1.0 / np.sqrt(h)
        self.w_fc = Param(rng.uniform(-bound, bound, (k, h)), name="out.w_fc")
        self.k = k

    def params(self):
        return [self.w_fc]


def time_concat(x_tilde):
    """Flatten each time step's [N, d] map to a vector, in channel-major order.

    x_tilde: [B, T, N, d] -> list of T tensors [B, N*d].
    """
    B, T, N, d = x_tilde.shape
    flat = ad.reshape(x_tilde, (B, T, N * d))
    return [ad.reshape(ad.slice_axis(flat, 1, t, t + 1), (B, N * d)) for t in range(T)]


def gru_forward(inputs, gru, h0=None):
    """Run the GRU over the step vectors and return the last hidden state.

    Gate layout: u (reset-role) gates the previous state inside the
    candidate; z mixes candidate and previous state.
    """
    B = inputs[0].shape[0]
    h = Tensor(np.zeros((B, gru.h))) if h0 is None else h0
    for e_t in inputs:
        x = ad.concat([h, e_t], axis=-1)
        u = ad.sigmoid(ad.matmul(x, ad.transpose(gru.w_r, (1, 0))))
        z = ad.sigmoid(ad.matmul(x, ad.transpose(gru.w_z, (1, 0))))
        gated = ad.concat([ad.mul(u, h), e_t], axis=-1)
        h_cand = ad.tanh(ad.matmul(gated, ad.transpose(gru.w_h, (1, 0))))
        h = ad.add(ad.mul(z, h_cand), ad.mul(ad.add(ad.scale(z, -1.0), 1.0), h))
    return h


def predict(h_last, out_params):
    """Per-class sigmoid scores plus their sum-normalized copy r."""
    y = ad.sigmoid(ad.matmul(h_last, ad.transpose(out_params.w_fc, (1, 0))))
    total = ad.tsum(y, axis=-1, keepdims=True)
    r = ad.mul(y, ad.power(total, -1.0))
    return y, r


def lq_loss(y_tilde, labels, q):
    """Generalized cross-entropy (1 - p_true^q) / q on normalized scores.

    Interpolates between cross entropy (q -> 0) and 1 - p_true (q = 1).
    Accepts a [k] vector with an int label or a [B, k] batch with an int
    array; returns the (mean) scalar loss.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    if len(y_tilde.shape) == 1:
        y_tilde = ad.reshape(y_tilde, (1,) + y_tilde.shape)
        labels = [labels]
    labels = np.asarray(labels, dtype=np.intp)
    B, k = y_tilde.shape
    total = ad.tsum(y_tilde, axis=-1, keepdims=True)
    r = ad.mul(y_tilde, ad.power(total, -1.0))
    onehot = np.zeros((B, k))
    onehot[np.arange(B), labels] = 1.0
    p_true = ad.clip(ad.tsum(ad.mul(r, Tensor(onehot)), axis=-1), 1e-12, 1.0 - 1e-12)
    per_sample = ad.scale(ad.add(ad.scale(ad.power(p_true, q), -1.0), 1.0), 1.0 / q)
    return ad.tmean(per_sample)


class Model:
    """Embedding -> crossing stack -> dual attention -> GRU -> projection."""

    def __init__(self, schema, config):
        rng = np.random.default_rng(config.seed)
        self.schema = schema
        self.config = config
        n1 = len(schema)
        self.embedding = EmbeddingLayer(schema, config.d, rng)
        self.blocks = make_blocks(n1, config.rank_widths, config.T, rng)
        self.N = n1 + sum(config.rank_widths)
        self.feat_att = FeatureAttentionParams(self.N, config.T, config.d)
        self.temp_att = TemporalAttentionParams(config.s, config.T, self.N, config.d)
        self.gru = GruParams(config.h, self.N * config.d, rng)
        self.out = OutputParams(config.k, config.h, rng)

    def params(self):
        out = self.embedding.params()
        for b in self.blocks:
            out.extend(b.params())
        out.extend(self.feat_att.params())
        out.extend(self.temp_att.params())
        out.extend(self.gru.params())
        out.extend(self.out.params())
        return out

    def named_params(self):
        return {p.name: p for p in self.params()}

    def forward(self, batch):
        """Full forward pass on a list of raw samples or a ``data.EncodedBatch``.

        Returns a dict with scores y [B,k], normalized r, attention vectors
        p [B,N] and q [B,T], and the rank stack.
        """
        x1 = self.embedding.embed_batch(batch)
        stack = run_stack(x1, self.blocks)
        feat_out, p = feature_attention(stack.x_tilde, self.feat_att)
        temp_out, q = temporal_attention(feat_out, self.temp_att)
        h_last = gru_forward(time_concat(temp_out), self.gru)
        y, r = predict(h_last, self.out)
        return {"y": y, "r": r, "p": p, "q": q, "stack": stack}

    @property
    def score_batch(self):
        """Samples per ``score`` batch: about SCORE_BYTES of the [B, T, N, d] stack."""
        return max(1, SCORE_BYTES // (8 * self.config.T * self.N * self.config.d))

    def score(self, samples):
        """Score raw samples forward-only, ``score_batch`` at a time.

        Yields the arrays y [B,k], r [B,k], p [B,N] and q [B,T] of each
        batch, in order. With two or more batches, on Linux, beside a BLAS
        on one thread (``ONE_BLAS_THREAD``) and with more than one CPU in
        the affinity set, one forked child process (``ScoringChild``) scores
        the odd batches; an exception raised there is raised here at its
        batch. ``no_grad`` ends before each yield, so it is never held while
        the caller runs, and the child is killed if still running and reaped
        before ``score`` returns, raises or is closed. Every batch is checked
        here: finite parameters can still overflow in the forward pass, and a
        ValueError names the first entity, in sample order, with a non-finite
        value in any of the four arrays.
        """
        size = self.score_batch
        starts = range(0, len(samples), size)

        def scored(start):
            with ad.no_grad(), np.errstate(all="ignore"):
                fwd = self.forward(samples[start:start + size])
            # keep only the four arrays across the yield, not the rank stack
            return {k: fwd[k].data for k in ("y", "r", "p", "q")}

        def checked(start, fwd):
            finite = np.isfinite(np.hstack(tuple(fwd.values()))).all(axis=1)
            if not finite.all():
                bad = samples[start + int(finite.argmin())]
                raise ValueError(f"entity {bad.entity_id!r} scores non-finite: the model's "
                                 f"forward pass overflows")
            return fwd

        forking = (sys.platform == "linux" and ONE_BLAS_THREAD and len(starts) > 1
                   and len(os.sched_getaffinity(0)) > 1)
        child = ScoringChild(scored, starts[1::2]) if forking else None
        try:
            for i, start in enumerate(starts):
                yield checked(start, child.result() if child and i % 2 else scored(start))
        finally:
            if child:
                child.stop()


class ScoringChild:
    """A forked process that runs ``score(start)`` for each of ``starts`` in
    turn and writes what each returns or raises down one pipe, one pickle
    each, as soon as it has it. The pipe's buffer bounds its lead: once that
    is full, the child waits in ``write`` for the caller to read."""

    def __init__(self, score, starts):
        read_end, write_end = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:
                os.close(read_end)
                # the child's collections then skip the heap it inherits, so
                # they neither walk it nor write to (and copy) its pages
                gc.freeze()
                with open(write_end, "wb") as pipe:
                    for start in starts:
                        pipe.write(_outcome(score, start))
                        pipe.flush()
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        self.pipe = open(read_end, "rb")

    def result(self):
        """What the child's next ``score`` call returned; raises what it raised,
        or ChildProcessError if it ended with no result or that cannot be read."""
        try:
            value = pickle.load(self.pipe)
        except EOFError:
            raise ChildProcessError(f"the scoring child process ended with no result "
                                    f"({self.stop()})") from None
        except Exception as exc:
            raise ChildProcessError(f"the scoring child process's result could not be "
                                    f"read: {type(exc).__name__}: {exc}") from None
        if isinstance(value, BaseException):
            raise value
        return value

    def stop(self):
        """Kill the child if it still runs and reap it; how it ended, in words."""
        self.pipe.close()
        if self.pid is None:
            return None
        os.kill(self.pid, signal.SIGKILL)
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        return f"killed by signal {-code}" if code < 0 else f"exit status {code}"


def _outcome(score, start):
    """``score(start)``'s result or exception, pickled; an exception that
    cannot be pickled becomes a ChildProcessError that names it."""
    try:
        return pickle.dumps(score(start), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        try:
            return pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
        except Exception as unsent:
            return pickle.dumps(ChildProcessError(
                f"the scoring child process raised {type(exc).__name__}: {exc}, which "
                f"could not be sent back: {unsent}"))


def objective(batch, model, config):
    """Mean L_q over the batch plus the weighted lasso penalty."""
    fwd = model.forward(batch)
    labels = [s.label for s in batch]
    loss = lq_loss(fwd["y"], labels, config.q)
    if config.lam > 0 and model.blocks:
        loss = ad.add(loss, ad.scale(lasso_penalty(model.blocks), config.lam))
    return loss, fwd


def _check_labels(samples, k):
    """ValueError naming the first sample whose label is outside [0, k)."""
    for s in samples:
        if not 0 <= s.label < k:
            raise ValueError(f"entity {s.entity_id!r} has label {s.label}, "
                             f"outside [0, {k})")


def train(train_samples, schema, config, log_every=0):
    """Seeded minibatch SGD on raw samples; returns the model and a per-epoch
    loss trace.

    Trace rows are (epoch, mean_loss, train_acc). Raises TrainingDiverged
    on a NaN loss.
    """
    if not train_samples:
        raise ValueError("training split is empty")
    _check_labels(train_samples, config.k)
    model = Model(schema, config)
    params = model.params()
    rng = np.random.default_rng(config.seed)
    trace = []
    n = len(train_samples)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        losses = []
        correct = 0
        for start in range(0, n, config.batch_size):
            batch = [train_samples[i] for i in order[start:start + config.batch_size]]
            loss, fwd = objective(batch, model, config)
            val = float(loss.data)
            if not np.isfinite(val):
                raise TrainingDiverged(
                    f"loss became non-finite at epoch {epoch}, batch {start // config.batch_size}")
            losses.append((val, len(batch)))
            preds = fwd["y"].data.argmax(axis=-1)
            correct += int((preds == np.array([s.label for s in batch])).sum())
            ad.backward(loss)
            ad.sgd_step(params, config.lr)
            ad.zero_grads(params)
        mean_loss = sum(v * w for v, w in losses) / n
        acc = correct / n
        trace.append((epoch, mean_loss, acc))
        if log_every and epoch % log_every == 0:
            log.info("epoch %d: loss %.5f acc %.4f", epoch, mean_loss, acc)
    return model, trace


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    tp: int
    fp: int
    fn: int
    tn: int
    acc: float
    err1: float
    err2: float
    auc: float

    def as_table(self):
        return (f"tp={self.tp} fp={self.fp} fn={self.fn} tn={self.tn}\n"
                f"acc={self.acc:.4f} err1={self.err1:.4f} "
                f"err2={self.err2:.4f} auc={self.auc:.4f}")


def auc(scores, labels):
    """Mann-Whitney AUC: P(random positive outranks random negative), ties 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("auc needs both classes present")
    # midranks over the pooled scores: a tie group ending at 1-based rank e
    # with c members has midrank e - (c - 1) / 2
    pooled = np.concatenate([pos, neg])
    _, group, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[group.reshape(-1)]
    rank_sum_pos = ranks[:len(pos)].sum()
    return float((rank_sum_pos - len(pos) * (len(pos) + 1) / 2.0) / (len(pos) * len(neg)))


def evaluate(model, samples):
    """Confusion counts, accuracy, type I/II errors and AUC on class-1 scores.

    ``samples`` are raw, as ``load_csv`` returns them; every label is checked
    before the first batch is scored by ``Model.score``.
    """
    if not samples:
        raise ValueError("cannot evaluate on an empty sample list")
    _check_labels(samples, model.config.k)
    y = np.concatenate([out["y"] for out in model.score(samples)])
    return confusion_report(y.argmax(axis=-1), [s.label for s in samples], y[:, 1])


def confusion_report(preds, labels, pos_scores=None):
    """Accuracy over every sample; the counts, error rates and AUC take class 1
    as positive and every other class as negative."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    pred_pos, label_pos = preds == 1, labels == 1
    tp = int((pred_pos & label_pos).sum())
    fp = int((pred_pos & ~label_pos).sum())
    fn = int((~pred_pos & label_pos).sum())
    tn = int((~pred_pos & ~label_pos).sum())
    total = len(labels)
    acc = int((preds == labels).sum()) / total if total else 0.0
    err1 = fp / (tn + fp) if (tn + fp) else 0.0
    err2 = fn / (fn + tp) if (fn + tp) else 0.0
    auc_val = 0.5
    if pos_scores is not None and 0 < tp + fn < total:
        auc_val = auc(pos_scores, label_pos)
    return EvalReport(tp=tp, fp=fp, fn=fn, tn=tn, acc=acc, err1=err1,
                      err2=err2, auc=auc_val)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _schema_json(schema):
    return json.dumps([asdict(f) for f in schema], sort_keys=True).encode()


def save_checkpoint(model, path):
    """Binary format: magic, schema JSON, config JSON, named float64 params."""
    schema_blob = _schema_json(model.schema)
    config_blob = json.dumps(asdict(model.config), sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        for blob in (schema_blob, config_blob):
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
        named = model.named_params()
        fh.write(struct.pack("<I", len(named)))
        for name in sorted(named):
            p = named[name]
            nb = name.encode()
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", p.data.ndim))
            for ext in p.data.shape:
                fh.write(struct.pack("<I", ext))
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def _from_json(cls, obj):
    """``cls(**obj)`` for a JSON object holding exactly ``cls``'s fields."""
    keys = sorted(f.name for f in fields(cls))
    if not isinstance(obj, dict) or sorted(obj) != keys:
        raise ValueError(f"a {cls.__name__} needs exactly the keys {keys}, got {obj!r:.200}")
    return cls(**obj)


def load_checkpoint(path):
    """Rebuild the model from a checkpoint written by save_checkpoint.

    The file must hold exactly the model's parameters and end after the
    last one; a truncated, padded or incomplete file raises ValueError, and
    so does a schema that repeats a field name or lists a column of the long
    format as a field.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path} is not a model checkpoint (bad magic {magic!r})")

        size = os.fstat(fh.fileno()).st_size

        def read(n, what):
            left = size - fh.tell()
            if n > left:
                raise ValueError(f"{path} is truncated: {what} needs {n} bytes, {left} left")
            return fh.read(n)

        def read_u32(what):
            return struct.unpack("<I", read(4, what))[0]

        def read_blob(what):
            return read(read_u32(f"the length of {what}"), what)

        schema_blob, config_blob = read_blob("the schema"), read_blob("the config")
        try:
            schema = json.loads(schema_blob)
            if not isinstance(schema, list) or not schema:
                raise ValueError(f"the schema must be a non-empty list, got {schema!r:.60}")
            schema = [_from_json(FeatureField, f) for f in schema]
            check_field_names([f.name for f in schema], "the schema")
            config = _from_json(TrainConfig, json.loads(config_blob))
        except ValueError as exc:
            raise ValueError(f"{path} has a malformed header: {exc}") from exc
        model = Model(schema, config)
        named = model.named_params()
        loaded = set()
        for _ in range(read_u32("the parameter count")):
            name = read_blob("a parameter name").decode()
            if name not in named:
                raise ValueError(f"checkpoint param {name!r} has no slot in the model")
            if name in loaded:
                raise ValueError(f"checkpoint param {name!r} appears twice")
            ndim = read_u32(f"the rank of {name!r}")
            shape = struct.unpack(f"<{ndim}I", read(4 * ndim, f"the shape of {name!r}"))
            if named[name].data.shape != shape:
                raise ValueError(f"checkpoint param {name!r} shape {shape} != "
                                 f"model shape {named[name].data.shape}")
            raw = read(8 * int(np.prod(shape)), f"the values of {name!r}")
            named[name].data = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            loaded.add(name)
        missing = sorted(set(named) - loaded)
        if missing:
            raise ValueError(f"{path} lacks model parameters: {', '.join(missing)}")
        trailing = size - fh.tell()
        if trailing:
            raise ValueError(f"{path} has {trailing} unexpected bytes after the last parameter")
    return model
