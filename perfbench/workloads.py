"""The three workloads: train_small, train_paper and score_explain.

Each workload has a ``setup`` that builds its inputs from the seed, and a
``round`` that does one unit of timed work and checks its outputs. A round
is one ``train()`` call (one epoch) for the training workloads and one
write/load/eval/explain session for score_explain. ``Checks`` collects the
operation counts and any failed check; a failed check never stops the run.

Garbage is collected before each round and each score_explain phase, outside
the timing: every phase stands for a separate command a user would run, so
it should not pay for the previous phase's garbage (the autodiff graph holds
reference cycles, so graphs wait for the cyclic collector).
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import time
import traceback
from pathlib import Path

import numpy as np

from crossnet import autodiff as ad
from crossnet import cli, data, explain, model
from crossnet.crossing import lasso_penalty, run_stack
from crossnet.attention import feature_attention, temporal_attention

from hostspeed import unscaled
from tracing import fixed_weights, graph_stats


class Checks:
    """Attempted and failed operations, and the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.counts = {}    # exact count name -> set of values seen

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)

    def expect(self, ok, message):
        if not ok:
            self.fail(message)
        return ok

    def count(self, name, value):
        self.counts.setdefault(name, set()).add(value)

    def repeat_problems(self):
        """Counts that should be exact but took more than one value in this run."""
        return [f"count {k} varied within the run: {sorted(v)}"
                for k, v in self.counts.items() if len(v) > 1]


def record_crash(checks, what):
    checks.fail(f"{what} raised:\n{traceback.format_exc()}")


class NullTracer:
    ops = None

    @contextlib.contextmanager
    def op(self, name):
        yield


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------

TRAIN_SHAPES = {
    # criterion 2 of the acceptance suite: planted x1*x2, n1=4
    "train_small": dict(entities=2000, T=2, noise=2, probe="tape",
                        config=dict(T=2, d=8, rank_widths=(8,), s=1, h=16, k=2,
                                    q=0.5, lam=1e-3, lr=0.01, batch_size=8)),
    # README shape with two crossing blocks: n1=25
    "train_paper": dict(entities=640, T=5, noise=23, probe="blas",
                        config=dict(T=5, d=16, rank_widths=(8, 4), s=3, h=32, k=2,
                                    q=0.5, lam=1e-3, lr=0.001, batch_size=32)),
}


class StepClock(list):
    """The training list handed to ``train()``; notes when each batch is taken.

    ``train()`` indexes exactly ``batch_size`` samples per step, so every
    ``batch_size``-th lookup starts a step. This times steps without
    touching the package.
    """

    def __init__(self, samples, batch_size):
        super().__init__(samples)
        self.batch_size = batch_size
        self.reset()

    def reset(self):
        self.lookups = 0
        self.starts = []

    def __getitem__(self, i):
        if self.lookups % self.batch_size == 0:
            self.starts.append(time.perf_counter())
        self.lookups += 1
        return super().__getitem__(i)


# spans whose arguments a replay needs
STAGE_INPUTS = ("embedding.embed_batch", "crossing.run_stack", "attention.feature_attention",
                "attention.temporal_attention", "model.time_concat", "model.gru_forward",
                "model.predict", "model.lq_loss")


class TrainWorkload:
    op_name = "train step"

    def __init__(self, name, seed, reference):
        self.seed = seed
        self.shape = TRAIN_SHAPES[name]
        self.reference = reference.get(name, {})
        # host-speed probe per timed figure (see hostspeed.py)
        self.probes = {"setup": "tape", "step": self.shape["probe"]}
        self.first_loss = None

    def setup(self):
        sh = self.shape
        samples = data.gen_synthetic_interaction(sh["entities"], sh["T"], sh["noise"],
                                                 seed=self.seed)
        ds = data.split(samples, 0.7, seed=self.seed)
        schema = data.build_schema(ds.train, data.synthetic_schema_config(sh["noise"], sh["T"]))
        norm = [data.normalize(s, schema) for s in ds.train]
        config = model.TrainConfig(epochs=1, seed=self.seed, **sh["config"])
        self.samples = StepClock(norm, config.batch_size)
        self.schema = schema
        self.config = config
        self.items = len(norm)

    def round(self, checks, tracer, rescale=unscaled):
        """One ``train()`` call; returns (wall seconds, per-step seconds, host factors)."""
        clock = self.samples
        clock.reset()
        start = time.perf_counter()
        try:
            _, trace = model.train(clock, self.schema, self.config)
        except model.TrainingDiverged as exc:
            checks.attempted += len(clock.starts)
            checks.fail(f"train step: {exc}")
            return None
        except Exception:
            checks.attempted += len(clock.starts)
            record_crash(checks, "train()")
            return None
        end = time.perf_counter()
        steps = clock.starts + [end]
        checks.attempted += len(clock.starts)
        if tracer.ops is not None:
            tracer.ops.extend(["train step", a, b] for a, b in zip(steps, steps[1:]))
        self._check_loss(checks, trace[-1][1])
        return end - start, list(np.diff(steps)), rescale()

    def _check_loss(self, checks, loss):
        if not checks.expect(np.isfinite(loss), f"final loss is not finite: {loss}"):
            return
        if self.first_loss is None:
            self.first_loss = loss
        checks.expect(loss == self.first_loss,
                      f"final loss {loss!r} differs from this run's first {self.first_loss!r}")
        ref = self.reference
        if ref and self.seed == ref["seed"]:
            checks.expect(abs(loss - ref["final_loss"]) <= ref["rel_tol"] * abs(ref["final_loss"]),
                          f"final loss {loss!r} is off the seed-{ref['seed']} reference "
                          f"{ref['final_loss']!r} (rel tol {ref['rel_tol']})")

    # -- traced-run extras ---------------------------------------------------

    def trace_hooks(self, tracer, checks, captures, limit):
        """Count each step's graph and keep the first steps' stage inputs for replay."""
        current = {}

        def keep(key):
            def hook(args, result, rec):
                current[key] = args
            return hook

        def after_backward(args, result, rec):
            nodes, mb = graph_stats([args[0]], ad.Param)
            checks.count("autodiff.graph_nodes", nodes)
            checks.count("autodiff.graph_mb", mb)
            if len(captures) < limit and len(current) == len(STAGE_INPUTS):
                captures.append(dict(current))
            current.clear()

        for key in STAGE_INPUTS:
            tracer.on_call[key] = keep(key)
        tracer.on_call["autodiff.backward"] = after_backward


# ---------------------------------------------------------------------------
# per-stage backward replay
# ---------------------------------------------------------------------------

def _functional(outputs, salt):
    """sum_i <out_i, R_i> with fixed R_i, as a scalar Tensor."""
    total = None
    for i, out in enumerate(outputs):
        term = ad.tsum(ad.mul(out, ad.Tensor(fixed_weights(out.shape, salt + i))))
        total = term if total is None else ad.add(total, term)
    return total


def _leaf(t):
    return ad.Param(t.data.copy(), name="replay")


def replay_stages(capture):
    """Backward seconds per stage, rerun on one step's recorded inputs.

    Each stage's tensor inputs become leaf Params; the stage runs forward
    untraced and ``ad.backward`` is timed on a fixed linear functional of
    its outputs (the head stage backpropagates the loss itself).
    """
    def timed(loss):
        start = time.perf_counter()
        ad.backward(loss)
        return time.perf_counter() - start

    layer, samples = capture["embedding.embed_batch"]
    x1, blocks = capture["crossing.run_stack"]
    xf, fparams = capture["attention.feature_attention"]
    xt, tparams = capture["attention.temporal_attention"]
    (xg,) = capture["model.time_concat"]
    gru = capture["model.gru_forward"][1]
    hl, out_params = capture["model.predict"]
    _, labels, q = capture["model.lq_loss"]

    out = {}
    out["embedding"] = timed(_functional([layer.embed_batch(samples)], 1))
    stack = run_stack(_leaf(x1), blocks)
    out["crossing"] = timed(ad.add(_functional([stack.x_tilde], 2), lasso_penalty(blocks)))
    feat = timed(_functional(feature_attention(_leaf(xf), fparams), 3))
    temp = timed(_functional(temporal_attention(_leaf(xt), tparams), 5))
    out["attention"] = feat + temp
    h = model.gru_forward(model.time_concat(_leaf(xg)), gru)
    out["gru"] = timed(_functional([h], 7))
    y, _ = model.predict(_leaf(hl), out_params)
    out["head"] = timed(model.lq_loss(y, labels, q))
    return out


# ---------------------------------------------------------------------------
# score_explain
# ---------------------------------------------------------------------------

SCORE_ENTITIES = 4000
SCORE_T = 5
SCORE_NOISE = 21            # x1, x2 and 21 noise fields: 23 numeric
EXPLAINED_PER_ROUND = 400   # per-entity explanations per session round
ENTITY_BURSTS = 3           # after the load, eval and static phases
SCORE_CONFIG = dict(T=SCORE_T, d=8, rank_widths=(8, 4), s=3, h=32, k=2)


def add_categoricals(samples, seed):
    """Add a categorical ``sector`` and a multi-valued ``segments`` column."""
    rng = np.random.default_rng([seed, 1])
    sectors = rng.integers(0, 12, size=(len(samples), SCORE_T))
    segs = rng.integers(0, 6, size=(len(samples), SCORE_T, 2))
    mass = rng.uniform(0.1, 1.0, size=(len(samples), SCORE_T))
    for i, s in enumerate(samples):
        for t, step in enumerate(s.steps):
            step["sector"] = f"sec{sectors[i, t]}"
            a, b = segs[i, t]
            w = float(mass[i, t])
            step["segments"] = ({f"seg{a}": 1.0} if a == b else
                                {f"seg{a}": w / (w + 1.0), f"seg{b}": 1.0 / (w + 1.0)})
    return samples


class ScoreWorkload:
    op_name = "entity explanation"
    # host-speed probe per timed phase (see hostspeed.py)
    probes = {"setup": "tape", "write": "tape", "load": "tape", "eval": "blas",
              "static": "blas", "explain": "tape"}

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work = Path(work_dir)

    def setup(self):
        work = self.work
        work.mkdir(parents=True, exist_ok=True)
        samples = add_categoricals(
            data.gen_synthetic_interaction(SCORE_ENTITIES, SCORE_T, SCORE_NOISE, seed=self.seed),
            self.seed)
        fields = list(samples[0].steps[0].keys())
        self.schema_config = data.SchemaConfig(
            fields=fields, categorical={"sector", "segments"},
            multi_valued={"segments"}, time_span=SCORE_T)
        ds = data.split(samples, 0.7, seed=self.seed)
        schema = data.build_schema(ds.train, self.schema_config)
        config = model.TrainConfig(seed=self.seed, **SCORE_CONFIG)
        model.save_checkpoint(model.Model(schema, config), work / "model.ckpt")
        (work / "run.cfg").write_text(
            f"fields = {', '.join(fields)}\ncategorical = sector, segments\n"
            f"multi_valued = segments\nT = {SCORE_T}\nd = 8\nrank_widths = 8, 4\n"
            f"s = 3\nh = 32\nk = 2\nseed = {self.seed}\nratio = 0.7\n", encoding="utf-8")
        rng = np.random.default_rng([self.seed, 2])
        self.explained = sorted(rng.choice(SCORE_ENTITIES, EXPLAINED_PER_ROUND, replace=False))
        self.samples = samples
        self.items = SCORE_ENTITIES
        self.rows = SCORE_ENTITIES * SCORE_T

    def _cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        return rc, out.getvalue()

    def round(self, checks, tracer, rescale=unscaled):
        """One session; returns {phase: (seconds, host factors)}, and under
        ``entities`` a list of (seconds, host factors), one per explanation.

        The host is probed after every phase and every burst of explanations.
        """
        work = self.work
        csv_path, ckpt, cfg = work / "long.csv", str(work / "model.ckpt"), str(work / "run.cfg")
        rows = self.rows
        t = {}

        checks.attempted += 1
        gc.collect()
        start = time.perf_counter()
        with tracer.op("write_csv"):
            data.write_csv(self.samples, csv_path, self.schema_config)
        t["write"] = (time.perf_counter() - start, rescale())
        with open(csv_path, encoding="utf-8") as fh:
            written = sum(1 for _ in fh) - 1
        checks.count("data.rows_written", written)
        checks.expect(written == rows, f"write_csv wrote {written} rows, expected {rows}")

        checks.attempted += 1
        gc.collect()
        start = time.perf_counter()
        with tracer.op("load"):
            loaded = data.load_csv(csv_path, self.schema_config)
            ds = data.split(loaded, 0.7, seed=self.seed)
            schema = data.build_schema(ds.train, self.schema_config)
            norm = [data.normalize(s, schema) for s in ds.train + ds.test]
        t["load"] = (time.perf_counter() - start, rescale())
        read = sum(len(s.steps) for s in loaded)
        checks.count("data.rows_read", read)
        checks.expect(read == rows and len(norm) == SCORE_ENTITIES,
                      f"load_csv returned {read} rows of {len(loaded)} entities")
        self.last_norm = norm

        # per-entity explanations run in bursts between the other phases,
        # so their latencies sample the whole round, not one stretch of it
        explainer = self.explainer()
        bursts = np.array_split(self.explained, ENTITY_BURSTS)
        t["entities"] = self.explain_entities(checks, tracer, explainer, norm, bursts[0], rescale)

        checks.attempted += 1
        gc.collect()
        start = time.perf_counter()
        with tracer.op("cli eval"):
            rc, out = self._cli(["eval", "--data", str(csv_path), "--model", ckpt,
                                 "--config", cfg, "--all"])
        t["eval"] = (time.perf_counter() - start, rescale())
        if checks.expect(rc == 0, f"crossnet eval exited {rc}"):
            tp, fp, fn, tn = (int(v) for v in out.strip().splitlines()[-1].split(",")[:4])
            checks.expect(tp + fp + fn + tn == SCORE_ENTITIES,
                          f"eval confusion counts sum to {tp + fp + fn + tn}, "
                          f"expected {SCORE_ENTITIES}")
        t["entities"] += self.explain_entities(checks, tracer, explainer, norm, bursts[1],
                                               rescale)

        checks.attempted += 1
        static_dir = work / "static"
        gc.collect()
        start = time.perf_counter()
        with tracer.op("cli explain --static"):
            rc, _ = self._cli(["explain", "--data", str(csv_path), "--model", ckpt,
                               "--config", cfg, "--out", str(static_dir), "--static"])
        t["static"] = (time.perf_counter() - start, rescale())
        if checks.expect(rc == 0, f"crossnet explain --static exited {rc}"):
            self._check_patterns_file(checks, static_dir)
        t["entities"] += self.explain_entities(checks, tracer, explainer, norm, bursts[2],
                                               rescale)
        return t

    def _check_patterns_file(self, checks, static_dir):
        files = sorted(p.name for p in static_dir.iterdir())
        checks.expect(files == ["patterns.csv"], f"explain --static wrote {files}")
        sums = {}
        n = 0
        with open(static_dir / "patterns.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                sums[row["rank"]] = sums.get(row["rank"], 0.0) + float(row["weight"])
                n += 1
        # weights are written with 6 significant digits
        bad = {r: s for r, s in sums.items() if abs(s - 1.0) > 1e-5}
        checks.expect(not bad and len(sums) == 3, f"pattern weights per rank sum to {sums}")
        checks.count("explain.patterns", n)

    def explainer(self):
        """The checkpoint's model and channel pattern names, loaded once per round."""
        m = model.load_checkpoint(str(self.work / "model.ckpt"))
        return m, explain.channel_pattern_names(m.blocks, m.schema, m.config.epsilon)

    def explain_entities(self, checks, tracer, explainer, norm, entities, rescale=unscaled,
                         graph=False):
        """Forward at B=1, top-K explanation and reports for each given entity.

        Returns (seconds, host factors) per explanation; one probe point per call.
        """
        m, names = explainer
        K = m.config.top_k
        out_dir = (self.work / "entities").resolve()
        times = []
        gc.collect()
        for i in entities:
            s = norm[i]
            checks.attempted += 1
            try:
                start = time.perf_counter()
                with tracer.op("entity explanation"):
                    fwd = m.forward([s])
                    pred = int(fwd["y"].data[0].argmax())
                    expl, E = explain.individual_explanation(
                        fwd["p"].data[0], fwd["q"].data[0], fwd["r"].data[0], pred, K,
                        pattern_names=names)
                    written = explain.emit_reports([], {s.entity_id: (expl, E)}, out_dir)
                times.append(time.perf_counter() - start)
            except Exception:
                record_crash(checks, f"explaining {s.entity_id}")
                continue
            scores = [e[3] for e in expl.entries]
            checks.expect(len(scores) == K and scores == sorted(scores, reverse=True),
                          f"{s.entity_id}: {len(scores)} entries, sorted={scores == sorted(scores, reverse=True)}")
            outside = [p for p in written if not p.resolve().is_relative_to(out_dir)]
            checks.expect(not outside, f"{s.entity_id}: wrote outside {out_dir}: {outside}")
            if graph:
                nodes, mb = graph_stats([fwd["y"], fwd["p"], fwd["q"]], ad.Param)
                checks.count("autodiff.graph_nodes", nodes)
                checks.count("autodiff.graph_mb", mb)
        f = rescale()
        return [(sec, f) for sec in times]
