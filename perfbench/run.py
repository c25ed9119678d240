"""crossnet benchmark: one workload per call, last stdout line is the JSON result.

    python3 perfbench/run.py --workload train_small --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
work untraced and then traced, and prints the per-layer metrics, the
tracing overhead and the span coverage. Run it from the repository root
(any directory works: paths are taken from this file's location). A full
record with provenance and either every span (traced) or every latency
sample with its host-speed factors (untraced) is written to
``perfbench/out/``. See perfbench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_small", "train_paper", "score_explain")
SETUPS = 5            # timed set-ups after the warm-up; one more precedes each timed round
REPLAY_STEPS = 10     # train steps whose stages are replayed for backward attribution
UNTRACED_SHARE = 0.4  # of --seconds, spent on the untraced half of a traced run
WARMUP_S = 3.0        # untimed rounds first: the heap and caches settle over the first rounds
P95_PARTS = 5         # latency p95 is the median of the p95s of this many parts of a run


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def single_blas_thread():
    """Pin BLAS/OpenMP to one thread (never more than nproc); before NumPy loads.

    With two BLAS threads on a two-CPU machine a call waits for the slower
    CPU, and the run-to-run spread of score_explain's latencies was about
    three times larger.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return os.cpu_count() or 1


def import_crossnet():
    """Import the package from this checkout's src/, or exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "crossnet" / "__init__.py").is_file():
        print(f"error: no crossnet package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import crossnet
    if not Path(crossnet.__file__).resolve().is_relative_to(src):
        print(f"error: imported crossnet from {crossnet.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def git_sha():
    """HEAD's sha read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    """Digest of src/crossnet/*.py, so a record names its code even outside a clone."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "crossnet").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, nproc):
    import numpy as np
    return {
        "git_sha": git_sha(), "src_sha256": source_sha256(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "nproc": nproc,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "platform": platform.platform(),
    }


def quantile(values, q):
    """The q-quantile by the nearest-rank rule, and how many samples lie above it."""
    s = sorted(values)
    k = max(0, math.ceil(q * len(s)) - 1)
    return s[k], len(s) - 1 - k


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def timed_setup(workload):
    gc.collect()
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def run_rounds(workload, checks, tracer, seconds, rounds=None, min_rounds=1, setups=None,
               host=None):
    """Exactly ``rounds`` rounds, or at least ``min_rounds`` and as many as fit in ``seconds``.

    With a ``setups`` list, each round is preceded by a timed set-up, appended
    to it as (seconds, host factors). With a ``host``, the host is probed after
    each set-up and inside each round.
    """
    from hostspeed import unscaled
    from workloads import record_crash
    rescale = host.factor if host else unscaled
    out = []
    start = last = time.perf_counter()
    while True:
        if setups is not None:
            sec = timed_setup(workload)
            setups.append((sec, rescale()))
        gc.collect()
        try:
            out.append(workload.round(checks, tracer, rescale))
        except Exception:
            record_crash(checks, f"{workload.op_name} round")
            out.append(None)
        now = time.perf_counter()
        if (len(out) >= rounds) if rounds else (
                len(out) >= min_rounds and now + (now - last) > start + seconds):
            return out
        last = now


def latency_ms(samples, kind):
    """(p50, p95, samples above p95) in ms of (seconds, factors) pairs,
    rescaled by the ``kind`` probe's factors, or raw when ``kind`` is None.

    p50 is over all samples. p95 is the median of the p95s of the run's
    P95_PARTS consecutive parts, so that one slow stretch of the host, which
    piles its samples into the tail, moves it less than a pooled p95.
    """
    lat = [sec * f[kind] if kind else sec for sec, f in samples]
    size = len(lat) / P95_PARTS
    parts = [quantile(lat[round(i * size):round((i + 1) * size)], 0.95)
             for i in range(P95_PARTS)]
    p95 = statistics.median(q for q, _ in parts)
    return statistics.median(lat) * 1e3, p95 * 1e3, sum(n for _, n in parts)


def end_to_end(workload, args, checks, named, reference):
    """(samples, metrics): the gated metrics, rescaled to the reference host
    speed, and every latency sample with its factor; raw figures go to ``named``."""
    from hostspeed import HostSpeed
    from workloads import NullTracer
    null = NullTracer()
    workload.setup()
    run_rounds(workload, checks, null, WARMUP_S)
    host = HostSpeed(reference["host_probe_s"])
    # set-ups are timed before the rounds and before every timed round
    setups = []
    for _ in range(SETUPS):
        sec = timed_setup(workload)
        setups.append((sec, host.factor()))
    # two timed rounds at least: a score_explain round takes about half of 30 s
    results = [r for r in run_rounds(workload, checks, null, args.seconds, min_rounds=2,
                                     setups=setups, host=host) if r]
    if not results:
        return {}, None

    probes = workload.probes

    def both(name, unit, timed, kind, per_second):
        """A phase's figure from its mean rescaled time over rounds; the raw one too.

        ``timed`` holds one (seconds, factors) pair per round, rescaled by the
        ``kind`` probe; ``per_second`` turns seconds into the figure. A mean
        of times, not a median of figures: the host switches speed within a
        round, and a total weighs each stretch by its length.
        """
        named["raw." + name] = (per_second(statistics.fmean(sec for sec, _ in timed)), unit)
        named[name] = (per_second(statistics.fmean(sec * f[kind] for sec, f in timed)), unit)
        return named[name][0]

    if args.workload == "score_explain":
        rows, items = workload.rows, workload.items
        for phase, name, unit, per_second in (
                ("write", "csv_write_rows_per_s", "1/s", lambda s: rows / s),
                ("load", "load_rows_per_s", "1/s", lambda s: rows / s),
                ("eval", "eval_entities_per_s", "1/s", lambda s: items / s),
                ("static", "explain_static_s", "s", lambda s: s)):
            both(name, unit, [r[phase] for r in results], probes[phase], per_second)
        throughput = named["eval_entities_per_s"][0]
        samples = [x for r in results for x in r["entities"]]
        op = "explain"
    else:
        throughput = both("train_samples_per_s", "1/s", [(w, f) for w, _, f in results],
                          probes["step"], lambda s: workload.items / s)
        samples = [(sec, f) for _, steps, f in results for sec in steps]
        named["final_loss"] = (workload.first_loss, "mean L_q + lasso after one epoch")
        op = "step"
    p50, p95, beyond = latency_ms(samples, probes[op])
    raw50, raw95, _ = latency_ms(samples, None)
    named[f"{op}_ms_p50"] = (p50, "ms")
    named[f"{op}_ms_p95"] = (p95, f"ms ({len(samples)} samples, {beyond} above their "
                                  f"part's p95)")
    named[f"raw.{op}_ms_p50"] = (raw50, "ms")
    named[f"raw.{op}_ms_p95"] = (raw95, "ms")
    setup_s = statistics.median(sec * f[probes["setup"]] for sec, f in setups)
    named["raw.setup_s"] = (statistics.median(sec for sec, _ in setups), "s")
    for kind, factors in host.factors.items():
        named[f"host.{kind}_factor"] = (statistics.median(factors),
                                        f"median of reference ÷ probe, {len(factors)} probes")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {"latency_s": [sec for sec, _ in samples],
              "latency_factors": [f for _, f in samples],
              "probe_factors": host.factors}
    return detail, {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "throughput_per_s": (throughput, "1/s"),
        "latency_ms_p50": (p50, "ms"),
        "latency_ms_p95": (p95, "ms"),
    }


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

PER_OP = [   # metric, unit, span names summed, per train step / per session round
    ("autodiff.backward_ms", "ms", ["autodiff.backward"]),
    ("autodiff.update_ms", "ms", ["autodiff.sgd_step", "autodiff.zero_grads"]),
    ("crossing.fwd_ms", "ms", ["crossing.run_stack"]),
    ("crossing.cross_attention_ms", "ms", ["crossing.cross_attention"]),
    ("crossing.cross_product_ms", "ms", ["crossing.cross_product"]),
    ("crossing.residual_scale_ms", "ms", ["crossing.residual_scale"]),
    ("crossing.pca_select_ms", "ms", ["crossing.pca_select"]),
    ("crossing.lasso_ms", "ms", ["crossing.lasso_penalty"]),
    ("attention.feature_fwd_ms", "ms", ["attention.feature_attention"]),
    ("attention.temporal_fwd_ms", "ms", ["attention.temporal_attention"]),
    ("embedding.fwd_ms", "ms", ["embedding.embed_batch"]),
    ("model.gru_fwd_ms", "ms", ["model.time_concat", "model.gru_forward"]),
    ("model.head_fwd_ms", "ms", ["model.predict", "model.lq_loss"]),
    ("model.load_checkpoint_ms", "ms", ["model.load_checkpoint"]),
    ("model.evaluate_s", "s", ["model.evaluate"]),
    ("model.auc_ms", "ms", ["model.auc"]),
    ("data.write_csv_s", "s", ["data.write_csv"]),
    ("data.load_csv_s", "s", ["data.load_csv"]),
    ("data.split_ms", "ms", ["data.split"]),
    ("data.build_schema_ms", "ms", ["data.build_schema"]),
    ("data.normalize_s", "s", ["data.normalize"]),
    ("explain.rank1_attention_weights_s", "s", ["explain.rank1_attention_weights"]),
    ("explain.backtrack_patterns_ms", "ms", ["explain.backtrack_patterns"]),
    ("explain.channel_pattern_names_ms", "ms", ["explain.channel_pattern_names"]),
]
PER_CALL = [   # metric, span name: mean per call (per explained entity)
    ("explain.individual_explanation_ms", "explain.individual_explanation"),
    ("explain.emit_reports_ms", "explain.emit_reports"),
]
OWN = [("cli.eval_self_ms", "cli.eval"), ("cli.explain_self_ms", "cli.explain")]
COUNTS = [("autodiff.graph_nodes", "count"), ("autodiff.graph_mb", "MB-computed"),
          ("data.rows_written", "count"), ("data.rows_read", "count"),
          ("explain.patterns", "count")]
REPLAYED = [("embedding.bw_ms", "embedding"), ("crossing.bw_ms", "crossing"),
            ("attention.bw_ms", "attention"), ("model.gru_bw_ms", "gru"),
            ("model.head_bw_ms", "head")]


def per_layer(workload, args, checks, named):
    from tracing import Tracer
    from workloads import NullTracer, replay_stages

    workload.setup()
    null = NullTracer()
    run_rounds(workload, checks, null, WARMUP_S)
    start = time.perf_counter()
    done = run_rounds(workload, checks, null, UNTRACED_SHARE * args.seconds)
    untraced = time.perf_counter() - start

    tracer = Tracer()
    captures, b1_forward = [], []
    training = args.workload != "score_explain"
    if training:
        workload.trace_hooks(tracer, checks, captures, REPLAY_STEPS)
    else:
        def forward_hook(fargs, result, rec):
            if len(fargs[1]) == 1:
                b1_forward.append(rec[2] - rec[1])
        tracer.on_call["model.forward"] = forward_hook
    with tracer.install():
        start = time.perf_counter()
        run_rounds(workload, checks, tracer, 0, rounds=len(done))
        traced = time.perf_counter() - start
    if not training:
        # graph counts at B=1, taken on an extra untimed pass
        workload.explain_entities(checks, null, workload.explainer(), workload.last_norm,
                                  workload.explained, graph=True)

    replays = {key: [] for _, key in REPLAYED}
    for capture in captures:
        for key, sec in replay_stages(capture).items():
            replays[key].append(sec)
    replays = {k: (statistics.median(v) if v else 0.0) for k, v in replays.items()}
    ops = len(tracer.ops) if training else len(done)

    m = {}
    for name, unit, spans in PER_OP:
        total = sum(tracer.total(s) for s in spans)
        m[name] = (total / ops * (1e3 if unit == "ms" else 1.0), unit)
    for name, span in PER_CALL:
        calls = sum(1 for s in tracer.spans if s[0] == span)
        m[name] = (tracer.total(span) / calls * 1e3 if calls else 0.0, "ms")
    m["model.forward_ms"] = (statistics.fmean(b1_forward) * 1e3 if b1_forward else 0.0, "ms")
    for name, span in OWN:
        m[name] = (tracer.total(span, own=True) / ops * 1e3, "ms")
    for name, unit in COUNTS:
        seen = checks.counts.get(name)
        m[name] = (max(seen) if seen else 0, unit)
    for name, key in REPLAYED:
        m[name] = (replays[key] * 1e3, "ms")
    for layer, sec in tracer.self_times().items():
        m[f"{layer}.self_pct"] = (100.0 * sec / traced, "%")
    backward = m["autodiff.backward_ms"][0]
    replayed = sum(m[name][0] for name, _ in REPLAYED)
    m["trace.overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
    m["trace.coverage_pct"] = (100.0 * tracer.coverage(), "%")
    m["trace.replay_share_pct"] = (100.0 * replayed / backward if backward else 0.0, "%")
    named["traced_ops"] = (ops, f"{'train steps' if training else 'session rounds'} traced")
    named["untraced_s"] = (untraced, "s")
    named["traced_s"] = (traced, "s")
    return m, tracer.dump()


# ---------------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    nproc = single_blas_thread()
    import_crossnet()
    import workloads as wl

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    reference = json.loads((HERE / "reference.json").read_text())
    if args.workload == "score_explain":
        workload = wl.ScoreWorkload(args.seed, out_dir / f"work-{args.workload}-{args.seed}")
    else:
        workload = wl.TrainWorkload(args.workload, args.seed, reference)
    checks = wl.Checks()
    named = {}
    prov = provenance(args, nproc)
    if args.trace:
        metrics, detail = per_layer(workload, args, checks, named)
    else:
        detail, metrics = end_to_end(workload, args, checks, named, reference)
    for problem in checks.repeat_problems():
        checks.fail(problem)
    named["error_rate"] = (checks.failed / max(checks.attempted, 1),
                           f"ratio ({checks.failed} failed of {checks.attempted} operations)")
    correct = metrics is not None and checks.failed == 0 and checks.attempted > 0
    metrics = metrics or {}

    record = {"provenance": prov, "correct": correct, "attempted": checks.attempted,
              "failed": checks.failed, "problems": checks.problems,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
              "counts": {k: sorted(v) for k, v in checks.counts.items()}}
    # traced: every span; untraced: every latency sample and host factor
    record["trace" if args.trace else "samples"] = detail
    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record))

    for problem in checks.problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print(" ".join(f"{k}={v}" for k, v in prov.items()))
    for k, (v, u) in list(named.items()) + list(metrics.items()):
        print(f"{k:36s} {v:14.6g} {u}")
    print(f"correct: {correct}   record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
