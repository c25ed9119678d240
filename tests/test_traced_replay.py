"""The benchmark's traced run replays each stage's backward on captured inputs.

``perfbench/run.py --trace 1`` keeps the stage inputs of the first training
steps and, after its timed rounds, reruns each stage on them
(``workloads.replay_stages``). A change that frees or rewrites what a step's
graph holds once the step ends would make that replay crash, so two
train_small-shaped steps are captured and replayed here. The perfbench
files are only read.
"""

import importlib.util
import math
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)    # workloads imports the others by name
    spec.loader.exec_module(module)
    return module


def test_replay_of_two_captured_train_small_steps(monkeypatch):
    _load("hostspeed", monkeypatch)
    tracing = _load("tracing", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    workload = workloads.TrainWorkload("train_small", seed=3, reference={})
    workload.setup()
    batch = workload.config.batch_size
    workload.samples = workloads.StepClock(list(workload.samples)[:2 * batch], batch)

    checks, tracer, captures = workloads.Checks(), tracing.Tracer(), []
    workload.trace_hooks(tracer, checks, captures, 2)
    with tracer.install():
        assert workload.round(checks, tracer) is not None
    assert checks.failed == 0, checks.problems
    assert len(captures) == 2

    for capture in captures:
        seconds = workloads.replay_stages(capture)
        assert sorted(seconds) == ["attention", "crossing", "embedding", "gru", "head"]
        assert all(math.isfinite(s) and s >= 0 for s in seconds.values()), seconds
