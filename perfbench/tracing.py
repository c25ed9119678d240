"""Spans around crossnet's layer functions, recorded from outside the package.

The traced run swaps each listed module-level function (or method) for a
wrapper that appends ``[name, start, end, parent]`` to an in-memory list.
Nothing is written until the run ends. Autodiff primitives (add, mul, ...)
are not wrapped: their forward cost is charged to the layer that calls
them, and the tape's own cost shows up as ``autodiff.backward`` and the
update functions.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np

# (module, attribute, span name); "Class.method" patches a method
TARGETS = [
    ("crossnet.autodiff", "backward", "autodiff.backward"),
    ("crossnet.autodiff", "sgd_step", "autodiff.sgd_step"),
    ("crossnet.autodiff", "zero_grads", "autodiff.zero_grads"),
    ("crossnet.data", "write_csv", "data.write_csv"),
    ("crossnet.data", "load_csv", "data.load_csv"),
    ("crossnet.data", "split", "data.split"),
    ("crossnet.data", "build_schema", "data.build_schema"),
    ("crossnet.data", "normalize", "data.normalize"),
    ("crossnet.embedding", "EmbeddingLayer.embed_batch", "embedding.embed_batch"),
    ("crossnet.crossing", "run_stack", "crossing.run_stack"),
    ("crossnet.crossing", "cross_attention", "crossing.cross_attention"),
    ("crossnet.crossing", "cross_product", "crossing.cross_product"),
    ("crossnet.crossing", "residual_scale", "crossing.residual_scale"),
    ("crossnet.crossing", "pca_select", "crossing.pca_select"),
    ("crossnet.crossing", "lasso_penalty", "crossing.lasso_penalty"),
    ("crossnet.attention", "feature_attention", "attention.feature_attention"),
    ("crossnet.attention", "temporal_attention", "attention.temporal_attention"),
    ("crossnet.model", "Model.forward", "model.forward"),
    ("crossnet.model", "objective", "model.objective"),
    ("crossnet.model", "time_concat", "model.time_concat"),
    ("crossnet.model", "gru_forward", "model.gru_forward"),
    ("crossnet.model", "predict", "model.predict"),
    ("crossnet.model", "lq_loss", "model.lq_loss"),
    ("crossnet.model", "load_checkpoint", "model.load_checkpoint"),
    ("crossnet.model", "evaluate", "model.evaluate"),
    ("crossnet.model", "auc", "model.auc"),
    ("crossnet.explain", "rank1_attention_weights", "explain.rank1_attention_weights"),
    ("crossnet.explain", "backtrack_patterns", "explain.backtrack_patterns"),
    ("crossnet.explain", "channel_pattern_names", "explain.channel_pattern_names"),
    ("crossnet.explain", "individual_explanation", "explain.individual_explanation"),
    ("crossnet.explain", "emit_reports", "explain.emit_reports"),
    ("crossnet.cli", "cmd_eval", "cli.eval"),
    ("crossnet.cli", "cmd_explain", "cli.explain"),
]

LAYERS = ["autodiff", "data", "embedding", "crossing", "attention", "model",
          "explain", "cli"]


def _owner(mod_name, attr):
    obj = sys.modules[mod_name]
    *path, leaf = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, leaf


class Tracer:
    """In-memory span recorder; ``install`` patches the targets until exit."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.ops = []        # [name, start, end] per step, command or entity
        self._stack = []
        self.on_call = {}    # span name -> hook(args, result, record), run after the span

    def wrap(self, name, fn):
        spans, stack, clock, hooks = self.spans, self._stack, time.perf_counter, self.on_call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            hook = hooks.get(name)
            if hook is not None:
                hook(args, result, rec)
            return result
        return traced

    @contextlib.contextmanager
    def install(self):
        """Patch every target in every crossnet module that imported it by name."""
        patched = []
        modules = [m for n, m in list(sys.modules.items())
                   if n == "crossnet" or n.startswith("crossnet.")]
        try:
            for mod_name, attr, name in TARGETS:
                owner, leaf = _owner(mod_name, attr)
                orig = getattr(owner, leaf)
                wrapper = self.wrap(name, orig)
                holders = [owner] if "." in attr else [
                    m for m in modules if getattr(m, leaf, None) is orig]
                for holder in holders:
                    setattr(holder, leaf, wrapper)
                    patched.append((holder, leaf, orig))
            yield self
        finally:
            for holder, leaf, orig in reversed(patched):
                setattr(holder, leaf, orig)

    @contextlib.contextmanager
    def op(self, name):
        """A top-level operation (CLI command, entity explanation) as its own record."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.ops.append([name, start, time.perf_counter()])

    # -- summaries --------------------------------------------------------

    def self_times(self):
        """Per-layer self time: each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _), c in zip(self.spans, child):
            out[name.split(".", 1)[0]] += (end - start) - c
        return out

    def total(self, name, own=False):
        """Total seconds in spans called ``name``; ``own`` subtracts their children."""
        idx = {i for i, s in enumerate(self.spans) if s[0] == name}
        total = sum(self.spans[i][2] - self.spans[i][1] for i in idx)
        if own:
            total -= sum(e - s for _, s, e, p in self.spans if p in idx)
        return total

    def coverage(self):
        """Share of each op's wall time covered by top-level layer spans, pooled."""
        tops = sorted((s, e) for _, s, e, p in self.spans if p < 0)
        covered = wall = 0.0
        i = 0
        for _, start, end in sorted(self.ops, key=lambda o: o[1]):
            wall += end - start
            while i < len(tops) and tops[i][1] <= start:
                i += 1
            j = i
            while j < len(tops) and tops[j][0] < end:
                covered += min(tops[j][1], end) - max(tops[j][0], start)
                j += 1
        return covered / wall if wall > 0 else 0.0

    def dump(self):
        return {"spans": self.spans, "ops": self.ops}


def graph_stats(roots, param_type):
    """(node count, MB of non-Param node arrays) of the graph behind ``roots``.

    The MB figure is computed from array sizes (``nbytes``), not measured;
    views share memory with their base and are counted in full.
    """
    seen = set()
    stack = list(roots)
    nbytes = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if not isinstance(node, param_type):
            nbytes += node.data.nbytes
        stack.extend(node._parents)
    return len(seen), nbytes / 1e6


def fixed_weights(shape, salt):
    """The fixed linear functional a replay backpropagates (same on every run)."""
    return np.random.default_rng(salt).standard_normal(shape)
