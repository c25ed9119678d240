"""Time crossing.cross_block at the benchmark's block shapes for several chunk budgets.

    python3 tools/cross_block_bench.py --budgets 524288,1048576,2097152 --rounds 15
    python3 tools/cross_block_bench.py --src ../parent/src --src src --rounds 20

For each shape below, each ``--src`` checkout and each budget (a value of
its ``crossing._CHUNK_BYTES``, in bytes) it times, in one process, the
grad-mode forward, its backward (the node's own gradient rule, called
directly with a random upstream gradient) and the forward under
``no_grad``. Every checkout's crossnet is loaded side by side under its own
package name, and the (checkout, budget) runs are taken in alternating
order, so drift of the host falls on all of them alike. It prints the
median milliseconds of each. BLAS is pinned to one thread before NumPy
loads, as perfbench does.

Shapes (B, T, n1, n_prev, d, c_o), those of perfbench's three workloads:

- ``train_small``: the one block of the planted-interaction shape, c_i = 16;
- ``train_paper 1`` and ``2``: the two blocks at B = 32, c_i = 625 and 200;
- ``score 1`` and ``2``: the score_explain model's two blocks at its
  ``Model.score_batch`` (88 samples).

A first block (``FIRST_BLOCKS``) crosses the rank-1 features with
themselves, so, as ``crossing.run_stack`` does, one Param is passed as both
X1 and Xprev, and the backward of a first block with at least
``crossing._SPLIT_CHANNELS`` crossed channels is the symmetric one. Every
other shape gets a Xprev of its own.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

SHAPES = {
    "train_small": (8, 2, 4, 4, 8, 8),
    "train_paper 1": (32, 5, 25, 25, 16, 8),
    "train_paper 2": (32, 5, 25, 8, 16, 4),
    "score 1": (88, 5, 25, 25, 8, 8),
    "score 2": (88, 5, 25, 8, 8, 4),
}
FIRST_BLOCKS = {"train_small", "train_paper 1", "score 1"}
PHASES = ("forward", "backward", "no_grad forward")


def load(src, i):
    """(crossing, autodiff) of the crossnet in ``src``, as package ``crossnet_<i>``."""
    name, root = f"crossnet_{i}", Path(src) / "crossnet"
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py",
                                                  submodule_search_locations=[str(root)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return importlib.import_module(f"{name}.crossing"), importlib.import_module(f"{name}.autodiff")


def inputs(shape, np):
    """Seeded arrays for X1, Xprev, a (softmax columns) and w_pca, and an upstream gradient."""
    B, T, n1, n_prev, d, c_o = shape
    rng = np.random.default_rng(0)
    a = rng.dirichlet(np.ones(n_prev), size=(B, n1)).transpose(0, 2, 1).copy()
    return ([rng.normal(size=(B, T, n1, d)), rng.normal(size=(B, T, n_prev, d)), a,
             rng.normal(size=(n_prev * n1, c_o))], rng.normal(size=(B, T, c_o, d)))


def time_once(crossing, ad, arrays, g, first):
    """Milliseconds of the forward, its backward and the no_grad forward.

    With ``first``, the Param of X1 is passed as Xprev too.
    """
    params = [ad.Param(x) for x in arrays]
    if first:
        params[1] = params[0]
    t0 = time.perf_counter()
    out = crossing.cross_block(*params)
    t1 = time.perf_counter()
    out._backward(g, lambda t, v: None)
    t2 = time.perf_counter()
    with ad.no_grad():
        crossing.cross_block(*params)
    t3 = time.perf_counter()
    return [1e3 * (t1 - t0), 1e3 * (t2 - t1), 1e3 * (t3 - t2)]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--budgets", default="1048576",
                   help="comma-separated chunk budgets in bytes")
    p.add_argument("--rounds", type=int, default=15)
    p.add_argument("--src", action="append",
                   help="a checkout's src directory; repeat to compare (default: this one's)")
    args = p.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import numpy as np

    srcs = args.src or [str(Path(__file__).resolve().parent.parent / "src")]
    kernels = [load(src, i) for i, src in enumerate(srcs)]
    runs = [(k, b) for k in range(len(srcs)) for b in map(int, args.budgets.split(","))]
    print(f"{args.rounds} rounds; median ms")
    print("| shape | src | budget | " + " | ".join(PHASES) + " |")
    print("|---|---|---|" + "---|" * len(PHASES))
    for name, shape in SHAPES.items():
        arrays, g = inputs(shape, np)
        times = {run: [] for run in runs}
        for r in range(args.rounds + 1):           # round 0 warms up
            for k, b in (runs if r % 2 else runs[::-1]):
                crossing, ad = kernels[k]
                crossing._CHUNK_BYTES = b
                ms = time_once(crossing, ad, arrays, g, name in FIRST_BLOCKS)
                if r:
                    times[k, b].append(ms)
        for (k, b), ts in times.items():
            medians = [statistics.median(t[i] for t in ts) for i in range(len(PHASES))]
            print(f"| {name} | {srcs[k]} | {b} | " + " | ".join(f"{m:.3f}" for m in medians) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
