"""Where perfbench's automatic garbage collections land: probes, set-ups or timed work.

    python3 tools/gc_probe_check.py --checkout . --workload train_small --seed 84 --seconds 30
    python3 tools/gc_probe_check.py --parent ../parent --change . --seeds 84,85 --seconds 30

perfbench rescales each timed figure by host-speed probes (perfbench/hostspeed.py).
A cyclic collection of generation 2 takes milliseconds; when one lands
inside a probe, the probe reads the host as slow and every figure it
rescales as fast. A change to how many objects the program allocates can
move that collection into or out of the probes without changing any raw
time, so a perf change is checked with this tool on both sides.

With ``--checkout`` the tool runs that checkout's ``perfbench/run.py`` main
in this process (untraced, for one workload and seed), with BLAS pinned to
one thread before NumPy loads, as run.py does. It hooks ``gc.callbacks``
and wraps ``hostspeed.probe``, run.py's timed set-ups and timed rounds, and
counts, per generation, the automatic collections that start in each of:

- ``probe``: a host-speed probe;
- ``setup``: a timed set-up;
- ``timed``: a timed training round, or a timed score_explain phase or
  per-entity explanation (warm-up rounds are not timed);
- ``elsewhere``: anywhere else, such as warm-up rounds or the checks
  between score_explain phases.

The harness's own ``gc.collect()`` calls are not counted. It also prints the
run's set-up factor (``setup_s`` ÷ ``raw.setup_s``) and its median tape factor.
The last stdout line is the result as JSON.

With ``--parent`` and ``--change`` it runs itself once per side and seed, in
a new process each, for ``--workload`` or else for all three workloads in
turn, prints both sides, and exits 1 when, on any workload, for any seed
the places that hold generation-2 collections differ between the sides,
or the medians over all ``--seeds`` of the two sides' set-up factors or
tape factors differ by more than a factor of FACTOR_RATIO. The counts
themselves may differ by as much as the number of rounds each run fitted
in its ``--seconds``. The factors are checked because ``HostSpeed.factor``
averages the probes before and after each stretch, so a probe slowed by
the previous round's garbage rescales the next set-up too, with no
collection counted in that set-up. They are compared as medians because
the host can change speed between two runs, so one run per side does not
separate a change from drift. Nothing under perfbench/ is changed; run.py
writes its record under the checkout's perfbench/out/ as usual.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import gc
import io
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

PLACES = ("probe", "setup", "timed", "elsewhere")   # a collection counts in the first that holds it
GENERATIONS = (0, 1, 2)
FACTORS = ("setup_factor", "tape_factor")
FACTOR_RATIO = 1.3      # the largest ratio allowed between the sides' factors
WORKLOADS = ("train_small", "train_paper", "score_explain")


def classify(starts, generations, intervals):
    """{generation: {place: count}} of collections starting at ``starts``.

    ``intervals`` maps each place but "elsewhere" to a list of (start, end)
    pairs that do not overlap one another. Probes run inside timed rounds
    and after set-ups, so a place earlier in PLACES wins.
    """
    counts = {g: dict.fromkeys(PLACES, 0) for g in GENERATIONS}
    spans = {place: sorted(intervals.get(place, ())) for place in PLACES[:-1]}
    for t, gen in zip(starts, generations):
        for place in PLACES[:-1]:
            i = bisect.bisect_right(spans[place], (t, float("inf"))) - 1
            if i >= 0 and spans[place][i][0] <= t < spans[place][i][1]:
                break
        else:
            place = "elsewhere"
        counts[gen][place] += 1
    return counts


class Recorder:
    """The start time and generation of each automatic collection, and the
    probe, set-up and timed intervals, as plain float and int lists: they
    are not tracked by the collector, so recording moves its schedule as
    little as possible."""

    def __init__(self):
        self.starts, self.generations = [], []
        self.bounds = {place: ([], []) for place in PLACES[:-1]}
        self.manual = False
        self.timed = False

    def on_gc(self, phase, info):
        if phase == "start" and not self.manual:
            self.starts.append(time.perf_counter())
            self.generations.append(info["generation"])

    def interval(self, place, start):
        begin, end = self.bounds[place]
        begin.append(start)
        end.append(time.perf_counter())

    def counts(self):
        return classify(self.starts, self.generations,
                        {place: list(zip(*ends)) for place, ends in self.bounds.items()})


def wrap(owner, name, wrapper):
    """Replace ``owner.name`` by ``wrapper(original)``; return an undo function."""
    original = getattr(owner, name)
    setattr(owner, name, wrapper(original))
    return lambda: setattr(owner, name, original)


def instrument(rec, run, hostspeed, workloads):
    """Install the recording wrappers; return the functions that undo them."""
    def timing(place, when=lambda: True):
        def wrapper(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    if when():
                        rec.interval(place, start)
            return timed
        return wrapper

    def manual(fn):
        @functools.wraps(fn)
        def collect(*args, **kwargs):
            rec.manual = True
            try:
                return fn(*args, **kwargs)
            finally:
                rec.manual = False
        return collect

    def rounds(fn):
        @functools.wraps(fn)
        def run_rounds(*args, **kwargs):
            rec.timed = kwargs.get("host") is not None   # warm-up rounds get no host
            try:
                return fn(*args, **kwargs)
            finally:
                rec.timed = False
        return run_rounds

    def phases(fn):
        @contextlib.contextmanager
        def op(self, name):
            start = time.perf_counter()
            try:
                with fn(self, name):
                    yield
            finally:
                if rec.timed:
                    rec.interval("timed", start)
        return op

    in_timed = lambda: rec.timed    # noqa: E731
    return [wrap(gc, "collect", manual),
            wrap(hostspeed, "probe", timing("probe")),
            wrap(run, "timed_setup", timing("setup")),
            wrap(run, "run_rounds", rounds),
            # a training round is timed whole; score_explain times each
            # phase and explanation inside tracer.op
            wrap(workloads.TrainWorkload, "round", timing("timed", in_timed)),
            wrap(workloads.NullTracer, "op", phases)]


def check_checkout(checkout, workload, seed, seconds):
    """Run one untraced perfbench run in this process; its counts and factors."""
    root = Path(checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import run
    run.single_blas_thread()        # before anything loads NumPy
    import hostspeed
    import workloads

    rec = Recorder()
    undo = instrument(rec, run, hostspeed, workloads)
    gc.callbacks.append(rec.on_gc)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            run.main(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)])
    finally:
        gc.callbacks.remove(rec.on_gc)
        for fn in reversed(undo):
            fn()
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    record = json.loads((root / "perfbench" / "out" /
                         f"{workload}-seed{seed}-trace0.json").read_text())
    named = {k: v["value"] for k, v in record["named"].items()}
    return {"counts": rec.counts(), "correct": result["correct"],
            "setup_factor": result["metrics"]["setup_s"]["value"] / named["raw.setup_s"],
            "tape_factor": named["host.tape_factor"]}


def rows(side, result):
    return [f"| {side} | {gen} | " + " | ".join(str(result["counts"][gen][p]) for p in PLACES)
            + f" | {result['setup_factor']:.3f} | {result['tape_factor']:.3f} |"
            for gen in GENERATIONS]


HEADER = ["| side | generation | " + " | ".join(PLACES) + " | setup factor | tape factor |",
          "|---|---|" + "---|" * len(PLACES) + "---|---|"]


def placement(result):
    """The places that hold generation-2 collections."""
    return {place for place, n in result["counts"][2].items() if n}


def median_factors(results):
    """{factor: its median over ``results``} for each of FACTORS."""
    return {k: statistics.median(r[k] for r in results) for k in FACTORS}


def factors_differ(parent, change):
    """The FACTORS whose two sides differ by more than a factor of FACTOR_RATIO."""
    return [k for k in FACTORS
            if max(parent[k], change[k]) > FACTOR_RATIO * min(parent[k], change[k])]


def run_side(checkout, workload, seed, seconds):
    """check_checkout in a new process, so each side imports its own crossnet."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--checkout", checkout,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=4 * seconds + 300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["counts"] = {int(g): c for g, c in result["counts"].items()}
    return result


def compare(checkouts, workload, seeds, seconds):
    """Run the "parent" and "change" of ``checkouts`` at each of ``seeds`` and
    print them; True when they differ."""
    moved = False
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        results = {side: run_side(checkouts[side], workload, seed, seconds) for side in sides}
        same = placement(results["parent"]) == placement(results["change"])
        print(f"{workload} seed {seed}: generation-2 placement "
              f"{'same' if same else 'DIFFERS'}")
        print("\n".join(HEADER + rows("parent", results["parent"])
                        + rows("change", results["change"])) + "\n")
        moved |= not same
        for side, result in results.items():
            runs[side].append(result)
    medians = {side: median_factors(results) for side, results in runs.items()}
    factors = factors_differ(medians["parent"], medians["change"])
    print(f"{workload} median factors over seeds {','.join(map(str, seeds))}: "
          + ", ".join(f"{k} {medians['parent'][k]:.3f} -> {medians['change'][k]:.3f}"
                      for k in FACTORS)
          + "; " + (f"DIFFER by more than {FACTOR_RATIO}x: {', '.join(factors)}" if factors
                    else f"within {FACTOR_RATIO}x"))
    return moved or bool(factors)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--checkout", help="run one checkout in this process")
    p.add_argument("--parent", help="checkout of the parent commit")
    p.add_argument("--change", help="checkout of the change")
    p.add_argument("--workload", choices=WORKLOADS,
                   help="required with --checkout; with --parent/--change, all by default")
    p.add_argument("--seed", type=int, help="with --checkout")
    p.add_argument("--seeds", default="84,85", help="with --parent/--change, e.g. 84,85")
    p.add_argument("--seconds", type=float, default=30)
    args = p.parse_args(argv)
    if args.checkout:
        if args.workload is None or args.seed is None:
            p.error("--checkout needs --workload and --seed")
        result = check_checkout(args.checkout, args.workload, args.seed, args.seconds)
        print("\n".join(HEADER + rows("checkout", result)))
        print(json.dumps(result))
        return 0
    if not (args.parent and args.change):
        p.error("give --checkout, or --parent and --change")
    checkouts = {"parent": args.parent, "change": args.change}
    seeds = [int(s) for s in args.seeds.split(",")]
    differ = [w for w in ([args.workload] if args.workload else WORKLOADS)
              if compare(checkouts, w, seeds, args.seconds)]
    if differ:
        print(f"differs on {', '.join(differ)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
