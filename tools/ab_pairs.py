"""Alternating A/B runs of perfbench/run.py in two checkouts, and their table.

    python3 tools/ab_pairs.py --parent ../parent --change . \
        --workloads score_explain --seeds 40-49 --seconds 30 \
        --named raw.eval_entities_per_s,host.tape_factor --save ab.json
    python3 tools/ab_pairs.py --load ab.json

Each seed is one pair: both checkouts run the workload with that seed, one
after the other, and the side that runs first alternates from pair to pair.
Each run's gated metrics come from its last stdout line; ``--named`` figures
(raw and host-factor readings) come from the record that run.py writes
under the checkout's perfbench/out/. Nothing under perfbench/ is changed.

The table gives, per metric, the median [first–third quartile] of each
side, change ÷ parent of the medians, and in how many pairs the change was
better (by the metric's direction in BENCHMARK.json; raw figures follow
their gated metric, host factors have none).

With a new run, ``--bench DIR`` appends one entry per workload to
``DIR/BENCH_<workload>.json``, a JSON list kept across runs: both
checkouts' commits (``+dirty`` when a checkout's files differ from its
commit), the seeds, the seconds, each side's failed and attempted
operations, and per side the median and quartiles of every gated, raw and
host-factor figure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
BENCH_NOTE = ("train_small's gated figures carry the probe artifact: its generation-2 "
              "collections land inside the host-speed probes, which read the host as slow "
              "and so inflate them, until the probes run with the collector off "
              "(ROADMAP item 1a). Its raw figures do not carry it.")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout, workload, seed, seconds):
    """{"failed", "attempted", "metrics": {name: value}, "named": {name: value}}."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=4 * seconds + 300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    last = json.loads(lines[-1])
    record = Path(checkout) / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    named = json.loads(record.read_text())["named"]
    return {"failed": last["failed"], "attempted": last["attempted"],
            "correct": last["correct"],
            "metrics": {k: v["value"] for k, v in last["metrics"].items()},
            "named": {k: v["value"] for k, v in named.items()}}


def run_pairs(checkouts, workloads, seeds, seconds):
    """{workload: [{"seed", "parent", "change"}, ...]}, printing progress to stderr."""
    results = {}
    for workload in workloads:
        pairs = results.setdefault(workload, [])
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, seed, seconds)
            pairs.append(pair)
            print(f"{workload} seed {seed} ({order[0]} first): "
                  + ", ".join(f"{s} {pair[s]['metrics'].get('throughput_per_s', 0):.4g}/s"
                              for s in SIDES), file=sys.stderr)
    return results


def directions(benchmark):
    return {m["name"]: m["better"] for m in benchmark["end_to_end"]}


def direction(name, better):
    """'higher', 'lower' or None for a gated metric or a named figure."""
    if name in better:
        return better[name]
    if name.startswith("host."):
        return None
    return "higher" if name.endswith("_per_s") else "lower"


def spread(values):
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def table(results, better, named):
    rows = ["| workload | metric | parent | change | change ÷ parent | better in |",
            "|---|---|---|---|---|---|"]
    notes = []
    for workload, pairs in results.items():
        names = [m for m in better if m in pairs[0]["parent"]["metrics"]]
        for name in names + list(named):
            kind = "metrics" if name in better else "named"
            values = {s: [p[s][kind][name] for p in pairs if name in p[s][kind]]
                      for s in SIDES}
            if not values["parent"] or len(values["parent"]) != len(values["change"]):
                continue
            cells = []
            for side in SIDES:
                med, q1, q3 = spread(values[side])
                cells.append(f"{med:.4g} [{q1:.4g}–{q3:.4g}]")
            ratio = spread(values["change"])[0] / spread(values["parent"])[0]
            way = direction(name, better)
            if way is None:
                wins = "-"
            else:
                sign = 1 if way == "higher" else -1
                wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"],
                                                              values["change"]))
            rows.append(f"| {workload} | {name} | {cells[0]} | {cells[1]} | "
                        f"{ratio:.3f} | {wins}/{len(pairs)} |")
        for side in SIDES:
            failed = sum(p[side]["failed"] for p in pairs)
            attempted = sum(p[side]["attempted"] for p in pairs)
            wrong = sum(not p[side]["correct"] for p in pairs)
            notes.append(f"{workload} {side}: {failed} of {attempted} operations failed, "
                         f"{wrong} of {len(pairs)} runs not correct")
    return "\n".join(rows + [""] + notes)


def checkout_sha(checkout):
    """The checkout's HEAD commit, with ``+dirty`` when its files differ from
    it; None if it is not a git checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                               text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    return head.stdout.strip() + ("+dirty" if git("status", "--porcelain").stdout else "")


def bench_entry(pairs, shas, seconds):
    """One BENCH_<workload>.json entry for a workload's pairs."""
    figures = {}
    for kind in ("metrics", "named"):
        names = sorted({n for p in pairs for s in SIDES for n in p[s][kind]})
        for name in names:
            if kind == "named" and not name.startswith(("raw.", "host.")):
                continue
            figures[name] = {}
            for side in SIDES:
                values = [p[side][kind][name] for p in pairs if name in p[side][kind]]
                if values:
                    med, q1, q3 = spread(values)
                    figures[name][side] = {"median": med, "q1": q1, "q3": q3}
    return {"parent": shas["parent"], "change": shas["change"],
            "seeds": [p["seed"] for p in pairs], "seconds": seconds, "note": BENCH_NOTE,
            "operations": {s: {"failed": sum(p[s]["failed"] for p in pairs),
                               "attempted": sum(p[s]["attempted"] for p in pairs)}
                           for s in SIDES},
            "figures": figures}


def append_bench(directory, results, shas, seconds):
    """Append each workload's entry to ``directory/BENCH_<workload>.json``."""
    for workload, pairs in results.items():
        path = Path(directory) / f"BENCH_{workload}.json"
        entries = json.loads(path.read_text()) if path.exists() else []
        entries.append(bench_entry(pairs, shas, seconds))
        path.write_text(json.dumps(entries, indent=1) + "\n")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", help="checkout of the parent commit")
    p.add_argument("--change", help="checkout of the change")
    p.add_argument("--workloads", default="train_small,train_paper,score_explain")
    p.add_argument("--seeds", default="40-49", help="e.g. 40-49 or 1,3,5")
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--named", default="", help="comma-separated named figures to add")
    p.add_argument("--save", help="write the raw results here as JSON")
    p.add_argument("--load", help="print the table of saved results instead of running")
    p.add_argument("--bench", metavar="DIR",
                   help="append one entry per workload to DIR/BENCH_<workload>.json")
    args = p.parse_args(argv)
    named = [n for n in args.named.split(",") if n]
    if args.load:
        if args.bench:
            p.error("--bench records a new run, so it cannot go with --load")
        saved = json.loads(Path(args.load).read_text())
        results, benchmark = saved["results"], saved["benchmark"]
        named = named or saved.get("named", [])
    else:
        if not (args.parent and args.change):
            p.error("--parent and --change are needed unless --load is given")
        checkouts = {"parent": args.parent, "change": args.change}
        shas = {side: checkout_sha(checkout) for side, checkout in checkouts.items()}
        benchmark = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
        results = run_pairs(checkouts, args.workloads.split(","),
                            parse_seeds(args.seeds), args.seconds)
        if args.save:
            Path(args.save).write_text(json.dumps(
                {"results": results, "benchmark": benchmark, "named": named}))
        if args.bench:
            append_bench(args.bench, results, shas, args.seconds)
    print(table(results, directions(benchmark), named))
    return 0


if __name__ == "__main__":
    sys.exit(main())
