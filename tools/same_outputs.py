"""Byte-compare what crossnet's commands print and write in two checkouts.

    python3 tools/same_outputs.py --parent ../parent --change . --work /tmp/same

Three data sets are generated once, from this checkout's ``src`` and
``perfbench/workloads.py`` (read only; nothing under perfbench/ is written):

- ``numeric``: 300 entities, T=3, 25 numeric fields, about 10% empty cells;
- ``categorical``: 300 entities, T=3, four numeric fields, a categorical
  ``sector`` and a multi-valued ``segments``, with categories that only a
  few entities have (so unseen in training) and multi-valued cells whose
  names are all unknown. The first entity of the test split, as the
  commands split the set, gets an unseen ``sector`` and a ``segments``
  cell of no known name in its final period, and ``explain --entity`` also
  runs on it, so the OOV rows are compared at B=1 too;
- ``score``: the 4000-entity score_explain fixture of the benchmark.

Each set is also written as one wide file per period, the input of
``ingest``: an entity's label on each of its periods, every seventh entity
without one of its non-final periods, and the rows of every other period
in reverse order.

Each checkout then runs the same commands on each set, in its own copy of
the set's directory, as ``python -m crossnet.cli`` with its own ``src``
first on the path: ingest, train, eval, eval --all, explain --static,
explain --entity, baseline --which lr, baseline --which zscore, sweep
--axis rank and gradcheck. The numeric and score sets name five ``zscore_fields``; the
categorical set names none, so its zscore baseline exits 2. Every
command's exit code and the sha256 of its stdout and stderr are compared,
and so is the sha256 of every file left in the directory. One line is
printed per difference, and per set a summary that also names the
commands that exited non-zero; the exit status is 1 if any output
differs, else 0.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from crossnet import data  # noqa: E402
import workloads  # noqa: E402

SIDES = ("parent", "change")
SMALL = "T = 3\nd = 4\nrank_widths = 4, 3\ns = 3\nh = 8\nepochs = 3\nbatch_size = 16\n"
ENTITY = "s00000"
ZSCORE = "zscore_fields = x1, x2, noise0, noise1, noise2\n"


def numeric_set(seed=11):
    samples = data.gen_synthetic_interaction(300, 3, 23, seed=seed)
    rng = np.random.default_rng(seed)
    for s in samples:
        for step in s.steps:
            for name in step:
                if rng.random() < 0.1:
                    step[name] = math.nan
    fields = list(samples[0].steps[0])
    return samples, data.SchemaConfig(fields=fields, time_span=3), (
        f"fields = {', '.join(fields)}\n{SMALL}{ZSCORE}seed = {seed}\nratio = 0.7\n"), []


def categorical_set(seed=12):
    samples = data.gen_synthetic_interaction(300, 3, 2, seed=seed)
    rng = np.random.default_rng(seed)
    for i, s in enumerate(samples):
        for step in s.steps:
            rare = rng.random() < 0.03
            step["sector"] = f"rare{i}" if rare else f"sec{rng.integers(6)}"
            a, b = rng.integers(4, size=2)
            step["segments"] = ({f"unseen{i}": 1.0} if rng.random() < 0.03 else
                                {f"seg{a}": 1.0} if a == b else
                                {f"seg{a}": 0.25, f"seg{b}": 0.75})
    oov = data.split(samples, 0.7, seed).test[0]
    oov.steps[-1].update(sector="unseen", segments={"unknown": 1.0})
    fields = list(samples[0].steps[0])
    return samples, data.SchemaConfig(
        fields=fields, categorical={"sector", "segments"}, multi_valued={"segments"},
        time_span=3), (f"fields = {', '.join(fields)}\ncategorical = sector, segments\n"
                       f"multi_valued = segments\n{SMALL}seed = {seed}\nratio = 0.7\n"), [
        explain_entity("oov", oov.entity_id)]


def score_set(seed=3):
    w = workloads
    samples = w.add_categoricals(data.gen_synthetic_interaction(
        w.SCORE_ENTITIES, w.SCORE_T, w.SCORE_NOISE, seed=seed), seed)
    fields = list(samples[0].steps[0])
    c = w.SCORE_CONFIG
    return samples, data.SchemaConfig(
        fields=fields, categorical={"sector", "segments"}, multi_valued={"segments"},
        time_span=w.SCORE_T), (
        f"fields = {', '.join(fields)}\ncategorical = sector, segments\n"
        f"multi_valued = segments\nT = {c['T']}\nd = {c['d']}\n"
        f"rank_widths = {', '.join(map(str, c['rank_widths']))}\ns = {c['s']}\n"
        f"h = {c['h']}\nk = {c['k']}\nepochs = 1\n{ZSCORE}seed = {seed}\nratio = 0.7\n"), []


def explain_entity(out, entity):
    return ["explain", "--data", "data.csv", "--model", "model.ckpt", "--config", "run.cfg",
            "--out", out, "--entity", entity]


SETS = {"numeric": numeric_set, "categorical": categorical_set, "score": score_set}

COMMANDS = [
    ["train", "--data", "data.csv", "--config", "run.cfg", "--out", "model.ckpt"],
    ["eval", "--data", "data.csv", "--model", "model.ckpt", "--config", "run.cfg"],
    ["eval", "--data", "data.csv", "--model", "model.ckpt", "--config", "run.cfg", "--all"],
    ["explain", "--data", "data.csv", "--model", "model.ckpt", "--config", "run.cfg",
     "--out", "static", "--static"],
    explain_entity("entity", ENTITY),
    ["baseline", "--data", "data.csv", "--config", "run.cfg", "--which", "lr"],
    ["baseline", "--data", "data.csv", "--config", "run.cfg", "--which", "zscore"],
    ["sweep", "--data", "data.csv", "--config", "run.cfg", "--axis", "rank",
     "--values", "1,2", "--out", "sweep.csv"],
    ["gradcheck", "--config", "run.cfg"],
]


# the arguments that, after the command, name each output, with --entity's value
NAMED = ("--all", "--static", "--entity", "lr", "zscore")


def sha(blob):
    return hashlib.sha256(blob).hexdigest()


def write_wide(set_dir, T):
    """Write ``period<t>.csv`` for each period of the set's data.csv; return
    the ingest command that reads them."""
    with open(set_dir / "data.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    labels = {r[0]: r[-1] for r in rows if r[-1] != ""}
    # every seventh entity lacks its period i % T, unless that is the final one
    gaps = {(e, i % T) for i, e in enumerate(labels) if i % 7 == 0 and i % T < T - 1}
    names = []
    for t in range(T):
        period = [[r[0]] + r[2:-1] + [labels[r[0]]] for r in rows
                  if int(r[1]) == t and (r[0], t) not in gaps]
        names.append(f"period{t}.csv")
        data.write_rows(set_dir / names[-1], [header[0]] + header[2:-1] + [header[-1]],
                        period[::-1] if t % 2 else period)
    return ["ingest", "--in"] + names + ["--out", "ingested.csv", "--config", "run.cfg"]


def run_side(checkout, set_dir, commands):
    """{output name: digest} for every command's rc, stdout and stderr and every file."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = {}
    for argv in commands:
        name = " ".join(argv[:1] + [a for i, a in enumerate(argv)
                                    if a in NAMED or argv[i - 1] == "--entity"])
        proc = subprocess.run([sys.executable, "-m", "crossnet.cli"] + argv, cwd=set_dir,
                              env=env, capture_output=True, timeout=1800)
        out[f"{name}: exit code"] = str(proc.returncode)
        out[f"{name}: stdout"] = sha(proc.stdout)
        out[f"{name}: stderr"] = sha(proc.stderr)
    for path in sorted(p for p in set_dir.rglob("*") if p.is_file()):
        out[f"file {path.relative_to(set_dir)}"] = sha(path.read_bytes())
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--work", required=True,
                   help="scratch directory; its parent/ and change/ are replaced")
    args = p.parse_args(argv)
    work = Path(args.work)
    for side in SIDES:
        shutil.rmtree(work / side, ignore_errors=True)
    differences = 0
    for set_name, make_set in SETS.items():
        samples, schema_config, config, extra = make_set()
        digests = {}
        for side in SIDES:
            set_dir = work / side / set_name
            set_dir.mkdir(parents=True)
            data.write_csv(samples, set_dir / "data.csv", schema_config)
            (set_dir / "run.cfg").write_text(config, encoding="utf-8")
            ingest = write_wide(set_dir, schema_config.time_span)
            digests[side] = run_side(getattr(args, side), set_dir, [ingest] + COMMANDS + extra)
        names = sorted(set(digests["parent"]) | set(digests["change"]))
        diff = [n for n in names if digests["parent"].get(n) != digests["change"].get(n)]
        for n in diff:
            print(f"{set_name}: {n} differs: parent {digests['parent'].get(n, 'missing')} "
                  f"change {digests['change'].get(n, 'missing')}")
        failed = [n for n, v in digests["change"].items() if n.endswith("exit code") and v != "0"]
        print(f"{set_name}: {len(names) - len(diff)} of {len(names)} outputs identical"
              + (f"; exited non-zero: {', '.join(failed)}" if failed else ""))
        differences += len(diff)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
