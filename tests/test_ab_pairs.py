"""tools/ab_pairs.py --bench appends one entry per workload to BENCH_<workload>.json."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_pairs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_run(checkout, workload, seed, seconds):
    """A run whose figures are fixed by its side, workload and seed."""
    side = 2.0 if checkout.endswith("change") else 1.0
    scale = side * (seed + len(workload))
    return {"failed": int(side == 2.0), "attempted": 10, "correct": True,
            "metrics": {"throughput_per_s": 100.0 * scale, "peak_rss_mb": 50.0 + seed},
            "named": {"raw.setup_s": 0.1 * scale, "host.tape_factor": 1.5 + seed,
                      "csv_write_rows_per_s": 7.0}}


@pytest.fixture
def run(tool, tmp_path, monkeypatch):
    monkeypatch.setattr(tool, "run_once", fake_run)
    monkeypatch.setattr(tool, "checkout_sha", lambda checkout: f"sha-of-{Path(checkout).name}")
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    bench = tmp_path / "bench"
    bench.mkdir()

    def run(*extra):
        return tool.main(["--parent", str(tmp_path / "parent"), "--change", str(change),
                          "--workloads", "train_small,score_explain", "--seeds", "3-6",
                          "--seconds", "2", "--bench", str(bench), *extra])
    return run, bench


def test_each_workload_gets_an_entry_of_every_figure(tool, run, capsys):
    main, bench = run
    assert main() == 0
    assert sorted(p.name for p in bench.iterdir()) == ["BENCH_score_explain.json",
                                                       "BENCH_train_small.json"]
    (entry,) = json.loads((bench / "BENCH_train_small.json").read_text())
    assert (entry["parent"], entry["change"]) == ("sha-of-parent", "sha-of-change")
    assert entry["seeds"] == [3, 4, 5, 6] and entry["seconds"] == 2
    assert "train_small's gated figures carry the probe artifact" in entry["note"]
    assert entry["operations"] == {"parent": {"failed": 0, "attempted": 40},
                                   "change": {"failed": 4, "attempted": 40}}
    # gated metrics and raw and host-factor figures; no other named figure
    assert sorted(entry["figures"]) == ["host.tape_factor", "peak_rss_mb", "raw.setup_s",
                                        "throughput_per_s"]
    values = [100.0 * 2.0 * (seed + len("train_small")) for seed in (3, 4, 5, 6)]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert entry["figures"]["throughput_per_s"]["change"] == {
        "median": statistics.median(values), "q1": q1, "q3": q3}
    assert entry["figures"]["host.tape_factor"]["parent"]["median"] == 6.0


def test_a_second_run_appends(run):
    main, bench = run
    assert main() == 0
    assert main() == 0
    entries = json.loads((bench / "BENCH_score_explain.json").read_text())
    assert len(entries) == 2 and entries[0] == entries[1]

