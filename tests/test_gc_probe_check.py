"""tools/gc_probe_check.py sorts each automatic collection into one place."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "gc_probe_check.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("gc_probe_check", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# a timed round over [10, 20) with a probe inside it at [18, 19), a set-up at
# [2, 3) followed by its probe at [3, 4), and a second timed round at [30, 40)
INTERVALS = {"probe": [(18.0, 19.0), (3.0, 4.0)], "setup": [(2.0, 3.0)],
             "timed": [(10.0, 20.0), (30.0, 40.0)]}


@pytest.mark.parametrize("t, place", [
    (18.5, "probe"),        # a probe inside a timed round counts as the probe's
    (3.0, "probe"),         # an interval holds its start
    (2.999, "setup"),
    (4.0, "elsewhere"),     # but not its end
    (10.0, "timed"), (19.0, "timed"), (39.9, "timed"),
    (0.0, "elsewhere"), (25.0, "elsewhere"), (40.0, "elsewhere"),
])
def test_one_collection(tool, t, place):
    counts = tool.classify([t], [2], INTERVALS)
    assert counts[2] == {p: int(p == place) for p in tool.PLACES}
    assert counts[0] == counts[1] == dict.fromkeys(tool.PLACES, 0)


def test_counts_per_generation(tool):
    starts = [18.2, 18.4, 11.0, 2.5, 50.0, 35.0]
    gens = [2, 0, 0, 1, 2, 2]
    assert tool.classify(starts, gens, INTERVALS) == {
        0: {"probe": 1, "setup": 0, "timed": 1, "elsewhere": 0},
        1: {"probe": 0, "setup": 1, "timed": 0, "elsewhere": 0},
        2: {"probe": 1, "setup": 0, "timed": 1, "elsewhere": 1}}


def test_no_intervals(tool):
    assert tool.classify([1.0, 2.0], [0, 2], {})[2]["elsewhere"] == 1


def test_placement_is_the_places_not_the_counts(tool):
    def result(probe, timed):
        return {"counts": {2: {"probe": probe, "setup": 0, "timed": timed, "elsewhere": 0}}}

    assert tool.placement(result(44, 0)) == tool.placement(result(45, 0)) == {"probe"}
    assert tool.placement(result(44, 0)) != tool.placement(result(0, 44))
    assert tool.placement(result(44, 0)) != tool.placement(result(43, 1))


@pytest.mark.parametrize("parent, change, differ", [
    ((0.52, 0.53), (0.52, 0.53), []),
    ((0.525, 0.531), (0.931, 0.926), ["setup_factor", "tape_factor"]),   # a moved probe
    ((0.5, 0.8), (0.65, 0.8), []),                  # 1.3 exactly is still within
    ((0.5, 0.8), (0.66, 0.8), ["setup_factor"]),
    ((0.5, 0.8), (0.5, 0.6), ["tape_factor"]),      # either side may be the larger
])
def test_factors_differ_beyond_the_ratio(tool, parent, change, differ):
    def result(factors):
        return dict(zip(("setup_factor", "tape_factor"), factors))

    assert tool.FACTOR_RATIO == 1.3
    assert tool.factors_differ(result(parent), result(change)) == differ


def runs(setup, tape):
    return [{"setup_factor": s, "tape_factor": t} for s, t in zip(setup, tape)]


@pytest.mark.parametrize("parent, change, differ", [
    # identical code on a host that changed speed between runs: seed by seed
    # the set-up factors are 1.54x and 1.46x apart, their medians 1.01x
    (runs([1.588, 1.266], [1.0, 1.0]), runs([1.029, 1.854], [1.0, 1.0]), []),
    # a moved probe, seen in both runs of each side
    (runs([0.525, 0.521], [0.531, 0.534]), runs([0.931, 0.950], [0.926, 0.934]),
     ["setup_factor", "tape_factor"]),
])
def test_factors_compare_medians_over_the_seeds(tool, parent, change, differ):
    assert tool.factors_differ(tool.median_factors(parent),
                               tool.median_factors(change)) == differ


def fake_result(probe):
    """A run whose generation-2 collections are all in the probes, or all timed."""
    counts = {g: dict.fromkeys(("probe", "setup", "timed", "elsewhere"), 0) for g in (0, 1, 2)}
    counts[2]["probe" if probe else "timed"] = 3
    return {"counts": counts, "correct": True, "setup_factor": 1.0, "tape_factor": 1.0}


@pytest.fixture
def sides(tool, monkeypatch):
    """Fake run_side: every run is placed in the probes, but the change's on
    the workloads in ``moved``; returns the (checkout, workload, seed) calls."""
    calls, moved = [], set()

    def run_side(checkout, workload, seed, seconds):
        calls.append((checkout, workload, seed))
        return fake_result(not (checkout == "change" and workload in moved))

    monkeypatch.setattr(tool, "run_side", run_side)
    return calls, moved


@pytest.mark.parametrize("moved, rc", [(set(), 0), ({"score_explain"}, 1), ({"train_small"}, 1)])
def test_without_workload_every_workload_runs(tool, sides, capsys, moved, rc):
    calls, moving = sides
    moving.update(moved)
    assert tool.main(["--parent", "parent", "--change", "change", "--seeds", "1,2"]) == rc
    assert [w for _, w, _ in calls] == [w for w in tool.WORKLOADS for _ in range(4)]
    assert {c for c, _, _ in calls} == {"parent", "change"}
    out = capsys.readouterr().out
    assert ("differs on" in out) == bool(moved)


def test_one_workload_runs_alone(tool, sides):
    calls, moving = sides
    moving.add("train_small")
    assert tool.main(["--parent", "parent", "--change", "change", "--seeds", "1",
                      "--workload", "train_paper"]) == 0
    assert {w for _, w, _ in calls} == {"train_paper"}


def test_checkout_needs_a_workload(tool, sides, capsys):
    with pytest.raises(SystemExit) as exc:
        tool.main(["--checkout", ".", "--seed", "1"])
    assert exc.value.code == 2
    assert "--checkout needs --workload" in capsys.readouterr().err
    assert sides[0] == []
