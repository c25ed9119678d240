"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
to the terminal (bypassing capture) so the full checklist is visible in
any pytest run. Heavy criteria state their runtime budget and are checked
against it.
"""

import csv
import time
from pathlib import Path

import numpy as np
import pytest

from crossnet import autodiff as ad
from crossnet.baselines import flatten_samples, lr_predict, lr_train, zscore_rate
from crossnet.cli import main
from crossnet.crossing import make_blocks
from crossnet.data import (SchemaConfig, build_schema, gen_synthetic_interaction,
                           load_csv, normalize, split, synthetic_schema_config,
                           write_csv)
from crossnet.explain import backtrack_patterns, individual_explanation
from crossnet.model import (Model, TrainConfig, auc, confusion_report, evaluate,
                            lq_loss, train)

from test_explain import enumerate_paths

US_STOCKS_PATH = Path(__file__).resolve().parent.parent / "data" / "us_stocks_yearly.csv"


@pytest.fixture
def announce(capsys, request):
    """Yields a reporter; the criterion line is printed straight to the tty."""
    def report(number, name, ok, detail=""):
        with capsys.disabled():
            status = "PASS" if ok else "FAIL"
            suffix = f"  ({detail})" if detail else ""
            print(f"\n[criterion {number:2d}] {name}: {status}{suffix}")
        assert ok, f"criterion {number} ({name}) failed {detail}"
    return report


def _dataset(n, T, noise, seed):
    samples = gen_synthetic_interaction(n, T, noise, seed=seed)
    schema = build_schema(samples, synthetic_schema_config(noise, T))
    return samples, schema


def _normalize_all(samples, schema):
    return [normalize(s, schema) for s in samples]


def test_criterion_01_gradient_correctness(tmp_path, announce):
    cfg = tmp_path / "grad.cfg"
    cfg.write_text("fields = x1, x2, noise0\n"
                   "T = 3\nd = 4\nrank_widths = 4\ns = 3\nh = 5\nk = 2\n")
    start = time.monotonic()
    rc = main(["gradcheck", "--config", str(cfg), "--tol", "1e-3"])
    elapsed = time.monotonic() - start
    announce(1, "gradient correctness vs finite differences", rc == 0 and elapsed <= 60,
             f"{elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_02_planted_interaction(announce):
    start = time.monotonic()
    samples, _ = _dataset(2000, T=2, noise=2, seed=7)
    ds = split(samples, 0.7, seed=7)
    schema = build_schema(ds.train, synthetic_schema_config(2, 2))
    cfg = TrainConfig(T=2, d=8, rank_widths=(8,), s=1, h=16, k=2, q=0.5,
                      lam=1e-3, lr=0.01, epochs=200, batch_size=8, seed=7)
    model, _ = train(_normalize_all(ds.train, schema), schema, cfg)
    acc = evaluate(model, ds.test).acc

    lr_accs = []
    for seed in range(5):
        Xtr = flatten_samples(ds.train, schema)
        Xte = flatten_samples(ds.test, schema)
        m = lr_train(Xtr, np.array([s.label for s in ds.train]), seed=seed)
        preds = (lr_predict(Xte, m) > 0.5).astype(int)
        lr_accs.append(confusion_report(preds, [s.label for s in ds.test]).acc)
    elapsed = time.monotonic() - start
    ok = acc >= 0.90 and max(lr_accs) <= 0.62 and elapsed <= 300
    announce(2, "planted interaction beats linear baseline", ok,
             f"acc={acc:.3f} lr_max={max(lr_accs):.3f} {elapsed:.0f}s")


def test_criterion_03_loss_limits(announce):
    rng = np.random.default_rng(0)
    ok = True
    for p in rng.uniform(0.05, 0.95, size=100):
        near_ce = lq_loss(ad.Tensor([p, 1.0 - p]), 0, 1e-3).data.item()
        ok &= abs(near_ce - (-np.log(p))) / abs(np.log(p)) <= 1e-2
        at_one = lq_loss(ad.Tensor([p, 1.0 - p]), 0, 1.0).data.item()
        ok &= at_one == pytest.approx(1.0 - p, abs=1e-12)
    announce(3, "loss interpolates to cross-entropy and 1-p", bool(ok))


def test_criterion_04_sparsity_monotone(announce):
    samples, _ = _dataset(200, T=2, noise=2, seed=7)
    schema = build_schema(samples, synthetic_schema_config(2, 2))
    norm = _normalize_all(samples, schema)
    fractions = []
    for lam in (0.0, 1e-3, 1e-2):
        cfg = TrainConfig(T=2, d=8, rank_widths=(8,), s=1, h=16, k=2, q=0.5,
                          lam=lam, lr=0.01, epochs=30, batch_size=8, seed=7)
        model, _ = train(norm, schema, cfg)
        w = np.concatenate([b.w_pca.data.ravel() for b in model.blocks])
        fractions.append(float((np.abs(w) < 1e-3).mean()))
    ok = (fractions[0] <= fractions[1] <= fractions[2]
          and fractions[2] > fractions[0])
    announce(4, "selection sparsity grows with the penalty", ok,
             "fractions " + ", ".join(f"{f:.3f}" for f in fractions))


def test_criterion_05_pattern_oracle(announce):
    from crossnet.data import FeatureField
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n1 = int(rng.integers(2, 4))
        w2 = int(rng.integers(2, 5))
        w3 = int(rng.integers(2, 4))
        assert n1 * n1 * w2 <= 64 and n1 * w2 * w3 <= 64
        blocks = make_blocks(n1, [w2, w3], 2, rng)
        for b in blocks:
            mask = rng.uniform(size=b.w_pca.shape) < 0.5
            b.w_pca.data = np.where(mask, rng.normal(size=b.w_pca.shape), 0.0)
        schema = [FeatureField(f"f{i}", "numerical") for i in range(n1)]
        got = backtrack_patterns(blocks, schema, 1e-4)
        expected = enumerate_paths(blocks, n1, 1e-4)
        for rank in (2, 3):
            got_rank = {p.features: p.weight for p in got if p.rank == rank}
            exp_rank = {tuple(f"f{i}" for i in key): w
                        for key, w in expected[rank - 1].items()}
            ok &= set(got_rank) == set(exp_rank)
            ok &= all(abs(got_rank[k] - w) <= 1e-9 for k, w in exp_rank.items())
    announce(5, "pattern backtracking matches path enumeration", bool(ok))


def test_criterion_06_attribution_structure(announce):
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(50):
        N = int(rng.integers(2, 7))
        T = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(N))
        q = rng.dirichlet(np.ones(T))
        r = rng.dirichlet(np.ones(3))
        pred = int(rng.integers(0, 3))
        expl, E = individual_explanation(p, q, r, pred, K=min(5, N * T))
        for t1 in range(T):
            for t2 in range(t1 + 1, T):
                for i1 in range(N):
                    for i2 in range(i1 + 1, N):
                        minor = E[t1, i1] * E[t2, i2] - E[t1, i2] * E[t2, i1]
                        ok &= abs(minor) <= 1e-9
        r2 = r.copy()
        r2[pred] *= 7.5
        expl2, _ = individual_explanation(p, q, r2, pred, K=min(5, N * T))
        ok &= ([(e[0], e[1]) for e in expl.entries]
               == [(e[0], e[1]) for e in expl2.entries])
    announce(6, "attribution matrix is rank-1 and scale-stable", bool(ok))


def test_criterion_07_attention_normalization(announce):
    samples, schema = _dataset(16, T=3, noise=1, seed=2)
    cfg = TrainConfig(T=3, d=4, rank_widths=(4, 3), s=3, h=6, k=2, seed=2)
    model = Model(schema, cfg)
    rng = np.random.default_rng(3)
    for p in model.params():        # random weights, not the uniform init
        p.data = rng.normal(scale=0.5, size=p.shape)
    fwd = model.forward(_normalize_all(samples, schema))
    ok = np.allclose(fwd["p"].data.sum(axis=-1), 1.0, atol=1e-9)
    ok &= np.allclose(fwd["q"].data.sum(axis=-1), 1.0, atol=1e-9)
    for a in fwd["stack"].attentions:
        ok &= np.allclose(a.data.sum(axis=-2), 1.0, atol=1e-9)
    announce(7, "all attention distributions sum to one", bool(ok))


def test_criterion_08_metrics_exactness(announce):
    preds = [1] * 3 + [0] * 1 + [0] * 8 + [1] * 2
    labels = [1] * 4 + [0] * 10
    report = confusion_report(preds, labels)
    ok = (report.tp, report.fn, report.tn, report.fp) == (3, 1, 8, 2)
    ok &= report.acc == (report.tp + report.tn) / 14
    ok &= report.err1 == pytest.approx(0.2) and report.err2 == pytest.approx(0.25)
    ok &= auc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]) == 1.0
    ok &= auc([0.9, 0.4, 0.6, 0.2], [1, 0, 0, 1]) == 0.5
    ok &= auc([0.5] * 6, [1, 1, 1, 0, 0, 0]) == 0.5
    announce(8, "confusion and ranking metrics are exact", bool(ok),
             f"acc={report.acc:.4f}")


def test_criterion_09_zscore_fixture(announce):
    score, positive = zscore_rate(np.ones(5))
    ok = abs(score - 20.243) <= 1e-9 and positive
    announce(9, "linear score fixture", ok, f"score={score:.3f}")


def test_criterion_10_public_stock_data(announce):
    if not US_STOCKS_PATH.exists():
        pytest.skip(f"public yearly stock dataset not present at {US_STOCKS_PATH}; "
                    "place a long-format CSV there to enable this check")
    start = time.monotonic()
    with open(US_STOCKS_PATH, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    fields = [c for c in header
              if c not in ("entity_id", "period_index", "label")][:25]
    sc = SchemaConfig(fields=fields, time_span=5)
    samples = load_csv(US_STOCKS_PATH, sc)
    ds = split(samples, 0.7, seed=0)
    schema = build_schema(ds.train, sc)
    cfg = TrainConfig(T=5, d=16, rank_widths=(8,), s=3, h=32, k=2, q=0.5,
                      lam=1e-3, lr=0.01, epochs=20, batch_size=32, seed=0)
    model, _ = train(_normalize_all(ds.train, schema), schema, cfg)
    model_auc = evaluate(model, ds.test).auc

    Xtr = flatten_samples(ds.train, schema)
    Xte = flatten_samples(ds.test, schema)
    m = lr_train(Xtr, np.array([s.label for s in ds.train]), seed=0)
    lr_auc = auc(lr_predict(Xte, m), [s.label for s in ds.test])
    elapsed = time.monotonic() - start
    ok = model_auc >= lr_auc - 0.02 and elapsed <= 1800
    announce(10, "public stock data keeps pace with linear baseline", ok,
             f"auc={model_auc:.4f} lr={lr_auc:.4f} {elapsed:.0f}s")


def test_criterion_11_determinism(tmp_path, announce):
    samples = gen_synthetic_interaction(24, T=2, noise_fields=1, seed=0)
    data = tmp_path / "data.csv"
    write_csv(samples, data, synthetic_schema_config(1, 2))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("fields = x1, x2, noise0\nT = 2\nd = 4\nrank_widths = 3\n"
                   "s = 1\nh = 5\nepochs = 2\nbatch_size = 8\nlr = 0.01\nseed = 5\n")
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    for out in (a, b):
        rc = main(["train", "--data", str(data), "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 0
    ok = a.read_bytes() == b.read_bytes()
    announce(11, "repeated training is bit-identical", ok)
