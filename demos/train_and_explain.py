"""Train a small crossing network on synthetic data and explain it.

The synthetic generator plants a rank-2 interaction: the label is the sign
of x1 * x2 at the final time step, which no linear model on the raw values
can see. After training we backtrack the selection weights to recover the
learned feature-combination patterns, then attribute a single prediction
over (time step, channel) cells and write the SVG heatmap.
"""

from pathlib import Path

import numpy as np

from crossnet import explain
from crossnet.data import (build_schema, gen_synthetic_interaction, normalize,
                           split, synthetic_schema_config)
from crossnet.model import Model, TrainConfig, evaluate, train

OUT_DIR = Path(__file__).resolve().parent / "out"

# ---------------------------------------------------------------------------
# Data: 600 entities, 2 time steps, 2 distractor fields.
# ---------------------------------------------------------------------------

samples = gen_synthetic_interaction(600, T=2, noise_fields=2, seed=7)
ds = split(samples, 0.7, seed=7)
schema = build_schema(ds.train, synthetic_schema_config(2, 2))
train_set = [normalize(s, schema) for s in ds.train]

# ---------------------------------------------------------------------------
# Model: one crossing block (rank 2), small everything, L1 on selection.
# ---------------------------------------------------------------------------

cfg = TrainConfig(T=2, d=8, rank_widths=(8,), s=1, h=16, k=2, q=0.5,
                  lam=1e-3, lr=0.03, epochs=120, batch_size=8, seed=7)
model, trace = train(train_set, schema, cfg)

report = evaluate(model, ds.test)   # raw samples, scored by Model.score
print(f"test accuracy {report.acc:.3f}, AUC {report.auc:.3f} "
      f"(final train loss {trace[-1][1]:.4f})")

# ---------------------------------------------------------------------------
# Static explanation: which feature combinations did the lasso keep?
# ---------------------------------------------------------------------------

r1 = explain.rank1_attention_weights(model, ds.test)
patterns = explain.backtrack_patterns(model.blocks, model.schema,
                                      cfg.epsilon, rank1_weights=r1)
print("\nretained patterns (top 5 per rank):")
for rank in (1, 2):
    top = sorted((p for p in patterns if p.rank == rank),
                 key=lambda p: -p.weight)[:5]
    for p in top:
        print(f"  rank {rank}: {'*'.join(p.features):20s} weight {p.weight:.3f}")

# ---------------------------------------------------------------------------
# Individual explanation for one test entity.
# ---------------------------------------------------------------------------

sample = ds.test[0]
out = next(model.score([sample]))   # forward-only: builds no backward graph
pred = int(out["y"][0].argmax())
names = explain.channel_pattern_names(model.blocks, model.schema, cfg.epsilon)
expl, E = explain.individual_explanation(
    out["p"][0], out["q"][0], out["r"][0], pred,
    K=5, pattern_names=names)

print(f"\nentity {sample.entity_id}: predicted class {pred} "
      f"(label {sample.label}); top cells:")
for t, i, name, score in expl.entries:
    print(f"  t={t} channel={name:20s} score={score:.4f}")

written = explain.emit_reports(patterns, {sample.entity_id: (expl, E)}, OUT_DIR)
print(f"\nwrote report files to {OUT_DIR}/")
