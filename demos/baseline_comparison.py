"""Linear baselines versus the crossing network on interaction data.

Shows why feature crossing matters: on a planted multiplicative signal the
L1 logistic regression sits at chance while the rank-2 network separates
the classes. Also demos the fixed-coefficient linear rating score on a
five-indicator vector.
"""

import numpy as np

from crossnet.baselines import (flatten_samples, lr_predict, lr_train,
                                zscore_rate)
from crossnet.data import (build_schema, gen_synthetic_interaction, split,
                           synthetic_schema_config)
from crossnet.model import TrainConfig, confusion_report, evaluate, train

# ---------------------------------------------------------------------------
# Fixed-coefficient score: no training, just a dot product and a threshold.
# ---------------------------------------------------------------------------

indicators = np.array([0.2, 0.1, 0.04, 0.3, 0.5])
score, positive = zscore_rate(indicators)
print(f"linear score {score:.3f} -> {'positive' if positive else 'negative'}")

# ---------------------------------------------------------------------------
# Shared data: label = sign(x1 * x2) at the final step.
# ---------------------------------------------------------------------------

samples = gen_synthetic_interaction(600, T=2, noise_fields=2, seed=7)
ds = split(samples, 0.7, seed=7)
schema = build_schema(ds.train, synthetic_schema_config(2, 2))
y_train = np.array([s.label for s in ds.train])
y_test = [s.label for s in ds.test]

# ---------------------------------------------------------------------------
# L1 logistic regression on the flattened sequences.
# ---------------------------------------------------------------------------

X_train = flatten_samples(ds.train, schema)
X_test = flatten_samples(ds.test, schema)
lrm = lr_train(X_train, y_train, l1=1e-3, seed=7)
lr_acc = confusion_report((lr_predict(X_test, lrm) > 0.5).astype(int), y_test).acc
print(f"logistic regression test accuracy: {lr_acc:.3f} (chance is ~0.5)")

# ---------------------------------------------------------------------------
# The crossing network on the identical split.
# ---------------------------------------------------------------------------

cfg = TrainConfig(T=2, d=8, rank_widths=(8,), s=1, h=16, k=2, q=0.5,
                  lam=1e-3, lr=0.03, epochs=120, batch_size=8, seed=7)
model, _ = train(ds.train, schema, cfg)
print(f"crossing network test accuracy:   {evaluate(model, ds.test).acc:.3f}")
