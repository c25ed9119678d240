"""Linear baselines: Altman-style Z-Score and L1 logistic regression.

Both consume flattened per-entity feature vectors (all time steps
concatenated, categorical fields one-hot expanded) and share the metric
conventions of the model module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import encode

ALTMAN_COEFFICIENTS = np.array([0.517, -0.460, 18.640, 0.388, 1.158])
ALTMAN_THRESHOLD = 0.9

# minibatch SGD settings of lr_train
LR_STEP = 0.1
LR_EPOCHS = 200
LR_BATCH_SIZE = 32


@dataclass
class LrModel:
    weights: np.ndarray
    bias: float


def zscore_rate(x):
    """Altman score over exactly five indicators; positive iff score > ALTMAN_THRESHOLD."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (5,):
        raise ValueError(f"expected 5 indicator values, got shape {x.shape}")
    score = float(ALTMAN_COEFFICIENTS @ x)
    return score, score > ALTMAN_THRESHOLD


def flatten_samples(samples, schema):
    """Per raw entity: T * (numeric values + one-hot categoricals) feature vector.

    The values are ``data.encode``'s: standardized numbers with missing ones
    at 0, and the V + 1 weights of a categorical cell (one-hot with the last
    slot OOV, or a multi-valued cell's renormalized weights).
    """
    batch = encode(samples, schema)
    numeric = iter(batch.numeric)
    columns = [next(numeric)[:, :, None] if f.kind == "numerical" else batch.categorical[f.name]
               for f in schema]
    return np.concatenate(columns, axis=2).reshape(len(samples), -1)


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def lr_train(X, y, l1=0.0, seed=0):
    """Minibatch SGD on logistic loss + l1 * ||w||_1 (sign subgradient, 0 at 0):
    LR_EPOCHS epochs of step LR_STEP over batches of LR_BATCH_SIZE."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(set(y.tolist())) < 2:
        raise ValueError("logistic regression needs both classes in training data")
    rng = np.random.default_rng(seed)
    w = np.zeros(X.shape[1])
    b = 0.0
    n = len(y)
    for _ in range(LR_EPOCHS):
        order = rng.permutation(n)
        for start in range(0, n, LR_BATCH_SIZE):
            idx = order[start:start + LR_BATCH_SIZE]
            xb, yb = X[idx], y[idx]
            p = _sigmoid(xb @ w + b)
            err = p - yb
            gw = xb.T @ err / len(idx) + l1 * np.sign(w)
            gb = err.mean()
            w -= LR_STEP * gw
            b -= LR_STEP * gb
    return LrModel(weights=w, bias=b)


def lr_predict(x, model):
    """P(label = 1) for a single vector or a matrix of rows."""
    x = np.asarray(x, dtype=np.float64)
    return _sigmoid(x @ model.weights + model.bias)
