"""A short tour of the reverse-mode tensor engine.

Builds a tiny computation by hand, walks the backward pass, and finishes
with a finite-difference check — the same check the test suite and the
``crossnet gradcheck`` command rely on.
"""

import numpy as np

from crossnet import autodiff as ad

# ---------------------------------------------------------------------------
# 1. Scalars first: y = tanh(w * x + b)
# ---------------------------------------------------------------------------

w = ad.Param(np.array(0.7), name="w")
b = ad.Param(np.array(-0.2), name="b")
x = ad.Tensor(np.array(1.5))

y = ad.tanh(ad.add(ad.mul(w, x), b))
ad.backward(y)

print("y      =", y.data)
print("dy/dw  =", w.grad, " (expect x * (1 - y^2) =", 1.5 * (1 - y.data ** 2), ")")
print("dy/db  =", b.grad)

# ---------------------------------------------------------------------------
# 2. The same machinery scales to batched matrices unchanged.
# ---------------------------------------------------------------------------

rng = np.random.default_rng(0)
W = ad.Param(rng.normal(size=(4, 3)), name="W")
X = ad.Tensor(rng.normal(size=(8, 4)))

logits = ad.matmul(X, W)            # [8, 3]
probs = ad.softmax(logits)
loss = ad.tmean(ad.power(ad.add(probs, -1.0 / 3.0), 2.0))

ad.zero_grads([W])
ad.backward(loss)
print("\nmean squared distance from uniform targets:", float(loss.data))
print("gradient norm on W:", np.linalg.norm(W.grad))

# ---------------------------------------------------------------------------
# 3. Trust, but verify: central finite differences over every entry.
# ---------------------------------------------------------------------------

def f():
    return ad.tmean(ad.power(ad.add(ad.softmax(ad.matmul(X, W)), -1.0 / 3.0), 2.0))

report = ad.grad_check(f, [W], step=1e-4, tol=1e-3)
print("\ngrad_check:", "OK" if report["ok"] else "MISMATCH",
      f"(max relative error {report['max_rel_err']:.2e})")
