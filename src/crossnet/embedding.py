"""Projection of mixed-type fields into a shared d-dimensional space.

Categorical fields get a lookup table with one extra OOV row; numerical
fields get one trainable basis vector each and are embedded by scalar
multiplication. The result for a sample is the first-rank feature tensor
of shape [T, n1, d] (batched: [B, T, n1, d]).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Param, Tensor


class EmbeddingLayer:
    def __init__(self, schema, d, rng):
        self.schema = schema
        self.d = d
        self.tables = {}
        self.basis_rows = {}
        bound = 1.0 / np.sqrt(d)
        num_idx = 0
        for f in schema:
            if f.kind == "categorical":
                rows = len(f.vocab) + 1  # trailing OOV row
                self.tables[f.name] = Param(
                    rng.uniform(-bound, bound, size=(rows, d)),
                    name=f"embed.{f.name}")
            else:
                self.basis_rows[f.name] = num_idx
                num_idx += 1
        if num_idx:
            self.basis = Param(rng.uniform(-bound, bound, size=(num_idx, d)),
                               name="embed.basis")
        else:
            self.basis = None

    def params(self):
        out = list(self.tables.values())
        if self.basis is not None:
            out.append(self.basis)
        return out

    def embed_batch(self, samples):
        """Embed normalized samples into a [B, T, n1, d] tensor."""
        B = len(samples)
        T = len(samples[0].steps)
        per_field = []
        for f in self.schema:
            if f.kind == "categorical" and f.multi_valued:
                probs = np.zeros((B, T, len(f.vocab) + 1))
                for b, s in enumerate(samples):
                    for t, step in enumerate(s.steps):
                        probs[b, t, :len(f.vocab)] = step[f.name]
                per_field.append(ad.matmul(Tensor(probs), self.tables[f.name]))
            elif f.kind == "categorical":
                idx = np.array([[s.steps[t][f.name] for t in range(T)] for s in samples],
                               dtype=np.intp)
                per_field.append(ad.gather_rows(self.tables[f.name], idx))
            else:
                vals = np.array([[s.steps[t][f.name] for t in range(T)] for s in samples])
                row = ad.slice_axis(self.basis, 0, self.basis_rows[f.name],
                                    self.basis_rows[f.name] + 1)
                per_field.append(ad.mul(Tensor(vals[:, :, None]),
                                        ad.reshape(row, (self.d,))))
        return ad.stack(per_field, axis=2)

