"""Projection of mixed-type fields into a shared d-dimensional space.

Categorical fields get a table with one extra OOV row, and each cell's
[V + 1] weight row (one-hot, or a multi-valued cell's weights) is embedded
by one matmul into it; numerical fields get one trainable basis vector each
and are embedded by scalar multiplication. The result for a sample is the
first-rank feature tensor of shape [T, n1, d] (batched: [B, T, n1, d]). The input is the arrays of
a ``data.EncodedBatch``, which ``data.encode`` builds from raw samples.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Param, Tensor
from .data import EncodedBatch, encode


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

    def embed_batch(self, batch):
        """Embed a batch into a [B, T, n1, d] tensor.

        ``batch`` is an EncodedBatch or a list of raw samples, which is
        encoded into one.
        """
        if not isinstance(batch, EncodedBatch):
            batch = encode(batch, self.schema)
        per_field = []
        for f in self.schema:
            if f.kind == "categorical":
                per_field.append(ad.matmul(Tensor(batch.categorical[f.name]),
                                           self.tables[f.name]))
            else:
                i = self.basis_rows[f.name]
                row = ad.slice_axis(self.basis, 0, i, i + 1)
                per_field.append(ad.mul(Tensor(batch.numeric[i][:, :, None]),
                                        ad.reshape(row, (self.d,))))
        return ad.stack(per_field, axis=2)
