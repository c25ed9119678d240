"""Host-speed probes: rescale measured times to a fixed reference speed.

On a virtual machine given a few CPUs of a shared host (a 2-CPU x86-64 VM
was measured), the host's speed swings by up to 1.7x, in stretches of
seconds to minutes, as other tenants come and go. A median within one run
cannot remove a swing that lasts the whole run, so each timed stretch of
work is bracketed by fixed probes that do not touch crossnet, and its
time is multiplied by ``reference / probe``: the time the work would have
taken with the probe at its reference speed. A change to the program
moves the rescaled figures as it moves the raw ones.

A probe tracks the host only for work like its own, so there are two,
both taken at every probe point, and each timed figure uses the one that
matches its work:

- ``tape`` mimics an autodiff tape on tiny arrays: it records 1500 nodes,
  each a small object holding the result of three NumPy calls on 8x16
  arrays, then walks them backwards, over a few MB of arrays. On that VM,
  with train_small running between probes for three minutes, it cut the
  spread of 30 s windows' throughput from 0.11 to 0.06 and of their step
  p50 from 0.11 to 0.02; a tight loop of NumPy calls on one array, a
  pure-Python loop and a matrix product did worse.
- ``blas`` is a (32, 400) @ (400, 400) product and tanh, the medium-size
  array work of train_paper and of ``crossnet eval`` at B=256. The host's
  swings move that work about half as much as they move the tape probe,
  and rescaling train_paper by the tape probe over-corrected it.
"""

from __future__ import annotations

import time

import numpy as np

NODES = 1500
_E = np.linspace(-1.0, 1.0, 32 * 400).reshape(32, 400)
_W = np.linspace(-0.01, 0.01, 400 * 400).reshape(400, 400)
_Y = np.empty((32, 400))
_B = np.linspace(-0.1, 0.1, 16 * 16).reshape(16, 16)
_INPUTS = [np.linspace(-1.0, 1.0, 8 * 16).reshape(8, 16) * (1.0 + i / 512) for i in range(512)]
# Results go to preallocated arrays: right after a phase frees a large
# heap, fresh allocations page-fault, and a probe that allocated megabytes
# would time the faults, not the host.
_VALUES = [np.empty((8, 16)) for _ in range(NODES)]
_GRADS = [np.empty((8, 16)) for _ in range(NODES)]


class _Node:
    __slots__ = ("value", "parents", "grad")


def _tape():
    nodes = []
    for i in range(NODES):
        a, b = _INPUTS[i % 512], _INPUTS[(i * 7) % 512]
        node = _Node()
        node.value = np.add(np.tanh(a @ _B), b, out=_VALUES[i])
        node.parents = (a, b)
        node.grad = None
        nodes.append(node)
    for i in range(NODES - 1, -1, -1):
        nodes[i].grad = np.multiply(nodes[i].value, 0.5, out=_GRADS[i])


def _blas():
    for _ in range(40):
        np.matmul(_E, _W, out=_Y)
        np.tanh(_Y, out=_Y)


PROBES = {"tape": _tape, "blas": _blas}


def probe(kind):
    """Seconds for one probe's fixed work, 10-15 ms.

    One block, not the best of several short ones: the host can switch
    speed within a second, and a longer block averages over more of it.
    """
    start = time.perf_counter()
    PROBES[kind]()
    return time.perf_counter() - start


class HostSpeed:
    """Probes between stretches of timed work; each stretch gets its own factors."""

    def __init__(self, reference_s):
        self.reference_s = reference_s     # probe kind -> seconds at the reference speed
        self.factors = {kind: [] for kind in PROBES}
        self.last = {kind: probe(kind) for kind in PROBES}

    def factor(self):
        """The factors for the work since the previous probe point, one per
        kind: reference ÷ the mean of the probes just before and after it."""
        out = {}
        for kind, last in self.last.items():
            now = probe(kind)
            out[kind] = self.reference_s[kind] / (0.5 * (last + now))
            self.last[kind] = now
            self.factors[kind].append(out[kind])
        return out


def unscaled():
    return None
