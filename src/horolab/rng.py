"""Deterministic splittable randomness.

Every stochastic path in the package derives its generator from a single
manifest seed plus a string label (hashed into the spawn key) and optional
integer indices.  One generator serves one series: its draws are
reproducible and do not depend on any other series, so series with
different labels or indices can be evaluated in any order or in parallel.
Within a series the draws come in order, usually as one array.
"""

from __future__ import annotations

import hashlib

import numpy as np


class SplitRNG:
    """Label-addressed generators derived from one integer seed."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def _label_key(self, label: str) -> tuple:
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        return tuple(
            int.from_bytes(digest[4 * i : 4 * i + 4], "little") for i in range(4)
        )

    def generator(self, label: str, *indices: int) -> np.random.Generator:
        key = self._label_key(label) + tuple(int(i) for i in indices)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=key)
        return np.random.Generator(np.random.PCG64(seq))
