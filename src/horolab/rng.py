"""Deterministic splittable randomness.

Every stochastic path in the package derives its generator from a single
manifest seed plus a string label (hashed into the spawn key), so runs
are reproducible and independent cells can be evaluated in any order or
in parallel without sharing generator state.
"""

from __future__ import annotations

import hashlib
from typing import List

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

    def sequence(self, label: str, *indices: int) -> np.random.SeedSequence:
        key = self._label_key(label) + tuple(int(i) for i in indices)
        return np.random.SeedSequence(entropy=self.seed, spawn_key=key)

    def generator(self, label: str, *indices: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.sequence(label, *indices)))

    def spawn_children(self, label: str, count: int) -> List[np.random.SeedSequence]:
        # the children of sequence(label) are sequence(label, i), i < count
        return self.sequence(label).spawn(count)
