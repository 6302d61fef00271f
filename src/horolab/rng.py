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


def generator(seed: int, label: str, *indices: int) -> np.random.Generator:
    """The generator of the series (label, indices) under an integer seed."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    key = tuple(int.from_bytes(digest[4 * i : 4 * i + 4], "little") for i in range(4))
    key += tuple(int(i) for i in indices)
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq))
