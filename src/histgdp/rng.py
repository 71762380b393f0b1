"""Deterministic seed derivation.

Every stochastic consumer (CV shuffles, country splits, bootstrap
replicates, permutation sampling) receives a labeled child seed derived by
hashing (master seed, purpose label, indices).  A result therefore depends
only on its own pre-derived seed, never on the order or the company in
which tasks run: held-out splits give the same metrics whichever batch of
splits they are solved with.
"""

from __future__ import annotations

import hashlib

import numpy as np


def child_seed(master: int, label: str, *indices: int) -> int:
    """Derive a 64-bit child seed from a master seed and a purpose label."""
    key = "|".join([str(int(master)), label, *[str(int(i)) for i in indices]])
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
    return int(digest[:16], 16)


def child_rng(master: int, label: str, *indices: int) -> np.random.Generator:
    """A numpy Generator seeded with :func:`child_seed`."""
    return np.random.default_rng(child_seed(master, label, *indices))
