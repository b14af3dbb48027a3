"""Deterministic synthetic classification sets.

Image benchmarks are out of scope at desk scale; these two families cover
the regimes the toy trainer needs: `blobs` is linearly separable with
controllable class distance, `two_rings` (concentric annuli in the first
two coordinates) is not.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

_BLOCK_ROWS = 4096


def toy_dataset(kind: str, n: int, d: int, seed: int, *, classes: int = 2,
                delta: float = 6.0, sigma: float = 1.0):
    """Return (inputs (n, d), labels (n,)) drawn deterministically from seed.

    `two_rings` puts annuli of radii 1 and 2 (radial noise 0.1) in
    coordinates 0 and 1 over ambient noise 0.05, and for d > 2 sets
    coordinate max(2, d // 2) to the constant 1: the networks here carry no
    bias terms, so a radial threshold is only learnable against such a
    fixed reference scale.
    """
    if n < 0 or d <= 0:
        raise ContractError("need n >= 0 and d > 0")
    rng = np.random.default_rng(seed)
    if kind == "blobs":
        if classes < 2 or classes > d:
            raise ContractError("blobs needs 2 <= classes <= d")
        basis = np.linalg.qr(rng.standard_normal((d, classes)))[0].T
        labels = np.arange(n) % classes
        rng.shuffle(labels)
        # the noise is drawn into x and the class means added a block of
        # rows at a time, so building the set needs no second (n, d) array
        x = rng.standard_normal((n, d))
        x *= sigma
        means = delta * basis
        for start in range(0, n, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            x[rows] += means[labels[rows]]
        return x, labels.astype(np.int64)
    if kind == "two_rings":
        if d < 2:
            raise ContractError("two_rings needs d >= 2")
        if classes != 2:
            raise ContractError(f"two_rings has 2 classes, got classes={classes}")
        labels = np.arange(n) % 2
        rng.shuffle(labels)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        r = np.array([1.0, 2.0])[labels] + 0.1 * rng.standard_normal(n)
        x = 0.05 * rng.standard_normal((n, d))
        x[:, 0] += r * np.cos(theta)
        x[:, 1] += r * np.sin(theta)
        if d > 2:
            x[:, max(2, d // 2)] = 1.0
        return x, labels.astype(np.int64)
    raise ContractError(f"unknown dataset kind {kind!r}")
