"""Deterministic substream RNG helpers.

All stochastic operations in the package draw from counter-based Philox
streams keyed by (seed, path...), so any experiment replays exactly from
its seed and parallel/serial execution orders agree.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

MAX_SEED = 2**64 - 1

T = TypeVar("T")


def validate_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def substream(seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream identified by (seed, *path)."""
    ss = np.random.SeedSequence(entropy=validate_seed(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def map_indexed(fn: Callable[[int], T], n: int, threads: int = 1) -> list[T]:
    """Apply fn to 0..n-1, optionally on a thread pool.

    Results are collected in index order, so the reduction order (and thus
    the output) is identical for any thread count.
    """
    if threads <= 1:
        return [fn(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, range(n)))


def stable_dot(w: Sequence[float] | np.ndarray, v: Sequence[float] | np.ndarray) -> float:
    """Order-stable weighted sum: exact fsum up to 4096 terms, numpy's pairwise
    summation beyond; neither uses BLAS, so any BLAS thread count agrees."""
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)
    if w.size <= 4096:
        return math.fsum((w * v).tolist())
    return float(np.add.reduce(w * v))
