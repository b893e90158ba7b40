"""Independent answers for every benchmark workload.

Nothing here imports the code under test: each oracle recomputes the
answer from the 0/1 input matrices with plain NumPy.

* LD joint counts are one float32 BLAS product ``X @ X.T`` of the
  site-major 0/1 matrix.  float32 holds every integer below 2^24
  exactly, and a count never exceeds the sample count, so the product
  is exact.  The benchmark hashes the counts once per seed and compares
  each job's counts by hash.
* Mixture scores ``popcount(r & ~m)`` are ``refs @ (1 - mix).T`` in
  float32, computed chunk by chunk and hashed the same way.
* Windowed pruning is a brute-force greedy scan with the r^2 rule in
  exact integers: ``r^2 > t`` with ``t = p/q`` becomes
  ``q * (n c_ab - c_a c_b)^2 > p * c_a (n - c_a) c_b (n - c_b)``.
* Served identity search is checked as a *prefix oracle*: a search may
  see any database prefix between the rows committed when it was sent
  and the rows issued when its reply arrived, and must equal the
  ``(distance, row)`` top-k over one such prefix.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np


def digest(array: np.ndarray) -> str:
    """sha256 of an int64 table's C-order bytes (shape-tagged)."""
    arr = np.ascontiguousarray(array, dtype=np.int64)
    h = hashlib.sha256(repr(arr.shape).encode())
    h.update(memoryview(arr).cast("B"))
    return h.hexdigest()


def chunked_digest(shape: tuple[int, ...], chunks: Iterable[np.ndarray]) -> str:
    """:func:`digest` of the row-wise concatenation of ``chunks``."""
    h = hashlib.sha256(repr(tuple(shape)).encode())
    for chunk in chunks:
        h.update(memoryview(np.ascontiguousarray(chunk, dtype=np.int64)).cast("B"))
    return h.hexdigest()


def ld_counts(sites: np.ndarray) -> np.ndarray:
    """Joint minor-allele counts between every pair of site rows."""
    x = np.asarray(sites, dtype=np.float32)
    if x.shape[1] >= 2**24:
        raise ValueError("ld_counts: float32 is exact only below 2^24 samples")
    return (x @ x.T).astype(np.int64)


def r_squared_at(
    counts: np.ndarray, n_obs: int, pairs: Sequence[tuple[int, int]]
) -> list[float]:
    """Textbook ``r^2 = D^2 / (p_a q_a p_b q_b)`` at the given site pairs."""
    out = []
    for i, j in pairs:
        p_a = counts[i, i] / n_obs
        p_b = counts[j, j] / n_obs
        d = counts[i, j] / n_obs - p_a * p_b
        var = p_a * (1 - p_a) * p_b * (1 - p_b)
        out.append(float(d * d / var) if var > 0 else 0.0)
    return out


def mixture_scores(references: np.ndarray, mixtures: np.ndarray) -> np.ndarray:
    """``popcount(r & ~m)`` for every (reference, mixture) pair."""
    absent = 1.0 - np.asarray(mixtures, dtype=np.float32)
    return (np.asarray(references, dtype=np.float32) @ absent.T).astype(np.int64)


def ld_prune_kept(sites: np.ndarray, window: int, r2: float) -> np.ndarray:
    """Greedy windowed pruning: site ``g`` is kept iff its r^2 with every
    kept site among the ``window - 1`` before it is at most ``r2``."""
    bits = np.asarray(sites, dtype=np.float32)
    n_obs = int(bits.shape[1])
    counts = [int(c) for c in np.asarray(sites).sum(axis=1)]
    threshold = Fraction(str(r2))
    p, q = threshold.numerator, threshold.denominator
    kept: list[int] = []
    for g in range(bits.shape[0]):
        recent = [j for j in kept[-window:] if j > g - window]
        blocked = False
        if recent:
            joints = bits[recent] @ bits[g]
            c_b = counts[g]
            for j, joint in zip(recent, joints):
                c_a = counts[j]
                num = (n_obs * int(joint) - c_a * c_b) ** 2
                den = c_a * (n_obs - c_a) * c_b * (n_obs - c_b)
                if den and q * num > p * den:
                    blocked = True
                    break
        if not blocked:
            kept.append(g)
    return np.array(kept, dtype=np.int64)


def hamming(queries: np.ndarray, database: np.ndarray) -> np.ndarray:
    """XOR distances ``|q| + |d| - 2 q.d`` for every (query, row) pair."""
    q = np.asarray(queries, dtype=np.float32)
    d = np.asarray(database, dtype=np.float32)
    dots = q @ d.T
    return (q.sum(axis=1)[:, None] + d.sum(axis=1)[None, :] - 2 * dots).astype(
        np.int64
    )


def top_k(distances: np.ndarray, prefix: int, k: int) -> list[tuple[int, int]]:
    """The ``k`` smallest ``(distance, row)`` pairs among rows ``< prefix``."""
    d = np.asarray(distances[:prefix])
    if d.size > k:
        cutoff = np.partition(d, k - 1)[k - 1]
        rows = np.flatnonzero(d <= cutoff)
    else:
        rows = np.arange(d.size)
    order = np.lexsort((rows, d[rows]))[:k]
    return [(int(d[rows[i]]), int(rows[i])) for i in order]


def search_matches_some_prefix(
    distances: np.ndarray,
    matches: Sequence[Sequence[int]],
    committed: int,
    issued: int,
    step: int,
    k: int,
) -> bool:
    """Whether ``matches`` is the top-k over a prefix in ``[committed, issued]``.

    Rows arrive in appends of ``step`` rows, so only prefixes at those
    boundaries are states the index can have been in.
    """
    got = [(int(dist), int(row)) for dist, row in matches]
    return any(
        got == top_k(distances, prefix, k)
        for prefix in range(committed, issued + 1, step)
    )
