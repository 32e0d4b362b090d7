"""Shared Monte Carlo plumbing: blocked RNG streams and chunking.

Replication r of a key is row r - b B of block b = r // B, B = block_reps(n, p),
and block b is one (B, n, p) standard normal draw from rep_rng(key, b), so
results are identical no matter how whole blocks are batched.
"""

from __future__ import annotations

import numpy as np

# floats per RNG block: one generator serves max(1, BLOCK_FLOATS // (n p)) replications
BLOCK_FLOATS = 2 ** 16
# floats per chunk of draws; the kernel buffers grow with a table's width and members
CHUNK_FLOATS = 2 ** 18


def rep_rng(seed, index):
    """Generator keyed by (seed..., index): a Monte Carlo block or a reference
    check's case. The index is the SeedSequence's spawn key, which numpy keeps
    apart from the entropy, where (s, i, 1) and (s, i, 1, 0) name one stream."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(int(index),)))


def block_reps(n, p):
    return max(1, BLOCK_FLOATS // (n * p))


def draw_batch(factor, n, seed, start, stop):
    """Draw replications start..stop-1 of n paths each: X[r] = Z_r factor^T.

    `start` must open a block; a last, partial block is a prefix of its full
    stream. Each block goes through factor^T in one matmul.
    """
    p = factor.shape[0]
    size = block_reps(n, p)
    if start % size:
        raise ValueError(f"start {start} does not open a block of {size} replications")
    out = np.empty((stop - start, n, p))
    for first in range(start, stop, size):
        block = out[first - start:min(first + size, stop) - start]
        z = rep_rng(seed, first // size).standard_normal(block.shape)
        np.matmul(z.reshape(-1, p), factor.T, out=block.reshape(-1, p))
    return out


def iter_chunks(reps, n, p, target_floats=CHUNK_FLOATS):
    """Yield (start, stop) ranges of whole RNG blocks, at least one, keeping
    each batch of draws near target_floats numbers (or one block, if larger)."""
    size = block_reps(n, p)
    chunk = size * max(1, target_floats // (size * n * p))
    for start in range(0, reps, chunk):
        yield start, min(start + chunk, reps)


def wilson_interval(successes, trials, z=1.959963984540054):
    """95% Wilson score interval for a binomial proportion, as plain floats.

    The lower bound at zero successes is exactly 0.0 and the upper bound at
    `trials` successes exactly 1.0; `center -/+ half` only rounds near them.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = z * np.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, float(center - half))
    hi = 1.0 if successes == trials else min(1.0, float(center + half))
    return lo, hi
