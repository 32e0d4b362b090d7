"""Shared Monte Carlo plumbing: per-replication RNG streams and chunking.

Every replication draws from a generator seeded by (seed, replication
index), so results are identical no matter how replications are batched.
"""

from __future__ import annotations

import numpy as np


def _seed_key(seed):
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


def rep_rng(seed, rep):
    """Generator for one replication, keyed by (seed..., rep)."""
    return np.random.default_rng(_seed_key(seed) + (int(rep),))


def draw_batch(factor, n, seed, start, stop):
    """Draw replications start..stop-1 of n paths each: X[r] = Z_r factor^T."""
    p = factor.shape[0]
    out = np.empty((stop - start, n, p))
    for i, rep in enumerate(range(start, stop)):
        z = rep_rng(seed, rep).standard_normal((n, p))
        out[i] = z @ factor.T
    return out


def iter_chunks(reps, n, p, target_floats=1_000_000):
    """Yield (start, stop) ranges keeping each batch near target_floats numbers."""
    chunk = max(1, int(target_floats // max(1, n * p)))
    start = 0
    while start < reps:
        stop = min(start + chunk, reps)
        yield start, stop
        start = stop


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
