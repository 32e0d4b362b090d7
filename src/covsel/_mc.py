"""Shared Monte Carlo plumbing: blocked RNG streams.

Replication r of a key is row r - b B of block b = r // B, B = block_reps(n, p),
and block b is one (B, n, p) standard normal draw from rep_rng(key, b), so
results are identical no matter how whole blocks are batched. A Monte Carlo
loop takes one block at a time from `draw_blocks`.

numpy.random is loaded on the first draw, not at import, so `select` never
loads it, and with `_hashlib` blocked: its `secrets` -> `hmac` import would
otherwise map OpenSSL's libcrypto (about 3.4 MB resident) to seed a
generator from the OS, which no covsel generator is. The hmac and hashlib
that numpy.random's `secrets` holds fall back to CPython's builtin hashes,
as on an interpreter built without OpenSSL; where that import loaded them,
they are then dropped from sys.modules, so a caller's own later `import
hashlib` gets the whole module, OpenSSL's extra algorithms (scrypt,
sha512_256, ripemd160) included.
"""

from __future__ import annotations

import sys

import numpy as np

# floats per RNG block: one generator serves max(1, BLOCK_FLOATS // (n p))
# replications, so a block's draws, W = X Q and the kernel's per-chain Grams
# stay near 0.5 MB each whatever the collection
BLOCK_FLOATS = 2 ** 16


def _numpy_random():
    """numpy.random, imported the first time with `_hashlib` blocked. Where
    either module is already loaded (or `_hashlib` blocked) nothing is
    imported or blocked, so a loaded `_hashlib` is never dropped. hashlib and
    hmac, where this import loaded them, leave sys.modules with the block, so
    a later `import hashlib` loads them whole, OpenSSL included."""
    if "numpy.random" not in sys.modules and "_hashlib" not in sys.modules:
        fallbacks = {"hashlib", "hmac"} - sys.modules.keys()
        sys.modules["_hashlib"] = None  # makes `import _hashlib` raise ImportError
        try:
            import numpy.random  # noqa: F401
        finally:
            del sys.modules["_hashlib"]
            for name in fallbacks:
                sys.modules.pop(name, None)
    return np.random


def rep_rng(seed, index):
    """Generator keyed by (seed..., index): a Monte Carlo block or a reference
    check's case. The index is the SeedSequence's spawn key, which numpy keeps
    apart from the entropy, where (s, i, 1) and (s, i, 1, 0) name one stream."""
    random = _numpy_random()
    return random.default_rng(random.SeedSequence(seed, spawn_key=(int(index),)))


def block_reps(n, p):
    return max(1, BLOCK_FLOATS // (n * p))


def draw_batch(factor, n, seed, start, stop, out=None):
    """Draw replications start..stop-1 of n paths each: X[r] = Z_r factor^T.

    `start` must open a block; a last, partial block is a prefix of its full
    stream. Each block's normals go into one scratch block and through
    factor^T in one matmul; the same product over row slices of the block
    rounds some rows differently (BLAS picks its kernel by the row count, as
    at p = 32, n = 10). The batch is written to `out[:stop - start]`, a
    C-contiguous (at least stop - start, n, p) array, and that view is
    returned; without `out` a new array is.
    """
    p = factor.shape[0]
    size = block_reps(n, p)
    if start % size:
        raise ValueError(f"start {start} does not open a block of {size} replications")
    out = np.empty((stop - start, n, p)) if out is None else out[:stop - start]
    z = np.empty((min(size, stop - start), n, p))
    for first in range(start, stop, size):
        block = out[first - start:min(first + size, stop) - start]
        rep_rng(seed, first // size).standard_normal(out=z[:len(block)])
        np.matmul(z[:len(block)].reshape(-1, p), factor.T, out=block.reshape(-1, p))
    return out


def draw_blocks(factor, n, seed, reps):
    """Yield (start, stop, X) for each RNG block of replications 0..reps-1,
    X being `draw_batch`'s rows start..stop-1, every block drawn into one
    reused buffer: a caller drops its X before asking for the next."""
    size = block_reps(n, factor.shape[0])
    buffer = np.empty((min(size, reps), n, factor.shape[0]))
    for start in range(0, reps, size):
        stop = min(start + size, reps)
        yield start, stop, draw_batch(factor, n, seed, start, stop, buffer)


def wilson_interval(successes, trials):
    """95% Wilson score interval for a binomial proportion, as plain floats.

    The lower bound at zero successes is exactly 0.0 and the upper bound at
    `trials` successes exactly 1.0; `center -/+ half` only rounds near them.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    z = 1.959963984540054  # the standard normal 0.975 quantile
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = z * np.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, float(center - half))
    hi = 1.0 if successes == trials else min(1.0, float(center + half))
    return lo, hi
