"""Plain-numpy reference formulas the checks compare the program against.

Written from the definitions in the covsel README and the paper, without
importing covsel: basis designs on a grid, truth covariances, orthogonal
projectors and the closed-form Gaussian risk terms.
"""

from __future__ import annotations

import numpy as np


def fourier_design(indices, grid, t_min=0.0, t_max=1.0):
    """Columns g_k(grid): 1, sqrt2 cos(2 pi f u), sqrt2 sin(2 pi f u), f = (k+1)//2."""
    u = (np.asarray(grid, dtype=float) - t_min) / (t_max - t_min)
    cols = []
    for k in indices:
        freq = (k + 1) // 2
        if k == 0:
            cols.append(np.ones_like(u))
        elif k % 2 == 1:
            cols.append(np.sqrt(2.0) * np.cos(2.0 * np.pi * freq * u))
        else:
            cols.append(np.sqrt(2.0) * np.sin(2.0 * np.pi * freq * u))
    return np.stack(cols, axis=1)


def histogram_design(indices, grid, cells, t_min=0.0, t_max=1.0):
    """Indicators of equal-width cells; the last cell is closed on the right."""
    u = (np.asarray(grid, dtype=float) - t_min) / (t_max - t_min)
    cell = np.minimum(np.floor(u * cells).astype(int), cells - 1)
    return np.stack([(cell == k).astype(float) for k in indices], axis=1)


def design(family, indices, grid):
    """Design matrix for an INI [basis] section."""
    t_min, t_max = float(family["t_min"]), float(family["t_max"])
    if family["family"] == "fourier":
        return fourier_design(indices, grid, t_min, t_max)
    if family["family"] == "histogram":
        return histogram_design(indices, grid, int(family["max_index"]) + 1, t_min, t_max)
    raise ValueError(f"no reference design for family {family['family']!r}")


def orthonormal_basis(g, rtol=1e-10):
    """Orthonormal basis of the column space of g (left singular vectors)."""
    u, s, _ = np.linalg.svd(g, full_matrices=False)
    rank = int(np.sum(s > rtol * s[0])) if s.size and s[0] > 0 else 0
    return u[:, :rank]


def midpoint_grid(p, t_min=0.0, t_max=1.0):
    return t_min + (np.arange(p) + 0.5) * (t_max - t_min) / p


def kernel_sigma(kernel, grid):
    """Truth covariance on the grid for an INI [kernel] section."""
    s, t = grid[:, None], grid[None, :]
    if kernel["kind"] == "brownian":
        return np.minimum(s, t)
    if kernel["kind"] == "ornstein_uhlenbeck":
        return np.exp(-np.abs(s - t) / float(kernel["length_scale"]))
    raise ValueError(f"no reference formula for kernel {kernel['kind']!r}")


def gaussian_risk(sigma, basis, n):
    """(bias_sq, variance_term, fourth_moment_trace) of P S P for Gaussian data.

    bias_sq = ||sigma - P sigma P||^2 and variance_term = ((tr P sigma)^2 +
    ||P sigma P||^2) / n, with P = basis basis^T.
    """
    proj = basis @ basis.T
    psp = proj @ sigma @ proj
    trace = float(np.trace(proj @ sigma) ** 2 + np.sum(psp * psp))
    bias_sq = float(np.sum((sigma - psp) ** 2))
    return bias_sq, trace / n, trace


def wilson_interval(successes, trials, z=1.959963984540054):
    """95% Wilson score interval for a binomial proportion."""
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = z * np.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials ** 2)) / denom
    return max(0.0, center - half), min(1.0, center + half)
