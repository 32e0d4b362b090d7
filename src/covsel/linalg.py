"""Dense linear-algebra primitives: the squared Frobenius norm, orthogonal
projectors, the one PSD check and PSD factors.

The brute-force Kronecker and commutation constructions live in
`covsel._reference`; the pipeline never materialises p**2 x p**2 matrices.
"""

from __future__ import annotations

import numpy as np

# Singular values below RANK_RTOL * sigma_max count as zero everywhere; a rank
# decision is clear when none lies within a factor RANK_MARGIN of that cutoff.
RANK_RTOL = 1e-10
RANK_MARGIN = 1e4

# An eigenvalue down to -PSD_RTOL * max |eigenvalue|, or an asymmetry up to
# PSD_RTOL * max |entry|, is rounding; both are relative, with no floor.
PSD_RTOL = 1e-10


def require_finite(a, name="array"):
    """Raise ValueError if `a` contains NaN or Inf."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def frob_norm_sq(a):
    """Squared Frobenius norm."""
    a = np.asarray(a, dtype=float)
    return float(np.sum(a * a))


def numerical_rank(s, margin=1.0):
    """The count of singular values `s` (in descending order) above the
    cutoff RANK_RTOL * s[0], or None where one lies within a factor `margin`
    of that cutoff (the decision is not clear)."""
    cutoff = RANK_RTOL * s[0]
    if margin > 1.0 and np.any((s > cutoff / margin) & (s < cutoff * margin)):
        return None
    return int(np.sum(s > cutoff))


def basis_from_design(g):
    """Orthonormal basis of the column space of the design matrix `g`.

    The left singular vectors above the rank cutoff RANK_RTOL * sigma_max.
    Returns (basis, rank) with basis of shape p x rank; a zero design has
    rank 0 and an empty basis.
    """
    g = require_finite(g, "design")
    if g.ndim != 2 or g.shape[0] < 1 or g.shape[1] < 1:
        raise ValueError("design must be a p x k matrix with p, k >= 1")
    u, s, _ = np.linalg.svd(g, full_matrices=False)
    r = numerical_rank(s)
    return u[:, :r], r


def projector_from_basis(ur):
    """Orthogonal projector ur ur^T onto the span of orthonormal columns, symmetrised."""
    proj = ur @ ur.T
    return 0.5 * (proj + proj.T)


def projector_from_design(g):
    """Orthogonal projector onto the column space of the design matrix `g`.

    Built from the left singular vectors above the rank cutoff, which equals
    g (g^T g)^+ g^T but is numerically stable for rank-deficient designs.
    Returns (projector, rank); a zero design yields the zero projector.
    """
    ur, r = basis_from_design(g)
    return projector_from_basis(ur), r


def psd_eigh(a, name="matrix"):
    """Eigenvalues and eigenvectors of `a`, which must be a finite square
    matrix, symmetric up to PSD_RTOL * max |a| and non-negative definite: an
    eigenvalue below -PSD_RTOL * max |eigenvalue| raises LinAlgError (a
    ValueError). The decomposition is of the symmetrised (a + a^T) / 2.
    """
    a = require_finite(a, name)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square")
    if a.size and np.max(np.abs(a - a.T)) > PSD_RTOL * np.max(np.abs(a)):
        raise ValueError(f"{name} must be symmetric")
    eigvals, eigvecs = np.linalg.eigh(0.5 * (a + a.T))
    if eigvals.size and eigvals.min() < -PSD_RTOL * np.abs(eigvals).max():
        raise np.linalg.LinAlgError(
            f"{name} must be non-negative definite (min eigenvalue {eigvals.min():.3e})")
    return eigvals, eigvecs


def psd_factor(sigma, name="matrix"):
    """Factor L = V diag(sqrt(lambda)) with L L^T = sigma, from the
    eigendecomposition with which :func:`psd_eigh` checks `sigma`.

    Eigenvalues that :func:`psd_eigh` accepts as rounding are clipped to zero,
    so rank-deficient and zero matrices factor cleanly.
    """
    eigvals, eigvecs = psd_eigh(sigma, name)
    return eigvecs @ np.diag(np.sqrt(np.clip(eigvals, 0.0, None)))
