"""Dense linear-algebra primitives: vec, the squared Frobenius norm,
orthogonal projectors, PSD factors, and brute-force Kronecker/commutation
constructions.

The Kronecker and commutation builders are small-scale test oracles only and
carry an explicit size guard; production code never materialises p**2 x p**2
matrices.
"""

from __future__ import annotations

import numpy as np

# Singular values below RANK_RTOL * sigma_max count as zero everywhere.
RANK_RTOL = 1e-10

# Maximum number of entries a dense Kronecker-style construction may allocate.
DEFAULT_SIZE_GUARD = 1_000_000


def require_finite(a, name="array"):
    """Raise ValueError if `a` contains NaN or Inf."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def vec(a):
    """Stack the columns of a p x q matrix into a vector of length p*q."""
    a = require_finite(a, "matrix")
    if a.ndim != 2:
        raise ValueError("vec expects a 2-d array")
    return a.ravel(order="F")


def frob_norm_sq(a):
    """Squared Frobenius norm."""
    a = np.asarray(a, dtype=float)
    return float(np.sum(a * a))


def basis_from_design(g, rtol=RANK_RTOL):
    """Orthonormal basis of the column space of the design matrix `g`.

    The left singular vectors above the rank cutoff rtol * sigma_max.
    Returns (basis, rank) with basis of shape p x rank; a zero design has
    rank 0 and an empty basis.
    """
    g = require_finite(g, "design")
    if g.ndim != 2 or g.shape[0] < 1 or g.shape[1] < 1:
        raise ValueError("design must be a p x k matrix with p, k >= 1")
    u, s, _ = np.linalg.svd(g, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        r = 0
    else:
        r = int(np.sum(s > rtol * s[0]))
    return u[:, :r], r


def projector_from_basis(ur):
    """Orthogonal projector ur ur^T onto the span of orthonormal columns, symmetrised."""
    proj = ur @ ur.T
    return 0.5 * (proj + proj.T)


def projector_from_design(g, rtol=RANK_RTOL):
    """Orthogonal projector onto the column space of the design matrix `g`.

    Built from the left singular vectors above the rank cutoff, which equals
    g (g^T g)^+ g^T but is numerically stable for rank-deficient designs.
    Returns (projector, rank); a zero design yields the zero projector.
    """
    ur, r = basis_from_design(g, rtol=rtol)
    return projector_from_basis(ur), r


def check_projector(proj, sym_tol=1e-12, idem_tol=1e-10):
    """Validate the projector invariants; raises ValueError on failure."""
    proj = np.asarray(proj, dtype=float)
    sym_err = np.max(np.abs(proj - proj.T)) if proj.size else 0.0
    if sym_err > sym_tol:
        raise ValueError(f"projector not symmetric: max |P - P^T| = {sym_err:.3e}")
    idem_err = np.max(np.abs(proj @ proj - proj)) if proj.size else 0.0
    if idem_err > idem_tol:
        raise ValueError(f"projector not idempotent: max |P^2 - P| = {idem_err:.3e}")
    return proj


def psd_factor(sigma, rtol=1e-10):
    """Symmetric factor L with L L^T = sigma, via the eigendecomposition.

    Eigenvalues in [-rtol * scale, 0) are clipped to zero, so rank-deficient
    and zero matrices factor cleanly; anything lower raises LinAlgError.
    """
    sigma = np.asarray(sigma, dtype=float)
    eigvals, eigvecs = np.linalg.eigh(sigma)
    scale = max(1.0, float(np.abs(eigvals).max())) if eigvals.size else 1.0
    if eigvals.size and eigvals.min() < -rtol * scale:
        raise np.linalg.LinAlgError(
            f"matrix is not non-negative definite (min eigenvalue {eigvals.min():.3e})"
        )
    return eigvecs @ np.diag(np.sqrt(np.clip(eigvals, 0.0, None)))


def kron(a, b, size_guard=DEFAULT_SIZE_GUARD):
    """Dense Kronecker product, guarded against oversized outputs.

    Exists for tests and small-p diagnostics; satisfies
    (a kron b) vec(X) = vec(b X a^T).
    """
    a = require_finite(a, "first factor")
    b = require_finite(b, "second factor")
    out_entries = a.size * b.size
    if out_entries > size_guard:
        raise ValueError(
            f"kron output would have {out_entries} entries "
            f"(guard is {size_guard})"
        )
    return np.kron(a, b)


def commutation_matrix(p, size_guard=DEFAULT_SIZE_GUARD):
    """Permutation matrix K with K vec(A) = vec(A^T) for all p x p A."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if p ** 4 > size_guard:
        raise ValueError(
            f"commutation matrix would have {p ** 4} entries "
            f"(guard is {size_guard})"
        )
    k = np.zeros((p * p, p * p))
    for i in range(p):
        for j in range(p):
            # vec(A)[i + j p] = A[i, j]; vec(A^T)[i + j p] = A[j, i]
            k[i + j * p, j + i * p] = 1.0
    return k
