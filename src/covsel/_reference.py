"""Brute-force references and the checks that hold covsel to them.

Dense constructions (vec, Kronecker products, the commutation matrix, the
empirical and Gaussian fourth-moment covariances, the estimate P S P) and
the Monte Carlo tail check serve `covsel validate` and the tests only;
`select` and `simulate` never import this module.

Each check in CHECKS takes a key (a tuple of ints), draws its case c from
``rep_rng(key, c)`` (a nested case appends its loop values to the key) and
returns (ok, detail). `covsel validate` and the acceptance suite run the same
functions, the suite with its own keys and case counts.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from ._mc import draw_batch, iter_chunks, rep_rng
from .dictionary import BasisFamily, ModelSpec, make_model
from .estimator import SampleSet, empirical_cov, estimate, fit_all
from .linalg import (basis_from_design, frob_norm_sq, projector_from_basis, projector_from_design,
                     require_finite)
from .oracle import TruthSpec, true_fourth_moment_trace
from .simulate import uniform_grid

# Maximum number of entries a dense Kronecker-style construction may allocate.
DEFAULT_SIZE_GUARD = 1_000_000


def vec(a):
    """Stack the columns of a p x q matrix into a vector of length p*q."""
    a = require_finite(a, "matrix")
    if a.ndim != 2:
        raise ValueError("vec expects a 2-d array")
    return a.ravel(order="F")


def kron(a, b, size_guard=DEFAULT_SIZE_GUARD):
    """Dense Kronecker product, guarded against oversized outputs; satisfies
    (a kron b) vec(X) = vec(b X a^T)."""
    a = require_finite(a, "first factor")
    b = require_finite(b, "second factor")
    out_entries = a.size * b.size
    if out_entries > size_guard:
        raise ValueError(f"kron output would have {out_entries} entries (guard is {size_guard})")
    return np.kron(a, b)


def commutation_matrix(p, size_guard=DEFAULT_SIZE_GUARD):
    """Permutation matrix K with K vec(A) = vec(A^T) for all p x p A."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if p ** 4 > size_guard:
        raise ValueError(f"commutation matrix would have {p ** 4} entries (guard is {size_guard})")
    k = np.zeros((p * p, p * p))
    for i in range(p):
        for j in range(p):
            # vec(A)[i + j p] = A[i, j]; vec(A^T)[i + j p] = A[j, i]
            k[i + j * p, j + i * p] = 1.0
    return k


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


def fourth_moment_cov_dense(samples, size_guard=DEFAULT_SIZE_GUARD):
    """Dense p^2 x p^2 empirical covariance of vec(x x^T).

    Returns (1/n) sum_i y_i y_i^T - m m^T with y_i = vec(x_i x_i^T) and m the
    mean of the y_i; symmetric and non-negative definite.
    """
    p = samples.p
    if p ** 4 > size_guard:
        raise ValueError(f"dense fourth-moment covariance needs {p ** 4} entries (guard {size_guard})")
    y = np.stack([np.outer(x, x).ravel(order="F") for x in samples.data])
    mean = y.mean(axis=0)
    phi = y.T @ y / samples.n - np.outer(mean, mean)
    return 0.5 * (phi + phi.T)


def gaussian_fourth_moment_dense(sigma, size_guard=DEFAULT_SIZE_GUARD):
    """Dense covariance of vec(x x^T) for x ~ N(0, sigma): (I + K)(sigma kron sigma).

    Brute-force oracle for the closed form in
    :func:`covsel.oracle.true_fourth_moment_trace`.
    """
    sigma = np.asarray(sigma, dtype=float)
    p = sigma.shape[0]
    k = commutation_matrix(p, size_guard=size_guard)
    return (np.eye(p * p) + k) @ kron(sigma, sigma, size_guard=size_guard)


def project(s, model):
    """The dense estimate P S P of one model, for a p x p covariance `s`."""
    proj = projector_from_basis(model.basis)
    return proj @ s @ proj


def true_variance_factor(truth, model):
    """True per-dimension variance factor Tr((P kron P) F) / dim."""
    return true_fourth_moment_trace(truth, model) / model.dim


def check_quadratic_form_tail(truth, model, n, x_grid, reps, seed=0, beta=4.0):
    """Empirical tail of the in-model quadratic deviation against the
    deviation-bound threshold dim + 2 sqrt(dim x) + x, all scaled by the
    true variance factor.

    The statistic per replication is n ||P (S - sigma) P||^2.  Returns a
    per-x table plus a fitted envelope c x^(-beta/2) anchored at the
    smallest x with positive exceedance; `decay_ok` says whether every
    larger x stays below that envelope.
    """
    if reps < 1000:
        raise ValueError("need reps >= 1000")
    x_grid = np.asarray(sorted(float(x) for x in x_grid))
    if x_grid.size == 0 or np.any(x_grid < 0):
        raise ValueError("x_grid must be nonempty and nonnegative")

    chains = _kernels.chains([model])
    quad = np.empty(reps)
    for start, stop in iter_chunks(reps, n, truth.p):
        # the batch is freed when the kernel returns, before the next draw; [3] is dev_sq
        quad[start:stop] = n * _kernels.deviation_batch(
            draw_batch(truth.factor, n, seed, start, stop), *chains, truth.sigma)[3][:, 0]

    vf = true_variance_factor(truth, model)
    dim = model.dim
    rows = []
    for x in x_grid:
        threshold = vf * (dim + 2.0 * np.sqrt(dim * x) + x)
        rows.append({"x": float(x), "threshold": float(threshold),
                     "exceedance": float(np.mean(quad >= threshold))})

    anchor = next((row for row in rows if row["exceedance"] > 0 and row["x"] > 0), None)
    c = 0.0 if anchor is None else anchor["exceedance"] * anchor["x"] ** (beta / 2.0)
    decay_ok = True
    for row in rows:
        bound = c * row["x"] ** (-beta / 2.0) if row["x"] > 0 else np.inf
        row["bound"] = float(bound)
        if anchor is not None and row["x"] > anchor["x"]:
            decay_ok = decay_ok and row["exceedance"] <= bound + 1e-12
    return {"rows": rows, "c": float(c), "beta": float(beta), "decay_ok": bool(decay_ok)}


# ---------------------------------------------------------------------------
# the checks of `covsel validate`
# ---------------------------------------------------------------------------

def random_projector(gen, p):
    """Projector onto the span of a p x k standard normal design, k in 1..p."""
    proj, _ = projector_from_design(gen.standard_normal((p, gen.integers(1, p + 1))))
    return proj


def _rel_err(value, reference):
    return float(np.max(np.abs(value - reference)) / max(1.0, np.max(np.abs(reference))))


def _worst_below(errors, tol):
    """(ok, detail) for relative errors that must all stay below `tol`."""
    worst = max(errors)
    return worst < tol, f"worst rel err {worst:.2e}"


def check_vec_kron(key, cases=50):
    """(A kron B) vec X = vec(B X A^T)."""
    def error(gen):
        p = int(gen.integers(2, 4))
        a, b, x = (gen.standard_normal((p, p)) for _ in range(3))
        return _rel_err(kron(a, b) @ vec(x), vec(b @ x @ a.T))
    return _worst_below([error(rep_rng(key, c)) for c in range(cases)], 1e-12)


def check_kron_trace(key, cases=50):
    """Tr(A kron B) = Tr A Tr B."""
    def error(gen):
        a, b = gen.standard_normal((3, 3)), gen.standard_normal((3, 3))
        return _rel_err(np.trace(kron(a, b)), np.trace(a) * np.trace(b))
    return _worst_below([error(rep_rng(key, c)) for c in range(cases)], 1e-10)


def check_commutation(key, cases=10):
    """K^2 = I and K vec(A) = vec(A^T), exactly, for p = 1..4."""
    worst = 0.0
    for p in (1, 2, 3, 4):
        k = commutation_matrix(p)
        worst = max(worst, np.max(np.abs(k @ k - np.eye(p * p))))
        for c in range(cases):
            a = rep_rng(key + (p,), c).standard_normal((p, p))
            worst = max(worst, np.max(np.abs(k @ vec(a) - vec(a.T))))
    return worst == 0.0, f"worst abs err {worst:.2e}"


def check_projectors(key, cases=100):
    """Projectors of random designs are symmetric and idempotent
    (:func:`check_projector`'s bounds)."""
    for c in range(cases):
        gen = rep_rng(key, c)
        try:
            check_projector(random_projector(gen, int(gen.integers(1, 5))))
        except ValueError as exc:
            return False, str(exc)
    return True, ""


def check_trace_range(key, cases=50):
    """0 <= Tr((P kron P) Psi) <= Tr Psi for PSD Psi, up to a slack of
    min(1e-9, 1e-10 Tr Psi)."""
    for c in range(cases):
        gen = rep_rng(key, c)
        p = int(gen.integers(2, 5))
        proj = random_projector(gen, p)
        a = gen.standard_normal((p * p, p * p))
        psi = a @ a.T
        val = float(np.sum(kron(proj, proj) * psi))
        total = float(np.trace(psi))
        slack = min(1e-9, 1e-10 * total)
        if not -slack <= val <= total + slack:
            return False, f"projected trace {val} outside [0, {total}]"
    return True, ""


def check_kron_free_trace(key, cases=17):
    """fit_all's fourth-moment trace against the dense Tr((P kron P) F), for
    p in 2..4 and n in (5, 10)."""
    family = BasisFamily(kind="fourier", t_min=0.0, t_max=1.0, max_index=6)
    def error(gen, p, n):
        grid = uniform_grid(p)
        samples = SampleSet(grid=grid, data=gen.standard_normal((n, p)))
        model = make_model(family, range(int(gen.integers(1, p + 1))), grid)
        _, (fast,) = fit_all(samples, [model])
        phi, proj = fourth_moment_cov_dense(samples), projector_from_basis(model.basis)
        return _rel_err(fast, np.sum(kron(proj, proj) * phi))
    return _worst_below([error(rep_rng(key + (p, n), c), p, n)
                         for p in (2, 3, 4) for n in (5, 10) for c in range(cases)], 1e-8)


def check_gaussian_closed_form(key, cases=100):
    """oracle.true_fourth_moment_trace on a model basis against the dense
    Gaussian Tr((P kron P) F)."""
    def error(gen):
        p = int(gen.integers(2, 5))
        a = gen.standard_normal((p, p))
        sigma = a @ a.T
        basis, rank = basis_from_design(gen.standard_normal((p, gen.integers(1, p + 1))))
        model = ModelSpec((), basis, tuple(range(rank)), uniform_grid(p))
        closed = true_fourth_moment_trace(TruthSpec(sigma=sigma), model)
        phi, proj = gaussian_fourth_moment_dense(sigma), projector_from_basis(basis)
        return _rel_err(closed, np.sum(kron(proj, proj) * phi))
    return _worst_below([error(rep_rng(key, c)) for c in range(cases)], 1e-10)


def check_loss_expansion(key, cases=30):
    """fit_all's loss against the direct (1/n) sum ||x x^T - P S P||^2; estimate against P S P."""
    family = BasisFamily(kind="fourier", t_min=0.0, t_max=1.0, max_index=4)
    def error(gen):
        p = int(gen.integers(2, 5))
        n = int(gen.integers(3, 9))
        grid = uniform_grid(p)
        samples = SampleSet(grid=grid, data=gen.standard_normal((n, p)))
        s = empirical_cov(samples)
        model = make_model(family, range(int(gen.integers(1, p + 1))), grid)
        (loss,), _ = fit_all(samples, [model])
        shat = project(s, model)
        return max(_rel_err(estimate(samples, model), shat), _rel_err(
            loss, np.mean([frob_norm_sq(np.outer(x, x) - shat) for x in samples.data])))
    return _worst_below([error(rep_rng(key, c)) for c in range(cases)], 1e-9)


# (name `covsel validate` prints, check), in the order it runs them
CHECKS = [
    ("vec-kron identity", check_vec_kron),
    ("kron trace factorisation", check_kron_trace),
    ("commutation defining property", check_commutation),
    ("projector symmetry and idempotence", check_projectors),
    ("projected trace range for PSD matrices", check_trace_range),
    ("kron-free fourth-moment trace vs dense", check_kron_free_trace),
    ("gaussian fourth-moment closed form vs dense", check_gaussian_closed_form),
    ("expanded loss vs direct residual sum", check_loss_expansion),
]
