"""Brute-force references and the checks that hold covsel to them.

Dense constructions (vec, Kronecker products, the commutation matrix, the
empirical and Gaussian fourth-moment covariances, the estimate P S P, the
kernels' statistics one replication and one model at a time) and the Monte
Carlo tail check serve `covsel validate` and the tests only;
`select` and `simulate` never import this module.

Each check in CHECKS takes a key (a tuple of ints), draws its case c from
``rep_rng(key, c)`` (a nested case appends its loop values to the key) and
returns (ok, detail). `covsel validate` and the acceptance suite run the same
functions, the suite with its own keys and case counts.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from ._mc import draw_blocks, rep_rng
from .dictionary import BasisFamily, ModelSpec, build_collection, build_design
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


def kron(a, b):
    """Dense Kronecker product, guarded against oversized outputs; satisfies
    (a kron b) vec(X) = vec(b X a^T)."""
    a = require_finite(a, "first factor")
    b = require_finite(b, "second factor")
    out_entries = a.size * b.size
    if out_entries > DEFAULT_SIZE_GUARD:
        raise ValueError(
            f"kron output would have {out_entries} entries (guard is {DEFAULT_SIZE_GUARD})")
    return np.kron(a, b)


def commutation_matrix(p):
    """Permutation matrix K with K vec(A) = vec(A^T) for all p x p A."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if p ** 4 > DEFAULT_SIZE_GUARD:
        raise ValueError(
            f"commutation matrix would have {p ** 4} entries (guard is {DEFAULT_SIZE_GUARD})")
    k = np.zeros((p * p, p * p))
    for i in range(p):
        for j in range(p):
            # vec(A)[i + j p] = A[i, j]; vec(A^T)[i + j p] = A[j, i]
            k[i + j * p, j + i * p] = 1.0
    return k


def check_projector(proj):
    """Validate the projector invariants; raises ValueError on failure."""
    proj = np.asarray(proj, dtype=float)
    sym_err = np.max(np.abs(proj - proj.T)) if proj.size else 0.0
    if sym_err > 1e-12:
        raise ValueError(f"projector not symmetric: max |P - P^T| = {sym_err:.3e}")
    idem_err = np.max(np.abs(proj @ proj - proj)) if proj.size else 0.0
    if idem_err > 1e-10:
        raise ValueError(f"projector not idempotent: max |P^2 - P| = {idem_err:.3e}")
    return proj


def fourth_moment_cov_dense(samples):
    """Dense p^2 x p^2 empirical covariance of vec(x x^T).

    Returns (1/n) sum_i y_i y_i^T - m m^T with y_i = vec(x_i x_i^T) and m the
    mean of the y_i; symmetric and non-negative definite.
    """
    p = samples.p
    if p ** 4 > DEFAULT_SIZE_GUARD:
        raise ValueError(
            f"dense fourth-moment covariance needs {p ** 4} entries (guard {DEFAULT_SIZE_GUARD})")
    y = np.stack([np.outer(x, x).ravel(order="F") for x in samples.data])
    mean = y.mean(axis=0)
    phi = y.T @ y / samples.n - np.outer(mean, mean)
    return 0.5 * (phi + phi.T)


def gaussian_fourth_moment_dense(sigma):
    """Dense covariance of vec(x x^T) for x ~ N(0, sigma): (I + K)(sigma kron sigma).

    Brute-force oracle for the closed form in
    :func:`covsel.oracle.true_fourth_moment_trace`.
    """
    sigma = np.asarray(sigma, dtype=float)
    p = sigma.shape[0]
    return (np.eye(p * p) + commutation_matrix(p)) @ kron(sigma, sigma)


def make_model(family, indices, grid):
    """A ModelSpec on a table of its own; None when the design has numerical rank 0."""
    grid = np.asarray(grid, dtype=float)
    q, rank = basis_from_design(build_design(family, indices, grid))
    return ModelSpec(tuple(int(i) for i in indices), q, tuple(range(rank)), grid) if rank else None


def project(s, model):
    """The dense estimate P S P of one model, for a p x p covariance `s`."""
    proj = projector_from_basis(model.basis)
    return proj @ s @ proj


def direct_model_stats(X, projs):
    """`_kernels.deviation_batch`'s (norm4_mean, proj_norm4_mean, fit_norm_sq)
    for a batch X (reps, n, p) and dense projectors projs (M, p, p), one
    replication, model and path at a time."""
    reps, n, p = X.shape
    m_count = projs.shape[0]
    norm4 = np.empty(reps)
    proj_norm4 = np.empty((reps, m_count))
    fit_sq = np.empty((reps, m_count))
    for r in range(reps):
        x = X[r]
        norm4[r] = np.mean([np.sum(xi ** 2) ** 2 for xi in x])
        s = x.T @ x / n
        for m in range(m_count):
            proj = projs[m]
            proj_norm4[r, m] = np.mean([np.sum((proj @ xi) ** 2) ** 2 for xi in x])
            a = proj @ s @ proj
            fit_sq[r, m] = np.sum(a * a)
    return norm4, proj_norm4, fit_sq


def direct_deviation(X, projs, sigma):
    """(||sigma - P S P||^2, ||P S P - P sigma P||^2) per replication and model."""
    reps, n, p = X.shape
    m_count = projs.shape[0]
    err_sq = np.empty((reps, m_count))
    proj_dev_sq = np.empty((reps, m_count))
    for r in range(reps):
        s = X[r].T @ X[r] / n
        for m in range(m_count):
            proj = projs[m]
            a = proj @ s @ proj
            err_sq[r, m] = np.sum((sigma - a) ** 2)
            proj_dev_sq[r, m] = np.sum((a - proj @ sigma @ proj) ** 2)
    return err_sq, proj_dev_sq


def _residual_sum(x, a):
    """sum_i ||x_i x_i^T - a||^2 over the rows x_i of x."""
    d = np.multiply(x[:, :, None], x[:, None, :])
    d -= a
    return float(np.vdot(d, d))


def direct_fit(samples, model):
    """fit_all's (loss, trace) of one model as direct residual sums over the
    rows, 64 at a time, with the dense projector P and A = P S P:
    loss = (1/n) sum_i ||x_i x_i^T - A||^2 and trace = (1/n) sum_i
    ||P x_i x_i^T P - A||^2, which is Tr((P kron P) F)."""
    proj = projector_from_basis(model.basis)
    a = proj @ empirical_cov(samples) @ proj
    return tuple(sum(_residual_sum(z[i:i + 64], a) for i in range(0, samples.n, 64))
                 / samples.n for z in (samples.data, samples.data @ proj))


def true_variance_factor(truth, model):
    """True per-dimension variance factor Tr((P kron P) F) / dim."""
    return true_fourth_moment_trace(truth, model) / model.dim


def check_quadratic_form_tail(truth, model, n, x_grid, reps, seed=0):
    """Empirical tail of the in-model quadratic deviation against the
    deviation-bound threshold dim + 2 sqrt(dim x) + x, all scaled by the
    true variance factor.

    The statistic per replication is n ||P (S - sigma) P||^2.  Returns a
    per-x table plus a fitted envelope c x^(-beta/2), beta = 4, anchored at the
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
    for start, stop, x in draw_blocks(truth.factor, n, seed, reps):
        # [3] is dev_sq
        quad[start:stop] = n * _kernels.deviation_batch(x, *chains, truth.sigma)[3][:, 0]
        del x  # not held across the next draw

    vf = true_variance_factor(truth, model)
    dim = model.dim
    rows = []
    for x in x_grid:
        threshold = vf * (dim + 2.0 * np.sqrt(dim * x) + x)
        rows.append({"x": float(x), "threshold": float(threshold),
                     "exceedance": float(np.mean(quad >= threshold))})

    anchor = next((row for row in rows if row["exceedance"] > 0 and row["x"] > 0), None)
    c = 0.0 if anchor is None else anchor["exceedance"] * anchor["x"] ** 2.0
    decay_ok = True
    for row in rows:
        bound = c * row["x"] ** -2.0 if row["x"] > 0 else np.inf
        row["bound"] = float(bound)
        if anchor is not None and row["x"] > anchor["x"]:
            decay_ok = decay_ok and row["exceedance"] <= bound + 1e-12
    return {"rows": rows, "c": float(c), "beta": 4.0, "decay_ok": bool(decay_ok)}


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
        (fast,) = fit_all(samples, [model]).trace
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
        (loss,) = fit_all(samples, [model]).loss
        shat = project(s, model)
        return max(_rel_err(estimate(samples, model), shat), _rel_err(
            loss, np.mean([frob_norm_sq(np.outer(x, x) - shat) for x in samples.data])))
    return _worst_below([error(rep_rng(key, c)) for c in range(cases)], 1e-9)


def _worst_of_tolerance(pairs):
    """The largest |value - reference| / (1e-12 + 1e-10 |reference|) over
    the (value, reference) array pairs: at most 1 within rtol 1e-10 and atol
    1e-12 per entry."""
    return max(float(np.max(np.abs(value - reference) / (1e-12 + 1e-10 * np.abs(reference))))
               for value, reference in pairs)


def check_collection_kernel(key, reps=3, n=10):
    """deviation_batch over whole collections against `direct_model_stats`
    and `direct_deviation` on dense projectors, to within rtol 1e-10 and atol
    1e-12 per entry: the 21 histogram all_subsets models of 6 cells, which
    share one table of width 6 (more members than columns), and a nested
    fourier chain of 9 models, each under a random sigma and factor."""
    cases = [(BasisFamily("histogram", 0.0, 1.0, 5), "all_subsets", 12),
             (BasisFamily("fourier", 0.0, 1.0, 8), "nested", 16)]
    worst = 0.0
    for c, (family, scheme, p) in enumerate(cases):
        gen = rep_rng(key, c)
        models = build_collection(family, uniform_grid(p), scheme=scheme)
        a = gen.standard_normal((p, p))
        X = gen.standard_normal((reps, n, p)) @ a.T
        sigma = a @ a.T
        projs = np.stack([projector_from_basis(m.basis) for m in models])
        got = _kernels.deviation_batch(X, *_kernels.chains(models), sigma)
        want = (*direct_model_stats(X, projs), direct_deviation(X, projs, sigma)[1])
        worst = max(worst, _worst_of_tolerance(zip(got, want)))
    return worst <= 1.0, f"worst error {worst:.2e} of the tolerance"


def check_collection_fit(key, p=32, n=4200):
    """fit_all over whole collections against `direct_fit` per model, to
    within rtol 1e-10 and atol 1e-12 per entry, on samples of n rows that
    span three of `_kernels.row_blocks`: a nested fourier chain of 16 models
    (no more members than columns, the row-table route) and the 10 histogram
    all_subsets models of 4 cells, which share one table of width 4 (the
    second-Gram route), each under a random factor."""
    cases = [(BasisFamily("fourier", 0.0, 1.0, 15), "nested"),
             (BasisFamily("histogram", 0.0, 1.0, 3), "all_subsets")]
    worst = 0.0
    for c, (family, scheme) in enumerate(cases):
        gen = rep_rng(key, c)
        grid = uniform_grid(p)
        models = build_collection(family, grid, scheme=scheme)
        samples = SampleSet(grid, gen.standard_normal((n, p)) @ gen.standard_normal((p, p)).T)
        want = np.array([direct_fit(samples, model) for model in models]).T
        worst = max(worst, _worst_of_tolerance(zip(fit_all(samples, models)[:2], want)))
    return worst <= 1.0, f"worst error {worst:.2e} of the tolerance"


# (name `covsel validate` prints, check), in the order it runs them
CHECKS = [
    ("projector symmetry and idempotence", check_projectors),
    ("projected trace range for PSD matrices", check_trace_range),
    ("kron-free fourth-moment trace vs dense", check_kron_free_trace),
    ("gaussian fourth-moment closed form vs dense", check_gaussian_closed_form),
    ("expanded loss vs direct residual sum", check_loss_expansion),
    ("collection kernel vs per-model direct", check_collection_kernel),
    ("collection fit vs per-model direct", check_collection_fit),
]
