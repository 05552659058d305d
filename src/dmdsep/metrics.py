"""Alignment-aware error functionals.

Source separation recovers columns only up to permutation and sign (or a
unit-modulus phase when estimates are complex), so every error here first
solves a linear assignment problem maximizing the total |inner product|
and then removes the per-column phase.  For unit vectors the two views
coincide: ``||qhat - p*q||^2 = 2 - 2|<qhat, q>|`` at the optimal sign.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class Alignment:
    """Optimal column matching of an estimate against the truth.

    ``perm[i]`` is the estimate column assigned to truth column ``i``;
    ``signs[i]`` is the unit-modulus factor applied to that estimate
    column (real +-1 for real estimates); ``per_column`` are the squared
    errors after matching and ``total_sq_error`` their sum.
    """

    perm: np.ndarray
    signs: np.ndarray
    per_column: np.ndarray
    total_sq_error: float


def _check_unit_columns(M, name, tol=1e-6):
    norms = np.linalg.norm(M, axis=0)
    if np.any(np.abs(norms - 1.0) > tol):
        raise ValueError(f"{name} columns must be unit norm (norms {norms})")


def align_columns(est, truth):
    """Match estimated columns to true columns, minimizing total squared error.

    Parameters
    ----------
    est : (p, k) array, possibly complex, unit-norm columns
    truth : (p, k) real array, unit-norm columns

    The permutation maximizes ``sum_i |<est_sigma(i), truth_i>|`` (solved
    exactly as a dense linear assignment); each matched estimate column is
    then multiplied by ``conj(z)/|z|`` with ``z = <est, truth>`` so the
    residual inner product is real nonnegative.
    """
    # imported here, so that import dmdsep does not load scipy.optimize
    from scipy.optimize import linear_sum_assignment

    est = np.asarray(est)
    truth = np.asarray(truth, dtype=float)
    if est.shape != truth.shape:
        raise ValueError(f"shape mismatch: est {est.shape} vs truth {truth.shape}")
    _check_unit_columns(est, "est")
    _check_unit_columns(truth, "truth")
    k = truth.shape[1]
    # G[i, j] = |<est_j, truth_i>|
    G = np.abs(truth.T @ est.conj())
    rows, cols = linear_sum_assignment(-G)
    perm = np.empty(k, dtype=int)
    perm[rows] = cols
    signs = np.empty(k, dtype=complex)
    per_column = np.empty(k)
    for i in range(k):
        j = perm[i]
        z = np.sum(truth[:, i] * est[:, j])  # truth is real
        if abs(z) == 0.0:
            u = 1.0 + 0.0j
        else:
            u = np.conj(z) / abs(z)
        signs[i] = u
        per_column[i] = np.linalg.norm(u * est[:, j] - truth[:, i]) ** 2
    if np.all(np.abs(signs.imag) == 0.0):
        signs = signs.real
    return Alignment(
        perm=perm,
        signs=signs,
        per_column=per_column,
        total_sq_error=float(per_column.sum()),
    )


def eig_error(est, truth, perm):
    """Per-mode squared eigenvalue errors ``|truth_i - est[perm[i]]|^2``.

    ``perm`` comes from :func:`align_columns`: eigenvalues follow their
    eigenvectors through the matching.
    """
    est = np.asarray(est)
    truth = np.asarray(truth, dtype=float)
    perm = np.asarray(perm, dtype=int)
    return np.abs(truth - est[perm]) ** 2


def s_error(est, truth):
    """Total aligned squared error between recovered and true unit signals."""
    return align_columns(est, truth).total_sq_error


def rate_fit(ns, errors):
    """Ordinary least squares of log(error) on log(n).

    Returns ``(slope, intercept, r2)``.  Requires at least 4 grid points
    and strictly positive errors; a constant series fits exactly with
    slope 0.
    """
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if ns.size < 4:
        raise ValueError(f"need at least 4 grid points, got {ns.size}")
    if ns.shape != errors.shape:
        raise ValueError("ns and errors must have the same length")
    if np.any(errors <= 0.0):
        raise ValueError("errors must be strictly positive for a log-log fit")
    x, y = np.log(ns), np.log(errors)
    A = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - np.sum(resid**2) / ss_tot
    return float(slope), float(intercept), float(r2)
