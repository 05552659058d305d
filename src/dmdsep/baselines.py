"""Comparison unmixers: AMUSE and plain PCA.

AMUSE whitens the data, forms the (non-circular) lag-tau covariance of
the whitened series, and eigendecomposes its symmetric part; the
estimated rotation is then unwhitened, so general mixing matrices are
reachable through the whitening step.  PCA stops at the whitening step:
its modes are the orthonormal whitening basis, which is exactly why it
fails on non-orthogonal mixtures.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg


@dataclass
class UnmixResult:
    """Estimated mixing directions and unit-norm recovered signals."""

    Q_hat: np.ndarray
    S_hat: np.ndarray


def whiten_top_k(X, k):
    """De-mean and whiten onto the top-``k`` covariance eigenspace.

    Returns ``(Y, V, lam)`` where ``Y = diag(lam)^{-1/2} V^T (X - mean)``
    satisfies ``(1/n) Y Y^T = I_k`` and ``V, lam`` are the leading
    eigenpairs of the sample covariance (needed to unwhiten).  Rank-k
    noiseless data leaves the full p x p inverse square root undefined,
    which is why the reduced form is used.  Numerical rank below ``k``
    (an eigenvalue of ``lam`` at or below ``1e-12 * lam[0]``, that is
    ``sigma_k / sigma_0 <= 1e-6``) is rejected.

    Not ``linalg.RANK_TOL``'s rule, on purpose: Gram eigenvalues carry
    rounding near ``eps * lam[0]`` (about ``1.5e-8 * sigma_0``), and the
    ``RANK_TOL`` cutoff ``1e-12 * sigma_0 * max(p, n)`` lies below that floor
    for most shapes, so it would count rounding as rank.  The pairs come
    from the Gram and a top-k ``linalg.eig_symmetric``, the route of
    ``dmd.fill_in``'s basis.
    """
    X = np.asarray(X, dtype=float)
    p, n = X.shape
    if not 1 <= k <= p:
        raise ValueError(f"k={k} outside [1, {p}]")
    Xc = X - X.mean(axis=1, keepdims=True)
    cov = Xc @ Xc.T / n
    lam, V = linalg.eig_symmetric(cov, k)
    rank = int(np.sum(lam > max(0.0, 1e-12 * lam[0])))
    if rank < k:
        raise ValueError(
            f"sample covariance is degenerate on the top-{k} eigenspace: numerical "
            f"rank {rank} < k={k} (eigenvalues {lam})"
        )
    Y = (V / np.sqrt(lam)).T @ Xc
    return Y, V, lam


def amuse(X, tau, k):
    """AMUSE unmixing at a single lag.

    Whitens via :func:`whiten_top_k`, symmetrizes the (non-circular)
    lag-``tau`` covariance of the whitened series, eigendecomposes it,
    and unwhitens the resulting rotation.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    if not 1 <= tau <= n - 2:
        raise ValueError(f"lag tau={tau} outside [1, {n - 2}]")
    Y, V, lam = whiten_top_k(X, k)
    B = Y[:, tau:] @ Y[:, : n - tau].T / (n - tau)
    ev, G = linalg.eig_symmetric((B + B.T) / 2.0)
    if k > 1 and np.min(np.abs(np.diff(ev))) < 1e-12 * (1.0 + np.abs(ev).max()):
        raise ValueError(
            f"tied eigenvalues in the whitened lag covariance ({ev}); "
            "sources are unidentifiable at this lag"
        )
    Q_hat = (V * np.sqrt(lam)) @ G
    Q_hat = Q_hat / np.linalg.norm(Q_hat, axis=0)
    S_hat = (G.T @ Y).T
    S_hat = S_hat / np.linalg.norm(S_hat, axis=0)
    return UnmixResult(Q_hat=Q_hat, S_hat=S_hat)


def pca_unmix(X, k):
    """PCA baseline: the top-k covariance eigenvectors of the de-meaned
    data, which are AMUSE's whitening basis (:func:`whiten_top_k`), and
    the whitened signals normalized.

    ``Q_hat`` is column-orthonormal by construction, so this estimator
    cannot represent a non-orthogonal mixing matrix.  De-meaned data of
    numerical rank below ``k`` has no top-k signals and is rejected.
    """
    Y, V, _ = whiten_top_k(X, k)
    return UnmixResult(Q_hat=V, S_hat=Y.T / np.linalg.norm(Y, axis=1))
