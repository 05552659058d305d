"""Dense linear-algebra kernels shared by the estimators.

Everything here is a thin, convention-pinning layer over LAPACK (via
numpy/scipy): fixed eigenvalue ordering, fixed eigenvector phase, and an
explicit numerical-rank cutoff for the pseudoinverse.  The conventions
matter more than the factorizations themselves; the estimators and the
test oracles both rely on them being deterministic.
"""

from dataclasses import dataclass

import numpy as np


class NumericalError(RuntimeError):
    """An iterative factorization failed to converge."""


def _as_matrix(A, dtype=float):
    A = np.asarray(A, dtype=dtype)
    if A.ndim != 2:
        raise ValueError(f"A must be 2-D, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("A contains non-finite entries")
    return A


@dataclass
class SvdResult:
    """Thin SVD ``A = U @ diag(sigma) @ V.T`` with a numerical-rank estimate.

    ``sigma`` is descending; ``rank`` counts the singular values above the
    relative cutoff used by :func:`pinv`.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    rank: int


@dataclass
class ComplexEig:
    """Eigenpairs sorted by modulus (desc), ties by real then imaginary part.

    Each eigenvector has unit 2-norm and is rotated so its largest-modulus
    entry is real and strictly positive; for real eigenvalues this reduces
    to a sign convention.
    """

    values: np.ndarray
    vectors: np.ndarray


# TSQR row blocks of a tall m x p matrix hold TSQR_BLOCK * p rows, and at
# least TSQR_MIN_ENTRIES entries: for p < 58 a block of 10p rows is too
# small for its QR to outweigh the cost of the call
TSQR_BLOCK = 10
TSQR_MIN_ENTRIES = 2**15


def _rank(sigma, shape, rel_tol=1e-12):
    if sigma.size == 0 or sigma[0] <= 0.0:
        return 0
    return int(np.sum(sigma > rel_tol * sigma[0] * max(shape)))


def svd(A, rel_tol=1e-12):
    """Thin singular value decomposition with deterministic output.

    Parameters
    ----------
    A : (p, n) array, real or complex
    rel_tol : float
        Relative threshold for the numerical-rank estimate: singular
        values at or below ``rel_tol * sigma[0] * max(p, n)`` do not count
        towards ``rank``.
    """
    A = _as_matrix(A, dtype=complex if np.iscomplexobj(A) else float)
    # LAPACK reduces a tall matrix (QR first) about twice as fast as a wide
    # one (LQ first), so a wide A is decomposed as A.T = V diag(s) U.T
    tall = A.shape[0] >= A.shape[1]
    try:
        L, s, Rt = np.linalg.svd(A if tall else A.T, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    U, V = (L, Rt.T) if tall else (Rt.T, L)
    return SvdResult(U=U, sigma=s, V=V, rank=_rank(s, A.shape, rel_tol))


def qr_r(M):
    """R of ``M = Q R`` (Q never formed) by a flat TSQR: the R-only QR of
    each row block (see ``TSQR_BLOCK``), then of the stacked block R's
    (Demmel, Grigori, Hoemmen & Langou 2012); backward stable like one
    Householder QR, and one plain QR when ``M`` fits in a single block."""
    M = _as_matrix(M)
    cols = M.shape[1]
    step = max(TSQR_BLOCK * cols, TSQR_MIN_ENTRIES // max(cols, 1))
    if M.shape[0] > step:
        M = np.vstack(
            [np.linalg.qr(M[i : i + step], mode="r") for i in range(0, M.shape[0], step)]
        )
    return np.linalg.qr(M, mode="r")


def left_svd(A):
    """``(U, sigma, rank)`` of ``A`` as from :func:`svd`, without the right
    factor: only R of ``A.T = Q R`` is formed (:func:`qr_r`), and
    ``R = P diag(sigma) U.T`` gives ``A = U diag(sigma) (Q P).T``."""
    A = _as_matrix(A)
    try:
        _, s, Ut = np.linalg.svd(qr_r(A.T), full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    return Ut.T, s, _rank(s, A.shape)


def truncated_svd(A, k):
    """Top-``k`` singular triple; the rank-k reconstruction is the best
    Frobenius approximation (Eckart-Young)."""
    A = _as_matrix(A)
    if not 1 <= k <= min(A.shape):
        raise ValueError(f"k={k} out of range for shape {A.shape}")
    full = svd(A)
    return SvdResult(U=full.U[:, :k], sigma=full.sigma[:k], V=full.V[:, :k], rank=k)


def pinv(A, rel_tol=1e-12):
    """Moore-Penrose pseudoinverse via SVD, of a real or complex matrix.

    Singular values at or below ``rel_tol * sigma_max * max(rows, cols)``
    are treated as exact zeros; this is the standard numerical-rank
    convention and keeps noise directions of low-rank data from being
    amplified by 1/sigma.  Rank 0 gives the transposed zero matrix.
    """
    if rel_tol < 0:
        raise ValueError("rel_tol must be nonnegative")
    res = svd(A, rel_tol=rel_tol)
    r = res.rank
    return (res.V[:, :r].conj() / res.sigma[:r]) @ res.U[:, :r].conj().T


def _phase_fix(vectors):
    """Unit-normalize columns and rotate each so the largest-modulus entry
    is real positive.  Multiplying by conj(v[a])/|v[a]| cancels the
    imaginary part of the anchor entry exactly in IEEE arithmetic."""
    out = np.array(vectors, dtype=complex, copy=True)
    for j in range(out.shape[1]):
        v = out[:, j]
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            continue
        v = v / nrm
        a = int(np.argmax(np.abs(v)))
        v = v * (np.conj(v[a]) / abs(v[a]))
        out[:, j] = v
    return out


def _eig_order(values):
    # lexsort keys are applied last-first: modulus desc, then real desc,
    # then imaginary desc.  Stable, so exact conjugate pairs stay adjacent.
    return np.lexsort((-values.imag, -values.real, -np.abs(values)))


def eig_nonsymmetric(A):
    """All eigenpairs of a real square matrix, possibly complex.

    Returns a :class:`ComplexEig` with the module's ordering and phase
    conventions.  A non-converged QR iteration raises
    :class:`NumericalError` rather than returning partial output.
    """
    A = _as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    try:
        values, vectors = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc
    order = _eig_order(values)
    return ComplexEig(values=values[order], vectors=_phase_fix(vectors[:, order]))


def eig_symmetric(A, sym_tol=1e-10):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Rejects input whose asymmetry exceeds ``sym_tol * (1 + max|A|)``.
    """
    A = _as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    scale = 1.0 + (np.abs(A).max() if A.size else 0.0)
    asym = np.abs(A - A.T).max() if A.size else 0.0
    if asym > sym_tol * scale:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    values, vectors = np.linalg.eigh((A + A.T) / 2.0)
    values, vectors = values[::-1], vectors[:, ::-1]
    # sign convention as in _phase_fix, restricted to the real case
    for j in range(vectors.shape[1]):
        a = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[a, j] < 0:
            vectors[:, j] = -vectors[:, j]
    return values, vectors

