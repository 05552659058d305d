"""Dense linear-algebra kernels shared by the estimators.

Everything here is a thin, convention-pinning layer over LAPACK (via
numpy/scipy): fixed eigenvalue ordering, fixed eigenvector phase, and an
explicit numerical-rank cutoff for the pseudoinverse.  The conventions
matter more than the factorizations themselves; the estimators and the
test oracles both rely on them being deterministic.  Every QR here is
LAPACK's ``dgeqrt``: Householder QR in compact-WY form with a recursive
panel (Elmroth & Gustavson 2000), at panel width ``QR_PANEL``.
"""

from dataclasses import dataclass

import numpy as np


def _as_matrix(A, dtype=float):
    A = np.asarray(A, dtype=dtype)
    if A.ndim != 2:
        raise ValueError(f"A must be 2-D, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("A contains non-finite entries")
    return A


@dataclass
class ComplexEig:
    """Eigenpairs sorted by modulus (desc), ties by real then imaginary part.

    Each eigenvector has unit 2-norm and is rotated so its largest-modulus
    entry is real, up to rounding, and positive (:func:`_phase_fix`); for
    real eigenvalues this reduces to a sign convention.
    """

    values: np.ndarray
    vectors: np.ndarray


# TSQR row blocks of a tall m x p matrix hold TSQR_BLOCK * p rows, and at
# least TSQR_MIN_ENTRIES entries: for p < 58 a block of 10p rows is too
# small for its QR to outweigh the cost of the call
TSQR_BLOCK = 10
TSQR_MIN_ENTRIES = 2**15
# dgeqrt's panel width: within ~20% of the fastest on every block the
# estimators reduce (1 BLAS thread); 8 wins up to 100 columns, loses 2x at 500
QR_PANEL = 32
# the numerical rank of a p x n matrix counts singular values above
# RANK_TOL * sigma[0] * max(p, n); see eig_symmetric for SYM_TOL
RANK_TOL, SYM_TOL = 1e-12, 1e-10


def _rank(sigma, shape):
    if sigma.size == 0 or sigma[0] <= 0.0:
        return 0
    return int(np.sum(sigma > RANK_TOL * sigma[0] * max(shape)))


def svd(A):
    """Thin singular value decomposition ``A = U @ diag(sigma) @ V.T`` of a
    real or complex matrix, as ``(U, sigma, V, rank)``: ``sigma`` is
    descending and ``rank`` counts the singular values above the cutoff
    set by ``RANK_TOL``."""
    A = _as_matrix(A, dtype=complex if np.iscomplexobj(A) else float)
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    return U, s, Vh.T, _rank(s, A.shape)


def qr_r(M):
    """R of ``M = Q R`` (Q never formed) by a flat TSQR: the R-only QR of
    each row block (see ``TSQR_BLOCK``), then of the stacked block R's
    (Demmel, Grigori, Hoemmen & Langou 2012); backward stable like one
    Householder QR.  Each QR, and all of an ``M`` that fits in one block,
    is one compact-WY ``dgeqrt`` call at panel width ``QR_PANEL`` (at most
    rows and cols); a nonzero ``info`` raises ``np.linalg.LinAlgError``."""
    from scipy.linalg.lapack import dgeqrt

    def r_of(B):
        k = min(B.shape)
        # dgeqrt rejects an empty matrix, whose R is empty too
        a, _, info = dgeqrt(min(QR_PANEL, k), B) if k else (B, None, 0)
        if info:
            raise np.linalg.LinAlgError(f"dgeqrt returned info={info}")
        return np.triu(a[:k])

    M = _as_matrix(M)
    cols = M.shape[1]
    step = max(TSQR_BLOCK * cols, TSQR_MIN_ENTRIES // max(cols, 1))
    if M.shape[0] > step:
        M = np.vstack([r_of(M[i : i + step]) for i in range(0, M.shape[0], step)])
    return r_of(M)


def left_svd(A):
    """``(U, sigma, rank)`` of ``A`` as from :func:`svd`, without the right
    factor: only R of ``A.T = Q R`` is formed (:func:`qr_r`), and
    ``R = P diag(sigma) U.T`` gives ``A = U diag(sigma) (Q P).T``."""
    return _left_svd_of_r(qr_r(np.transpose(A)), np.shape(A))


def _left_svd_of_r(R, shape):
    # (U, sigma, rank) of a matrix A of the given shape from R of A.T = Q R
    _, sigma, V, _ = svd(R)
    return V, sigma, _rank(sigma, shape)


def pinv(A):
    """Moore-Penrose pseudoinverse via SVD, of a real or complex matrix.

    Singular values below the numerical-rank cutoff (``RANK_TOL``) are
    treated as exact zeros, so noise directions of low-rank data are not
    amplified by 1/sigma.  Rank 0 gives the transposed zero matrix.
    """
    U, sigma, V, r = svd(A)
    return (V[:, :r].conj() / sigma[:r]) @ U[:, :r].conj().T


def _phase_fix(vectors):
    """Unit-normalize columns and rotate each, by conj(v[a])/|v[a]|, so its
    largest-modulus entry v[a] is real positive up to rounding of the
    imaginary part; zero columns pass through."""
    out = np.array(vectors, dtype=complex, copy=True)
    if not out.size:
        return out
    nrm = np.linalg.norm(out, axis=0)
    out /= np.where(nrm > 0.0, nrm, 1.0)
    anchors = out[np.abs(out).argmax(axis=0), np.arange(out.shape[1])]
    return out * (np.conj(anchors) / np.where(nrm > 0.0, np.abs(anchors), 1.0))


def _eig_order(values):
    # lexsort keys are applied last-first: modulus desc, then real desc,
    # then imaginary desc.  Stable, so exact conjugate pairs stay adjacent.
    return np.lexsort((-values.imag, -values.real, -np.abs(values)))


def eig_nonsymmetric(A):
    """All eigenpairs of a real square matrix, possibly complex.

    Returns a :class:`ComplexEig` with the module's ordering and phase
    conventions.  A non-converged QR iteration raises
    ``np.linalg.LinAlgError`` rather than returning partial output.
    """
    A = _as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    values, vectors = np.linalg.eig(A)
    order = _eig_order(values)
    return ComplexEig(values=values[order], vectors=_phase_fix(vectors[:, order]))


def eig_symmetric(A):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending,
    eigenvectors with the sign convention of :func:`eig_nonsymmetric`.

    Rejects input whose asymmetry exceeds ``SYM_TOL * (1 + max|A|)``.
    """
    A = _as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
    scale = 1.0 + (np.abs(A).max() if A.size else 0.0)
    asym = np.abs(A - A.T).max() if A.size else 0.0
    if asym > SYM_TOL * scale:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    values, vectors = np.linalg.eigh((A + A.T) / 2.0)
    return values[::-1], _phase_fix(vectors[:, ::-1]).real

