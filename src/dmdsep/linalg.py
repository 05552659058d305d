"""Dense linear-algebra kernels shared by the estimators.

Everything here is a thin, convention-pinning layer over LAPACK (via
numpy/scipy): fixed eigenvalue ordering, fixed eigenvector phase, and an
explicit numerical-rank cutoff for the pseudoinverse.  The conventions
matter more than the factorizations themselves; the estimators and the
test oracles both rely on them being deterministic.  Every QR of data
here (:func:`qr_r`) is LAPACK's ``dgeqrt``: Householder QR in compact-WY
form with a recursive panel (Elmroth & Gustavson 2000), at panel width
``QR_PANEL``.  The eigensolvers compute only the top-k pairs asked for.
"""

from dataclasses import dataclass

import numpy as np


def _as_matrix(A, dtype=float, square=False):
    A = np.asarray(A, dtype=dtype)
    if A.ndim != 2:
        raise ValueError(f"A must be 2-D, got shape {A.shape}")
    if square and A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got {A.shape}")
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
# RANK_TOL * sigma[0] * max(p, n); see eig_symmetric, _inverse_iteration
RANK_TOL, SYM_TOL, CLUSTER_TOL = 1e-12, 1e-10, 1e-10


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


def _left_svd_of_r(R, shape):
    # (U, sigma, rank) of a matrix A of the given shape, as from svd without
    # the right factor, from R of A.T = Q R: R = P diag(sigma) U.T gives
    # A = U diag(sigma) (Q P).T
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


def eig_nonsymmetric(A, k=None):
    """The top-``k`` eigenpairs (all by default) of a real square matrix,
    possibly complex, as a :class:`ComplexEig` with the module's ordering
    and phase conventions.  For ``k`` below the order, the eigenvalues alone
    (``eigvals``) and the kept vectors by :func:`_inverse_iteration`; else
    ``dgeev``.  A non-converged QR iteration raises ``LinAlgError``.
    """
    A = _as_matrix(A, square=True)
    if k is None or k >= A.shape[0]:
        values, vectors = np.linalg.eig(A)
        order = _eig_order(values)[:k]
        return ComplexEig(values=values[order], vectors=_phase_fix(vectors[:, order]))
    values = np.linalg.eigvals(A)
    values = values[_eig_order(values)[:k]]
    return ComplexEig(values=values, vectors=_phase_fix(_inverse_iteration(A, values)))


def _inverse_iteration(A, values):
    """Unit eigenvectors of ``A`` for its sorted eigenvalues ``values``, as
    LAPACK's ``dlaein``: one LU of ``A - lam I`` per shift, pivots below
    ``eps3 = eps ||A||_1`` raised to ``eps3`` (a singular shift stays
    finite), a solve by U alone from ``eps3``'s, then one by both factors.
    A conjugate partner takes its mate's vector conjugated; values within
    ``CLUSTER_TOL * ||A||_1`` after ``lam`` share its shift as one block,
    orthonormalized, so a repeated eigenvalue gets a basis of its eigenspace.
    """
    from scipy.linalg.lapack import get_lapack_funcs

    n, norm1, eps = A.shape[0], np.abs(A).sum(axis=0).max(), np.finfo(float).eps
    eps3 = max(eps * norm1, np.finfo(float).tiny / eps)
    vectors = np.empty((n, values.size), dtype=complex)
    j = 0
    while j < values.size:
        lam, m = values[j], 1
        if lam.imag < 0.0 and j and values[j - 1] == np.conj(lam):
            vectors[:, j] = vectors[:, j - 1].conj()
            j += 1
            continue
        while j + m < values.size and abs(values[j + m] - lam) <= CLUSTER_TOL * norm1:
            m += 1
        shifted = A - (lam if lam.imag else lam.real) * np.eye(n)
        getrf, getrs, trtrs = get_lapack_funcs(("getrf", "getrs", "trtrs"), (shifted,))
        lu, piv, _ = getrf(shifted, overwrite_a=True)  # info > 0: a zero pivot
        tiny = np.flatnonzero(np.abs(lu.diagonal()) < eps3)
        lu[tiny, tiny] = eps3
        # block column i > 0 starts with entry n - i lowered, as dlaein restarts
        start = np.full((n, m), eps3, dtype=lu.dtype)
        start[n - np.arange(1, m), np.arange(1, m)] -= eps3 * np.sqrt(n)
        block = np.linalg.qr(trtrs(lu, start)[0])[0]
        vectors[:, j : j + m] = np.linalg.qr(getrs(lu, piv, block)[0])[0]
        j += m
    return vectors


def eig_symmetric(A, k=None):
    """The top-``k`` eigenpairs (all by default) of a symmetric matrix by
    LAPACK's ``dsyevr``, which computes only those: eigenvalues descending,
    eigenvectors with the sign convention of :func:`eig_nonsymmetric`.
    Rejects input whose asymmetry exceeds ``SYM_TOL * (1 + max|A|)``.
    """
    from scipy.linalg import eigh

    A = _as_matrix(A, square=True)
    asym = np.abs(A - A.T).max(initial=0.0)
    if asym > SYM_TOL * (1.0 + np.abs(A).max(initial=0.0)):
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    p = A.shape[0]
    subset = None if k is None or k >= p else (p - k, p - 1)
    values, vectors = eigh((A + A.T) / 2.0, subset_by_index=subset, driver="evr")
    return values[::-1], _phase_fix(vectors[:, ::-1]).real
