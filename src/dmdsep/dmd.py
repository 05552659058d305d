"""Lag-tau propagator estimators and the full factorization pipeline.

The central object is the least-squares propagator ``A = X1 @ pinv(X0)``
for snapshot matrices offset by ``tau`` time steps.  When the latent unit
signals are (nearly) uncorrelated with their tau-shifted selves across
sources, the top eigenvectors of ``A`` recover the mixing directions and
the top eigenvalues recover the lag-tau autocorrelations: fitting the
propagator *is* blind source separation.

Variants: ``tsvd_dmd_fit`` front-ends the same fit with a rank-k truncated
SVD to fill zeroed-out missing entries, and ``dmf`` wraps the fit into a
mean-aware factorization ``X ~= Q_hat @ C_hat.T`` for raw data matrices,
whose NaN cells it reads as missing and fills in the same way.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import ComplexEig


@dataclass
class DmdResult:
    """Top-k eigenpairs of the lag-tau propagator.

    ``rank`` is min(r, k) for the numerical rank r of X0 (of the k x n
    fill-in coordinates on the missing-data path); ``a_hat`` is the p x p
    propagator, formed only when ``keep_operator`` is set (any p).
    """

    eig: ComplexEig
    tau: int
    rank: int
    a_hat: np.ndarray = None


@dataclass
class DmfResult:
    """Mean-aware factorization ``X ~= Q_hat @ C_hat.T`` (see :func:`dmf`).

    ``rank`` is the fit's min(r, k), as on :class:`DmdResult`.
    """

    Q_hat: np.ndarray
    C_hat: np.ndarray
    eigvals: np.ndarray
    rank: int


def dmd_fit(X, tau, k, keep_operator=False):
    """Fit the lag-``tau`` propagator and return its top-``k`` eigenpairs.

    Parameters
    ----------
    X : (p, n) array
        Multivariate time series, one column per sample.
    tau : int
        Lag between the two snapshot matrices.
    k : int
        Number of modes to return (the assumed number of sources).
    keep_operator : bool
        Also return the p x p propagator, built from the factors (any p).

    One reduced exact-DMD kernel serves every p (Tu, Rowley, Luchtenburg,
    Brunton & Kutz 2014).  With ``X0 = U_r S_r V_r^T`` at numerical rank r
    and ``B = X1 V_r S_r^-1``, the propagator ``X1 @ pinv(X0)`` is
    ``B U_r^T``, and each eigenpair ``(lam, w)`` of the r x r matrix
    ``U_r^T B`` gives its eigenpair ``(lam, B w)``, or ``(0, U_r w)`` where
    ``B w`` vanishes.  Eigenpairs are sorted by modulus descending with the
    phase convention of :mod:`dmdsep.linalg`.  ``rank`` reports min(r, k)
    and nothing warns; the k - r trailing modes are the next left singular
    vectors of X0, null vectors of the propagator, with eigenvalue 0.
    """
    return next(dmd_fits(X, (tau,), k, keep_operator))


def dmd_fits(X, taus, k, keep_operator=False):
    """Yield :func:`dmd_fit` of ``X`` at each lag in ``taus``, in order,
    from one pass over the data.

    The snapshot matrices of the lags share their first ``n - max(taus)``
    columns, so R of that prefix (``X0_pre^T = Q R``, :func:`linalg.qr_r`)
    is formed once.  Then ``X0^T = diag(Q, I) [R; E^T]`` for the
    ``max(taus) - tau`` extra columns E of each lag, and the left singular
    pairs of X0 are those of ``[R^T, E]`` (of R itself at ``max(taus)``).
    With ``2 r > p``, ``X1 @ X0^T`` is formed first (2p^2 n flops, not
    4pnr).  Every lag and k are checked before the first fit.
    """
    X = np.asarray(X, dtype=float)
    if not taus:
        raise ValueError("taus must be nonempty")
    p, n = X.shape
    for tau in taus:
        if not 1 <= tau <= n - 2:
            raise ValueError(f"lag tau={tau} outside [1, {n - 2}] for n={n} samples")
    m_pre = n - max(taus)
    if not 1 <= k <= min(p, m_pre):
        raise ValueError(f"k={k} outside [1, {min(p, m_pre)}] for p={p}, n-tau={m_pre}")
    R = linalg.qr_r(X[:, :m_pre].T)
    for tau in taus:
        X0, X1 = X[:, : n - tau], X[:, tau:]
        R0 = R if n - tau == m_pre else linalg.qr_r(np.vstack([R, X0[:, m_pre:].T]))
        U, sigma, r = linalg._left_svd_of_r(R0, X0.shape)
        U_r = U[:, :r]
        # X0^T U_r S_r^-2 = V_r S_r^-1, so V_r is never formed on its own
        W = U_r / sigma[:r] ** 2
        B = (X1 @ X0.T) @ W if 2 * r > p else X1 @ (X0.T @ W)
        small = linalg.eig_nonsymmetric(U_r.T @ B, k)
        values, w = small.values, small.vectors
        modes = B @ w
        vanished = ~modes.any(axis=0)
        modes[:, vanished] = U_r @ w[:, vanished]
        eig = ComplexEig(
            values=np.concatenate([values, np.zeros(k - values.size)]),
            vectors=linalg._phase_fix(np.hstack([modes, U[:, r:k]])),
        )
        a_hat = B @ U_r.T if keep_operator else None
        yield DmdResult(eig=eig, tau=tau, rank=min(r, k), a_hat=a_hat)


def tsvd_dmd_fit(X_masked, q, tau, k):
    """Missing-data variant: rank-``k`` truncated SVD fill-in, then DMD.

    ``X_masked`` has unobserved entries set to zero.  With ``q == 1``
    there is nothing to fill in and the data passes through unchanged, so
    the result is identical to :func:`dmd_fit` bit for bit.  Otherwise the
    fill-in ``U_k U_k^T X_masked`` stays factored (:func:`fill_in`): the
    k x n coordinates ``U_k^T X_masked`` are fitted and their modes lifted
    by ``U_k``, which gives the propagator of the fill-in.  No 1/q
    rescaling is applied because the propagator (hence its spectrum and
    eigenvectors) is invariant under global rescaling of the data.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"observation probability q={q} outside (0, 1]")
    if q == 1.0:
        return dmd_fit(X_masked, tau, k)
    return _fit_filled(X_masked, tau, k, center=False)


def _fit_filled(X_zeroed, tau, k, center):
    # dmd_fit of the fill-in coordinates (centered if asked), modes lifted by U_k
    U_k, coords = fill_in(X_zeroed, k)
    if center:
        coords = coords - coords.mean(axis=1, keepdims=True)
    fit = dmd_fit(coords, tau, k)
    fit.eig.vectors = linalg._phase_fix(U_k @ fit.eig.vectors)
    return fit


def fill_in(X_zeroed, k):
    """Rank-``k`` truncated-SVD fill-in of data whose missing entries are
    zero, factored as ``(U_k, U_k^T X_zeroed)``: the surrogate
    ``U_k U_k^T X_zeroed`` (the Eckart-Young best rank-k approximation)
    is never formed.  ``U_k`` is the top-k eigenvectors of the Gram
    ``X_zeroed @ X_zeroed^T`` (no QR or SVD of the data).  Its error, about
    ``eps sigma_0^2 / (sigma_{k-1}^2 - sigma_k^2)``, is the SVD's times
    ``sigma_0 / (sigma_{k-1} + sigma_k)``: about 1.1 on a ``missing-n``
    cell (p = 500, n = 5000, q = 0.1), 3.6-4.4 on perfbench's ``unmix-csv``.
    """
    X_zeroed = linalg._as_matrix(X_zeroed)
    if not 1 <= k <= min(X_zeroed.shape):
        raise ValueError(f"k={k} out of range for shape {X_zeroed.shape}")
    # the Gram squares the scale: past 2^+-500 a power-of-2 rescale, which
    # rounds nothing, keeps it from overflowing or underflowing
    top, scaled = max(X_zeroed.max(initial=0.0), -X_zeroed.min(initial=0.0)), X_zeroed
    if not 2.0**-500 <= top <= 2.0**500:
        scaled = X_zeroed * 2.0 ** -np.frexp(top)[1]
    U_k = linalg.eig_symmetric(scaled @ scaled.T, k)[1]
    return U_k, U_k.T @ X_zeroed


def recover_signals(X, left_vecs):
    """Recover unit-norm latent signals by projecting onto the left eigenvectors.

    ``left_vecs`` must be the rows of the pseudoinverse of the estimated
    mode matrix, ``linalg.pinv(Q_hat)``.  Each projected column is
    phase-rotated to be as real as possible, and its real part is
    normalized.  Genuinely complex modes (a conjugate pair among the
    fit's eigenvalues) leave an imaginary part, which is dropped without
    a warning.
    """
    X = np.asarray(X, dtype=float)
    W = np.asarray(left_vecs)
    # a complex W @ X would first cast X to complex, a 16 p n byte copy
    raw = (W.real @ X + 1j * (W.imag @ X) if np.iscomplexobj(W) else W @ X).T  # n x k
    k = raw.shape[1]
    out = np.empty(raw.shape, dtype=float)
    for j in range(k):
        z = raw[:, j]
        if np.iscomplexobj(z):
            # e^{2i theta} = sum(z^2)/|sum(z^2)| for z = e^{i theta} * real
            m = np.sum(z * z)
            if abs(m) > 0:
                z = z * np.exp(-0.5j * np.angle(m))
            z = z.real
        nrm = np.linalg.norm(z)
        if nrm == 0.0:
            raise ValueError(f"recovered signal {j} is identically zero")
        out[:, j] = z / nrm
    return out


def dmf(X, tau, k):
    """Dynamic mode factorization: de-mean, fit, and factor ``X ~= Q_hat @ C_hat.T``.

    Steps: fit the lag-``tau`` propagator of the data less its column
    mean ``mu``, take the top-``k`` eigenvectors as ``Q_hat``, and push the
    raw data through ``pinv(Q_hat)`` to get coordinates ``C_hat`` that
    include the mean.  The part of ``mu`` outside span(Q_hat) cannot be
    represented by a rank-k factorization and is dropped.

    NaN cells are missing data: they are zeroed, the fit runs on the k x n
    coordinates of the rank-``k`` fill-in (:func:`fill_in`), less their
    mean, and its modes are lifted by ``U_k``; ``C_hat`` comes from the
    zeroed data.  Modes stay real when every eigenvalue is.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    if not 1 <= k <= min(X.shape[0], n - tau - 1):
        raise ValueError(f"k={k} out of range for shape {X.shape} at tau={tau}")
    missing = np.isnan(X)
    if missing.any():
        X = np.where(missing, 0.0, X)
        fit = _fit_filled(X, tau, k, center=True)
    else:
        fit = dmd_fit(X - X.mean(axis=1)[:, None], tau, k)
    Q_hat = fit.eig.vectors
    Q_hat = Q_hat.real if np.all(fit.eig.values.imag == 0.0) else Q_hat
    return DmfResult(
        Q_hat=Q_hat,
        C_hat=(linalg.pinv(Q_hat) @ X).T,
        eigvals=fit.eig.values,
        rank=fit.rank,
    )
