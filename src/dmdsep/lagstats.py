"""Lag-covariance machinery and cosine closed forms used as oracles.

``lag_cov`` implements the *circular* (mod-n) convention: entry (i, j) is
the inner product of signal i with the tau-step circular shift of signal
j.  The diagonal separation ``delta_L`` of this matrix is what governs
identifiability of the unmixing problem.

The ``cosine_*_theory`` functions evaluate exact finite-n closed forms for
sums of cosine products; these use the *extended-signal* convention (the
shifted factor is the cosine evaluated past the window, no wrap-around),
which differs from the circular convention by O(tau/n).
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class LagCov:
    """Circular lag-tau covariance of the latent signals.

    ``delta_L`` is the minimum pairwise gap between diagonal entries
    (``inf`` when there is a single signal and hence no competing pair).
    """

    L: np.ndarray
    tau: int
    delta_L: float


def lag_cov(S, tau):
    """Circular lag-``tau`` covariance ``L[i, j] = sum_l S[l, i] * S[(l + tau) mod n, j]``."""
    S = np.asarray(S, dtype=float)
    n = S.shape[0]
    if not 0 <= tau < n:
        raise ValueError(f"lag tau={tau} outside [0, {n})")
    L = S.T @ np.roll(S, -tau, axis=0)
    gaps = np.diff(np.sort(np.diag(L)))
    return LagCov(L=L, tau=tau, delta_L=float(gaps.min()) if gaps.size else float("inf"))


def cosine_lag_theory(omega, phi, n, tau):
    """Exact lag-``tau`` autocorrelation of the raw cosine ``cos(omega*t + phi)``.

    Ratio of the closed-form shifted product sum to the closed-form square
    sum over ``t = 1..n``, with the shifted factor evaluated past the
    window (no wrap).  Tends to ``cos(tau * omega)`` as n grows.
    """
    if not 0.0 < omega < math.pi:
        raise ValueError(f"frequency {omega} outside (0, pi)")
    boundary = math.sin(omega * n) / (2.0 * math.sin(omega))
    num = 0.5 * n * math.cos(tau * omega) + boundary * math.cos(omega * (n + tau + 1) + 2 * phi)
    den = 0.5 * n + boundary * math.cos(omega * (n + 1) + 2 * phi)
    return num / den


def cosine_cross_theory(omega1, phi1, omega2, phi2, n):
    """Exact value of ``sum_{t=1..n} cos(omega1*t + phi1) * cos(omega2*t + phi2)``.

    Valid only for distinct frequencies; the magnitude is bounded by
    ``2 / |cos(omega1) - cos(omega2)|`` uniformly in n, which is why
    distinct-frequency cosines decorrelate after normalization.
    """
    if omega1 == omega2:
        raise ValueError("closed form requires distinct frequencies")
    c = math.cos
    return (
        c(omega1 * (n + 1) + phi1) * c(omega2 * n + phi2)
        - c(omega2 * (n + 1) + phi2) * c(omega1 * n + phi1)
        - c(phi2) * c(omega1 + phi1)
        + c(phi1) * c(omega2 + phi2)
    ) / (2.0 * (c(omega1) - c(omega2)))


def empirical_acf(x, max_lag):
    """Sample autocorrelation rho(0..max_lag), non-circular, mean-corrected."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if max_lag >= n / 2:
        raise ValueError(f"max_lag={max_lag} too large for n={n}")
    xc = x - x.mean()
    denom = xc @ xc
    if denom == 0.0:
        raise ValueError("series is constant; autocorrelation undefined")
    return np.array([xc[: n - h] @ xc[h:] / denom for h in range(max_lag + 1)])


def ar_theoretical_acf(ar_coeffs, max_lag):
    """Autocorrelation function of a stationary AR(p) process (Yule-Walker).

    Solves the order-p Yule-Walker system for rho(1..p) and extends by the
    AR recursion.  Used as the population truth for eigenvalues of
    lag-covariance matrices of AR sources.
    """
    a = np.asarray(ar_coeffs, dtype=float)
    p = a.size
    rho = np.zeros(max_lag + 1)
    rho[0] = 1.0
    if p == 0 or max_lag == 0:
        return rho
    # Yule-Walker: rho(h) = sum_j a_j rho(|h - j|), h = 1..p, as a linear
    # system in the unknowns rho(1..p) with rho(0) = 1 known
    M = np.eye(p)
    b = np.zeros(p)
    for h in range(1, p + 1):
        for j in range(1, p + 1):
            lag = abs(h - j)
            if lag == 0:
                b[h - 1] += a[j - 1]
            else:
                M[h - 1, lag - 1] -= a[j - 1]
    head = np.linalg.solve(M, b)
    rho[1 : min(p, max_lag) + 1] = head[: min(p, max_lag)]
    for h in range(p + 1, max_lag + 1):
        rho[h] = sum(a[j - 1] * rho[h - j] for j in range(1, p + 1))
    return rho
