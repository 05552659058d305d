"""Synthetic signal generators and model assembly.

The data model throughout is ``X = Q @ diag(d) @ S.T`` with unit-norm
columns in both ``Q`` (mixing directions) and ``S`` (latent unit signals),
and ``d`` sorted descending.  Raw generators emit *unnormalized* signals so
that closed-form identities about them stay checkable; :func:`assemble`
de-means and normalizes.

All randomness flows through seeded Philox generators (counter-based,
documented algorithm), so every dataset is reproducible from its seed.
"""

from dataclasses import dataclass, field

import numpy as np


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


@dataclass
class CosineSpec:
    """Frequencies and phases of a cosine mixture; frequencies must be
    pairwise distinct (equal frequencies make the mixture unidentifiable
    at every lag) and lie strictly inside (0, pi)."""

    omegas: tuple
    phases: tuple = None

    def __post_init__(self):
        self.omegas = tuple(float(w) for w in self.omegas)
        if self.phases is None:
            self.phases = tuple(0.0 for _ in self.omegas)
        self.phases = tuple(float(p) for p in self.phases)
        if len(self.phases) != len(self.omegas):
            raise ValueError("phases and omegas must have equal length")
        for w in self.omegas:
            if not 0.0 < w < np.pi:
                raise ValueError(f"frequency {w} outside (0, pi)")
        k = len(self.omegas)
        for i in range(k):
            for j in range(i + 1, k):
                if self.omegas[i] == self.omegas[j]:
                    raise ValueError(f"duplicate frequency {self.omegas[i]}")


@dataclass
class ArmaSpec:
    """ARMA(p, q) recursion x_t = sum a_i x_{t-i} + e_t + sum m_j e_{t-j}.

    The AR polynomial 1 - a_1 z - ... - a_p z^p must have all roots
    strictly outside the unit disc (stationarity).
    """

    ar_coeffs: tuple = ()
    ma_coeffs: tuple = ()
    innovation_std: float = 1.0

    def __post_init__(self):
        self.ar_coeffs = tuple(float(a) for a in self.ar_coeffs)
        self.ma_coeffs = tuple(float(m) for m in self.ma_coeffs)
        if self.innovation_std <= 0:
            raise ValueError("innovation_std must be positive")
        if self.ar_coeffs:
            roots = np.roots(np.r_[-np.asarray(self.ar_coeffs)[::-1], 1.0])
            moduli = np.abs(roots)
            if np.any(moduli <= 1.0):
                raise ValueError(
                    f"AR coefficients are non-stationary (root moduli {np.sort(moduli)})"
                )


@dataclass
class MaskSpec:
    """Bernoulli observation mask: each entry kept with probability q."""

    q: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"observation probability q={self.q} outside (0, 1]")


@dataclass
class SourceModel:
    """Ground-truth factorization X = Q diag(d) S^T."""

    Q: np.ndarray
    d: np.ndarray
    S: np.ndarray
    X: np.ndarray = field(repr=False)


def gen_cosines(spec, n):
    """Raw cosine columns ``cos(omega_i * t + phi_i)`` for ``t = 1..n``.

    Columns are neither de-meaned nor normalized; see :func:`assemble`.
    """
    k = len(spec.omegas)
    if n < 2 * k:
        raise ValueError(f"need n >= 2k samples, got n={n}, k={k}")
    t = np.arange(1, n + 1, dtype=float)
    return np.column_stack(
        [np.cos(w * t + p) for w, p in zip(spec.omegas, spec.phases)]
    )


def gen_arma(spec, n, seed):
    """One seeded realization of the ARMA process, length ``n``.

    A burn-in of ``max(100, 10 * order)`` samples started from zero state
    is discarded, which bounds the initialization transient.  Innovations
    are iid standard normal times ``innovation_std``.
    """
    # imported here, so that import dmdsep does not load scipy.signal
    from scipy.signal import lfilter

    order = max(len(spec.ar_coeffs), len(spec.ma_coeffs))
    burn = max(100, 10 * order)
    e = _rng(seed).standard_normal(n + burn) * spec.innovation_std
    b = np.r_[1.0, np.asarray(spec.ma_coeffs, dtype=float)]
    a = np.r_[1.0, -np.asarray(spec.ar_coeffs, dtype=float)]
    return lfilter(b, a, e)[burn:]


def gen_changepoint_suite(n, seed):
    """Four latent signals, each zero on one half of ``t = 1..n``.

    Columns: AR(2)(0.2, 0.7) then zeros; zeros then AR(2)(0.3, 0.5);
    cos(2t) then zeros; zeros then cos(t/2).  The split is at n/2 and the
    cosine argument uses the global time index.
    """
    if n % 2 != 0:
        raise ValueError(f"n must be even, got {n}")
    if n < 8:
        raise ValueError(f"n must be at least 8, got {n}")
    h = n // 2
    t = np.arange(1, n + 1, dtype=float)
    ar_a = gen_arma(ArmaSpec(ar_coeffs=(0.2, 0.7)), h, seed)
    ar_b = gen_arma(ArmaSpec(ar_coeffs=(0.3, 0.5)), h, seed + 1)
    c1 = np.r_[ar_a, np.zeros(h)]
    c2 = np.r_[np.zeros(h), ar_b]
    c3 = np.where(t <= h, np.cos(2.0 * t), 0.0)
    c4 = np.where(t > h, np.cos(t / 2.0), 0.0)
    return np.column_stack([c1, c2, c3, c4])


def random_unit_columns(p, k, seed):
    """``k`` unit vectors sampled uniformly from the sphere in R^p.

    Redraws (from the same stream) in the measure-zero event that the
    columns are ill-conditioned (condition number above 1e6), so the
    result is always usable as a mixing matrix.
    """
    if k > p:
        raise ValueError(f"cannot draw k={k} independent directions in R^{p}")
    gen = _rng(seed)
    for _ in range(64):
        Q = gen.standard_normal((p, k))
        Q /= np.linalg.norm(Q, axis=0)
        if k == 1 or np.linalg.cond(Q) <= 1e6:
            return Q
    raise RuntimeError("failed to draw a well-conditioned mixing matrix")


def assemble(Q, d, C_raw):
    """Build a :class:`SourceModel` from mixing directions and raw signals.

    Each column of ``C_raw`` is de-meaned and normalized to produce ``S``
    (the model assumes zero-mean unit signals), then all factors are
    sorted so ``d`` is descending.
    """
    Q = np.asarray(Q, dtype=float)
    d = np.asarray(d, dtype=float)
    C_raw = np.asarray(C_raw, dtype=float)
    if Q.ndim != 2 or C_raw.ndim != 2:
        raise ValueError("Q and C_raw must be 2-D")
    k = Q.shape[1]
    if C_raw.shape[1] != k or d.shape != (k,):
        raise ValueError(
            f"inconsistent shapes: Q {Q.shape}, d {d.shape}, C_raw {C_raw.shape}"
        )
    if np.any(d <= 0):
        raise ValueError("entries of d must be positive")
    C = C_raw - C_raw.mean(axis=0)
    norms = np.linalg.norm(C, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("C_raw has a constant (zero after de-meaning) column")
    S = C / norms
    order = np.argsort(-d, kind="stable")
    Q, d, S = Q[:, order], d[order], S[:, order]
    X = (Q * d) @ S.T
    return SourceModel(Q=Q, d=d, S=S, X=X)


def natural_scales(C_raw):
    """Column norms of the de-meaned raw signals: the ``d`` values that
    make ``assemble`` reproduce ``X = Q @ C_raw.T`` up to de-meaning."""
    C = np.asarray(C_raw, dtype=float)
    return np.linalg.norm(C - C.mean(axis=0), axis=0)


def apply_mask(X, spec):
    """Zero out entries of ``X`` independently with probability ``1 - q``.

    Kept entries are bit-identical to the input; the mask is a
    deterministic function of the seed.
    """
    X = np.asarray(X, dtype=float)
    if spec.q == 1.0:
        return X.copy()
    keep = _rng(spec.seed).random(X.shape) < spec.q
    return np.where(keep, X, 0.0)
