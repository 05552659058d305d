import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dmdsep import dmd, lagstats, linalg, metrics, signals
from dmdsep.experiments import AUDIO_DEMO_Q, EIGENWALKER_Q, eigenwalker_model


def normal_equations_propagator(X, tau):
    """Independent oracle: A = X1 X0^T (X0 X0^T)^{-1} for full-row-rank X0."""
    n = X.shape[1]
    X0, X1 = X[:, : n - tau], X[:, tau:]
    return X1 @ X0.T @ np.linalg.inv(X0 @ X0.T)


class TestDmdFit:
    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = int(rng.integers(1, 7))
            n = int(rng.integers(p + 3, 13))
            tau = int(rng.integers(1, 3))
            X = rng.standard_normal((p, n))
            fit = dmd.dmd_fit(X, tau, p, keep_operator=True)
            oracle = normal_equations_propagator(X, tau)
            assert np.abs(fit.a_hat - oracle).max() <= 1e-8 * (1 + np.abs(oracle).max())

    def test_small_explicit_case(self):
        X = np.random.default_rng(1).standard_normal((2, 5))
        fit = dmd.dmd_fit(X, 1, 2, keep_operator=True)
        oracle = normal_equations_propagator(X, 1)
        assert np.allclose(fit.a_hat, oracle, atol=1e-10)

    def test_scale_invariance(self):
        model = eigenwalker_model(400)
        base = dmd.dmd_fit(model.X, 1, 2)
        for c in (2.0, -1.0, 3.7, 1e-4):
            scaled = dmd.dmd_fit(c * model.X, 1, 2)
            assert np.allclose(scaled.eig.values, base.eig.values, atol=1e-9)
            assert np.allclose(scaled.eig.vectors, base.eig.vectors, atol=1e-9)

    def test_walker_example(self):
        model = eigenwalker_model(1000)
        fit = dmd.dmd_fit(model.X, 1, 2)
        assert abs(fit.eig.values[0] - np.cos(0.25)) <= 1e-3
        assert abs(fit.eig.values[1] - np.cos(2.0)) <= 1e-3
        align = metrics.align_columns(fit.eig.vectors, model.Q)
        assert align.total_sq_error <= 1e-5

    def test_rank_one_cosine_eigenvalue(self):
        # single mode: eigenvalue approximates the lag-1 autocorrelation,
        # which tends to cos(omega) at O(1/n)
        for n in (500, 1000, 4000):
            C = signals.gen_cosines(signals.CosineSpec(omegas=(0.25,)), n)
            q1 = np.array([[0.6], [0.8]])
            model = signals.assemble(q1, np.ones(1), C)
            fit = dmd.dmd_fit(model.X, 1, 1)
            lam = fit.eig.values[0]
            assert lam.imag == 0.0
            theory = lagstats.cosine_lag_theory(0.25, 0.0, n, 1)
            assert abs(lam.real - theory) <= 2.0 / n
            assert abs(lam.real - np.cos(0.25)) <= 5.0 / n

    def test_shift_structure_eigenvalues(self):
        # full-period harmonic cosines have an exactly diagonal circular
        # lag covariance; eigenvalues must match its diagonal within the
        # truncation residual sqrt(tau) * max|S|
        rng = np.random.default_rng(2)
        for n, k, tau in ((64, 3, 1), (128, 4, 2), (256, 3, 3)):
            ms = rng.choice(np.arange(1, n // 2 - 1), size=k, replace=False)
            t = np.arange(1, n + 1)
            phases = rng.uniform(0, 2 * np.pi, k)
            C = np.column_stack(
                [np.cos(2 * np.pi * m / n * t + ph) for m, ph in zip(ms, phases)]
            )
            Q = np.linalg.qr(rng.standard_normal((10, k)))[0]
            model = signals.assemble(Q, np.ones(k), C)
            L = lagstats.lag_cov(model.S, tau)
            off_diag = np.abs(L.L - np.diag(np.diag(L.L))).max()
            assert off_diag <= 1e-12
            fit = dmd.dmd_fit(model.X, tau, k)
            align = metrics.align_columns(fit.eig.vectors, model.Q)
            errs = metrics.eig_error(fit.eig.values, np.diag(L.L), align.perm)
            assert np.sqrt(errs.max()) <= np.sqrt(tau) * np.abs(model.S).max()

    def test_reports_rank_deficiency_without_warning(self):
        model = eigenwalker_model(200)  # rank 2 data
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = dmd.dmd_fit(model.X, 1, 3)
        assert fit.rank == 2

    def test_rejects_bad_k(self):
        X = np.zeros((3, 10))
        with pytest.raises(ValueError, match="k="):
            dmd.dmd_fit(X, 1, 4)


@st.composite
def snapshot_series(draw):
    """``(X, tau, k)`` with X of a drawn rank plus optional noise: covers
    rank < p, p > n - tau, numerical rank < k and noisy full-rank data."""
    p = draw(st.integers(1, 8))
    n = draw(st.integers(4, 16))
    tau = draw(st.integers(1, min(3, n - 2)))
    rank = draw(st.integers(1, p))
    noise = draw(st.sampled_from((0.0, 1e-3, 1.0)))
    k = draw(st.integers(1, min(p, n - tau)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((p, rank)) @ rng.standard_normal((rank, n))
    return X + noise * rng.standard_normal((p, n)), tau, k


def dense_oracle(X, tau):
    """``A = X1 @ pinv(X0)``, all its eigenpairs, and ``1 + ||A||_2``."""
    m = X.shape[1] - tau
    A = X[:, tau:] @ linalg.pinv(X[:, :m])
    return A, linalg.eig_nonsymmetric(A), 1.0 + np.linalg.norm(A, 2)


def top_k_is_unambiguous(values, k, scale):
    """No modulus tie, other than a conjugate pair or two numerical zeros,
    among the first k + 1 eigenvalues, so sorting picks the same top k in
    the same order under rounding."""
    head = values[: k + 1]
    for a, b in zip(head[:-1], head[1:]):
        tied = abs(abs(a) - abs(b)) <= 1e-6 * scale
        if tied and not (a == b.conjugate() or abs(a) <= 1e-9 * scale):
            return False
    return True


def simple_nonzero(values, j, scale):
    others = np.delete(values, j)
    separated = others.size == 0 or np.abs(others - values[j]).min() > 1e-3 * scale
    return separated and abs(values[j]) > 1e-6 * scale


def phase_gap(v, u):
    """``min over |c| = 1 of ||v - c u||`` for unit vectors."""
    inner = np.vdot(u, v)
    return np.linalg.norm(v - (inner / abs(inner)) * u) if inner != 0 else np.inf


class TestReducedKernelOracle:
    """The reduced kernel against the dense eigendecomposition of X1 @ pinv(X0)."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(snapshot_series())
    def test_matches_dense_propagator(self, case):
        X, tau, k = case
        A, dense, scale = dense_oracle(X, tau)
        X0 = X[:, : X.shape[1] - tau]
        r = linalg.svd(X0).rank
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = dmd.dmd_fit(X, tau, k, keep_operator=True)
        assert not caught
        assert fit.rank == min(r, k)
        assert np.abs(fit.a_hat - A).max() <= 1e-8 * scale
        if r == X.shape[0] and np.linalg.cond(X0) <= 1e3:
            oracle = normal_equations_propagator(X, tau)
            assert np.abs(fit.a_hat - oracle).max() <= 1e-8 * (1 + np.abs(oracle).max())
        # every returned pair is an eigenpair of A, padded null vectors included
        V, lam = fit.eig.vectors, fit.eig.values
        assert np.allclose(np.linalg.norm(V, axis=0), 1.0)
        assert np.linalg.norm(A @ V - V * lam, axis=0).max() <= 1e-9 * scale
        assume(top_k_is_unambiguous(dense.values, k, scale))
        assert np.abs(lam - dense.values[:k]).max() <= 1e-9 * scale
        for j in range(k):
            if simple_nonzero(dense.values, j, scale):
                assert phase_gap(V[:, j], dense.vectors[:, j]) <= 1e-8

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(snapshot_series(), st.sampled_from((-3.7, 1e-4, 2.0**20)), st.data())
    def test_scale_invariant_and_permutation_equivariant(self, case, c, data):
        X, tau, k = case
        perm = np.array(data.draw(st.permutations(range(X.shape[0]))))
        _, dense, scale = dense_oracle(X, tau)
        assume(top_k_is_unambiguous(dense.values, k, scale))
        base = dmd.dmd_fit(X, tau, k)
        scaled = dmd.dmd_fit(c * X, tau, k)
        permuted = dmd.dmd_fit(X[perm], tau, k)
        for fit, expected in ((scaled, base.eig.vectors), (permuted, base.eig.vectors[perm])):
            assert fit.rank == base.rank
            assert np.abs(fit.eig.values - base.eig.values).max() <= 1e-9 * scale
            for j in range(k):
                if simple_nonzero(dense.values, j, scale):
                    assert phase_gap(fit.eig.vectors[:, j], expected[:, j]) <= 1e-8

    def test_zero_eigenvalue_modes_are_null_vectors(self):
        # X0 = [2 e1, e2], X1 = [e3, 0]: A maps e1 to e3 / 2 and is zero on
        # e2 and e3.  Both reduced eigenvalues are 0; B w = e3 / 2 is a null
        # vector, and where B w vanishes U_r w = e2 is one.  The projected
        # mode e1 would not be an eigenvector (A e1 != 0).
        X = np.zeros((3, 4))
        X[0, 0], X[1, 1], X[2, 2] = 2.0, 1.0, 1.0
        A = dense_oracle(X, 2)[0]
        fit = dmd.dmd_fit(X, 2, 2)
        assert np.array_equal(fit.eig.values, [0.0, 0.0])
        assert np.abs(A @ fit.eig.vectors).max() == 0.0
        assert sorted(np.argmax(np.abs(fit.eig.vectors), axis=0)) == [1, 2]


@st.composite
def multi_lag_series(draw):
    """``(X, taus, k)`` for a shared fit at lags 1, 2 and 3 in a drawn order,
    with n up to 200 > 10p, so that, with the TSQR entry floor lifted, the
    R of the shared prefix is formed from several blocks."""
    p = draw(st.integers(1, 8))
    n = draw(st.integers(6, 200))
    rank = draw(st.integers(1, p))
    noise = draw(st.sampled_from((0.0, 1e-3, 1.0)))
    k = draw(st.integers(1, min(p, n - 3)))
    taus = tuple(draw(st.permutations((1, 2, 3))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((p, rank)) @ rng.standard_normal((rank, n))
    return X + noise * rng.standard_normal((p, n)), taus, k


class TestSharedLagFits:
    """``dmd_fits`` against ``dmd_fit`` at each lag and the dense oracle."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(multi_lag_series())
    def test_matches_single_lag_fits_and_dense_propagator(self, case):
        X, taus, k = case
        ranks = [linalg.svd(X[:, : X.shape[1] - tau]).rank for tau in taus]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "TSQR_MIN_ENTRIES", 0)  # blocks of 10p rows
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fits = list(dmd.dmd_fits(X, taus, k, keep_operator=True))
                singles = [dmd.dmd_fit(X, tau, k, keep_operator=True) for tau in taus]
        assert not caught
        assert [fit.tau for fit in fits] == list(taus)
        for tau, fit, single, r in zip(taus, fits, singles, ranks):
            A, dense, scale = dense_oracle(X, tau)
            assert fit.rank == single.rank == min(r, k)
            assert np.abs(fit.a_hat - A).max() <= 1e-8 * scale
            assert np.abs(fit.a_hat - single.a_hat).max() <= 1e-8 * scale
            V, lam = fit.eig.vectors, fit.eig.values
            assert np.allclose(np.linalg.norm(V, axis=0), 1.0)
            assert np.linalg.norm(A @ V - V * lam, axis=0).max() <= 1e-9 * scale
            if not top_k_is_unambiguous(dense.values, k, scale):
                continue
            assert np.abs(lam - dense.values[:k]).max() <= 1e-9 * scale
            assert np.abs(lam - single.eig.values).max() <= 1e-9 * scale
            for j in range(k):
                if simple_nonzero(dense.values, j, scale):
                    assert phase_gap(V[:, j], dense.vectors[:, j]) <= 1e-8
                    assert phase_gap(V[:, j], single.eig.vectors[:, j]) <= 1e-8

    @pytest.mark.parametrize(
        "taus, k, match",
        [
            ((), 1, "taus"),
            ((1, 9), 1, "lag"),
            ((1, 2), 4, "k="),
            ((0,), 1, "tau=0"),
            ((9,), 1, "tau=9"),
        ],
    )
    def test_rejects_bad_lags_and_k_before_fitting(self, taus, k, match):
        fits = dmd.dmd_fits(np.ones((3, 10)), taus, k)
        with pytest.raises(ValueError, match=match):
            next(fits)


class TestFillIn:
    def test_matches_truncated_svd_reconstruction(self):
        rng = np.random.default_rng(7)
        for shape, k in (((6, 40), 2), ((40, 6), 3), ((30, 200), 5)):
            X = rng.standard_normal(shape)
            res = linalg.svd(X)
            best = (res.U[:, :k] * res.sigma[:k]) @ res.V[:, :k].T  # Eckart-Young
            U_k, coords = dmd.fill_in(X, k)
            assert U_k.shape == (shape[0], k) and coords.shape == (k, shape[1])
            assert np.abs(U_k.T @ U_k - np.eye(k)).max() <= 1e-12
            assert np.abs(U_k @ coords - best).max() <= 1e-10

    @pytest.mark.parametrize("k", [0, 4])
    def test_rejects_bad_rank(self, k):
        with pytest.raises(ValueError, match="k="):
            dmd.fill_in(np.ones((3, 10)), k)

    def test_masked_fit_is_dmd_of_fill_in(self):
        p, n, q, k = 60, 2000, 0.3, 2
        spec = signals.CosineSpec(omegas=(0.25, 2.0))
        Q = signals.random_unit_columns(p, k, seed=5)
        model = signals.assemble(Q, np.array([2.0, 1.0]), signals.gen_cosines(spec, n))
        X_masked = signals.apply_mask(model.X, signals.MaskSpec(q=q, seed=5))
        for tau in (1, 2):
            factored = dmd.tsvd_dmd_fit(X_masked, q, tau, k)
            U_k, coords = dmd.fill_in(X_masked, k)
            plain = dmd.dmd_fit(U_k @ coords, tau, k)
            assert np.abs(factored.eig.values - plain.eig.values).max() <= 1e-10
            assert np.abs(factored.eig.vectors - plain.eig.vectors).max() <= 1e-10


class TestTsvdDmdFit:
    def test_full_observation_is_bit_identical(self):
        model = eigenwalker_model(600)
        plain = dmd.dmd_fit(model.X, 1, 2)
        filled = dmd.tsvd_dmd_fit(model.X, 1.0, 1, 2)
        assert np.array_equal(filled.eig.values, plain.eig.values)
        assert np.array_equal(filled.eig.vectors, plain.eig.vectors)

    def test_rank_one_unmasked_exact(self):
        C = signals.gen_cosines(signals.CosineSpec(omegas=(0.25,)), 400)
        model = signals.assemble(np.array([[0.6], [0.8]]), np.ones(1), C)
        plain = dmd.dmd_fit(model.X, 1, 1)
        filled = dmd.tsvd_dmd_fit(model.X, 0.999999, 1, 1)
        assert abs(filled.eig.values[0] - plain.eig.values[0]) <= 1e-8
        assert np.abs(filled.eig.vectors - plain.eig.vectors).max() <= 1e-8

    def test_masked_recovery_beats_plain(self):
        # with q = 0.2 the rank-2 fill-in recovers both modes while the
        # plain propagator on masked data does not; at smaller q the weak
        # mode sits at the detection threshold for p = 500
        p, n, q, k = 500, 10000, 0.2, 2
        Q = signals.random_unit_columns(p, k, seed=12)
        spec = signals.CosineSpec(omegas=(0.25, 2.0))
        model = signals.assemble(Q, np.array([2.0, 1.0]), signals.gen_cosines(spec, n))
        X_masked = signals.apply_mask(model.X, signals.MaskSpec(q=q, seed=12))
        filled = dmd.tsvd_dmd_fit(X_masked, q, 1, k)
        plain = dmd.dmd_fit(X_masked, 1, k)
        err_filled = metrics.align_columns(filled.eig.vectors, model.Q).total_sq_error
        err_plain = metrics.align_columns(plain.eig.vectors, model.Q).total_sq_error
        assert err_filled <= 0.1 * err_plain

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(snapshot_series(), st.sampled_from((-3.7, 1e-4, 2.0**20)), st.data())
    def test_scale_invariant_and_permutation_equivariant(self, case, c, data):
        # as for dmd_fit, against the propagator of the dense rank-k fill-in,
        # which is unique where sigma_k is separated from sigma_{k+1} or is
        # below the rank cutoff
        X, tau, k = case
        perm = np.array(data.draw(st.permutations(range(X.shape[0]))))
        res = linalg.svd(X)
        sigma = res.sigma
        assume(
            k == sigma.size
            or sigma[k - 1] - sigma[k] > 1e-3 * sigma[0]
            or sigma[k - 1] <= linalg.RANK_TOL * sigma[0] * max(X.shape)
        )
        U_k = res.U[:, :k]
        _, dense, scale = dense_oracle(U_k @ (U_k.T @ X), tau)
        assume(top_k_is_unambiguous(dense.values, k, scale))
        base = dmd.tsvd_dmd_fit(X, 0.5, tau, k)
        scaled = dmd.tsvd_dmd_fit(c * X, 0.5, tau, k)
        permuted = dmd.tsvd_dmd_fit(X[perm], 0.5, tau, k)
        for fit, expected in ((scaled, base.eig.vectors), (permuted, base.eig.vectors[perm])):
            assert fit.rank == base.rank
            assert np.abs(fit.eig.values - base.eig.values).max() <= 1e-9 * scale
            for j in range(k):
                if simple_nonzero(dense.values, j, scale):
                    assert phase_gap(fit.eig.vectors[:, j], expected[:, j]) <= 1e-8

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError, match="q="):
            dmd.tsvd_dmd_fit(np.zeros((2, 10)), 0.0, 1, 1)


class TestRecoverSignals:
    def test_oracle_mixing_matrix(self):
        rng = np.random.default_rng(3)
        Q = signals.random_unit_columns(8, 3, seed=3)
        C_raw = rng.standard_normal((300, 3))
        model = signals.assemble(Q, np.array([3.0, 2.0, 1.0]), C_raw)
        S_hat = dmd.recover_signals(model.X, linalg.pinv(model.Q))
        assert metrics.s_error(S_hat, model.S) <= 1e-20

    def test_walker_recovery(self):
        model = eigenwalker_model(1000)
        fit = dmd.dmd_fit(model.X, 1, 2)
        S_hat = dmd.recover_signals(model.X, linalg.pinv(fit.eig.vectors))
        assert metrics.s_error(S_hat, model.S) <= 1e-5

    def test_mixed_ar1_pair(self):
        # two independent AR(1) series with distinct lag-1 autocorrelation,
        # mixed orthogonally
        theta = np.pi / 6
        Q = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        for seed in (0, 1, 2):
            c1 = signals.gen_arma(signals.ArmaSpec(ar_coeffs=(0.2,)), 1000, seed=seed)
            c2 = signals.gen_arma(signals.ArmaSpec(ar_coeffs=(0.7,)), 1000, seed=seed + 100)
            model = signals.assemble(Q, np.ones(2), np.column_stack([c1, c2]))
            fit = dmd.dmd_fit(model.X, 1, 2)
            S_hat = dmd.recover_signals(model.X, linalg.pinv(fit.eig.vectors))
            assert metrics.s_error(S_hat, model.S) <= 0.05

    def test_drops_complex_residue_without_warning(self):
        # a genuinely complex projection keeps the real part of its most
        # nearly real rotation, normalized, and says nothing
        X = np.random.default_rng(4).standard_normal((2, 50))
        W = np.array([[1.0 + 1.0j, 0.3 - 0.2j]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = dmd.recover_signals(X, W)[:, 0]
        z = (W @ X)[0]
        rotated = (z * np.exp(-0.5j * np.angle(np.sum(z * z)))).real
        assert np.abs(out - rotated / np.linalg.norm(rotated)).max() <= 1e-14
        assert np.linalg.norm(z.imag) > 0.1 * np.linalg.norm(z)
        # no other rotation keeps more of the projection real
        turns = np.exp(-1j * np.linspace(0.0, np.pi, 181))[:, None]
        assert np.linalg.norm(rotated) >= np.linalg.norm((turns * z).real, axis=1).max()


@st.composite
def dmf_series(draw):
    """``(X, tau, k, mean)``: noise of full rank, so every fit has rank k,
    and a per-channel mean up to 10x the data scale."""
    p = draw(st.integers(1, 6))
    tau = draw(st.integers(1, 3))
    n = draw(st.integers(p + tau + 3, 40))
    k = draw(st.integers(1, p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mean = draw(st.sampled_from((0.1, 1.0, 10.0))) * rng.standard_normal(p)
    return rng.standard_normal((p, n)), tau, k, mean


class TestDmf:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(dmf_series(), st.sampled_from((-3.7, 1e-4, 2.0**20)), st.data())
    def test_mean_shift_scale_and_permutation(self, case, c, data):
        # dmf fits the de-meaned data: a per-channel constant moves only
        # C_hat, by pinv(Q_hat) @ mean; scaling X scales C_hat; permuting
        # the channels permutes the rows of Q_hat
        X, tau, k, mean = case
        perm = np.array(data.draw(st.permutations(range(X.shape[0]))))
        _, dense, scale = dense_oracle(X - X.mean(axis=1, keepdims=True), tau)
        assume(top_k_is_unambiguous(dense.values, k, scale))
        assume(all(simple_nonzero(dense.values, j, scale) for j in range(k)))
        base = dmd.dmf(X, tau, k)
        assert base.rank == k
        shift = (linalg.pinv(base.Q_hat) @ mean)[None, :]
        for fac, Q_hat, C_hat in (
            (dmd.dmf(X + mean[:, None], tau, k), base.Q_hat, base.C_hat + shift),
            (dmd.dmf(c * X, tau, k), base.Q_hat, c * base.C_hat),
            (dmd.dmf(X[perm], tau, k), base.Q_hat[perm], base.C_hat),
        ):
            assert fac.rank == base.rank
            assert np.abs(fac.eigvals - base.eigvals).max() <= 1e-10 * scale
            assert np.abs(fac.Q_hat - Q_hat).max() <= 1e-10
            assert np.abs(fac.C_hat - C_hat).max() <= 1e-10 * np.abs(C_hat).max()

    def test_identity_mixing_square_case(self):
        # sources need distinct lag-1 autocorrelations to be identifiable
        C_raw = signals.gen_cosines(signals.CosineSpec(omegas=(0.4, 1.7)), 400)
        model = signals.assemble(np.eye(2), np.ones(2), C_raw)
        fac = dmd.dmf(model.X, 1, 2)
        recon = fac.Q_hat @ fac.C_hat.T
        assert np.linalg.norm(recon - model.X) <= 1e-8 * np.linalg.norm(model.X)
        C_unit = fac.C_hat.real / np.linalg.norm(fac.C_hat.real, axis=0)
        assert metrics.s_error(C_unit, model.S) <= 1e-4

    def test_reconstruction_with_nonzero_mean(self):
        # square case: mean lies in span(Q_hat), so it is fully recovered
        rng = np.random.default_rng(6)
        C_raw = rng.standard_normal((500, 2))
        model = signals.assemble(np.eye(2), np.ones(2), C_raw)
        X = model.X + np.array([[2.0], [-1.0]])
        fac = dmd.dmf(X, 1, 2)
        assert np.linalg.norm(fac.Q_hat @ fac.C_hat.T - X) <= 1e-8 * np.linalg.norm(X)
        assert fac.mean_residual <= 1e-10

    def test_audio_demo_standin(self):
        # two lag-1-distinct multitone signals through the non-orthogonal
        # 2x2 mixing used by the cocktail-party demo
        n = 50000
        t = np.arange(1, n + 1)
        s1 = np.cos(0.3 * t) + 0.4 * np.cos(1.3 * t + 1.0)
        s2 = np.cos(0.8 * t + 0.5) + 0.4 * np.cos(2.2 * t + 2.0)
        model = signals.assemble(AUDIO_DEMO_Q, signals.natural_scales(np.column_stack([s1, s2])), np.column_stack([s1, s2]))
        fac = dmd.dmf(model.X, 1, 2)
        C_unit = fac.C_hat.real / np.linalg.norm(fac.C_hat.real, axis=0)
        assert metrics.s_error(C_unit, model.S) <= 1e-3
        align = metrics.align_columns(fac.Q_hat.astype(complex), model.Q)
        assert align.total_sq_error <= 1e-3

    def test_changepoint_demo(self):
        from dmdsep.experiments import changepoint_model, derive_seed

        sig_seed = derive_seed(1, "changepoint", "signal", 1000, 0)
        model, zero_masks = changepoint_model(1000, sig_seed)
        fac = dmd.dmf(model.X, 1, 4)
        align = metrics.align_columns(fac.Q_hat.astype(complex), model.Q)
        assert align.total_sq_error <= 0.05
        C = fac.C_hat.real - fac.C_hat.real.mean(axis=0)
        S_hat = C / np.linalg.norm(C, axis=0)
        assert metrics.s_error(S_hat, model.S) <= 0.05

    def test_out_of_span_mean_is_reported(self):
        # p=3, k=1: an offset orthogonal to the single mode cannot be
        # represented; the reconstruction defect equals the dropped mean
        # replicated across the n samples
        n = 600
        C = signals.gen_cosines(signals.CosineSpec(omegas=(0.25,)), n)
        q1 = np.array([[1.0], [0.0], [0.0]])
        model = signals.assemble(q1, np.ones(1), C)
        offset = np.array([[0.0], [0.3], [0.0]])
        X = model.X + offset
        fac = dmd.dmf(X, 1, 1)
        assert fac.mean_residual == pytest.approx(0.3, abs=1e-6)
        defect = np.linalg.norm(X - fac.Q_hat @ fac.C_hat.T)
        assert defect == pytest.approx(fac.mean_residual * np.sqrt(n), rel=1e-6)

    def test_walker_q_matches_published_modes(self):
        model = eigenwalker_model(1000)
        fac = dmd.dmf(model.X, 1, 2)
        align = metrics.align_columns(fac.Q_hat.astype(complex), EIGENWALKER_Q)
        assert align.total_sq_error <= 1e-5

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError, match="k="):
            dmd.dmf(np.zeros((2, 20)), 1, 3)
