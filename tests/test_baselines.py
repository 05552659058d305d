import warnings

import numpy as np
import pytest

from dmdsep import baselines, linalg, metrics, signals
from dmdsep.experiments import eigenwalker_model


def cosine_model(p, k, omegas, d, seed, n):
    Q = signals.random_unit_columns(p, k, seed=seed)
    C = signals.gen_cosines(signals.CosineSpec(omegas=omegas), n)
    return signals.assemble(Q, np.asarray(d, dtype=float), C)


class TestWhitening:
    def test_whitened_covariance_is_identity(self):
        model = cosine_model(50, 2, (0.25, 2.0), (2.0, 1.0), seed=0, n=4000)
        Y, _, _ = baselines.whiten_top_k(model.X, 2)
        n = model.X.shape[1]
        assert np.linalg.norm(Y @ Y.T / n - np.eye(2)) <= 1e-6

    def test_rejects_degenerate_covariance(self):
        X = np.outer([1.0, 2.0], np.sin(np.arange(100.0)))
        with pytest.raises(ValueError, match="degenerate"):
            baselines.whiten_top_k(X, 2)


class TestAmuse:
    def test_orthogonal_mixing_recovery(self):
        theta = 0.7
        Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        C = signals.gen_cosines(signals.CosineSpec(omegas=(0.25, 2.0)), 4000)
        model = signals.assemble(Q, np.ones(2), C)
        res = baselines.amuse(model.X, 1, 2)
        assert metrics.align_columns(res.Q_hat.astype(complex), model.Q).total_sq_error <= 1e-2

    def test_rotation_is_orthonormal_before_unwhitening(self):
        # reconstruct the internal rotation: S_hat = (G^T Y)^T normalized,
        # so G = pinv(Y Y^T) Y S_hat-columns; instead check the public
        # consequence: whitened projections of S_hat are orthogonal
        model = cosine_model(40, 2, (0.25, 2.0), (2.0, 1.0), seed=1, n=4000)
        res = baselines.amuse(model.X, 1, 2)
        gram = res.S_hat.T @ res.S_hat
        assert abs(gram[0, 1]) <= 1e-6

    def test_single_source_exact(self):
        C = signals.gen_cosines(signals.CosineSpec(omegas=(0.4,)), 2000)
        model = signals.assemble(signals.random_unit_columns(20, 1, seed=2), np.ones(1), C)
        res = baselines.amuse(model.X, 1, 1)
        err = metrics.align_columns(res.Q_hat.astype(complex), model.Q).total_sq_error
        assert err <= 1e-12

    def test_nonorthogonal_mixing_still_recovered(self):
        # AMUSE handles non-orthogonal mixing through the whitening step
        model = cosine_model(500, 2, (0.25, 2.0), (2.0, 1.0), seed=3, n=8000)
        res = baselines.amuse(model.X, 1, 2)
        assert metrics.align_columns(res.Q_hat.astype(complex), model.Q).total_sq_error <= 1e-2

    def test_unit_signal_columns(self):
        model = cosine_model(30, 2, (0.5, 1.5), (1.0, 1.0), seed=4, n=1000)
        res = baselines.amuse(model.X, 1, 2)
        assert np.allclose(np.linalg.norm(res.S_hat, axis=0), 1.0, atol=1e-12)


class TestPcaUnmix:
    def test_orthonormal_modes(self):
        model = cosine_model(30, 2, (0.3, 1.2), (3.0, 1.0), seed=5, n=2000)
        res = baselines.pca_unmix(model.X, 2)
        assert np.abs(res.Q_hat.T @ res.Q_hat - np.eye(2)).max() <= 1e-10

    def test_orthogonal_mixing_with_separated_scales(self):
        theta = 1.1
        Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        C = signals.gen_cosines(signals.CosineSpec(omegas=(0.25, 2.0)), 4000)
        model = signals.assemble(Q, np.array([3.0, 1.0]), C)
        res = baselines.pca_unmix(model.X, 2)
        assert metrics.align_columns(res.Q_hat.astype(complex), model.Q).total_sq_error <= 1e-6

    def test_walker_failure_mode(self):
        # non-orthogonal mixing cannot be represented by orthonormal modes:
        # the aligned error is large and deterministic (frozen from the
        # reproducible run; the walker data and PCA are both deterministic)
        model = eigenwalker_model(1000)
        res = baselines.pca_unmix(model.X, 2)
        q_err = metrics.align_columns(res.Q_hat.astype(complex), model.Q).total_sq_error
        s_err = metrics.s_error(res.S_hat, model.S)
        assert q_err >= 0.1
        assert q_err == pytest.approx(1.3136, abs=0.01)
        assert s_err == pytest.approx(1.1702, abs=0.01)

    @pytest.mark.parametrize("shape", [(8, 300), (40, 30)])
    def test_matches_top_singular_vectors(self, shape):
        # oracle: top-k U and V of the thin SVD of the de-meaned data, whose
        # singular values are distinct (so each pair is unique up to sign)
        rng = np.random.default_rng(11)
        X = rng.standard_normal(shape) * np.linspace(3.0, 1.0, shape[1]) + 5.0
        k = 3
        res = baselines.pca_unmix(X, k)
        U, sigma, V, _ = linalg.svd(X - X.mean(axis=1, keepdims=True))
        assert np.all(np.diff(sigma[: k + 1]) < -1e-3 * sigma[0])
        signs = np.sign(np.sum(res.Q_hat * U[:, :k], axis=0))
        assert np.abs(res.Q_hat - U[:, :k] * signs).max() <= 1e-10
        assert np.abs(res.S_hat - V[:, :k] * signs).max() <= 1e-10

    def test_is_the_whitening_basis(self):
        # PCA stops where AMUSE starts: the whitening basis and signals
        model = cosine_model(30, 2, (0.3, 1.2), (3.0, 1.0), seed=6, n=2000)
        res = baselines.pca_unmix(model.X, 2)
        Y, V, _ = baselines.whiten_top_k(model.X, 2)
        assert np.array_equal(res.Q_hat, V)
        assert np.abs(res.S_hat - Y.T / np.linalg.norm(Y.T, axis=0)).max() <= 1e-15

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError, match="k="):
            baselines.pca_unmix(np.zeros((3, 10)), 4)

    @pytest.mark.parametrize(
        "X", [np.ones((3, 10)), np.outer([1.0, 2.0, 3.0], np.arange(10.0))]
    )
    def test_rejects_rank_below_k(self, X):
        # constant rows de-mean to zero (rank 0); one scaled ramp is rank 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="rank [01] < k=2"):
                baselines.pca_unmix(X, 2)
