import warnings

import numpy as np
import pytest
import scipy.linalg.lapack

from dmdsep import linalg


def random_matrix(rng, rows, cols, scale=1.0):
    return scale * rng.standard_normal((rows, cols))


class TestSvd:
    def test_identity(self):
        _, sigma, _, rank = linalg.svd(np.eye(2))
        assert np.allclose(sigma, [1.0, 1.0])
        assert rank == 2

    def test_zero_matrix(self):
        _, sigma, _, rank = linalg.svd(np.zeros((2, 3)))
        assert np.allclose(sigma, [0.0, 0.0])
        assert rank == 0

    def test_two_by_two_against_characteristic_polynomial(self):
        # singular values from the 2x2 characteristic polynomial of A^T A
        A = np.array([[3.0, 0.0], [4.0, 5.0]])
        G = A.T @ A
        tr, det = G[0, 0] + G[1, 1], G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
        disc = np.sqrt(tr**2 - 4 * det)
        expected = np.sqrt([(tr + disc) / 2, (tr - disc) / 2])
        _, sigma, _, _ = linalg.svd(A)
        assert np.allclose(sigma, expected, atol=1e-12)
        assert np.allclose(expected, [np.sqrt(45.0), np.sqrt(5.0)])

    def test_roundtrip_and_orthonormality(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            rows, cols = rng.integers(1, 21), rng.integers(1, 31)
            A = random_matrix(rng, rows, cols, scale=10.0 ** rng.integers(-3, 4))
            U, sigma, V, _ = linalg.svd(A)
            normA = np.linalg.norm(A)
            assert np.linalg.norm(U * sigma @ V.T - A) <= 1e-8 * (1 + normA)
            assert np.abs(U.T @ U - np.eye(U.shape[1])).max() <= 1e-10
            assert np.abs(V.T @ V - np.eye(V.shape[1])).max() <= 1e-10
            assert np.all(np.diff(sigma) <= 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            linalg.svd(np.array([[1.0, np.nan]]))

    def test_deterministic(self):
        A = np.random.default_rng(7).standard_normal((8, 5))
        U1, sigma1, V1, _ = linalg.svd(A.copy())
        U2, sigma2, V2, _ = linalg.svd(A.copy())
        assert np.array_equal(U1, U2)
        assert np.array_equal(sigma1, sigma2)
        assert np.array_equal(V1, V2)


def left_svd(A):
    """``(U, sigma, rank)`` of ``A`` from R of ``A.T = Q R``, as ``dmd_fits``
    takes the left singular pairs of each snapshot matrix."""
    return linalg._left_svd_of_r(linalg.qr_r(A.T), A.shape)


class TestLeftSvd:
    def test_matches_thin_svd(self):
        rng = np.random.default_rng(5)
        for rows, cols in ((3, 50), (20, 400), (7, 4), (1, 9)):
            A = random_matrix(rng, rows, cols)
            U_full, sigma_full, _, rank_full = linalg.svd(A)
            U, sigma, rank = left_svd(A)
            assert rank == rank_full
            assert np.allclose(sigma, sigma_full, rtol=1e-12, atol=0)
            # distinct singular values: columns agree up to sign
            assert np.allclose(np.abs(np.sum(U * U_full, axis=0)), 1.0, atol=1e-10)

    def test_rank_cutoff(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 300))
        assert left_svd(A)[2] == 2
        assert left_svd(np.zeros((3, 8)))[2] == 0

    # TSQR blocks hold max(10p, 2**15 // p) rows of A.T; the shapes cover
    # one block, n = 10p - 1, 10p and 10p + 1 (a last block of one row),
    # two blocks, many blocks with a last block shorter than p, the 2**15
    # entry floor of a small p on both sides of its edge, and a wide A
    BLOCKED_SHAPES = [
        (60, 300), (60, 599), (60, 600), (60, 601), (60, 1150), (60, 6047),
        (4, 8192), (4, 8193), (2, 40000), (9, 5),
    ]

    @pytest.mark.parametrize("rows, cols", BLOCKED_SHAPES)
    def test_blocked_matches_svd(self, rows, cols):
        A = random_matrix(np.random.default_rng(rows * cols), rows, cols)
        U_full, sigma_full, _, rank_full = linalg.svd(A)
        U, sigma, rank = left_svd(A)
        assert rank == rank_full
        assert np.abs(sigma - sigma_full).max() <= 1e-12 * sigma_full[0]
        # distinct singular values: columns agree up to sign
        assert np.allclose(np.abs(np.sum(U * U_full, axis=0)), 1.0, atol=1e-10)

    @pytest.mark.parametrize("cols", [601, 1150, 6047])
    def test_blocked_rank_deficient(self, cols):
        rng = np.random.default_rng(cols)
        A = rng.standard_normal((60, 2)) @ rng.standard_normal((2, cols))
        U_full, sigma_full, _, rank_full = linalg.svd(A)
        U, sigma, rank = left_svd(A)
        assert rank == rank_full == 2
        assert np.abs(sigma - sigma_full).max() <= 1e-12 * sigma_full[0]
        assert np.allclose(np.abs(np.sum(U[:, :2] * U_full[:, :2], axis=0)), 1.0, atol=1e-10)

    # a single block is exactly one dgeqrt call on the whole of A.T, no tree
    @pytest.mark.parametrize("rows, cols", [(60, 599), (60, 600), (4, 8192)])
    def test_single_block_is_one_householder_qr(self, rows, cols):
        A = random_matrix(np.random.default_rng(cols), rows, cols)
        a = scipy.linalg.lapack.dgeqrt(min(linalg.QR_PANEL, *A.shape), A.T)[0]
        _, s, Ut = np.linalg.svd(np.triu(a[:rows]), full_matrices=False)
        U, sigma, _ = left_svd(A)
        assert np.array_equal(U, Ut.T)
        assert np.array_equal(sigma, s)


class TestQrR:
    # the last four set the panel width min(32, rows, cols) to 1 (one
    # column, one row), to 32 with one column left over, and to 32 in each
    # of three row blocks and in their stacked 99 x 33 R's
    @pytest.mark.parametrize(
        "rows, cols",
        [
            (600, 60), (601, 60), (6047, 60), (8193, 4), (40000, 2), (3, 8),
            (5000, 1), (1, 7), (33, 33), (2000, 33),
        ],
    )
    def test_matches_householder_up_to_row_signs(self, rows, cols):
        M = random_matrix(np.random.default_rng(rows + cols), rows, cols)
        R = linalg.qr_r(M)
        ref = np.linalg.qr(M, mode="r")
        assert R.shape == ref.shape
        assert np.array_equal(R, np.triu(R))
        signs = np.sign(np.diag(R)) * np.sign(np.diag(ref))
        scale = np.abs(ref).max()
        assert np.abs(R - signs[:, None] * ref).max() <= 1e-12 * scale

    def test_rejects_non_finite(self):
        M = np.ones((100, 3))
        M[77, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            linalg.qr_r(M)

    def test_empty_input_has_empty_r(self):
        for shape in ((0, 5), (5, 0), (0, 0)):
            ref = np.linalg.qr(np.zeros(shape), mode="r")
            assert linalg.qr_r(np.zeros(shape)).shape == ref.shape

    def test_nonzero_info_is_linalg_error(self, monkeypatch):
        monkeypatch.setattr(scipy.linalg.lapack, "dgeqrt", lambda nb, a: (a, None, -2))
        with pytest.raises(np.linalg.LinAlgError, match="info=-2"):
            linalg.qr_r(np.ones((100, 3)))


def mp_conditions(A, P):
    checks = [
        np.linalg.norm(A @ P @ A - A),
        np.linalg.norm(P @ A @ P - P),
        np.linalg.norm((A @ P).conj().T - A @ P),
        np.linalg.norm((P @ A).conj().T - P @ A),
    ]
    return max(checks)


class TestPinv:
    def test_identity(self):
        assert np.allclose(linalg.pinv(np.eye(4)), np.eye(4), atol=1e-12)

    def test_zero_maps_to_transposed_zero(self):
        P = linalg.pinv(np.zeros((2, 3)))
        assert P.shape == (3, 2)
        assert np.all(P == 0.0)

    def test_row_vector_against_normal_equations(self):
        A = np.array([[1.0, 2.0]])
        expected = A.T @ np.linalg.inv(A @ A.T)  # A^T (A A^T)^{-1}
        P = linalg.pinv(A)
        assert np.allclose(P, expected, atol=1e-12)
        assert np.allclose(P, [[0.2], [0.4]])

    def test_four_conditions_random(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            rows, cols = rng.integers(1, 21), rng.integers(1, 31)
            A = random_matrix(rng, rows, cols)
            P = linalg.pinv(A)
            assert mp_conditions(A, P) <= 1e-8 * (1 + np.linalg.norm(A))

    def test_four_conditions_rank_deficient(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            r = rng.integers(1, 4)
            A = random_matrix(rng, 8, r) @ random_matrix(rng, r, 10)
            P = linalg.pinv(A)
            assert mp_conditions(A, P) <= 1e-8 * (1 + np.linalg.norm(A))

    def test_four_conditions_complex(self):
        # the estimated mode matrices are complex when eigenvalues pair up
        rng = np.random.default_rng(4)
        for _ in range(20):
            r = rng.integers(1, 4)
            B = random_matrix(rng, 8, r) + 1j * random_matrix(rng, 8, r)
            A = B @ (random_matrix(rng, r, 5) + 1j * random_matrix(rng, r, 5))
            P = linalg.pinv(A)
            assert np.iscomplexobj(P)
            assert mp_conditions(A, P) <= 1e-8 * (1 + np.linalg.norm(A))

    def test_complex_zero_maps_to_transposed_zero(self):
        P = linalg.pinv(np.zeros((2, 3), dtype=complex))
        assert P.shape == (3, 2)
        assert np.all(P == 0.0)


class TestEigNonsymmetric:
    def test_diagonal(self):
        res = linalg.eig_nonsymmetric(np.diag([2.0, 1.0]))
        assert np.allclose(res.values, [2.0, 1.0])
        assert np.allclose(np.abs(res.vectors), np.eye(2), atol=1e-12)

    def test_rotation_gives_conjugate_pair(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        res = linalg.eig_nonsymmetric(A)
        # characteristic polynomial lambda^2 + 1 = 0
        assert np.allclose(res.values, [1j, -1j], atol=1e-12)
        for lam, v in zip(res.values, res.vectors.T):
            assert np.linalg.norm(A @ v - lam * v) <= 1e-10

    def test_companion_matrix_against_quadratic_formula(self):
        # companion matrix of lambda^2 - lambda - 0.25
        b, c = -1.0, -0.25
        A = np.array([[-b, -c], [1.0, 0.0]])
        roots = sorted(
            [(-b + np.sqrt(b * b - 4 * c)) / 2, (-b - np.sqrt(b * b - 4 * c)) / 2],
            key=abs,
            reverse=True,
        )
        res = linalg.eig_nonsymmetric(A)
        assert np.allclose(res.values.real, roots, atol=1e-10)
        assert np.abs(res.values.imag).max() == 0.0

    def test_residuals_random(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = rng.integers(2, 51)
            A = random_matrix(rng, n, n)
            res = linalg.eig_nonsymmetric(A)
            bound = 1e-8 * (1 + np.linalg.norm(A))
            for lam, v in zip(res.values, res.vectors.T):
                assert np.linalg.norm(A @ v - lam * v) <= bound
                assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_ordering_and_conjugate_adjacency(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            A = random_matrix(rng, 12, 12)
            res = linalg.eig_nonsymmetric(A)
            mods = np.abs(res.values)
            assert np.all(np.diff(mods) <= 1e-12 * (1 + mods[0]))
            for j, lam in enumerate(res.values):
                if lam.imag > 0.0:
                    assert res.values[j + 1] == np.conj(lam)

    def test_phase_convention(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            A = random_matrix(rng, 9, 9)
            res = linalg.eig_nonsymmetric(A)
            for v in res.vectors.T:
                a = int(np.argmax(np.abs(v)))
                assert v[a].imag == 0.0
                assert v[a].real > 0.0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            linalg.eig_nonsymmetric(np.zeros((2, 3)))


def phase_gap(v, u):
    """``min over |c| = 1 of ||v - c u||`` for unit vectors."""
    inner = np.vdot(u, v)
    return np.linalg.norm(v - (inner / abs(inner)) * u) if inner != 0 else np.inf


class TestEigNonsymmetricTopK:
    """Top-k pairs by eigenvalues and inverse iteration, against ``dgeev``."""

    def test_matches_full_eig_on_random_matrices(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            n = int(rng.integers(2, 41))
            A = random_matrix(rng, n, n)
            full = linalg.eig_nonsymmetric(A)
            scale = 1.0 + np.linalg.norm(A, 2)
            for k in sorted({1, int(rng.integers(1, n)), n - 1}):
                top = linalg.eig_nonsymmetric(A, k)
                assert top.values.shape == (k,) and top.vectors.shape == (n, k)
                assert np.abs(top.values - full.values[:k]).max() <= 1e-12 * scale
                residual = A @ top.vectors - top.vectors * top.values
                assert np.linalg.norm(residual, axis=0).max() <= 1e-12 * scale
                for j in range(k):
                    others = np.delete(full.values, j)
                    if np.abs(others - full.values[j]).min() > 1e-3 * scale:
                        assert phase_gap(top.vectors[:, j], full.vectors[:, j]) <= 1e-10

    def test_conjugate_pair_shares_one_vector(self):
        # eigenvalues 0.6 +- 0.8i, 0.5 and 0.2 behind a random similarity
        rng = np.random.default_rng(11)
        T = np.zeros((4, 4))
        T[:2, :2] = [[0.6, -0.8], [0.8, 0.6]]
        T[2, 2], T[3, 3] = 0.5, 0.2
        S = random_matrix(rng, 4, 4)
        A = S @ T @ np.linalg.inv(S)
        res = linalg.eig_nonsymmetric(A, 2)
        assert np.allclose(res.values, [0.6 + 0.8j, 0.6 - 0.8j], atol=1e-12)
        assert res.values[1] == np.conj(res.values[0])
        assert np.array_equal(res.vectors[:, 1], np.conj(res.vectors[:, 0]))
        residual = A @ res.vectors - res.vectors * res.values
        assert np.abs(residual).max() <= 1e-12 * np.linalg.norm(A, 2)

    @pytest.mark.parametrize("rotated", [False, True])
    def test_repeated_eigenvalue_spans_its_eigenspace(self, rotated):
        # 3 is a double, non-defective eigenvalue with eigenspace
        # span(e1, e2) of the upper triangular T; rotated, span(Q[:, :2])
        T = np.array(
            [
                [3.0, 0.0, 1.0, 2.0],
                [0.0, 3.0, -1.0, 1.0],
                [0.0, 0.0, 1.0, 0.5],
                [0.0, 0.0, 0.0, 0.5],
            ]
        )
        Q = np.eye(4)
        if rotated:
            Q = np.linalg.qr(random_matrix(np.random.default_rng(12), 4, 4))[0]
        A = Q @ T @ Q.T
        res = linalg.eig_nonsymmetric(A, 2)
        assert np.abs(res.values - 3.0).max() <= 1e-12
        basis = Q[:, :2]
        V = res.vectors
        assert np.abs(V - basis @ (basis.T @ V)).max() <= 1e-12
        assert np.linalg.svd(V, compute_uv=False).min() >= 0.99
        assert np.abs(A @ V - 3.0 * V).max() <= 1e-12 * np.linalg.norm(A, 2)

    @pytest.mark.parametrize(
        "A, k",
        [
            (np.diag([2.0, 1.0]), 1),
            (np.diag([1.0, 0.0, 0.0]), 2),
            (np.outer([1.0, 2.0, -1.0], [0.5, 1.0, 3.0]), 2),
            (np.zeros((3, 3)), 1),
        ],
        ids=["diag-2-1", "zero-eigenvalue", "rank-one", "zero-matrix"],
    )
    def test_singular_shift_is_finite_without_warning(self, A, k):
        # each kept shift makes A - lam I exactly singular: a zero pivot
        # is raised to eps ||A||_1 instead of dividing by zero
        full = linalg.eig_nonsymmetric(A)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = linalg.eig_nonsymmetric(A, k)
        assert np.all(np.isfinite(res.vectors))
        assert np.allclose(np.linalg.norm(res.vectors, axis=0), 1.0)
        assert np.abs(res.values - full.values[:k]).max() <= 1e-14 * (1.0 + np.abs(A).max())
        residual = A @ res.vectors - res.vectors * res.values
        assert np.abs(residual).max() <= 1e-14 * (1.0 + np.abs(A).max())


def phase_fix_per_column(vectors):
    """The per-column loop that ``linalg._phase_fix`` vectorizes."""
    out = np.array(vectors, dtype=complex, copy=True)
    for j in range(out.shape[1]):
        nrm = np.linalg.norm(out[:, j])
        if nrm == 0.0:
            continue
        v = out[:, j] / nrm
        a = int(np.argmax(np.abs(v)))
        out[:, j] = v * (np.conj(v[a]) / abs(v[a]))
    return out


class TestPhaseFix:
    @pytest.mark.parametrize(
        "case", ["real", "complex-pair", "zero-column", "empty", "one-row"]
    )
    def test_matches_per_column_loop(self, case):
        rng = np.random.default_rng(12)
        vectors = {
            "real": random_matrix(rng, 30, 6, scale=3.0),
            "complex-pair": np.linalg.eig(random_matrix(rng, 6, 6))[1] * (2.0 - 1.5j),
            "zero-column": np.column_stack([random_matrix(rng, 5, 2), np.zeros(5)]),
            "empty": np.zeros((0, 0)),
            "one-row": random_matrix(rng, 1, 4) + 1j * random_matrix(rng, 1, 4),
        }[case]
        if case == "complex-pair":
            assert np.abs(vectors.imag).max() > 0.1
        got = linalg._phase_fix(vectors)
        want = phase_fix_per_column(vectors)
        assert got.shape == want.shape == vectors.shape
        assert np.abs(got - want).max(initial=0.0) <= 1e-15
        for v in got.T[np.any(got != 0.0, axis=0)]:
            a = int(np.argmax(np.abs(v)))
            assert abs(v[a].imag) <= 1e-16 and v[a].real > 0.0
        if case == "zero-column":
            assert not got[:, -1].any()


class TestEigSymmetric:
    def test_identity(self):
        values, vectors = linalg.eig_symmetric(np.eye(2))
        assert np.allclose(values, [1.0, 1.0])

    def test_two_by_two_closed_form(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        values, vectors = linalg.eig_symmetric(A)
        # closed form: diagonal a, off-diagonal b -> a +- b
        assert np.allclose(values, [3.0, 1.0], atol=1e-12)
        assert np.linalg.norm(vectors @ np.diag(values) @ vectors.T - A) <= 1e-8

    def test_diagonal_indefinite(self):
        values, _ = linalg.eig_symmetric(np.diag([5.0, -1.0]))
        assert np.allclose(values, [5.0, -1.0])

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = rng.integers(2, 15)
            A = random_matrix(rng, n, n)
            A = (A + A.T) / 2
            values, vectors = linalg.eig_symmetric(A)
            assert np.linalg.norm(vectors @ np.diag(values) @ vectors.T - A) <= 1e-8 * (
                1 + np.linalg.norm(A)
            )
            assert np.abs(vectors.T @ vectors - np.eye(n)).max() <= 1e-10

    def test_sign_convention_matches_phase_fix(self):
        rng = np.random.default_rng(9)
        for A in [np.array([[2.0, 1.0], [1.0, 2.0]]), np.zeros((0, 0))] + [
            (B + B.T) / 2 for B in (random_matrix(rng, n, n) for n in (1, 3, 8, 40))
        ]:
            values, vectors = linalg.eig_symmetric(A)
            assert vectors.shape == A.shape
            assert np.abs(linalg._phase_fix(vectors).real - vectors).max(initial=0) <= 1e-15

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            linalg.eig_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))

