"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``[ACCEPTANCE] ... PASS/FAIL`` line (visible with
``pytest -s``) before asserting, so a red criterion still reports its
measured values.  Expensive suites run once per session via fixtures.
"""

import time
from itertools import permutations, product

import numpy as np
import pytest

from dmdsep import baselines, dmd, lagstats, linalg, metrics, signals
from dmdsep.experiments import (
    changepoint_model,
    default_config,
    derive_seed,
    eigenwalker_model,
    mean_errors,
    run_experiment,
)


def report(criterion, ok, detail):
    print(f"\n[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def timed_suite(suite, **overrides):
    cfg = default_config(suite)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    t0 = time.perf_counter()
    records = run_experiment(cfg)
    return records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def cosine_suite():
    return timed_suite("cosine")


@pytest.fixture(scope="module")
def arma_suite():
    return timed_suite("arma")


@pytest.fixture(scope="module")
def missing_q_suite():
    return timed_suite("missing-q")


@pytest.fixture(scope="module")
def missing_n_suite():
    return timed_suite("missing-n")


@pytest.fixture(scope="module")
def amuse_suite():
    return timed_suite("amuse-compare")


class TestCriterion1Eigenwalker:
    def test_deterministic_exactness(self):
        t0 = time.perf_counter()
        model = eigenwalker_model(1000)
        fit = dmd.dmd_fit(model.X, 1, 2)
        align = metrics.align_columns(fit.eig.vectors, model.Q)
        S_hat = dmd.recover_signals(model.X, linalg.pinv(fit.eig.vectors))
        s_err = metrics.s_error(S_hat, model.S)
        eig_gap = max(
            abs(fit.eig.values[0] - np.cos(0.25)), abs(fit.eig.values[1] - np.cos(2.0))
        )
        elapsed = time.perf_counter() - t0
        ok = (
            align.total_sq_error <= 1e-5
            and s_err <= 1e-5
            and eig_gap <= 1e-3
            and elapsed < 1.0
        )
        report(
            "criterion 1 (eigenwalker exactness)",
            ok,
            f"Q={align.total_sq_error:.3g} S={s_err:.3g} "
            f"max|eig gap|={eig_gap:.3g} time={elapsed:.2f}s",
        )


class TestCriterion2PcaContrast:
    def test_pca_error_windows(self):
        model = eigenwalker_model(1000)
        res = baselines.pca_unmix(model.X, 2)
        q_err = metrics.align_columns(res.Q_hat.astype(complex), model.Q).total_sq_error
        s_err = metrics.s_error(res.S_hat, model.S)
        ok = abs(q_err - 0.81) <= 0.1 and abs(s_err - 1.97) <= 0.2
        report(
            "criterion 2 (PCA failure contrast)",
            ok,
            f"Q={q_err:.4f} (window 0.81+-0.1) S={s_err:.4f} (window 1.97+-0.2); "
            "the aligned errors of the reproduced PCA solution are 1.314/1.170, "
            "so the quoted windows are not attainable -- see decisions ledger",
        )


class TestCriterion3CosineRate:
    def test_rate_windows(self, cosine_suite):
        records, elapsed = cosine_suite
        details, ok = [], True
        for field in ("q_sq_error", "s_sq_error", "eig_sq_error"):
            for key, cells in sorted(mean_errors(records, field).items()):
                xs = sorted(cells)
                slope, _, _ = metrics.rate_fit(xs, [cells[x] for x in xs])
                inside = -1.4 <= slope <= -0.6
                ok = ok and inside
                details.append(f"{field}[{key[0]}]={slope:+.2f}")
        report(
            "criterion 3 (cosine rate windows [-1.4, -0.6])",
            ok,
            "; ".join(details)
            + "; measured decay is steeper than the stated O(1/n) ceiling "
            "(errors fall faster than the bound) -- see decisions ledger",
        )

    def test_separation_dominance_and_runtime(self, cosine_suite):
        records, elapsed = cosine_suite
        by_pair = mean_errors(records, "q_sq_error")
        wide = by_pair[("dmd(w2=2.0)", 1)]
        narrow = by_pair[("dmd(w2=0.5)", 1)]
        dominance = all(wide[n] <= narrow[n] for n in wide)
        ok = dominance and elapsed < 60.0
        report(
            "criterion 3 (frequency-separation dominance, runtime)",
            ok,
            f"dominance at every n: {dominance}; runtime {elapsed:.1f}s (< 60s)",
        )


class TestCriterion4ArmaLagComparison:
    def test_lag2_beats_lag1(self, arma_suite):
        records, elapsed = arma_suite
        means = mean_errors(records, "q_sq_error")
        tau1, tau2 = means[("dmd", 1)], means[("dmd", 2)]
        dominance = all(tau2[n] < tau1[n] for n in tau1)
        xs = sorted(tau1)
        slope1, _, _ = metrics.rate_fit(xs, [tau1[n] for n in xs])
        slope2, _, _ = metrics.rate_fit(xs, [tau2[n] for n in xs])
        ok = dominance and slope1 <= -0.6 and slope2 <= -0.6 and elapsed < 300.0
        report(
            "criterion 4 (ARMA lag comparison)",
            ok,
            f"tau=2 < tau=1 at every n: {dominance}; slopes tau1={slope1:+.2f} "
            f"tau2={slope2:+.2f} (<= -0.6); runtime {elapsed:.0f}s (< 300s)",
        )


class TestCriterion5MissingData:
    def test_5a_tsvd_contrast(self, missing_q_suite):
        records, _ = missing_q_suite
        tsvd = mean_errors(records, "q_sq_error")[("tsvd-dmd", 1)]
        plain = mean_errors(records, "q_sq_error")[("dmd", 1)]
        ratios = {q: tsvd[q] / plain[q] for q in sorted(tsvd)}
        ok = all(r <= 0.1 for r in ratios.values())
        report(
            "criterion 5a (tsvd <= 0.1 x plain at every q)",
            ok,
            "ratios "
            + ", ".join(f"q={q}: {r:.3f}" for q, r in ratios.items())
            + "; at p=500 the weak mode falls below the rank-2 detection "
            "threshold for the smallest q -- see decisions ledger",
        )

    def test_5b_slope_vs_q(self, missing_q_suite):
        records, elapsed = missing_q_suite
        cells = mean_errors(records, "q_sq_error")[("tsvd-dmd", 1)]
        qs = sorted(cells)
        slope, _, _ = metrics.rate_fit(qs, [cells[q] for q in qs])
        ok = slope <= -0.8
        report(
            "criterion 5b (tsvd error slope vs q <= -0.8)",
            ok,
            f"slope={slope:+.2f} (bound -1.5); runtime {elapsed:.0f}s",
        )

    def test_5c_slope_vs_n(self, missing_n_suite, missing_q_suite):
        records, elapsed_n = missing_n_suite
        _, elapsed_q = missing_q_suite
        cells = mean_errors(records, "q_sq_error")[("tsvd-dmd", 1)]
        ns = sorted(cells)
        slope, _, _ = metrics.rate_fit(ns, [cells[n] for n in ns])
        total = elapsed_n + elapsed_q
        ok = slope <= -0.3 and total < 600.0
        report(
            "criterion 5c (tsvd error slope vs n <= -0.3, total runtime)",
            ok,
            f"slope={slope:+.2f} (bound -0.5); combined runtime {total:.0f}s (< 600s)",
        )


class TestCriterion6AmuseComparison:
    def test_dmd_beats_amuse_at_large_n(self, amuse_suite):
        records, elapsed = amuse_suite
        dmd_means = mean_errors(records, "q_sq_error")[("dmd", 1)]
        amuse_means = mean_errors(records, "q_sq_error")[("amuse", 1)]
        big_n = [n for n in sorted(dmd_means) if n >= 4000]
        ok = all(dmd_means[n] <= amuse_means[n] for n in big_n)
        report(
            "criterion 6 (DMD <= AMUSE at n >= 4000)",
            ok,
            "; ".join(
                f"n={n}: dmd={dmd_means[n]:.2e} amuse={amuse_means[n]:.2e}"
                for n in big_n
            )
            + f"; runtime {elapsed:.0f}s",
        )


class TestCriterion7Changepoint:
    def test_seeded_changepoint_run(self):
        cfg = default_config("changepoint")
        sig_seed = derive_seed(cfg.seed, "changepoint", "signal", 1000, 0)
        model, zero_masks = changepoint_model(1000, sig_seed)
        fac = dmd.dmf(model.X, 1, 4)
        q_err = metrics.align_columns(fac.Q_hat.astype(complex), model.Q).total_sq_error
        C = fac.C_hat.real - fac.C_hat.real.mean(axis=0)
        S_hat = C / np.linalg.norm(C, axis=0)
        align_s = metrics.align_columns(S_hat.astype(complex), model.S)
        ratios = []
        for i in range(4):
            est = S_hat[:, align_s.perm[i]]
            zero_half = zero_masks[:, i]
            rms_zero = np.sqrt(np.mean(est[zero_half] ** 2))
            rms_active = np.sqrt(np.mean(est[~zero_half] ** 2))
            ratios.append(rms_zero / rms_active)
        ok = (
            q_err <= 0.05
            and align_s.total_sq_error <= 0.05
            and max(ratios) <= 0.1
        )
        report(
            "criterion 7 (changepoint factorization)",
            ok,
            f"Q={q_err:.4f} S={align_s.total_sq_error:.4f} (<= 0.05); "
            f"max zero-half/active RMS ratio={max(ratios):.3f} (<= 0.1)",
        )


class TestCriterion8OracleSuites:
    def test_moore_penrose_conditions(self):
        rng = np.random.default_rng(80)
        worst = 0.0
        for _ in range(40):
            A = rng.standard_normal((int(rng.integers(1, 21)), int(rng.integers(1, 31))))
            P = linalg.pinv(A)
            worst = max(
                worst,
                np.linalg.norm(A @ P @ A - A),
                np.linalg.norm(P @ A @ P - P),
                np.linalg.norm((A @ P).T - A @ P),
                np.linalg.norm((P @ A).T - P @ A),
            )
        ok = worst <= 1e-8
        report("criterion 8 (Moore-Penrose conditions)", ok, f"worst residual {worst:.2e}")

    def test_eigen_residuals(self):
        rng = np.random.default_rng(81)
        worst = 0.0
        for _ in range(15):
            n = int(rng.integers(2, 51))
            A = rng.standard_normal((n, n))
            res = linalg.eig_nonsymmetric(A)
            scale = 1.0 + np.linalg.norm(A)
            for lam, v in zip(res.values, res.vectors.T):
                worst = max(worst, np.linalg.norm(A @ v - lam * v) / scale)
        ok = worst <= 1e-8
        report("criterion 8 (eigen residuals)", ok, f"worst relative residual {worst:.2e}")

    def test_propagator_matches_normal_equations(self):
        rng = np.random.default_rng(82)
        worst = 0.0
        for _ in range(30):
            p = int(rng.integers(1, 7))
            n = int(rng.integers(p + 3, 13))
            X = rng.standard_normal((p, n))
            fit = dmd.dmd_fit(X, 1, p, keep_operator=True)
            X0, X1 = X[:, :-1], X[:, 1:]
            oracle = X1 @ X0.T @ np.linalg.inv(X0 @ X0.T)
            worst = max(worst, np.abs(fit.a_hat - oracle).max() / (1 + np.abs(oracle).max()))
        ok = worst <= 1e-8
        report("criterion 8 (normal-equations oracle)", ok, f"worst gap {worst:.2e}")

    def test_lag_cov_matches_double_loop(self):
        rng = np.random.default_rng(83)
        worst = 0.0
        for _ in range(5):
            n, k = int(rng.integers(20, 301)), int(rng.integers(1, 6))
            tau = int(rng.integers(0, n))
            S = rng.standard_normal((n, k))
            S -= S.mean(axis=0)
            S /= np.linalg.norm(S, axis=0)
            L = lagstats.lag_cov(S, tau).L
            loops = np.zeros((k, k))
            for i in range(k):
                for j in range(k):
                    loops[i, j] = sum(S[l, i] * S[(l + tau) % n, j] for l in range(n))
            worst = max(worst, np.abs(L - loops).max())
        ok = worst <= 1e-12
        report("criterion 8 (lag covariance double-loop oracle)", ok, f"worst gap {worst:.2e}")

    def test_alignment_matches_exhaustive(self):
        rng = np.random.default_rng(84)
        worst = 0.0
        for _ in range(200):
            k = int(rng.integers(1, 5))
            p = int(rng.integers(k, 7))
            est = rng.standard_normal((p, k))
            est /= np.linalg.norm(est, axis=0)
            truth = rng.standard_normal((p, k))
            truth /= np.linalg.norm(truth, axis=0)
            got = metrics.align_columns(est, truth).total_sq_error
            best = min(
                sum(
                    np.linalg.norm(signs[i] * est[:, perm[i]] - truth[:, i]) ** 2
                    for i in range(k)
                )
                for perm in permutations(range(k))
                for signs in product((-1.0, 1.0), repeat=k)
            )
            worst = max(worst, abs(got - best))
        ok = worst <= 1e-10
        report("criterion 8 (alignment exhaustive oracle)", ok, f"worst gap {worst:.2e}")

    def test_tsvd_identity_and_determinism(self):
        model = eigenwalker_model(800)
        plain = dmd.dmd_fit(model.X, 1, 2)
        filled = dmd.tsvd_dmd_fit(model.X, 1.0, 1, 2)
        bit_identical = np.array_equal(
            filled.eig.values, plain.eig.values
        ) and np.array_equal(filled.eig.vectors, plain.eig.vectors)

        cfg = default_config("cosine")
        cfg.n_grid = (500,)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        deterministic = all(
            ra.q_sq_error == rb.q_sq_error
            and ra.s_sq_error == rb.s_sq_error
            and ra.eig_sq_error == rb.eig_sq_error
            for ra, rb in zip(a, b)
        )
        mask = signals.apply_mask(model.X, signals.MaskSpec(q=0.4, seed=5))
        mask2 = signals.apply_mask(model.X, signals.MaskSpec(q=0.4, seed=5))
        deterministic = deterministic and np.array_equal(mask, mask2)
        ok = bit_identical and deterministic
        report(
            "criterion 8 (tsvd q=1 bit-identity, fixed-seed determinism)",
            ok,
            f"bit-identical={bit_identical} deterministic={deterministic}",
        )
