import time

import numpy as np
import pytest

from dmdsep import experiments
from dmdsep.experiments import (
    ExperimentConfig,
    default_config,
    derive_seed,
    read_records,
    run_experiment,
    summarize,
    write_records,
)


class TestConfig:
    def test_defaults_validate(self):
        for suite in experiments.SUITES:
            default_config(suite).validate()

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="suite"):
            ExperimentConfig(suite="nope", n_grid=(100,)).validate()

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("trials", 0, "trials"),
            ("n_grid", (), "n_grid"),
            ("q_grid", (), "q_grid"),
            ("q_grid", (1.5,), "q_grid"),
            ("tau_list", (), "tau_list"),
            ("p", 0, "p"),
            ("k", 0, "k"),
        ],
    )
    def test_invalid_field_named(self, field, value, match):
        cfg = default_config("eigenwalker")
        setattr(cfg, field, value)
        with pytest.raises(ValueError, match=match):
            cfg.validate()

    @pytest.mark.parametrize("suite", experiments.SUITES)
    def test_source_count_fixed_per_suite(self, suite):
        cfg = default_config(suite)
        assert cfg.k == experiments.SUITE_TABLE[suite].k
        cfg.k += 1
        with pytest.raises(ValueError, match=f"k must be {cfg.k - 1} for suite {suite}"):
            cfg.validate()

    @pytest.mark.parametrize("suite,p", [("eigenwalker", 3), ("changepoint", 4)])
    def test_channel_count_fixed(self, suite, p):
        cfg = default_config(suite)
        assert cfg.p == p
        cfg.p = 10
        with pytest.raises(ValueError, match=f"p must be {p} for suite {suite}, got 10"):
            cfg.validate()


class TestSeedDerivation:
    def test_frozen_reference_value(self):
        # pinned so any port of the scheme reproduces the same streams
        assert derive_seed(7, "cosine", "model", 100, 2, 0) == 2934806366804895337
        assert derive_seed(0, "x") == 5717441744405258058

    def test_master_seed_xor(self):
        a = derive_seed(0, "tag", 1)
        b = derive_seed(12345, "tag", 1)
        assert a ^ b == 12345

    def test_distinct_cells_distinct_seeds(self):
        seeds = {derive_seed(7, "s", "model", n, t) for n in range(50) for t in range(50)}
        assert len(seeds) == 2500


class TestEigenwalkerSuite:
    def test_records_and_errors(self):
        records = run_experiment(default_config("eigenwalker"))
        assert len(records) == 2
        by_method = {rec.method: rec for rec in records}
        assert by_method["dmd"].q_sq_error <= 1e-5
        assert by_method["dmd"].s_sq_error <= 1e-5
        assert by_method["pca"].q_sq_error >= 0.1

    def test_runs_under_a_second(self):
        t0 = time.perf_counter()
        run_experiment(default_config("eigenwalker"))
        assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("suite", ["eigenwalker", "changepoint"])
def test_fixed_shape_suites_visit_every_n(suite):
    cfg = default_config(suite)
    cfg.n_grid = (1000, 1500)
    records = run_experiment(cfg)
    assert sorted({rec.n for rec in records}) == [1000, 1500]
    cfg.n_grid = (1500,)
    alone = run_experiment(cfg)
    assert [(r.method, r.q_sq_error, r.s_sq_error) for r in records if r.n == 1500] == [
        (r.method, r.q_sq_error, r.s_sq_error) for r in alone
    ]


class TestDeterminism:
    def test_identical_seed_identical_errors(self):
        cfg = default_config("cosine")
        cfg.n_grid = (500, 1000)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for ra, rb in zip(a, b):
            assert ra.q_sq_error == rb.q_sq_error
            assert ra.s_sq_error == rb.s_sq_error
            assert ra.eig_sq_error == rb.eig_sq_error

    def test_csv_identical_modulo_timing(self, tmp_path):
        cfg = default_config("cosine")
        cfg.n_grid = (500, 1000)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg.out_path = str(pa)
        run_experiment(cfg)
        cfg.out_path = str(pb)
        run_experiment(cfg)

        def strip_timing(path):
            lines = path.read_text().splitlines()
            return ["," .join(ln.split(",")[:-1]) for ln in lines]

        assert strip_timing(pa) == strip_timing(pb)

    def test_seed_changes_results(self):
        cfg = default_config("cosine")
        cfg.n_grid = (500,)
        a = run_experiment(cfg)
        cfg.seed = cfg.seed + 1
        b = run_experiment(cfg)
        assert a[0].q_sq_error != b[0].q_sq_error


class TestRecordsIO:
    def test_roundtrip_exact(self, tmp_path):
        cfg = default_config("eigenwalker")
        records = run_experiment(cfg)
        path = tmp_path / "records.csv"
        write_records(records, str(path))
        back = read_records(str(path))
        assert len(back) == len(records)
        for ra, rb in zip(records, back):
            for name in experiments.RECORD_FIELDS:
                va, vb = getattr(ra, name), getattr(rb, name)
                if isinstance(va, float) and np.isnan(va):
                    assert np.isnan(vb)
                else:
                    assert va == vb

    def test_schema_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("suite,n\n")
        with pytest.raises(ValueError, match="missing columns"):
            read_records(str(path))

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_records(str(path))

    @pytest.mark.parametrize("suffix,found", [("", 11), (",0,7", 13)])
    def test_wrong_cell_count_names_line(self, tmp_path, suffix, found):
        path = tmp_path / "records.csv"
        write_records(run_experiment(default_config("eigenwalker")), str(path))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + suffix  # drop wall_ms, maybe add two
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"line 3: expected 12 cells, found {found}"):
            read_records(str(path))

    def test_non_utf8_byte_names_line(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records(run_experiment(default_config("eigenwalker")), str(path))
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b"pca", b"pc\xff")
        path.write_bytes(b"".join(lines))
        with pytest.raises(ValueError, match="line 3: not UTF-8 text"):
            read_records(str(path))

    def test_unparsable_cell_names_line(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records(run_experiment(default_config("eigenwalker")), str(path))
        text = path.read_text().replace(",1000,", ",many,", 1)
        path.write_text(text)
        with pytest.raises(ValueError, match="line 2: cannot parse"):
            read_records(str(path))


class TestSmallCells:
    def test_smallest_cosine_cell_fast(self):
        cfg = default_config("cosine")
        cfg.n_grid = (500,)
        t0 = time.perf_counter()
        records = run_experiment(cfg)
        assert time.perf_counter() - t0 < 10.0
        assert all(np.isfinite(rec.q_sq_error) for rec in records)

    def test_smallest_missing_cell_fast(self):
        cfg = default_config("missing-q")
        cfg.n_grid = (2000,)
        cfg.q_grid = (0.5,)
        cfg.trials = 1
        t0 = time.perf_counter()
        records = run_experiment(cfg)
        assert time.perf_counter() - t0 < 10.0
        assert {rec.method for rec in records} == {"tsvd-dmd", "dmd"}

    def test_smallest_arma_cell_fast(self):
        cfg = default_config("arma")
        cfg.n_grid = (1000,)
        cfg.trials = 2
        t0 = time.perf_counter()
        records = run_experiment(cfg)
        assert time.perf_counter() - t0 < 10.0
        assert {rec.tau for rec in records} == {1, 2}

    def test_smallest_amuse_cell_fast(self):
        cfg = default_config("amuse-compare")
        cfg.n_grid = (1000,)
        cfg.trials = 1
        t0 = time.perf_counter()
        records = run_experiment(cfg)
        assert time.perf_counter() - t0 < 10.0
        assert {rec.method for rec in records} == {"dmd", "amuse"}

    def test_changepoint_cell(self):
        t0 = time.perf_counter()
        records = run_experiment(default_config("changepoint"))
        assert time.perf_counter() - t0 < 10.0
        assert records[0].q_sq_error <= 0.05
        assert records[0].s_sq_error <= 0.05


class TestSummaries:
    def test_mean_errors_grouping(self):
        cfg = default_config("cosine")
        cfg.n_grid = (500, 1000)
        records = run_experiment(cfg)
        means = experiments.mean_errors(records)
        assert ("dmd(w2=0.5)", 1) in means
        assert ("dmd(w2=2.0)", 1) in means
        assert set(means[("dmd(w2=0.5)", 1)]) == {500, 1000}

    def test_summarize_includes_slopes(self):
        cfg = default_config("cosine")
        cfg.n_grid = (500, 1000, 2000, 4000)
        text = summarize(run_experiment(cfg))
        assert "slope=" in text
        assert "dmd(w2=2.0)" in text
