import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dmdsep
from dmdsep import cli, dmd, experiments, linalg, metrics, plots, signals
from dmdsep.cli import load_config_file, main, read_timeseries_csv, unmix_csv
from dmdsep.experiments import (
    AUDIO_DEMO_Q,
    RECORD_FIELDS,
    SUITES,
    ExperimentRecord,
    default_config,
    run_experiment,
    write_records,
)
from dmdsep.plots import emit_plots


def write_mixture_csv(path, n=20000):
    """Two multitone sources with distinct lag-1 autocorrelation through a
    non-orthogonal 2x2 mixing; returns the ground-truth unit signals."""
    t = np.arange(1, n + 1)
    s1 = np.cos(0.3 * t) + 0.4 * np.cos(1.3 * t + 1.0)
    s2 = np.cos(0.8 * t + 0.5) + 0.4 * np.cos(2.2 * t + 2.0)
    C_raw = np.column_stack([s1, s2])
    model = signals.assemble(AUDIO_DEMO_Q, signals.natural_scales(C_raw), C_raw)
    rows = "\n".join(",".join(format(v, ".17g") for v in row) for row in model.X.T)
    path.write_text(rows + "\n")
    return model


def read_numeric_csv(path):
    lines = path.read_text().strip().splitlines()
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def check_fill_missing_pipeline(tmp_path, S, warning):
    """``unmix --fill-missing`` on a gapped mixture of the columns of ``S``:
    the reader against a per-cell ``float()`` parse and the writer against
    17 significant digits, bit for bit, and the estimates, signs included,
    against the factorization of the dense rank-2 fill-in.  ``warning`` is
    the start of the one warning the unmix gives, or None for none."""
    rng = np.random.default_rng(0)
    X_true = rng.standard_normal((6, 2)) @ S.T + 1e-2 * rng.standard_normal((6, len(S)))
    gapped = [
        ",".join("" if rng.random() < 0.1 else format(v, ".17g") for v in row)
        for row in X_true.T
    ]
    (tmp_path / "gaps.csv").write_text("\n".join(gapped) + "\n")
    with pytest.raises(ValueError, match="fill-missing"):
        unmix_csv(str(tmp_path / "gaps.csv"), str(tmp_path / "g"), tau=1, k=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        unmix_csv(
            str(tmp_path / "gaps.csv"), str(tmp_path / "g"), tau=1, k=2, fill_missing=True
        )
    assert len(caught) == (warning is not None)
    assert all(str(w.message).startswith(warning) for w in caught)
    cells = [[float(c) if c else np.nan for c in ln.split(",")] for ln in gapped]
    X = np.array(cells)
    data, missing = read_timeseries_csv(str(tmp_path / "gaps.csv"), fill_missing=True)
    assert np.array_equal(data, X, equal_nan=True)
    assert np.array_equal(missing, np.isnan(X))
    # oracle: the factorization of the dense surrogate U_k U_k^T X
    X = X.T
    X[np.isnan(X)] = 0.0
    U_k = linalg.svd(X).U[:, :2]
    fac = dmd.dmf(U_k @ (U_k.T @ X), 1, 2)
    eig = np.column_stack([fac.eigvals.real, fac.eigvals.imag])
    for name, header, expected in (
        ("sources", "source_1,source_2", fac.C_hat.real),
        ("mixing", "mode_1,mode_2", fac.Q_hat.real),
        ("eigvals", "real,imag", eig),
    ):
        written = read_numeric_csv(tmp_path / f"g_{name}.csv")
        text = header + "\n" + "".join(
            ",".join(format(v, ".17g") for v in row) + "\n" for row in written
        )
        assert (tmp_path / f"g_{name}.csv").read_bytes() == text.encode(), name
        assert np.abs(written - expected).max() <= 1e-12 * np.abs(expected).max(), name


class TestReadTimeseriesCsv:
    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,4\n5\n")
        with pytest.raises(ValueError, match="line 3"):
            read_timeseries_csv(str(path))

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match="line 2.*'oops'"):
            read_timeseries_csv(str(path))

    def test_empty_cell_requires_flag(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("1,2\n,4\n")
        with pytest.raises(ValueError, match="line 2.*fill-missing"):
            read_timeseries_csv(str(path))
        data, missing = read_timeseries_csv(str(path), fill_missing=True)
        assert missing[1, 0]
        assert data[0, 1] == 2.0

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e999", "nan", "NaN"])
    @pytest.mark.parametrize("fill_missing", [False, True])
    def test_non_finite_cell_names_line(self, tmp_path, cell, fill_missing):
        path = tmp_path / "bad.csv"
        path.write_text(f"1,2\n3,4\n\n5,{cell}\n6,7\n")
        if fill_missing and cell.lower() == "nan":
            data, missing = read_timeseries_csv(str(path), fill_missing=True)
            assert missing.sum() == 1 and missing[2, 1]
            return
        with pytest.raises(ValueError, match="line 4: .* cell in column 2"):
            read_timeseries_csv(str(path), fill_missing=fill_missing)

    def test_non_utf8_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1,2\n" * 5000 + b"3,\xff4\n5,6\n")
        with pytest.raises(ValueError, match="line 5001: not UTF-8"):
            read_timeseries_csv(str(path))

    @pytest.mark.parametrize("fill_missing", [False, True])
    @pytest.mark.parametrize(
        "payload",
        [
            b"1,2\r\n3,\r\n4,5\r\n",  # CRLF with a trailing empty cell
            b"1,2\n \t \n3,4\n",  # a whitespace-only line between rows
            b"1.5,-2,3e-3\n",  # a single row
            b"1\n\n-2.5\n3\n",  # a single column
            b"1,2\x0c3,4\n",  # a form feed inside a cell is no line break
            b"1,2\n\x1c3,4\n",  # float() does not strip \x1c as whitespace
        ],
        ids=["crlf", "whitespace-line", "one-row", "one-column", "form-feed", "x1c"],
    )
    def test_odd_files_match_float_parse(self, tmp_path, payload, fill_missing):
        assert_reader_matches_oracle(tmp_path, payload, fill_missing)

    @pytest.mark.parametrize(
        "payload", [b"", b"\n\r\n\n", b"\n \n\t\n"], ids=["empty", "blank", "whitespace"]
    )
    def test_no_data_is_exit_1_without_warnings(self, tmp_path, capsys, payload):
        path = tmp_path / "empty.csv"
        path.write_bytes(payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["unmix", str(path), "--out-prefix", str(tmp_path / "o")]) == 1
        assert f"{path}: no data rows" in capsys.readouterr().err


class TestWriteCsv:
    def test_matches_per_value_format(self, tmp_path):
        values = np.array(
            [[np.nan, np.inf], [-np.inf, -0.0], [5e-324, 1e308], [0.1, -2.5e-17]]
        )
        path = tmp_path / "w.csv"
        for rows in (values, values[:0]):
            experiments.write_csv(str(path), ["a", "b"], rows)
            expected = "a,b\n" + "".join(
                ",".join(format(v, ".17g") for v in row) + "\n" for row in rows
            )
            assert path.read_bytes() == expected.encode()

    def test_mixed_str_int_float_rows(self, tmp_path):
        rows = [
            ("cosine", 500, np.nan, -0.0, "dmd(w2=0.5)", 0.1),
            ("arma", -7, np.inf, 5e-324, "pca", -np.inf),
            ("missing-q", 0, 1.0, 1e308, "tsvd-dmd", 12345678901234567.0),
        ]
        path = tmp_path / "m.csv"
        experiments.write_csv(str(path), ["s", "i", "f", "g", "t", "h"], rows)
        expected = "s,i,f,g,t,h\n" + "".join(
            ",".join(v if isinstance(v, str) else format(v, ".17g") for v in row) + "\n"
            for row in rows
        )
        assert path.read_bytes() == expected.encode()


class TestUnmixCsv:
    def test_two_channel_mixture(self, tmp_path):
        model = write_mixture_csv(tmp_path / "mix.csv")
        paths = unmix_csv(
            str(tmp_path / "mix.csv"), str(tmp_path / "out"), tau=1, k=2
        )
        sources = read_numeric_csv(tmp_path / "out_sources.csv")
        S_hat = sources - sources.mean(axis=0)
        S_hat /= np.linalg.norm(S_hat, axis=0)
        assert metrics.s_error(S_hat, model.S) <= 1e-3
        eig = read_numeric_csv(tmp_path / "out_eigvals.csv")
        assert eig.shape == (2, 2)
        mixing = read_numeric_csv(tmp_path / "out_mixing.csv")
        q_err = metrics.align_columns(
            (mixing / np.linalg.norm(mixing, axis=0)).astype(complex), model.Q
        ).total_sq_error
        assert q_err <= 1e-3
        assert len(paths) == 3

    def test_single_cosine_passthrough(self, tmp_path):
        n = 2000
        t = np.arange(1, n + 1)
        x = 3.0 * np.cos(0.25 * t)
        (tmp_path / "one.csv").write_text("\n".join(format(v, ".17g") for v in x) + "\n")
        unmix_csv(str(tmp_path / "one.csv"), str(tmp_path / "one"), tau=1, k=1)
        source = read_numeric_csv(tmp_path / "one_sources.csv")[:, 0]
        corr = abs(np.corrcoef(source, x)[0, 1])
        assert corr >= 1.0 - 1e-8

    def test_written_values_roundtrip(self, tmp_path):
        # format fidelity: written sources re-read must reproduce the
        # in-memory factorization coordinates (17 significant digits
        # round-trip float64 exactly)
        write_mixture_csv(tmp_path / "mix.csv", n=3000)
        unmix_csv(str(tmp_path / "mix.csv"), str(tmp_path / "rt"), tau=1, k=2)
        written = read_numeric_csv(tmp_path / "rt_sources.csv")
        data, _ = cli.read_timeseries_csv(str(tmp_path / "mix.csv"))
        in_memory = dmd.dmf(data.T, 1, 2).C_hat.real
        assert np.abs(written - in_memory).max() <= 1e-12
        unmix_csv(str(tmp_path / "mix.csv"), str(tmp_path / "rt2"), tau=1, k=2)
        second = read_numeric_csv(tmp_path / "rt2_sources.csv")
        assert np.array_equal(written, second)

    def test_missing_cells_pipeline(self, tmp_path):
        # six channels of two sources plus noise, 10% of the cells blank: two
        # cosines give real modes, a cosine and its quadrature a complex pair
        t = np.arange(4000)
        for name, S, warning in (
            ("real", np.column_stack([np.cos(0.3 * t), np.cos(1.3 * t + 0.5)]), None),
            (
                "complex",
                np.column_stack([np.cos(0.3 * t), np.sin(0.3 * t)]),
                "complex mode pairs present",
            ),
        ):
            (tmp_path / name).mkdir()
            check_fill_missing_pipeline(tmp_path / name, S, warning)

    def test_rank_exceeds_channels(self, tmp_path):
        (tmp_path / "two.csv").write_text("1,2\n3,4\n5,6\n7,8\n")
        with pytest.raises(ValueError, match="k=5"):
            unmix_csv(str(tmp_path / "two.csv"), str(tmp_path / "x"), tau=1, k=5)


# the last line holds cells on which np.loadtxt and float() could part ways
CSV_TOKENS = [
    "0", "1.5", "-2e3", " 7 ", "\t8", "", "  ", "nan", "NaN", "inf", "-inf",
    "1e999", "oops", "1.2.3", ",", "x,", "\xe9",
    "#1", "1_0", "\u0661", "\xa01", "\x0c2", '"3"', "0x1p3", "\x1c1",
]


def csv_oracle(lines, fill_missing):
    """``(offending, rows)``: the lines the reader must reject (None when the
    file has no data) and the per-cell ``float()`` values of the data lines,
    NaN for an empty cell."""
    offending, width, rows = set(), None, []
    for line_no, line in enumerate(lines, start=1):
        if line.strip() == "":
            continue
        cells = line.split(",")
        width = len(cells) if width is None else width
        if len(cells) != width:
            offending.add(line_no)
        row = []
        for cell in cells:
            try:
                value = float(cell) if cell.strip() else float("nan")
            except ValueError:
                offending.add(line_no)
                continue
            if np.isinf(value) or (np.isnan(value) and not fill_missing):
                offending.add(line_no)
            row.append(value)
        rows.append(row)
    return (offending if rows else None), rows


def named_line(exc):
    return int(re.search(r"line (\d+)", str(exc)).group(1))


def assert_reader_matches_oracle(tmp_path, payload, fill_missing):
    """Read ``payload`` as a CSV file: the reader must name an offending
    line (or report no data), or return the oracle's values bit for bit.
    A byte that is not UTF-8 decodes to U+FFFD, which fails ``float()``,
    so its line is offending too."""
    path = tmp_path / "oracle.csv"
    path.write_bytes(payload)
    text = payload.decode(errors="replace").replace("\r\n", "\n").replace("\r", "\n")
    expected_bad, rows = csv_oracle(text.split("\n"), fill_missing)
    try:
        data, missing = read_timeseries_csv(str(path), fill_missing=fill_missing)
    except ValueError as exc:
        if expected_bad is None:
            assert "no data rows" in str(exc)
        else:
            assert named_line(exc) in expected_bad, str(exc)
        return
    assert expected_bad == set()
    expected = np.array(rows, dtype=float)
    assert data.shape == expected.shape
    assert np.array_equal(missing, np.isnan(expected))
    assert data[~missing].tobytes() == expected[~missing].tobytes()
    assert fill_missing or not missing.any()


class TestReaderFuzz:
    """Random files: the readers return clean data or reject a bad line by
    number, with nothing else escaping."""

    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        grid=st.lists(
            st.lists(st.sampled_from(CSV_TOKENS), min_size=1, max_size=4), max_size=8
        ),
        raw_line=st.one_of(st.none(), st.integers(0, 7)),
        fill_missing=st.booleans(),
    )
    def test_csv_reader(self, tmp_path, grid, raw_line, fill_missing):
        payload = [",".join(row).encode() for row in grid]
        if raw_line is not None and raw_line < len(payload):
            payload[raw_line] += b"\xff"  # not UTF-8
        payload = b"".join(line + b"\n" for line in payload)
        assert_reader_matches_oracle(tmp_path, payload, fill_missing)

    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        entries=st.lists(
            st.tuples(
                st.sampled_from(list(cli._CONFIG_KEYS) + ["", "wat", "# k"]),
                st.sampled_from(["=", " = ", "", "=="]),
                st.sampled_from(
                    ["3", "-1", "0.5", "1,2", " 4 , 5 ", "", "nan", "inf", "soon",
                     "2 # note", "1e999", "\xe9"]
                ),
            ),
            max_size=6,
        ),
        raw_line=st.one_of(st.none(), st.integers(0, 5)),
    )
    def test_config_reader(self, tmp_path, entries, raw_line):
        lines = [key + sep + value for key, sep, value in entries]
        payload = [line.encode() for line in lines]
        offending = set()
        for line_no, line in enumerate(lines, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            if not sep or key not in cli._CONFIG_KEYS:
                offending.add(line_no)
                continue
            try:
                cli._CONFIG_KEYS[key][0](value)
            except ValueError:
                offending.add(line_no)
        if raw_line is not None and raw_line < len(payload):
            payload[raw_line] += b"\xc3"  # a truncated two-byte sequence
            offending.add(raw_line + 1)
        path = tmp_path / "fuzz.cfg"
        path.write_bytes(b"".join(line + b"\n" for line in payload))
        try:
            values = load_config_file(str(path))
        except ValueError as exc:
            assert named_line(exc) in offending, str(exc)
            return
        assert offending == set()
        assert set(values) <= set(cli._CONFIG_KEYS)


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "# comment\n"
            "suite = cosine\n"
            "n_grid = 500, 1000\n"
            "trials = 2\n"
            "seed = 99\n"
        )
        values = load_config_file(str(cfgfile))
        assert values == {
            "suite": "cosine",
            "n_grid": (500, 1000),
            "trials": 2,
            "seed": 99,
        }

    def test_unknown_key(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("wat = 1\n")
        with pytest.raises(ValueError, match="unknown key 'wat'"):
            load_config_file(str(cfgfile))

    def test_bad_value(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("trials = soon\n")
        with pytest.raises(ValueError, match="line 1"):
            load_config_file(str(cfgfile))


class TestMainExitCodes:
    def test_experiment_success(self, tmp_path, capsys):
        out = tmp_path / "rec.csv"
        code = main(
            ["experiment", "eigenwalker", "--out", str(out), "--seed", "3"]
        )
        assert code == 0
        assert out.exists()
        assert "records" in capsys.readouterr().out

    def test_experiment_via_config_file(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        out = tmp_path / "rec.csv"
        cfgfile.write_text(f"suite = eigenwalker\nout = {out}\n")
        assert main(["experiment", "--config", str(cfgfile)]) == 0
        assert out.exists()

    def test_validation_error_is_exit_1(self, capsys):
        code = main(["experiment", "cosine", "--trials", "0"])
        assert code == 1
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,raw",
        [
            ("--n-grid", "1,x"),
            ("--trials", "two"),
            ("--seed", "1.5"),
            ("--p", "x"),
        ],
    )
    def test_malformed_flag_is_exit_1(self, flag, raw, capsys):
        assert main(["experiment", "cosine", flag, raw]) == 1
        assert f"{flag}: cannot parse {raw!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["unmix", "{csv}", "--lag", "x"], "argument --lag: invalid int value: 'x'"),
            (["unmix", "{csv}", "--rank", "x"], "argument --rank: invalid int value: 'x'"),
            (["experiment", "nosuch"], "argument suite: invalid choice: 'nosuch'"),
        ],
        ids=["lag", "rank", "suite"],
    )
    def test_usage_error_is_exit_1(self, argv, message, tmp_path, capsys):
        csv = tmp_path / "f.csv"
        csv.write_text("1,2\n3,4\n5,6\n7,8\n")
        assert main([a.format(csv=csv) for a in argv]) == 1
        err = capsys.readouterr().err
        assert message in err and "usage: dmdsep" in err

    @pytest.mark.parametrize("argv", [["--help"], ["unmix", "--help"]])
    def test_help_is_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: dmdsep" in capsys.readouterr().out

    def test_flags_override_file_values(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("suite = cosine\nn_grid = 500, 1000\ntrials = 3\nseed = 5\n")
        args = cli.build_parser().parse_args(
            ["experiment", "--config", str(cfgfile), "--trials", "2", "--tau", "1,2,"]
        )
        cfg = cli._experiment_config(args)
        assert (cfg.suite, cfg.n_grid, cfg.trials, cfg.seed) == ("cosine", (500, 1000), 2, 5)
        assert cfg.tau_list == (1, 2)
        assert cfg.p == default_config("cosine").p

    def test_wrong_suite_shape_is_exit_1(self, capsys):
        assert main(["experiment", "eigenwalker", "--p", "4"]) == 1
        assert "p must be 3" in capsys.readouterr().err

    def test_q_grid_of_unmasked_suite_is_exit_1(self, capsys):
        # a suite that does not mask runs at q = 1 only; any other grid is an error
        assert main(["experiment", "cosine", "--q-grid", "0.5"]) == 1
        assert "q_grid must be (1.0,) for unmasked cosine" in capsys.readouterr().err

    def test_bad_csv_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        code = main(["unmix", str(path), "--out-prefix", str(tmp_path / "o")])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", [b"inf", b"1e999", b"\xff"])
    def test_unreadable_cell_is_exit_1_without_warnings(self, tmp_path, capsys, cell):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1,2\n3," + cell + b"\n4,5\n6,7\n")
        argv = ["unmix", str(path), "--fill-missing", "--out-prefix", str(tmp_path / "o")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        assert "line 2" in capsys.readouterr().err

    def test_rank_deficient_input_warns(self, tmp_path):
        # one cosine in three channels: the snapshot matrix has rank 1
        s = np.cos(0.3 * np.arange(2000))
        path = tmp_path / "one.csv"
        np.savetxt(path, np.outer(s, [1.0, 2.0, -0.5]), delimiter=",")
        argv = ["unmix", str(path), "--rank", "2", "--out-prefix", str(tmp_path / "o")]
        with pytest.warns(UserWarning, match="numerical rank 1 < requested k=2"):
            assert main(argv) == 0
        assert (tmp_path / "o_mixing.csv").exists()

    @pytest.mark.parametrize(
        "text, flags",
        [("1,1,1\n" * 50, []), (",,\n" * 5, ["--fill-missing"])],
        ids=["constant", "all-missing"],
    )
    def test_no_variation_is_exit_1(self, tmp_path, capsys, text, flags):
        path = tmp_path / "flat.csv"
        path.write_text(text)
        argv = ["unmix", str(path), *flags, "--out-prefix", str(tmp_path / "o")]
        assert main(argv) == 1
        assert f"{path}: numerical rank 0" in capsys.readouterr().err
        assert not (tmp_path / "o_mixing.csv").exists()

    def test_unmix_success(self, tmp_path):
        write_mixture_csv(tmp_path / "mix.csv", n=3000)
        code = main(
            [
                "unmix",
                str(tmp_path / "mix.csv"),
                "--lag",
                "1",
                "--rank",
                "2",
                "--out-prefix",
                str(tmp_path / "u"),
            ]
        )
        assert code == 0
        assert (tmp_path / "u_sources.csv").exists()

    # LinAlgError is a ValueError: the eig and the QR of the snapshots
    # must both reach exit 2, not the validation-error exit 1
    @pytest.mark.parametrize("kernel", ["eig", "qr"])
    def test_numerical_failure_is_exit_2(self, tmp_path, capsys, monkeypatch, kernel):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError(f"{kernel} did not converge")

        write_mixture_csv(tmp_path / "mix.csv", n=3000)
        monkeypatch.setattr(np.linalg, kernel, no_convergence)
        argv = ["unmix", str(tmp_path / "mix.csv"), "--out-prefix", str(tmp_path / "u")]
        assert main(argv) == 2
        assert f"numerical failure: {kernel} did not converge" in capsys.readouterr().err
        assert not (tmp_path / "u_sources.csv").exists()


def write_grid_records(path, suite, cells=None):
    """Records of ``suite`` at two (n, q) grid points, so a guide can be
    drawn on either axis; ``cells`` maps fields of the second row to the
    raw text written in their place."""
    write_records(
        [
            ExperimentRecord(suite, n, 3, 2, 1, q, 0, "dmd", 1 / n, 2 / n, 3 / n, 0)
            for n, q in ((1000, 0.5), (4000, 1.0))
        ],
        str(path),
    )
    lines = path.read_text().splitlines()
    row = lines[2].split(",")
    for field, raw in (cells or {}).items():
        row[RECORD_FIELDS.index(field)] = raw
    lines[2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# suite -> (x-axis record field, guide slope or None), as the theory gives them
PLOT_AXES = {
    "cosine": ("n", -1.0),
    "arma": ("n", -1.0),
    "missing-q": ("q", -1.5),
    "missing-n": ("n", -0.5),
    "amuse-compare": ("n", -1.0),
    "changepoint": ("n", None),
    "eigenwalker": ("n", None),
}


class TestEmitPlots:
    def _records(self, tmp_path, suite, **overrides):
        cfg = default_config(suite)
        for key, value in overrides.items():
            setattr(cfg, key, value)
        cfg.out_path = str(tmp_path / f"{suite}.csv")
        run_experiment(cfg)
        return cfg.out_path

    def test_cosine_plot_structure(self, tmp_path):
        path = self._records(tmp_path, "cosine", n_grid=(500, 1000, 2000))
        written = emit_plots(path, str(tmp_path / "plots"))
        svg = tmp_path / "plots" / "cosine_q_sq_error.svg"
        assert str(svg) in written
        text = svg.read_text()
        assert text.count('class="series"') == 2
        assert 'class="guide"' in text
        assert "slope -1" in text

    def test_missing_q_guide_slope(self, tmp_path):
        path = self._records(
            tmp_path, "missing-q", n_grid=(1000,), q_grid=(0.2, 0.5), trials=1
        )
        emit_plots(path, str(tmp_path / "plots"))
        text = (tmp_path / "plots" / "missing-q_q_sq_error.svg").read_text()
        assert "slope -1.5" in text

    def test_gnuplot_script_written(self, tmp_path):
        path = self._records(tmp_path, "eigenwalker")
        written = emit_plots(path, str(tmp_path / "plots"))
        assert any(w.endswith("eigenwalker_plots.gnuplot") for w in written)

    @pytest.mark.parametrize("suite,x", [("cosine", "n"), ("missing-q", "q")])
    def test_gnuplot_columns_follow_record_fields(self, suite, x):
        script = plots._gnuplot_script(suite, "records.csv")
        lines = script.splitlines()
        used = [ln.split(" using ")[1].split()[0] for ln in lines if " using " in ln]
        fields = experiments.RECORD_FIELDS
        assert used == [
            f"{fields.index(x) + 1}:{fields.index(kind) + 1}"
            for kind in ("q_sq_error", "s_sq_error", "eig_sq_error")
        ]

    @pytest.mark.parametrize("suite", SUITES)
    def test_axis_and_guide_follow_suite(self, tmp_path, suite):
        x, slope = PLOT_AXES[suite]
        emit_plots(write_grid_records(tmp_path / "r.csv", suite), str(tmp_path))
        for kind in ("q_sq_error", "s_sq_error", "eig_sq_error"):
            text = (tmp_path / f"{suite}_{kind}.svg").read_text()
            assert f'font-size="12">{x}</text>' in text
            if slope is None:
                assert 'class="guide"' not in text
            else:
                assert text.count('class="guide"') == 1
                assert f">slope {slope:g}</text>" in text

    @pytest.mark.parametrize(
        "suite,cells,message",
        [
            ("cosine", {"n": "0"}, "n must be >= 1, got 0"),
            ("cosine", {"n": "-5"}, "n must be >= 1, got -5"),
            ("cosine", {"p": "0"}, "p must be >= 1, got 0"),
            ("cosine", {"k": "0"}, "k must be >= 1, got 0"),
            ("cosine", {"tau": "0"}, "tau must be >= 1, got 0"),
            ("cosine", {"trial": "-1"}, "trial must be >= 0, got -1"),
            ("cosine", {"wall_ms": "-1"}, "wall_ms must be >= 0, got -1"),
            ("missing-q", {"q": "0"}, "q must lie in (0, 1], got 0.0"),
            ("missing-q", {"q": "-0.5"}, "q must lie in (0, 1], got -0.5"),
            ("missing-n", {"q": "1.5"}, "q must lie in (0, 1], got 1.5"),
            ("missing-n", {"q": "nan"}, "q must lie in (0, 1], got nan"),
            ("cosine", {"suite": "cosines"}, "unknown suite 'cosines'"),
        ],
    )
    def test_out_of_range_record_is_exit_1(self, tmp_path, capsys, suite, cells, message):
        path = write_grid_records(tmp_path / "r.csv", suite, cells)
        assert main(["plots", path, "--out-dir", str(tmp_path / "p")]) == 1
        assert f"line 3: {message}" in capsys.readouterr().err

    def test_short_records_row_is_exit_1(self, tmp_path, capsys):
        path = self._records(tmp_path, "eigenwalker")
        with open(path, "a") as fh:
            fh.write("eigenwalker,1000,3\n")
        assert main(["plots", path, "--out-dir", str(tmp_path / "p")]) == 1
        assert "line 4: expected 12 cells, found 3" in capsys.readouterr().err

    def test_empty_records_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            emit_plots(str(path), str(tmp_path / "plots"))

    def test_header_only_records_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "header.csv"
        path.write_text(",".join(RECORD_FIELDS) + "\n")
        assert main(["plots", str(path), "--out-dir", str(tmp_path / "p")]) == 1
        assert "holds no records" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    def test_no_positive_finite_errors_is_exit_1(self, tmp_path, capsys):
        # NaN q and eig errors, zero s errors: nothing to draw on a log axis
        path, nan = str(tmp_path / "r.csv"), np.nan
        write_records(
            [
                ExperimentRecord("cosine", n, 3, 2, 1, 1.0, 0, "dmd", nan, 0.0, nan, 0)
                for n in (1000, 4000)
            ],
            path,
        )
        assert main(["plots", path, "--out-dir", str(tmp_path / "p")]) == 1
        assert "no positive finite errors to plot" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    def test_schema_mismatch_names_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(ValueError, match="missing columns"):
            emit_plots(str(path), str(tmp_path / "plots"))

    @pytest.mark.parametrize(
        "header,missing,unexpected",
        [
            (",".join(reversed(RECORD_FIELDS)), [], []),
            (",".join(RECORD_FIELDS) + ",extra", [], ["extra"]),
            (",".join(RECORD_FIELDS[:-1]), ["wall_ms"], []),
        ],
        ids=["reversed", "extra", "short"],
    )
    def test_header_mismatch_is_exit_1(self, tmp_path, capsys, header, missing, unexpected):
        path = write_grid_records(tmp_path / "r.csv", "cosine")
        lines = Path(path).read_text().splitlines()
        Path(path).write_text("\n".join(["", header] + lines[1:]) + "\n")
        assert main(["plots", path, "--out-dir", str(tmp_path / "p")]) == 1
        err = capsys.readouterr().err
        assert f"line 2: header is not {','.join(RECORD_FIELDS)!r}" in err
        assert f"missing columns {missing}, unexpected columns {unexpected}" in err

    def test_plots_cli_exit_codes(self, tmp_path, capsys):
        path = self._records(tmp_path, "eigenwalker")
        assert main(["plots", path, "--out-dir", str(tmp_path / "p")]) == 0
        assert main(["plots", str(tmp_path / "nope.csv")]) == 1


LAYERS = ["baselines", "dmd", "experiments", "lagstats", "linalg", "metrics", "plots", "signals"]


def test_import_skips_slow_scipy_modules():
    # every CLI call pays the package import; scipy.signal, scipy.optimize
    # and scipy.stats are loaded only by the functions that use them.  The
    # package namespace is its eight layer modules, and not the CLI
    env = dict(os.environ)
    src = str(Path(dmdsep.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys, dmdsep; "
        "print([m for m in ('scipy.signal', 'scipy.optimize', 'scipy.stats') "
        "if m in sys.modules]); "
        "print(sorted(m for m in sys.modules if m.startswith('dmdsep.'))); "
        "print(dmdsep.__all__)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == [
        "[]", str([f"dmdsep.{name}" for name in LAYERS]), str(LAYERS)
    ]
