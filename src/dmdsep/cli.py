"""Command-line entry point: experiment suites, CSV unmixing, and plots.

Exit codes: 0 on success, 1 on a validation/usage error, 2 on a numerical
failure inside a factorization.
"""

import argparse
import sys
import warnings

import numpy as np

from . import dmd, linalg
from .experiments import (
    SUITES, default_config, numbered_lines, run_experiment, summarize, write_csv
)
from .plots import emit_plots


def _parse_cell(raw, line_no, col):
    try:
        return float(raw) if raw.strip() else np.nan
    except ValueError:
        raise ValueError(
            f"line {line_no}: non-numeric cell {raw.strip()!r} in column {col + 1}"
        ) from None


def _read_per_line(path, fill_missing):
    """The cell-by-cell reader behind :func:`read_timeseries_csv`: it
    decides every file the one-pass parse declines and names the line."""
    rows, line_nos = [], []
    width = None
    for line_no, line in numbered_lines(path):
        line = line.rstrip("\n")
        if line.strip() == "":
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ValueError(f"line {line_no}: expected {width} cells, found {len(cells)}")
        rows.append([_parse_cell(raw, line_no, col) for col, raw in enumerate(cells)])
        line_nos.append(line_no)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    # one check of the parsed array, not one per cell: parsing is the hot loop
    data = np.asarray(rows, dtype=float)
    missing = np.isnan(data)
    bad = np.isinf(data) | (missing & (not fill_missing))
    if bad.any():
        row, col = np.argwhere(bad)[0]
        hint = " (rerun with --fill-missing to treat it as missing data)"
        kind, hint = ("empty or nan", hint) if missing[row, col] else ("non-finite", "")
        raise ValueError(f"line {line_nos[row]}: {kind} cell in column {col + 1}{hint}")
    return data, missing


def _nan_filled(lines):
    """Yield each line with its empty cells spelled ``nan``; a blank line
    stays blank."""
    for line in lines:
        line = line.rstrip("\n")
        # loadtxt strips the separators \x1c-\x1f around a number as
        # whitespace and float() does not, so such a line is declined
        if "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
            raise ValueError("ASCII separator character")
        if line:
            line = ("," + line + ",").replace(",,", ",nan,").replace(",,", ",nan,")[1:-1]
        yield line


def read_timeseries_csv(path, fill_missing=False):
    """Parse a time-major numeric CSV (rows = samples, columns = channels).

    Returns ``(data, missing_mask)`` with shape (n, p).  Missing cells
    (empty or ``nan``) are allowed only when ``fill_missing`` is set, other
    non-finite cells (``inf``, ``1e999``) never; errors name their line.

    The file is streamed through one ``np.loadtxt`` call.  A file that
    call declines, or whose values break a rule, is read again cell by
    cell, which accepts what ``float()`` accepts and names the bad line.
    """
    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            # an empty file is "no data rows" from the per-line reader
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(
                _nan_filled(fh), delimiter=",", comments=None, dtype=float, ndmin=2
            )
    except ValueError:  # UnicodeDecodeError included
        return _read_per_line(path, fill_missing)
    missing = np.isnan(data)
    if not data.size or np.isinf(data).any() or (missing.any() and not fill_missing):
        return _read_per_line(path, fill_missing)
    return data, missing


def unmix_csv(in_path, out_prefix, tau=1, k=2, fill_missing=False):
    """Unmix a time-major CSV via the mean-aware factorization.

    With ``fill_missing`` the pipeline is zero-fill, then the factorization
    of the rank-``k`` truncated-SVD fill-in (:func:`dmd.fill_in`), fitted
    on its k x n coordinates and lifted to the channels; otherwise the
    data is factorized as-is.  A rank below ``k`` or complex modes warn,
    and rank 0 is an error.  Writes ``<prefix>_sources.csv`` (n x k
    coordinates), ``<prefix>_mixing.csv`` (p x k unit-norm modes) and
    ``<prefix>_eigvals.csv`` (k rows of real,imag).  Returns the three
    paths.
    """
    data, missing = read_timeseries_csv(in_path, fill_missing=fill_missing)
    n, p = data.shape
    if k > p:
        raise ValueError(f"rank k={k} exceeds the {p} channels in {in_path}")
    if not 1 <= tau <= n - 2:
        raise ValueError(f"lag tau={tau} outside [1, {n - 2}] for {n} samples")
    X = data.T.copy()  # internal orientation: channels x time
    if fill_missing and missing.any():
        X[missing.T] = 0.0
        U_k, coords = dmd.fill_in(X, k)
        fac = dmd.dmf(coords, tau, k)
        # the factorization of U_k @ coords is (U_k Q_hat D, C_hat D^-1) for
        # the unit factors D that put each lifted mode in the linalg
        # convention; U_k^T (U_k Q_hat D) = Q_hat D with unit columns Q_hat
        Q = linalg._phase_fix(U_k @ fac.Q_hat)
        Q = Q if np.iscomplexobj(fac.Q_hat) else Q.real  # real modes keep C real
        C = fac.C_hat / np.sum(fac.Q_hat.conj() * (U_k.T @ Q), axis=0)
    else:
        fac = dmd.dmf(X, tau, k)
        Q, C = fac.Q_hat, fac.C_hat
    if fac.rank == 0:
        raise ValueError(f"{in_path}: numerical rank 0, no variation to unmix")
    if fac.rank < k:
        warnings.warn(
            f"snapshot matrix has numerical rank {fac.rank} < requested k={k}; "
            "trailing modes are noise",
            stacklevel=2,
        )
    if np.iscomplexobj(C):
        residue = np.abs(C.imag).max()
        if residue > 1e-8 * (1.0 + np.abs(C.real).max()):
            warnings.warn(
                f"complex mode pairs present (max imaginary part {residue:.3e}); "
                "writing real parts",
                stacklevel=2,
            )
    Q, C = Q.real, C.real
    sources_path = f"{out_prefix}_sources.csv"
    mixing_path = f"{out_prefix}_mixing.csv"
    eig_path = f"{out_prefix}_eigvals.csv"
    write_csv(sources_path, [f"source_{j + 1}" for j in range(k)], C)
    write_csv(mixing_path, [f"mode_{j + 1}" for j in range(k)], Q)
    eig = np.column_stack([fac.eigvals.real, fac.eigvals.imag])
    write_csv(eig_path, ["real", "imag"], eig)
    return sources_path, mixing_path, eig_path


def _list_of(kind):
    return lambda raw: tuple(kind(v) for v in raw.split(",") if v.strip())


# config-file key -> (value parser, ExperimentConfig field, experiment flag);
# flags take raw strings and go through the same parsers as file values
_CONFIG_KEYS = {
    "suite": (str, "suite", None),
    "p": (int, "p", "--p"),
    "trials": (int, "trials", "--trials"),
    "seed": (int, "seed", "--seed"),
    "out": (str, "out_path", "--out"),
    "n_grid": (_list_of(int), "n_grid", "--n-grid"),
    "tau_list": (_list_of(int), "tau_list", "--tau"),
    "q_grid": (_list_of(float), "q_grid", "--q-grid"),
}


def _parse_value(key, raw, where):
    try:
        return _CONFIG_KEYS[key][0](raw)
    except ValueError:
        raise ValueError(f"{where}: cannot parse {raw!r} for key {key!r}") from None


def load_config_file(path):
    """Parse a declarative ``key = value`` config file into a dict."""
    values = {}
    for line_no, line in numbered_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path} line {line_no}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path} line {line_no}: unknown key {key!r}")
        values[key] = _parse_value(key, raw, f"{path} line {line_no}")
    return values


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, which is the numerical-failure code
    def error(self, message):
        raise ValueError(f"{message}\n{self.format_usage().rstrip()}")


def build_parser():
    parser = _Parser(
        prog="dmdsep",
        description="Time-series source separation via dynamic-mode estimators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run a simulation suite")
    exp.add_argument("suite", nargs="?", choices=SUITES)
    exp.add_argument("--config", help="key = value config file")
    for key, (_, _, flag) in _CONFIG_KEYS.items():
        if flag:
            exp.add_argument(flag, dest=key, help=f"overrides config key {key}")

    unm = sub.add_parser("unmix", help="unmix a time-major CSV")
    unm.add_argument("input")
    unm.add_argument("--lag", type=int, default=1)
    unm.add_argument("--rank", type=int, default=2)
    unm.add_argument("--fill-missing", action="store_true")
    unm.add_argument("--out-prefix", default="unmixed")

    plt = sub.add_parser("plots", help="render SVG plots from a records CSV")
    plt.add_argument("records")
    plt.add_argument("--out-dir", default="plots")
    return parser


def _experiment_config(args):
    values = load_config_file(args.config) if args.config else {}
    for key, (_, _, flag) in _CONFIG_KEYS.items():
        raw = getattr(args, key)
        if raw is not None:
            values[key] = _parse_value(key, raw, flag or key)
    if not values.get("suite"):
        raise ValueError("suite is required (positional argument or config file)")
    cfg = default_config(values["suite"])
    for key, value in values.items():
        setattr(cfg, _CONFIG_KEYS[key][1], value)
    return cfg.validate()


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.command == "experiment":
            cfg = _experiment_config(args)
            records = run_experiment(cfg)
            print(summarize(records))
            if cfg.out_path:
                print(f"wrote {len(records)} records to {cfg.out_path}")
        elif args.command == "unmix":
            paths = unmix_csv(
                args.input,
                args.out_prefix,
                tau=args.lag,
                k=args.rank,
                fill_missing=args.fill_missing,
            )
            for path in paths:
                print(f"wrote {path}")
        elif args.command == "plots":
            for path in emit_plots(args.records, args.out_dir):
                print(f"wrote {path}")
    except np.linalg.LinAlgError as exc:  # a ValueError, so caught first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
