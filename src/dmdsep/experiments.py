"""Reproducible desk-scale simulation suites.

Each suite regenerates one of the reference experiments: noiseless cosine
mixtures across sample sizes, AR(2) mixtures compared across lags,
Bernoulli-masked data with and without the truncated-SVD fill-in, the
AMUSE head-to-head, the changepoint composite, and the deterministic
eigenwalker example.  ``SUITE_TABLE`` holds one row per suite: its
ground-truth models, whether it masks the data, its methods, fixed shape
and defaults, and the axis and guide slope of its plots.
:func:`run_experiment` is the single cell loop that fits and scores
every row, and nothing else in the package names a suite.

Seed scheme (reproducible across runs and ports): every random draw uses
a Philox stream whose seed is ``master_seed XOR blake2b-64(tag)`` where
``tag`` is a canonical ``|``-joined string naming the suite, the draw
role ("model", "signal", "mask"), and the cell coordinates that the draw
may depend on.  Mixing matrices depend only on the trial index, never on
n or q, so grid cells within a trial are paired.
"""

import hashlib
import itertools
import time
from dataclasses import astuple, dataclass, fields
from functools import partial

import numpy as np

from . import baselines, dmd, lagstats, linalg, metrics, signals

EIGENWALKER_Q = np.array(
    [[1.0 / 3.0, 2.0 / np.sqrt(5.0)], [2.0 / 3.0, 1.0 / np.sqrt(5.0)], [2.0 / 3.0, 0.0]]
)
EIGENWALKER_OMEGAS = (2.0, 0.25)

CHANGEPOINT_Q = (
    np.array(
        [
            [1.0, 0.0, 0.0, 2.0],
            [2.0, 1.0, 0.0, 0.0],
            [0.0, 2.0, 1.0, 0.0],
            [0.0, 0.0, 2.0, 1.0],
        ]
    )
    / np.sqrt(5.0)
)

AUDIO_DEMO_Q = np.array([[1.0, 2.0], [2.0, 1.0]]) / np.sqrt(5.0)


@dataclass
class ExperimentConfig:
    suite: str
    n_grid: tuple = ()
    p: int = 100
    k: int = 2
    tau_list: tuple = (1,)
    q_grid: tuple = (1.0,)
    trials: int = 1
    seed: int = 7
    out_path: str = None

    def validate(self):
        if self.suite not in SUITES:
            raise ValueError(f"suite must be one of {SUITES}, got {self.suite!r}")
        row = SUITE_TABLE[self.suite]
        if not self.n_grid:
            raise ValueError("n_grid must be nonempty")
        if not self.q_grid:
            raise ValueError("q_grid must be nonempty")
        if not self.tau_list:
            raise ValueError("tau_list must be nonempty")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if row.p is not None and self.p != row.p:
            raise ValueError(f"p must be {row.p} for suite {self.suite}, got {self.p}")
        if self.k != row.k:
            raise ValueError(f"k must be {row.k} for suite {self.suite}, got {self.k}")
        for q in self.q_grid:
            if not 0.0 < q <= 1.0:
                raise ValueError(f"q_grid entries must lie in (0, 1], got {q}")
        if not row.masked and tuple(self.q_grid) != (1.0,):
            raise ValueError(f"q_grid must be (1.0,) for unmasked {self.suite}, got {self.q_grid}")
        for n in self.n_grid:
            if n < 2 * self.k:
                raise ValueError(f"n_grid entries must be >= 2k, got n={n}")
        return self


@dataclass
class ExperimentRecord:
    suite: str
    n: int
    p: int
    k: int
    tau: int
    q: float
    trial: int
    method: str
    q_sq_error: float
    s_sq_error: float
    eig_sq_error: float
    wall_ms: int


RECORD_FIELDS = tuple(f.name for f in fields(ExperimentRecord))


def default_config(suite):
    """Desk-scale defaults preserving each reference experiment's claims."""
    if suite not in SUITE_TABLE:
        raise ValueError(f"suite must be one of {SUITES}, got {suite!r}")
    row = SUITE_TABLE[suite]
    cfg = ExperimentConfig(suite=suite, k=row.k, **row.preset)
    cfg.p = row.p or cfg.p
    return cfg.validate()


def derive_seed(master_seed, *parts):
    """64-bit stream seed: master XOR blake2b-64 of the canonical tag."""
    tag = "|".join(str(p) for p in parts).encode()
    h = int.from_bytes(hashlib.blake2b(tag, digest_size=8).digest(), "little")
    return (int(master_seed) ^ h) & 0xFFFFFFFFFFFFFFFF


def _trial_mixing(cfg, trial):
    seed = derive_seed(cfg.seed, cfg.suite, "model", cfg.p, cfg.k, trial)
    return signals.random_unit_columns(cfg.p, cfg.k, seed)


def _cosine_model(cfg, n, trial, omegas, d):
    spec = signals.CosineSpec(omegas=omegas)
    return signals.assemble(_trial_mixing(cfg, trial), d, signals.gen_cosines(spec, n))


def _arma_model(cfg, n, trial):
    cols = []
    for i, coeffs in enumerate(((0.2, 0.7), (0.3, 0.5))):
        seed = derive_seed(cfg.seed, cfg.suite, "signal", i, n, trial)
        cols.append(signals.gen_arma(signals.ArmaSpec(ar_coeffs=coeffs), n, seed))
    Q = _trial_mixing(cfg, trial)
    return signals.assemble(Q, np.ones(cfg.k), np.column_stack(cols))


def changepoint_model(n, seed):
    """Assembled changepoint model plus per-column structural-zero masks.

    The masks are aligned with the model's (d-sorted) column order; entry
    (t, i) is True where latent signal i is identically zero by
    construction.
    """
    C_raw = signals.gen_changepoint_suite(n, seed)
    zero_masks = C_raw == 0.0
    d = signals.natural_scales(C_raw)
    order = np.argsort(-d, kind="stable")
    model = signals.assemble(CHANGEPOINT_Q, d, C_raw)
    return model, zero_masks[:, order]


def _changepoint_suite_model(cfg, n, trial):
    return changepoint_model(n, derive_seed(cfg.seed, cfg.suite, "signal", n, trial))[0]


def eigenwalker_model(n=1000):
    """The deterministic three-channel walker example from the worked demo."""
    spec = signals.CosineSpec(omegas=EIGENWALKER_OMEGAS)
    return signals.assemble(EIGENWALKER_Q, np.ones(2), signals.gen_cosines(spec, n))


def _propagator_modes(fit, X):
    """Modes, eigenvalues and the unit signals recovered from the data the
    fit saw (masked data for the missing-data suites)."""
    vectors = fit.eig.vectors
    return vectors, fit.eig.values, dmd.recover_signals(X, linalg.pinv(vectors))


def _dmf_modes(X, tau, k):
    fac = dmd.dmf(X, tau, k)
    C = fac.C_hat.real
    C = C - C.mean(axis=0)
    return fac.Q_hat, fac.eigvals, C / np.linalg.norm(C, axis=0)


def _unmixed(result):
    return result.Q_hat, None, result.S_hat


# method -> fits(X, q, taus, k) yielding, per lag in taus, (modes, eigenvalues
# or None, unit signals); only "dmd" shares work between lags
_METHODS = {
    "dmd": lambda X, q, taus, k: (
        _propagator_modes(fit, X) for fit in dmd.dmd_fits(X, taus, k)
    ),
    "tsvd-dmd": lambda X, q, taus, k: (
        _propagator_modes(dmd.tsvd_dmd_fit(X, q, tau, k), X) for tau in taus
    ),
    "dmf": lambda X, q, taus, k: (_dmf_modes(X, tau, k) for tau in taus),
    "amuse": lambda X, q, taus, k: (
        _unmixed(baselines.amuse(X, tau, k)) for tau in taus
    ),
    "pca": lambda X, q, taus, k: (_unmixed(baselines.pca_unmix(X, k)) for _ in taus),
}


def _score(model, tau, vectors, eigvals, S_hat):
    """Aligned squared errors of one estimate against the ground truth.

    Eigenvalues, where the method has them, are scored against the
    diagonal of the circular lag-tau covariance of the true unit signals
    (the quantity they estimate); methods without them score NaN.
    """
    align = metrics.align_columns(vectors.astype(complex), model.Q)
    s_err = metrics.s_error(S_hat, model.S)
    if eigvals is None:
        return align.total_sq_error, s_err, float("nan")
    truth_eigs = np.diag(lagstats.lag_cov(model.S, tau).L)
    eig_err = float(np.sum(metrics.eig_error(eigvals, truth_eigs, align.perm)))
    return align.total_sq_error, s_err, eig_err


@dataclass(frozen=True)
class Suite:
    """One row of the suite table.

    ``models`` maps a method-name tag to ``model(cfg, n, trial)``, the
    ground truth of one cell, which each of ``methods`` fits at every lag;
    the tag is appended to the method names.  A ``masked`` row fits a
    Bernoulli-masked copy of the data at every ``q_grid`` entry, any other
    row ``model.X`` itself at q = 1.  The models have ``k`` sources and,
    where ``p`` is set, that many channels; ``preset`` holds the other
    defaults.  Plots put the record field ``x`` on the x-axis, with the
    theory's decay ``slope`` as a guide.
    """

    models: dict
    methods: tuple
    preset: dict
    k: int = 2
    p: int = None
    x: str = "n"
    slope: float = None
    masked: bool = False


_COSINE_PAIRS = {
    f"(w2={w2})": partial(_cosine_model, omegas=(0.25, w2), d=(1.0, 1.0))
    for w2 in (0.5, 2.0)
}
_SCALED_PAIR = {"": partial(_cosine_model, omegas=(0.25, 2.0), d=(2.0, 1.0))}

SUITE_TABLE = {
    "cosine": Suite(
        _COSINE_PAIRS, ("dmd",), dict(n_grid=(500, 1000, 2000, 4000, 8000, 16000)),
        slope=-1.0,
    ),
    # near-tied lag-1 autocorrelations occasionally collide into a complex
    # pair at small n; the trial's large error is the diagnostic
    "arma": Suite(
        {"": _arma_model}, ("dmd",),
        dict(n_grid=(1000, 3162, 10000, 31623, 100000), tau_list=(1, 2), trials=50),
        slope=-1.0,
    ),
    # plain DMD on heavily masked data legitimately produces complex junk
    # modes; the recorded errors are the diagnostic
    "missing-q": Suite(
        _SCALED_PAIR, ("tsvd-dmd", "dmd"),
        dict(n_grid=(10000,), p=500, q_grid=(0.05, 0.1, 0.2, 0.35, 0.5), trials=10),
        x="q", slope=-1.5, masked=True,
    ),
    "missing-n": Suite(
        _SCALED_PAIR, ("tsvd-dmd", "dmd"),
        dict(n_grid=(2500, 5000, 10000, 20000), p=500, q_grid=(0.1,), trials=10),
        slope=-0.5, masked=True,
    ),
    "amuse-compare": Suite(
        _SCALED_PAIR, ("dmd", "amuse"),
        dict(n_grid=(1000, 2000, 4000, 8000, 16000), p=500, trials=10), slope=-1.0,
    ),
    "changepoint": Suite(
        {"": _changepoint_suite_model}, ("dmf",), dict(n_grid=(1000,), seed=1), k=4, p=4
    ),
    "eigenwalker": Suite(
        {"": lambda cfg, n, trial: eigenwalker_model(n)}, ("dmd", "pca"),
        dict(n_grid=(1000,)), p=3,
    ),
}

SUITES = tuple(SUITE_TABLE)


def run_experiment(cfg):
    """Run one suite and return its records in deterministic cell order.

    Cells run in (tag, n, q, trial) order.  Writes the records as CSV when
    ``cfg.out_path`` is set.  All randomness is derived from ``cfg.seed``
    via :func:`derive_seed`, so identical configs produce identical error
    fields.  ``wall_ms`` spans one method's fit at one lag and its
    scoring; a method that fits every lag from one reduction of the cell's
    data (``dmd``) charges that reduction to the first lag's record.
    """
    cfg.validate()
    row = SUITE_TABLE[cfg.suite]
    cells = itertools.product(row.models, cfg.n_grid, cfg.q_grid, range(cfg.trials))
    records = []
    for tag, n, q, trial in cells:
        model = row.models[tag](cfg, n, trial)
        X = model.X
        if row.masked:
            mask_seed = derive_seed(cfg.seed, cfg.suite, "mask", n, q, trial)
            X = signals.apply_mask(X, signals.MaskSpec(q=q, seed=mask_seed))
        fits = {m: _METHODS[m](X, q, cfg.tau_list, cfg.k) for m in row.methods}
        for tau in cfg.tau_list:
            for method in row.methods:
                t0 = time.perf_counter()
                scores = _score(model, tau, *next(fits[method]))
                wall_ms = int(round((time.perf_counter() - t0) * 1000.0))
                records.append(
                    ExperimentRecord(
                        cfg.suite, n, cfg.p, cfg.k, tau, q, trial, method + tag,
                        *scores, wall_ms,
                    )
                )
    if cfg.out_path:
        write_records(records, cfg.out_path)
    return records


def write_records(records, path):
    """Write records as CSV with :func:`write_csv`."""
    write_csv(path, RECORD_FIELDS, [astuple(rec) for rec in records])


def write_csv(path, header, rows):
    """Write ``rows`` (a list or an array) under the ``header`` names as
    CSV: strings as they are, numbers with 17 significant digits, which
    round-trip float64 exactly.  The first row sets each column's kind."""
    kinds = ["%s" if isinstance(v, str) else "%.17g" for row in rows[:1] for v in row]
    flat = rows.ravel().tolist() if isinstance(rows, np.ndarray) else itertools.chain(*rows)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((",".join(kinds) + "\n") * len(rows) % tuple(flat))


def numbered_lines(path):
    """Yield ``(line number, line)`` of a UTF-8 text file; bytes that are
    not UTF-8 raise a ``ValueError`` naming their line."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            for line_no, raw in enumerate(fh.read().splitlines(), start=1):
                if raw.decode(errors="replace").encode() != raw:
                    raise ValueError(f"{path} line {line_no}: not UTF-8 text") from None
        raise


# smallest value of each integer field a record may hold; q lies in (0, 1]
_FIELD_MINIMUMS = {"n": 1, "p": 1, "k": 1, "tau": 1, "trial": 0, "wall_ms": 0}


def read_records(path):
    """Read a records CSV written by :func:`write_records`.

    A header other than ``RECORD_FIELDS``, or a row that does not parse,
    names a suite not in ``SUITE_TABLE`` or holds an out-of-range value,
    raises a ``ValueError`` naming its line.
    """
    lines = [(no, ln.strip()) for no, ln in numbered_lines(path) if ln.strip()]
    if not lines:
        raise ValueError(f"records file {path} is empty")
    header_no, header = lines[0][0], lines[0][1].split(",")
    if header != list(RECORD_FIELDS):
        missing = [name for name in RECORD_FIELDS if name not in header]
        unexpected = [name for name in header if name not in RECORD_FIELDS]
        raise ValueError(
            f"records file {path} line {header_no}: header is not "
            f"{','.join(RECORD_FIELDS)!r}: missing columns {missing}, "
            f"unexpected columns {unexpected}"
        )
    records = []
    for line_no, line in lines[1:]:
        where = f"records file {path} line {line_no}"
        cells = line.split(",")
        if len(cells) != len(RECORD_FIELDS):
            raise ValueError(
                f"{where}: expected {len(RECORD_FIELDS)} cells, found {len(cells)}"
            )
        try:
            values = [f.type(raw) for f, raw in zip(fields(ExperimentRecord), cells)]
        except ValueError:
            raise ValueError(f"{where}: cannot parse {line!r}") from None
        rec = ExperimentRecord(*values)
        if rec.suite not in SUITE_TABLE:
            raise ValueError(f"{where}: unknown suite {rec.suite!r}")
        for name, low in _FIELD_MINIMUMS.items():
            value = getattr(rec, name)
            if value < low:
                raise ValueError(f"{where}: {name} must be >= {low}, got {value}")
        if not 0.0 < rec.q <= 1.0:
            raise ValueError(f"{where}: q must lie in (0, 1], got {rec.q}")
        records.append(rec)
    return records


def mean_errors(records, field="q_sq_error"):
    """Trial-averaged errors keyed by series and grid coordinate.

    Returns ``{(method, tau): {x_value: mean_error}}`` with the x-axis the
    record field that the suite's row names (``Suite.x``).
    """
    out = {}
    for rec in records:
        x = getattr(rec, SUITE_TABLE[rec.suite].x)
        key = (rec.method, rec.tau)
        out.setdefault(key, {}).setdefault(x, []).append(getattr(rec, field))
    return {
        key: {x: float(np.mean(v)) for x, v in sorted(cells.items())}
        for key, cells in out.items()
    }


def summarize(records):
    """Rate-fit summary block: one line per (method, tau, error kind)."""
    if not records:
        return "no records"
    lines = [f"suite {records[0].suite}: {len(records)} records"]
    for field in ("q_sq_error", "s_sq_error", "eig_sq_error"):
        for key, cells in sorted(mean_errors(records, field).items()):
            xs = [x for x, e in cells.items() if e > 0 and np.isfinite(e)]
            errs = [cells[x] for x in xs]
            if len(xs) < 4:
                continue
            slope, _, r2 = metrics.rate_fit(xs, errs)
            method, tau = key
            lines.append(
                f"  {field} method={method} tau={tau}: "
                f"slope={slope:+.3f} r2={r2:.3f} over {len(xs)} points"
            )
    return "\n".join(lines)
