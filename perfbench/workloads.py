"""The four benchmark workloads.

Each workload has three steps.  ``prepare(seed, workdir)`` builds what
every op of a phase shares (for ``unmix-csv``, the input CSVs).
``op(prepared, i)`` is the timed call into the package.  ``check(output)``
validates the op's output and returns its error rows, one
``(method, q_err, s_err, eig_err)`` per estimate; it raises
:class:`CheckFailed` on a wrong shape or a non-finite value.

Op ``i``'s inputs come from a seed derived from the workload seed and
``i`` (for ``unmix-csv``, from ``i`` modulo the number of files), so the
same seed gives the same inputs, and the reference panel, which runs the
first ops of the default seed, gives the reference for the first timed ops
of that seed too.  ``panel_index(i)`` is the panel op whose inputs op
``i`` shares.
"""

import contextlib
import hashlib
import io
import itertools
import os

import numpy as np
from scipy.signal import lfilter

from dmdsep import cli, experiments


class CheckFailed(Exception):
    """An op returned output of the wrong shape or with non-finite values."""


def derive_seed(*parts):
    tag = "|".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(tag, digest_size=8).digest(), "little")


def _finite(values, what):
    values = np.asarray(values)
    if not np.all(np.isfinite(values)):
        raise CheckFailed(f"non-finite values in {what}")


class SuiteCell:
    """One grid cell of a simulation suite, run through ``run_experiment``."""

    def __init__(self, name, suite, expected, scored, panel_ops, **grid):
        self.name = name
        self.suite = suite
        self.expected = expected  # [(method, tau)] in record order
        self.scored = scored  # methods whose errors count towards the op's error
        self.panel_ops = panel_ops
        self.grid = grid

    def prepare(self, seed, workdir):
        return seed

    def op(self, seed, i):
        cfg = experiments.ExperimentConfig(
            suite=self.suite,
            seed=derive_seed(seed, self.name, i),
            trials=1,
            **self.grid,
        )
        return experiments.run_experiment(cfg)

    def panel_index(self, i):
        return i

    def check(self, records):
        got = [(r.method, r.tau) for r in records]
        if got != self.expected:
            raise CheckFailed(f"records {got}, expected {self.expected}")
        rows = [(r.method, r.q_sq_error, r.s_sq_error, r.eig_sq_error) for r in records]
        _finite([row[1:] for row in rows], "record error columns")
        return rows


def _aligned_sq_error(est, truth):
    """Smallest total ``||u est_j - truth_i||^2`` over column permutations,
    with ``u`` the best unit-modulus factor per matched pair; estimate
    columns are unit-normalized first.  Returns ``(error, perm)``."""
    est = est / np.linalg.norm(est, axis=0)
    G = np.abs(truth.T @ est.conj())  # G[i, j] = |<est_j, truth_i>|
    k = truth.shape[1]
    perm = max(itertools.permutations(range(k)), key=lambda p: G[range(k), p].sum())
    # at the optimal phase, ||u e - t||^2 = 2 - 2 |<e, t>| for unit vectors
    return float(np.sum(2.0 - 2.0 * G[range(k), perm])), list(perm)


class UnmixCsv:
    """In-process ``dmdsep unmix --fill-missing`` on a generated CSV.

    Each of ``files`` inputs holds the arma suite's two AR(2) sources
    mixed into ``p`` channels, plus a nonzero mean per channel, with about
    ``blank`` of the cells left empty.  Op ``i`` reads file ``i % files``.
    """

    name = "unmix-csv"
    scored = ("dmf",)
    files = 3
    panel_ops = files
    n = 20000
    p = 64
    blank = 0.05
    digits = 8
    lag = 2

    def prepare(self, seed, workdir):
        return [self._write(seed, j, workdir) for j in range(self.files)]

    def _write(self, seed, j, workdir):
        rng = np.random.Generator(np.random.Philox(derive_seed(seed, self.name, j)))
        Q = rng.standard_normal((self.p, 2))
        Q /= np.linalg.norm(Q, axis=0)
        burn = 100
        cols = [
            lfilter([1.0], [1.0, -a1, -a2], rng.standard_normal(self.n + burn))[burn:]
            for a1, a2 in ((0.2, 0.7), (0.3, 0.5))
        ]
        S = np.column_stack(cols)
        S -= S.mean(axis=0)
        S /= np.linalg.norm(S, axis=0)
        mean = rng.standard_normal(self.p)
        data = (Q @ S.T).T * np.sqrt(self.n) + mean  # time-major, n x p
        blank = rng.random(data.shape) < self.blank
        path = os.path.join(workdir, f"{self.name}-seed{seed}-{j}.csv")
        fmt = f"%.{self.digits}g"
        with open(path, "w") as fh:
            for start in range(0, self.n, 1000):
                cells = np.char.mod(fmt, data[start : start + 1000])
                cells[blank[start : start + 1000]] = ""
                fh.write("\n".join(",".join(row) for row in cells.tolist()) + "\n")
        circular = S.T @ np.roll(S, -self.lag, axis=0)
        return {
            "csv": path,
            "prefix": os.path.join(workdir, f"{self.name}-seed{seed}-{j}-out"),
            "Q": Q,
            "S": S,
            "eig": np.diag(circular),
        }

    def op(self, prepared, i):
        inputs = prepared[self.panel_index(i)]
        argv = [
            "unmix",
            inputs["csv"],
            "--lag",
            str(self.lag),
            "--rank",
            "2",
            "--fill-missing",
            "--out-prefix",
            inputs["prefix"],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            return inputs, cli.main(argv)

    def panel_index(self, i):
        return i % self.files

    def check(self, output):
        inputs, code = output
        if code != 0:
            raise CheckFailed(f"dmdsep unmix exited with code {code}")
        prefix = inputs["prefix"]
        mixing = np.loadtxt(f"{prefix}_mixing.csv", delimiter=",", skiprows=1, ndmin=2)
        sources = np.loadtxt(f"{prefix}_sources.csv", delimiter=",", skiprows=1, ndmin=2)
        eig = np.loadtxt(f"{prefix}_eigvals.csv", delimiter=",", skiprows=1, ndmin=2)
        for what, arr, shape in (
            ("mixing", mixing, (self.p, 2)),
            ("sources", sources, (self.n, 2)),
            ("eigvals", eig, (2, 2)),
        ):
            if arr.shape != shape:
                raise CheckFailed(f"{what} has shape {arr.shape}, expected {shape}")
            _finite(arr, what)
        q_err, perm = _aligned_sq_error(mixing, inputs["Q"])
        centred = sources - sources.mean(axis=0)
        if np.any(np.linalg.norm(centred, axis=0) == 0.0):
            raise CheckFailed("a recovered source is constant")
        s_err, _ = _aligned_sq_error(centred, inputs["S"])
        values = eig[:, 0] + 1j * eig[:, 1]
        eig_err = float(np.sum(np.abs(inputs["eig"] - values[perm]) ** 2))
        return [("dmf", q_err, s_err, eig_err)]


WORKLOADS = {
    w.name: w
    for w in (
        SuiteCell(
            "arma-long",
            "arma",
            expected=[("dmd", 1), ("dmd", 2)],
            scored=("dmd",),
            panel_ops=9,
            n_grid=(31623,),
            p=100,
            k=2,
            tau_list=(1, 2),
        ),
        SuiteCell(
            "masked-wide",
            "missing-n",
            expected=[("tsvd-dmd", 1), ("dmd", 1)],
            # plain dmd on masked data is timed but kept out of the medians:
            # its errors sit near 2, and mixing them in makes a bimodal median
            scored=("tsvd-dmd",),
            panel_ops=7,
            n_grid=(5000,),
            p=500,
            k=2,
            q_grid=(0.1,),
        ),
        SuiteCell(
            "cosine-short",
            "cosine",
            expected=[("dmd(w2=0.5)", 1), ("dmd(w2=2.0)", 1)],
            scored=("dmd(w2=0.5)", "dmd(w2=2.0)"),
            panel_ops=21,
            n_grid=(500,),
            p=100,
            k=2,
        ),
        UnmixCsv(),
    )
}
