"""The workload process: one workload, started by ``run.py``.

Phases, in order:

1. Panel.  ``panel_ops`` ops on inputs from the default seed, whatever
   ``--seed`` is.  They warm the process up, their scored records are
   compared with the stored reference records, and they give the error
   medians, which are therefore the same on every run of unchanged code.
2. Timed loop.  Ops on inputs from ``--seed`` until ``--seconds`` have
   passed.  Every op's output is checked for shape and finite values.  On
   the default seed, an op whose inputs a panel op shares (the first
   ``panel_ops`` ops; every op of ``unmix-csv``) is also compared with
   that panel op's reference records.
   With ``--trace 1`` every second op runs with the layer functions
   wrapped (see ``tracing.py``), so that a slow drift in the machine's
   speed reaches traced and untraced ops alike.

The result is written as JSON to ``--result``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# Tolerance for the scored records' error columns against the reference
# records: tight enough to catch a changed estimate, loose enough for a
# different but exact factorization of the same matrices.  Unscored records
# (plain dmd on masked data, whose top modes are picked from nearly tied
# noise eigenvalues) get only the shape and finite checks.  The absolute
# floor only covers rounding near zero: the smallest stored error is ~1e-9,
# so a larger floor would wave through relative changes in it.
REF_REL_TOL = 1e-6
REF_ABS_TOL = 1e-14
ERROR_KEYS = ("q_err_med", "s_err_med", "eig_err_med")
MAX_FAILURE_MESSAGES = 5

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import dmdsep  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402


def _matches(rows, reference):
    if len(rows) != len(reference):
        return False
    for row, ref in zip(rows, reference):
        if row[0] != ref[0]:
            return False
        for got, want in zip(row[1:], ref[1:]):
            if not math.isclose(got, want, rel_tol=REF_REL_TOL, abs_tol=REF_ABS_TOL):
                return False
    return True


def _op_errors(rows):
    """The op's (q, s, eig) errors summed over its scored records."""
    return [sum(col) for col in zip(*(row[1:] for row in rows))]


class Tally:
    """Op counts and failure messages of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []

    def run(self, prepared, i, reference):
        """Time and check one op.  Returns ``(seconds, scored rows or None)``."""
        wl = self.workload
        self.attempted += 1
        t0 = perf_counter()
        try:
            output = wl.op(prepared, i)
        except Exception as exc:  # any raising op counts as failed; the run goes on
            self.failures.append(f"op {i} raised {type(exc).__name__}: {exc}")
            return perf_counter() - t0, None
        seconds = perf_counter() - t0
        try:
            rows = wl.check(output)
        except (CheckFailed, ValueError, OSError) as exc:
            self.failures.append(f"op {i}: {exc}")
            return seconds, None
        scored = [row for row in rows if row[0] in wl.scored]
        if reference is not None and not _matches(scored, reference):
            self.failures.append(f"op {i}: errors {scored} differ from reference {reference}")
            return seconds, None
        return seconds, scored

    def loop(self, prepared, seconds, references, tracer=None):
        """Run ops until ``seconds`` have passed, odd ones traced when a
        tracer is given.  Returns (untraced durations, traced durations,
        op errors); the untraced list holds at least one op, and so does
        the traced one when there is a tracer."""
        durations, errors = ([], []), []
        min_ops = 1 if tracer is None else 2
        deadline = perf_counter() + seconds
        i = 0
        while perf_counter() < deadline or i < min_ops:
            traced = tracer is not None and i % 2 == 1
            key = self.workload.panel_index(i)
            reference = references[key] if key < len(references) else None
            if traced:
                tracer.op = i
                tracer.install()
            try:
                seconds_i, rows = self.run(prepared, i, reference)
            finally:
                if traced:
                    tracer.uninstall()
            durations[traced].append(seconds_i)
            if rows is not None:
                errors.append(_op_errors(rows))
            i += 1
        return durations[0], durations[1], errors


def _medians(errors):
    if not errors:
        return {key: None for key in ERROR_KEYS}
    return {key: statistics.median(col) for key, col in zip(ERROR_KEYS, zip(*errors))}


def _src_sha256():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "src_sha256": _src_sha256(),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(dmdsep.__file__).resolve().parents:
        print(f"error: imported dmdsep from {dmdsep.__file__}, not {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    with open(Path(__file__).resolve().parent / "reference.json") as fh:
        refs = json.load(fh)[wl.name]
    if len(refs) != wl.panel_ops:
        print(
            f"error: reference.json holds {len(refs)} panel ops for {wl.name}, "
            f"the workload runs {wl.panel_ops}",
            file=sys.stderr,
        )
        return 2
    tally = Tally(wl)

    panel = wl.prepare(DEFAULT_SEED, args.workdir)
    panel_errors = []
    for i in range(wl.panel_ops):
        _, rows = tally.run(panel, i, refs[i])
        if rows is not None:
            panel_errors.append(_op_errors(rows))

    prepared = wl.prepare(args.seed, args.workdir)
    op_refs = refs if args.seed == DEFAULT_SEED else []
    result = {"machine": machine(args.seed), "panel_ops": wl.panel_ops}
    if args.trace:
        tracer = Tracer()
        untraced, traced, errors = tally.loop(prepared, args.seconds, op_refs, tracer)
        tracer.write(Path(args.workdir) / f"{wl.name}-seed{args.seed}-spans.jsonl")
        layers = tracer.summary(len(traced), sum(traced))
        layers["trace.ops"] = len(traced)
        layers["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0
        )
        result["layers"] = layers
        result["durations_s"] = traced
    else:
        durations, _, errors = tally.loop(prepared, args.seconds, op_refs)
        result["durations_s"] = durations
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["panel_errors"] = _medians(panel_errors)
    result["timed_errors"] = _medians(errors)
    result["timed_error_ops"] = len(errors)
    result["attempted"] = tally.attempted
    result["failed"] = len(tally.failures)
    result["failures"] = tally.failures[:MAX_FAILURE_MESSAGES]
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
