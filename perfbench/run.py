"""Run one benchmark workload of dmdsep and print its metrics.

    python3 perfbench/run.py --workload arma-long [--seed 1] [--seconds 12] [--trace 0]

Run from the root of the repository.  The program is imported from
``src/``; nothing needs building.  The workload runs in a process of its
own (``worker.py``) with the BLAS pinned to one thread.  With ``--trace 0``
the last line printed is a JSON object holding every end-to-end metric
named in ``BENCHMARK.json``; with ``--trace 1`` it holds every per-layer
metric.  The lines before it give each metric with its unit and the
machine the run was made on.  See ``perfbench/README.md``.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = ROOT / ".perfbench_out"
WORKLOADS = ("arma-long", "masked-wide", "cosine-short", "unmix-csv")
DEFAULT_SEED = 1
BLAS_THREADS = "1"
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
TIME_LIMIT_S = 170
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10

IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import dmdsep; "
    "print(time.perf_counter() - t)"
)
_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)$")


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _python(args, env, timeout):
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        check=True,
    )


def fresh_import_s(env):
    """Wall time of ``import dmdsep`` in a new interpreter."""
    out = _python(["-c", IMPORT_SNIPPET], env, 60).stdout
    return float(out.split()[-1])


def import_breakdown(env):
    """Seconds of ``import dmdsep`` under each of its modules, from a fresh
    ``python -X importtime`` process.

    Every imported module's self time is charged to its nearest enclosing
    ``dmdsep.<module>`` import, so a third-party package counts against the
    module that first pulls it in (``scipy.signal`` under ``signals``).
    """
    stderr = _python(["-X", "importtime", "-c", "import dmdsep"], env, 60).stderr
    entries = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((int(m.group(1)), (len(m.group(3)) - 1) // 2, m.group(4)))
    out = defaultdict(float)
    path = []
    # importtime prints children before parents; walked backwards, every
    # module comes after its ancestors
    for self_us, depth, name in reversed(entries):
        del path[depth:]
        path.append(name)
        for ancestor in reversed(path):
            if ancestor.startswith("dmdsep."):
                out[ancestor.split(".")[1]] += self_us / 1e6
                break
    return out


def commit():
    """The git commit of the checkout, or None outside a git repository."""
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    return out.stdout.strip() or None


def tail(values):
    """``(percentile, value)`` for the highest of TAIL_PERCENTILES (nearest
    rank) with at least TAIL_BEYOND values beyond it; ``(None, median)``
    when there are too few values for any."""
    xs = sorted(values)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * len(xs))
        if len(xs) - rank >= TAIL_BEYOND:
            return pct, xs[rank - 1]
    return None, statistics.median(xs)


def end_to_end(res, setup):
    durations_ms = [s * 1000 for s in res["durations_s"]]
    n = len(durations_ms)
    pct, tail_ms = tail(durations_ms)
    panel = res["panel_errors"]
    timed = res["timed_errors"]
    notes = {
        "setup_s": f"median of {len(setup)} fresh-process imports of dmdsep",
        "ops_per_s": f"{n} ops in {sum(res['durations_s']):.2f} s of op time",
        "op_ms_p50": f"median of {n} ops",
        "op_ms_tail": f"p{pct} of {n} ops" if pct else
        f"median of {n} ops: no percentile has {TAIL_BEYOND} ops beyond it",
        "peak_rss_mb": "maximum RSS of the workload process",
        "ok_frac": f"fail_frac {res['failed'] / res['attempted']:.4g}: "
        f"{res['failed']} of {res['attempted']} ops failed",
    }
    for key in ("q_err_med", "s_err_med", "eig_err_med"):
        notes[key] = (
            f"median over the {res['panel_ops']} reference-panel ops; "
            f"over the {res['timed_error_ops']} timed ops: {timed[key]:.6g}"
            if timed[key] is not None
            else f"median over the {res['panel_ops']} reference-panel ops"
        )
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": n / sum(res["durations_s"]),
        "op_ms_p50": statistics.median(durations_ms),
        "op_ms_tail": tail_ms,
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": 1.0 - res["failed"] / res["attempted"],
        **{key: panel[key] for key in ("q_err_med", "s_err_med", "eig_err_med")},
    }
    return values, notes


def per_layer(res, imports):
    values = dict(res["layers"])
    for layer, seconds in imports.items():
        values[f"{layer}.import_s"] = seconds
    notes = {
        "trace.overhead_frac": "median traced op over median untraced op, minus 1",
        "linalg.svd.in_mb": "computed from argument shapes, per op",
        "linalg.eig_nonsymmetric.max_n": "computed from argument shapes",
    }
    return values, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dmdsep" / "__init__.py").is_file():
        print(f"error: no dmdsep package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = perf_counter()
    env = child_env()
    WORKDIR.mkdir(exist_ok=True)

    if args.trace:
        runs = [import_breakdown(env) for _ in range(IMPORTTIME_RUNS)]
        imports = {m: statistics.median(r.get(m, 0.0) for r in runs) for m in runs[0]}
    else:
        setup = [fresh_import_s(env) for _ in range(SETUP_RUNS)]

    result_path = WORKDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(WORKDIR),
        "--result", str(result_path),
    ]  # fmt: skip
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            timeout=TIME_LIMIT_S - (perf_counter() - started),
        )
    except subprocess.TimeoutExpired:
        print("error: the workload process ran out of time", file=sys.stderr)
        return 3
    finally:
        for path in WORKDIR.glob("*.csv"):
            path.unlink()
    if proc.returncode != 0:
        print(f"error: the workload process exited with {proc.returncode}", file=sys.stderr)
        return 3
    res = json.loads(result_path.read_text())
    res["machine"]["commit"] = commit()
    for message in res["failures"]:
        print(f"failed: {message}", file=sys.stderr)

    if args.trace:
        values, notes = per_layer(res, imports)
        wanted = spec["per_layer"]
        listed = {m["name"] for m in wanted}
        # functions a later change adds still show, outside the JSON line
        for name in sorted(set(values) - listed):
            print(f"# unlisted  {name} {values[name]:.6g}")
    else:
        values, notes = end_to_end(res, setup)
        wanted = spec["end_to_end"]
    print(
        f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
        f"trace {args.trace}"
    )
    print(f"# machine {json.dumps(res['machine'])}")
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            if not args.trace:
                print(f"error: no value for {m['name']}", file=sys.stderr)
                return 3
            value = 0.0  # a layer function this workload never calls
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
        note = notes.get(m["name"])
        print(f"{m['name']:<40} {value:>14.6g} {m['unit']:<14}" + (f" {note}" if note else ""))
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
