"""Write ``reference.json``: the scored error rows of every workload's
reference panel, on the default seed.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the estimates: the
benchmark fails any op that drifts from these rows by more than the
tolerance in ``worker.py``.
"""

import json
import os
import sys
from pathlib import Path

from run import DEFAULT_SEED, WORKDIR, child_env

os.environ.update(child_env())  # pin the BLAS before numpy loads

from worker import Tally  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main():
    refs = {}
    WORKDIR.mkdir(exist_ok=True)
    for name, wl in WORKLOADS.items():
        prepared = wl.prepare(DEFAULT_SEED, WORKDIR)
        tally = Tally(wl)
        rows = [tally.run(prepared, i, None)[1] for i in range(wl.panel_ops)]
        if tally.failures:
            raise SystemExit(f"{name}: {tally.failures}")
        refs[name] = [[list(row) for row in op_rows] for op_rows in rows]
        print(f"{name}: {wl.panel_ops} panel ops")
    for path in WORKDIR.glob("*.csv"):
        path.unlink()
    with open(Path(__file__).resolve().parent / "reference.json", "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
