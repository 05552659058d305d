"""Run the cosine suite, summarize decay rates, and render the plots.

The suite sweeps the sample count for two frequency pairs, writes a
records CSV, prints the fitted log-log slopes, and emits SVG charts with
a 1/n reference guide.
"""

import os
import tempfile

from dmdsep.experiments import default_config, run_experiment, summarize
from dmdsep.plots import emit_plots

with tempfile.TemporaryDirectory(prefix="rates_") as workdir:
    cfg = default_config("cosine")
    cfg.out_path = os.path.join(workdir, "cosine_records.csv")

    records = run_experiment(cfg)
    print(summarize(records))
    print(f"\nwrote {len(records)} records to {cfg.out_path}")

    for path in emit_plots(cfg.out_path, os.path.join(workdir, "plots")):
        print(f"wrote {path}")
