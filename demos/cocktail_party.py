"""Cocktail-party unmixing end to end through the CSV interface.

Two synthetic multitone "recordings" (a two-tone siren stand-in and a
small harmonic stack) are mixed by a non-orthogonal 2x2 matrix, written
as a time-major CSV, and unmixed with the command-line pipeline.  Their
distinct lag-1 autocorrelations are all the estimator needs.
"""

import os
import tempfile

import numpy as np

from dmdsep.cli import unmix_csv
from dmdsep.experiments import AUDIO_DEMO_Q
from dmdsep.metrics import s_error
from dmdsep.signals import assemble, natural_scales

n = 50000
t = np.arange(1, n + 1)
siren = np.cos(0.3 * t) + 0.4 * np.cos(1.3 * t + 1.0)
melody = np.cos(0.8 * t + 0.5) + 0.4 * np.cos(2.2 * t + 2.0)
C_raw = np.column_stack([siren, melody])
model = assemble(AUDIO_DEMO_Q, natural_scales(C_raw), C_raw)

with tempfile.TemporaryDirectory(prefix="cocktail_") as workdir:
    mix_path = os.path.join(workdir, "mixture.csv")
    with open(mix_path, "w") as fh:
        for row in model.X.T:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
    print(f"wrote 2-channel mixture: {mix_path}")

    paths = unmix_csv(mix_path, os.path.join(workdir, "unmixed"), tau=1, k=2)
    for path in paths:
        print(f"wrote {path}")

    sources = np.loadtxt(paths[0], delimiter=",", skiprows=1)
S_hat = sources - sources.mean(axis=0)
S_hat /= np.linalg.norm(S_hat, axis=0)
print(f"\naligned squared unmixing error: {s_error(S_hat, model.S):.3e}")
