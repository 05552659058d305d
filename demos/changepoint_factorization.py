"""Changepoint localization through the mean-aware factorization.

Four latent signals each switch on or off halfway through the record;
mixed through a non-orthogonal 4x4 matrix, the switches are invisible in
any single observed channel.  Factoring X ~= Q_hat C_hat^T separates the
sources, and each recovered coordinate goes quiet on its structurally
silent half, exposing the changepoints.
"""

import numpy as np

from dmdsep.dmd import dmf
from dmdsep.experiments import changepoint_model, default_config, derive_seed
from dmdsep.metrics import align_columns

cfg = default_config("changepoint")
seed = derive_seed(cfg.seed, "changepoint", "signal", 1000, 0)
model, zero_masks = changepoint_model(1000, seed)

fac = dmf(model.X, tau=1, k=4)
q_err = align_columns(fac.Q_hat.astype(complex), model.Q).total_sq_error
C = fac.C_hat.real - fac.C_hat.real.mean(axis=0)
S_hat = C / np.linalg.norm(C, axis=0)
align = align_columns(S_hat.astype(complex), model.S)
print(f"aligned squared mixing error: {q_err:.4f}")
print(f"aligned squared signal error: {align.total_sq_error:.4f}")

print("\nper-source RMS on the silent half vs the active half:")
for i in range(4):
    est = S_hat[:, align.perm[i]]
    silent = zero_masks[:, i]
    rms_silent = np.sqrt(np.mean(est[silent] ** 2))
    rms_active = np.sqrt(np.mean(est[~silent] ** 2))
    half = "first" if silent[0] else "second"
    print(
        f"  source {i} (silent {half} half): "
        f"{rms_silent:.4f} vs {rms_active:.4f} (ratio {rms_silent / rms_active:.3f})"
    )
print("\nlow ratios mean the recovered sources shut off where the truth does.")
