"""Choosing the lag: AR(2) mixtures unmix better at lag 2 than lag 1.

The two AR(2) processes below have lag-1 autocorrelations 0.667 and
0.600 (separation 0.067) but lag-2 autocorrelations 0.833 and 0.680
(separation 0.153).  The eigengap of the propagator is exactly that
separation, so the lag-2 fit is markedly more accurate.
"""

import numpy as np

from dmdsep.dmd import dmd_fits
from dmdsep.lagstats import ar_theoretical_acf
from dmdsep.metrics import align_columns
from dmdsep.signals import ArmaSpec, assemble, gen_arma, random_unit_columns

specs = (ArmaSpec(ar_coeffs=(0.2, 0.7)), ArmaSpec(ar_coeffs=(0.3, 0.5)))
for i, spec in enumerate(specs):
    rho = ar_theoretical_acf(spec.ar_coeffs, 2)
    print(f"source {i}: coeffs {spec.ar_coeffs}  rho(1)={rho[1]:.4f}  rho(2)={rho[2]:.4f}")

p, n, trials = 100, 20000, 10
errors = {1: [], 2: []}
for trial in range(trials):
    Q = random_unit_columns(p, 2, seed=trial)
    cols = [gen_arma(spec, n, seed=1000 * trial + i) for i, spec in enumerate(specs)]
    model = assemble(Q, np.ones(2), np.column_stack(cols))
    for fit in dmd_fits(model.X, (1, 2), 2):  # one reduction of the data serves both lags
        errors[fit.tau].append(align_columns(fit.eig.vectors, model.Q).total_sq_error)

for tau in (1, 2):
    print(f"lag {tau}: mean aligned squared mixing error {np.mean(errors[tau]):.5f}")
print("higher separation at lag 2 buys roughly an order of magnitude.")
