"""Missing data: rank-k SVD fill-in before fitting the propagator.

Entries are observed independently with probability q and zeroed
otherwise.  Fitting the propagator on the masked matrix directly is
hopeless; reconstructing a rank-2 surrogate first recovers the mixing
directions to a few percent even at 20% observation.
"""

import warnings

import numpy as np

from dmdsep.dmd import dmd_fit, tsvd_dmd_fit
from dmdsep.metrics import align_columns
from dmdsep.signals import (
    CosineSpec,
    MaskSpec,
    apply_mask,
    assemble,
    gen_cosines,
    random_unit_columns,
)

p, n, k = 500, 10000, 2
Q = random_unit_columns(p, k, seed=12)
model = assemble(Q, np.array([2.0, 1.0]), gen_cosines(CosineSpec(omegas=(0.25, 2.0)), n))

for q in (0.5, 0.2):
    X_masked = apply_mask(model.X, MaskSpec(q=q, seed=12))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # masked junk modes may be complex
        filled = tsvd_dmd_fit(X_masked, q, tau=1, k=k)
        plain = dmd_fit(X_masked, tau=1, k=k)
    err_filled = align_columns(filled.eig.vectors, model.Q).total_sq_error
    err_plain = align_columns(plain.eig.vectors, model.Q).total_sq_error
    print(
        f"q={q}: fill-in error {err_filled:.4f}  plain error {err_plain:.4f}  "
        f"(ratio {err_filled / err_plain:.3f})"
    )
