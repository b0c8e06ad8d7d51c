"""Print a bitwise digest of a fixed corpus of general-engine fits.

    python3 tools/fit_digest.py > digest.txt

Runs ``fit_general`` on three fixed sets of data, using the ``src/`` of the
checkout it lives in, and prints one line per fit: a label, ``converged``,
``n_evals``, then ``float.hex`` of log_rl, sigma2_e, sigma2_c, sigma2_s,
rho and each entry of beta.  A fit that raises prints the exception's type
and message in place of those fields.  The sets are:

- ``catalog``: replicate 0 of each of the 50 catalog settings at master seed
  20260825, simulated with zero fixed effects and viewed through
  ``GeneralDataset.from_balanced``;
- ``random``: 400 random unbalanced designs from one generator at seed 99
  (4-59 clusters of 1-8 rows, x uniform on [-1, 1], log-uniform variances,
  uniform rho, every fifth design with a third fixed-effect column);
- ``surrogate``: ``phi_sweep(make_surrogate(seed), default_phi_grid(1.0,
  4.0, 0.1))`` for seeds 0-39, each sweep's baseline fit first, then its
  31 refits.  Before each sweep one ``data`` line gives the sha256 of the
  surrogate's columns and of its ``to_general()`` arrays.

Run it on two checkouts and ``diff`` the outputs: an empty diff means every
fit, and every surrogate dataset, is bitwise the same.
"""

from __future__ import annotations

import hashlib
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from remlab import (FixedEffects, GeneralDataset, VarianceParams, derive_seed,  # noqa: E402
                    experiment_catalog, fit_general, invivo, simulate)

MASTER_SEED = 20260825
RANDOM_SEED = 99
N_RANDOM = 400
SURROGATE_SEEDS = range(40)


def digest(label, fit):
    p = fit.params
    floats = [fit.log_rl, p.sigma2_e, p.sigma2_c, p.sigma2_s, p.rho, *fit.beta]
    return " ".join([label, fit.classification.value, str(fit.converged), str(fit.n_evals),
                     *(float(v).hex() for v in floats)])


def fit_line(label, data):
    try:
        return digest(label, fit_general(data))
    except Exception as exc:  # noqa: BLE001 - the error is part of the digest
        return f"{label} {type(exc).__name__}: {exc}"


def random_design(rng, k):
    """Design k of the random set; draws from rng in a fixed order."""
    n_clusters = int(rng.integers(4, 60))
    sizes = rng.integers(1, 9, size=n_clusters)
    s2e, s2c, s2s = 10.0 ** rng.uniform(-1.0, 1.0, size=3)
    vp = VarianceParams(s2e, s2c, s2s, float(rng.uniform(-0.95, 0.95)))
    n = int(sizes.sum())
    x = rng.uniform(-1.0, 1.0, size=n)
    u = rng.standard_normal((n_clusters, 2)) @ vp.sigma_cholesky().T
    cluster = np.repeat(np.arange(n_clusters), sizes)
    y = 1.5 + u[cluster, 0] + (0.5 + u[cluster, 1]) * x + np.sqrt(s2e) * rng.standard_normal(n)
    columns = [np.ones(n), x]
    if k % 5 == 4:
        columns.append(rng.standard_normal(n))
    return GeneralDataset(x=x, X=np.column_stack(columns), y=y, sizes=sizes)


def sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def main():
    for st in experiment_catalog():
        data = simulate(st.design, FixedEffects(), st.variance_params,
                        derive_seed(MASTER_SEED, st.id, 0))
        print(fit_line(f"catalog {st.id}", GeneralDataset.from_balanced(data)))

    rng = np.random.default_rng(RANDOM_SEED)
    for k in range(N_RANDOM):
        print(fit_line(f"random {k}", random_design(rng, k)))

    fit_general_of_invivo = invivo.fit_general
    phis = invivo.default_phi_grid(1.0, 4.0, 0.1)
    for seed in SURROGATE_SEEDS:
        data = invivo.make_surrogate(seed)
        gen = data.to_general()
        columns = (data.state.astype("U"), data.premium, data.families,
                   data.exp_per_admission, data.new_england)
        print(f"data {seed} {sha(*columns)} {sha(gen.x, gen.X, gen.y, gen.sizes)}")
        fits = []

        def recorded(*args, **kwargs):
            fits.append(fit_general_of_invivo(*args, **kwargs))
            return fits[-1]

        invivo.fit_general = recorded
        try:
            invivo.phi_sweep(data, phis)
        finally:
            invivo.fit_general = fit_general_of_invivo
        for phi, fit in zip([1.0, *phis], fits):
            print(digest(f"surrogate {seed} {phi!r}", fit))


if __name__ == "__main__":
    main()
