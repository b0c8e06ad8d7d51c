"""Closed-form predictor of correlation-boundary risk.

For a balanced design with N clusters of size s, true correlation rho and
error-to-random-effect variance ratio r = sigma2_e / sigma2_r, the functions
here score how prone restricted-likelihood maximisation is to landing on the
boundary rho_hat = -1 (or +1): *smaller values mean higher risk*.  The -1
score is the slope at x = -1 of the restricted likelihood with equal
random-effect variances sigma2_c = sigma2_s = sigma2_r, sigma2_e = r sigma2_r
and correlation x, profiled over sigma2_r:

    -(N-1)/2 log det F(x) - (Ns-2)/2 log(rss/r + tr(F(x)^-1 t_outer)),

up to terms free of x, where F(x) = [[s + r, sqrt(s q) x], [sqrt(s q) x,
q + r]].  It is evaluated at the expected sufficient statistics under
sigma2_r = 1: E rss = N(s-2) r and E t_outer = (N-1)(D Sigma D + r I), with
D = diag(sqrt s, sqrt q) and Sigma = [[1, rho], [rho, 1]] for the true rho.
The +1 score is the inward slope at x = +1, which by mirror symmetry is the
-1 score at -rho.  The score is positive for all valid inputs, decreasing in
r, increasing in N and s, and tends to zero as rho approaches the boundary
being scored or as r grows without bound.

Two algebraic variants circulate.  The default uses
(1 + r/s)(1 + r/q) - 1 as the leading denominator, which is the form the
reference tables reproduced by this package's tests are consistent with;
``as_printed=True`` keeps the variant without the trailing "- 1" for
comparison.  One evaluator computes the score, in log space: a sum of logs
of factors that no valid input overflows, so log10 is finite for every valid
input.  The direct score is 10 raised to it, inf or 0 outside float range.
All functions accept scalars or numpy arrays.
"""

from __future__ import annotations

import numpy as np

from .model_system import philox, write_csv


def _validate_arrays(n, s, rho, r):
    n = np.asarray(n)
    s = np.asarray(s)
    rho = np.asarray(rho, dtype=float)
    r = np.asarray(r, dtype=float)
    if not np.all(n >= 2):
        raise ValueError("n_clusters must be >= 2")
    if not (np.all(s >= 3) and np.all(s % 2 == 1)):
        raise ValueError("cluster size must be odd and >= 3")
    if not (np.all(rho > -1.0) and np.all(rho < 1.0)):
        raise ValueError("rho must lie strictly inside (-1, 1)")
    if not (np.all(r > 0) and np.all(np.isfinite(r))):
        raise ValueError("variance ratio r must be positive and finite")
    return n, s, rho, r


def _grid_q(s):
    m = (np.asarray(s) - 1) // 2
    return (2 * m * m + 3 * m + 1) / (3.0 * m)


def _log10_score(n_clusters, cluster_size, rho, r, as_printed, mirror):
    """log10 of the -1 score, taken at -rho for the +1 score when ``mirror``."""
    n, s, rho, r = _validate_arrays(n_clusters, cluster_size, rho, r)
    rho = -rho if mirror else rho
    q = _grid_q(s)
    c1 = (n - 1) / (n * (s - 2.0))
    ratio = (n * s - 2.0) / (n * s - n - 1.0)
    # (1 + rho)/((1 + r/s)(1 + r/q) - 1) with the denominator factored as
    # r (s + q + r)/(s q); as r -> 0 it overflows to inf, the bracket's limit 1
    with np.errstate(over="ignore"):
        w = (1.0 + rho) * (s / r) * q / (q + s + r)
    bracket = 1.0 - ratio * (1.0 - c1 * rho) / (1.0 + 2.0 * c1 * (1.0 + w))
    log_lead = (np.log10(s + r) + np.log10(q + r) if as_printed  # (s + r)(q + r)/(s q)
                else np.log10(r) + np.log10(s + q + r))
    out = np.log10(n * s - n - 1.0) - (log_lead - np.log10(s * q)) + np.log10(bracket)
    return float(out) if np.ndim(out) == 0 else out


def _score(log10_score):
    with np.errstate(over="ignore"):  # past float range the score is inf or 0
        out = np.power(10.0, log10_score)
    return float(out) if np.ndim(out) == 0 else out


def predictor_minus_one(n_clusters, cluster_size, rho, r, as_printed=False):
    """Boundary-risk score for rho_hat = -1.  Small values mean high risk."""
    return _score(log10_predictor_minus_one(n_clusters, cluster_size, rho, r, as_printed))


def predictor_plus_one(n_clusters, cluster_size, rho, r, as_printed=False):
    """Boundary-risk score for rho_hat = +1: the -1 score at mirrored rho."""
    return _score(log10_predictor_plus_one(n_clusters, cluster_size, rho, r, as_printed))


def log10_predictor_minus_one(n_clusters, cluster_size, rho, r, as_printed=False):
    """log10 of the -1 score, finite for every valid input."""
    return _log10_score(n_clusters, cluster_size, rho, r, as_printed, mirror=False)


def log10_predictor_plus_one(n_clusters, cluster_size, rho, r, as_printed=False):
    """log10 of the +1 score."""
    return _log10_score(n_clusters, cluster_size, rho, r, as_printed, mirror=True)


# ---------------------------------------------------------------------------
# Random sweep over design grids
# ---------------------------------------------------------------------------

DEFAULT_SWEEP_GRIDS = {
    "n_clusters": tuple(range(50, 1051, 100)),
    "cluster_size": tuple(range(5, 106, 10)),
    "rho": tuple(-(9 - k) / 10 for k in range(9)),  # -0.9 .. -0.1
    "log10_r": tuple((2 * k - 10) / 5 for k in range(11)),  # -2 .. 2 step 0.4
}


def predictor_sweep(seed, n_draws=1000):
    """Score both boundaries at uniformly drawn settings of DEFAULT_SWEEP_GRIDS.

    Each draw picks one level per factor, independently and uniformly, from
    the stream of ``seed`` (``model_system.philox``).  Returns a column
    table: draw, n_clusters, cluster_size, rho, log10_r, log10_pred_m1,
    log10_pred_p1.
    """
    rng = philox(seed)
    n, s, rho, log10_r = (np.array(levels)[rng.integers(0, len(levels), n_draws)]
                          for levels in DEFAULT_SWEEP_GRIDS.values())
    r = 10.0 ** log10_r
    return {
        "draw": np.arange(1, n_draws + 1),
        "n_clusters": n,
        "cluster_size": s,
        "rho": rho,
        "log10_r": log10_r,
        "log10_pred_m1": log10_predictor_minus_one(n, s, rho, r),
        "log10_pred_p1": log10_predictor_plus_one(n, s, rho, r),
    }


def write_sweep_csv(table, path):
    """Write a sweep table (numpy columns, as ``predictor_sweep`` returns) at full precision."""
    write_csv(path, list(table), zip(*(column.tolist() for column in table.values())))
