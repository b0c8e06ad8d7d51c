"""Closed-form global maximiser of the balanced restricted likelihood.

For balanced data the restricted likelihood depends on the data only through
rss and the 2x2 contrast matrix T = t_outer, and its maximiser over the closed
parameter space has a closed form by eigenvalue truncation (Anderson,
Anderson & Olkin 1986, Ann. Statist. 14:405; Amemiya 1985, Amer. Statist.
39:112).  With dfw = N(s-2), dfb = N-1, D = diag(sqrt(s), sqrt(q)) and the
eigenvalues l1 >= l2 of T:

* s2e = rss/dfw.  If l2/dfb >= s2e, D Sigma D = T/dfb - s2e I is interior.
* Otherwise s2e = (rss + l2)/(dfw + dfb) and D Sigma D = w v1 v1' with
  w = l1/dfb - s2e and v1 the top eigenvector of T: a rho = +/-1 fit.
* If w <= 0, both variances are zero and s2e = (rss + l1 + l2)/(N s - 2).

The benchmark scores this point with the package's own
``log_restricted_likelihood`` and counts a fit as suboptimal when its log_rl
is more than 1e-6 below it.
"""

from __future__ import annotations

import math

from remlab import VarianceParams, log_restricted_likelihood


def closed_form_params(ss):
    """Return the VarianceParams that maximise the restricted likelihood."""
    design = ss.design
    n, s, q = design.n_clusters, design.cluster_size, design.q
    dfw, dfb = n * (s - 2), n - 1
    a, b, c = float(ss.t_outer[0, 0]), float(ss.t_outer[0, 1]), float(ss.t_outer[1, 1])
    half_gap = math.hypot((a - c) / 2.0, b)
    l1, l2 = (a + c) / 2.0 + half_gap, (a + c) / 2.0 - half_gap
    sqrt_sq = math.sqrt(s * q)

    s2e = ss.rss / dfw
    if l2 / dfb >= s2e:
        s2c = (a / dfb - s2e) / s
        s2s = (c / dfb - s2e) / q
        denom = math.sqrt(s2c * s2s)
        rho = min(max(b / dfb / sqrt_sq / denom, -1.0), 1.0) if denom > 0 else 0.0
        return VarianceParams(s2e, s2c, s2s, rho)

    s2e = (ss.rss + l2) / (dfw + dfb)
    w = l1 / dfb - s2e
    if w <= 0.0:
        return VarianceParams((ss.rss + l1 + l2) / (n * s - 2), 0.0, 0.0, 0.0)
    # top eigenvector of T; of the two equivalent forms take the better scaled
    u1, u2 = (l1 - c, b), (b, l1 - a)
    v0, v1 = u1 if math.hypot(*u1) >= math.hypot(*u2) else u2
    norm = math.hypot(v0, v1)
    if norm == 0.0:  # T is a multiple of I: any direction is a top one
        v0, v1, norm = 1.0, 0.0, 1.0
    v0, v1 = v0 / norm, v1 / norm
    rho = math.copysign(1.0, v0 * v1) if v0 * v1 != 0.0 else 0.0
    return VarianceParams(s2e, w * v0 * v0 / s, w * v1 * v1 / q, rho)


def closed_form_log_rl(ss):
    """Maximum of ``log_restricted_likelihood`` over the parameter space."""
    return log_restricted_likelihood(ss, closed_form_params(ss))
