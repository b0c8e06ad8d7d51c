"""Reference implementations that the tests compare the package against.

Nothing in ``remlab`` uses these: the dense-matrix restricted likelihood
checks the closed-form and per-cluster engines, the exact sign test checks
the symmetry of the Monte Carlo boundary outcomes, the inflated datasets
are the data that ``phi_sweep`` refits, built on their own, and the exact
inward slope is the definition that the boundary-risk score evaluates.
"""

import math
from fractions import Fraction

import numpy as np

from remlab import ClusteredDataset, GeneralDataset, eblups, fit_general


def sigma_matrix(vp):
    """2x2 covariance of the random intercept/slope pair of VarianceParams vp."""
    sc = math.sqrt(vp.sigma2_c)
    ss = math.sqrt(vp.sigma2_s)
    off = vp.rho * sc * ss
    return np.array([[vp.sigma2_c, off], [off, vp.sigma2_s]])


def log_rl_dense_oracle(data, vp):
    """Textbook dense-matrix restricted likelihood, for validation only.

    Builds V = Z G Z' + sigma2_e I explicitly and returns
    -0.5 * (log det V + log det(X' V^-1 X) + y' P y).  This constant
    convention differs from ``log_restricted_likelihood`` by
    0.5 * log det(X'X), which does not depend on vp, so tests compare
    differences across parameter values rather than absolute values.
    """
    if vp.sigma2_e <= 0:
        raise ValueError("dense restricted likelihood requires sigma2_e > 0")
    if isinstance(data, ClusteredDataset):
        data = GeneralDataset.from_balanced(data)
    H = np.column_stack([np.ones_like(data.x), data.x])
    cluster = np.repeat(np.arange(data.n_clusters), data.sizes)
    same = cluster[:, None] == cluster[None, :]
    V = np.where(same, H @ sigma_matrix(vp) @ H.T, 0.0) + vp.sigma2_e * np.eye(data.n_total)
    X, y = data.X, data.y

    sign_v, logdet_v = np.linalg.slogdet(V)
    vinv_x = np.linalg.solve(V, X)
    vinv_y = np.linalg.solve(V, y)
    xvx = X.T @ vinv_x
    sign_x, logdet_x = np.linalg.slogdet(xvx)
    if sign_v <= 0 or sign_x <= 0:
        raise ValueError("covariance is numerically singular")
    beta = np.linalg.solve(xvx, X.T @ vinv_y)
    resid = y - X @ beta
    ypy = float(resid @ np.linalg.solve(V, resid))
    return -0.5 * (logdet_v + logdet_x + ypy)


def sign_test_plus_vs_minus(n_plus: int, n_minus: int) -> float:
    """Exact two-sided sign test of P(rho_hat=+1) = P(rho_hat=-1).

    Conditions on the number of boundary-correlation outcomes n = n_plus +
    n_minus, under which the larger count is Binomial(n, 1/2) under the
    null.  Returns the two-sided p-value, capped at 1.

    Args:
        n_plus: replicates with the correlation estimated at +1.
        n_minus: replicates with the correlation estimated at -1.

    Returns:
        Exact two-sided binomial p-value.
    """
    n_plus, n_minus = int(n_plus), int(n_minus)
    if n_plus < 0 or n_minus < 0:
        raise ValueError("counts must be nonnegative")
    n = n_plus + n_minus
    if n == 0:
        raise ValueError("sign test undefined with no boundary outcomes")
    k = max(n_plus, n_minus)
    tail = sum(math.comb(n, j) for j in range(k, n + 1))
    return min(1.0, 2.0 * tail / 2.0 ** n)


def inflated_datasets(data, phis):
    """The (phi, dataset) pairs that ``phi_sweep`` refits, one per phi.

    The baseline fit's fitted values include the cluster-level random
    effects (shrunken predictions), so the inflated response is
    fit + phi * residual; phi = 1 reproduces the original data exactly.
    The datasets are built as they are iterated.
    """
    gen = data.to_general()
    base = fit_general(gen)
    u = np.repeat(eblups(base, gen), gen.sizes, axis=0)
    fitted = gen.X @ base.beta + u[:, 0] + u[:, 1] * gen.x
    residual = gen.y - fitted
    return ((phi, GeneralDataset(gen.x, gen.X, fitted + phi * residual, gen.sizes))
            for phi in phis)


def _exact_inward_slope(n, s, rho, r, boundary):
    """Inward slope of the equal-variance profile at expected statistics, exactly.

    The profile is the restricted likelihood with sigma2_c = sigma2_s =
    sigma2_r, sigma2_e = r sigma2_r and correlation x, maximised over
    sigma2_r (see ``remlab.predictor``).  This evaluates
    d/dx [-(N-1)/2 log det - (Ns-2)/2 log bracket] (the other term of the
    profile does not involve x) at x = ``boundary``, with the sufficient
    statistics at their expectations under sigma2_r = 1:
    E rss = N(s-2) r and E t_outer = (N-1)(D Sigma D + r I), where
    D = diag(sqrt s, sqrt q) and Sigma = [[1, rho], [rho, 1]] for the true
    rho.  The sqrt(s q) factors cancel, so the slope is rational in the
    inputs and ``Fraction`` arithmetic computes it without rounding.
    Inward means d/dx at -1 and -d/dx at +1; q is summed from the
    regressor grid.
    """
    n, s, rho, r, b = (Fraction(v) for v in (n, s, rho, r, boundary))
    m = int(s - 1) // 2
    q = sum(Fraction(k, m) ** 2 for k in range(-m, m + 1))
    t_cc = (n - 1) * (s + r)
    t_ss = (n - 1) * (q + r)
    root_sq_t_cs = (n - 1) * s * q * rho  # sqrt(s q) * E t_cs
    det = (s + r) * (q + r) - s * q * b * b
    d_det = -2 * s * q * b
    quad = (q + r) * t_cc - 2 * b * root_sq_t_cs + (s + r) * t_ss
    d_quad = -2 * root_sq_t_cs
    bracket = n * (s - 2) + quad / det  # E rss / r + quad / det
    d_bracket = (d_quad * det - quad * d_det) / (det * det)
    slope = -(n - 1) / 2 * d_det / det - (n * s - 2) / 2 * d_bracket / bracket
    return -b * slope
