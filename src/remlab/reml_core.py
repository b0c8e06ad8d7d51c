"""Restricted-likelihood evaluation and maximisation.

Two engines return the same ``FitResult`` (``VarianceParams``, label,
log_rl, and the GLS fixed effects ``beta`` from the general engine only):

* the balanced engine works from ``SuffStats``; it evaluates the restricted
  likelihood through a 2x2 matrix and maximises it exactly by eigenvalue
  truncation of that matrix, and

* the general engine handles unequal cluster sizes, arbitrary within-cluster
  regressor values and extra fixed effects.  Its ``GeneralDataset`` holds
  the rows flat, as lme4 does: x, X and y plus the cluster sizes, each
  cluster a contiguous block of rows.  Each cluster is reduced once to 2x2
  and 2x(p+1) cross-products, with no per-cluster loop.  One objective call
  is then closed-form 2x2 algebra on length-k arrays, one matrix-vector
  product and one Cholesky factorisation of a (p+1)x(p+1) matrix, and the
  search starts from per-cluster OLS moments formed from the same
  cross-products.  The dataset holds them, and ``with_response`` reuses the
  design's under a new response, as lme4's ``refit`` does.

The general engine searches the relative Cholesky factor L of
Sigma_rel = LL', the random-effect covariance relative to the error
variance; the error variance then has a closed-form profile.  Every L gives
a positive semidefinite Sigma_rel, so one unbounded Newton search covers
the closed parameter space, with rho = +/-1 and zero variances as ordinary
points.  ``FitResult.converged`` reports an optimality certificate in Sigma
space, so a fit that stops short of the maximiser is flagged also on a
boundary; only when that search ends uncertified does a second search on
the rank-1 facet run.

With a random-effect variance at zero the correlation is unidentified, so
``FitResult.rho_hat`` reports it as NaN on a ZERO_VARIANCE fit.
"""

from __future__ import annotations

import copy
import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateDataError
from .model_system import SuffStats, VarianceParams, sufficient_stats


# ---------------------------------------------------------------------------
# Likelihood in closed form (balanced)
# ---------------------------------------------------------------------------


def log_restricted_likelihood(ss, vp):
    """Log restricted likelihood of a balanced dataset, up to a constant.

    The value is exact for the orthonormal-error-contrast likelihood with the
    additive constant -(N*s-2)/2 * log(2*pi) dropped.  It splits into a pure
    error part driven by rss and a between-cluster part driven by the 2x2
    contrast matrix, whose per-contrast covariance is
    F = D Sigma D + sigma2_e * I with D = diag(sqrt(s), sqrt(q)).

    Args:
        ss: SuffStats.
        vp: VarianceParams with sigma2_e > 0.

    Returns:
        float.

    Raises:
        ValueError: if sigma2_e <= 0 (the likelihood is undefined there).
    """
    if vp.sigma2_e <= 0:
        raise ValueError("log restricted likelihood requires sigma2_e > 0")
    design = ss.design
    n, s, q = design.n_clusters, design.cluster_size, design.q
    s2e = vp.sigma2_e

    fcc = s * vp.sigma2_c + s2e
    fss = q * vp.sigma2_s + s2e
    fcs = math.sqrt(s * q) * vp.rho * math.sqrt(vp.sigma2_c * vp.sigma2_s)
    det = fcc * fss - fcs * fcs

    t = ss.t_outer
    trace = (fss * t[0, 0] - 2.0 * fcs * t[0, 1] + fcc * t[1, 1]) / det
    return float(
        -0.5 * n * (s - 2) * math.log(s2e)
        - ss.rss / (2.0 * s2e)
        - 0.5 * (n - 1) * math.log(det)
        - 0.5 * trace
    )


# ---------------------------------------------------------------------------
# Classification of maximisers
# ---------------------------------------------------------------------------


class Classification(str, enum.Enum):
    GOOD = "GOOD"
    RHO_MINUS_ONE = "RHO_MINUS_ONE"
    RHO_PLUS_ONE = "RHO_PLUS_ONE"
    ZERO_VARIANCE = "ZERO_VARIANCE"


@dataclass(frozen=True)
class ClassifyTolerances:
    """Thresholds for labelling a maximiser a boundary estimate; they never move it.

    rho: |rho_hat| >= 1 - rho counts as a correlation boundary; in (0, 1),
        since at 1 or above every correlation would lie on the boundary.
    variance_ratio: a random-effect variance at or below
        variance_ratio * sigma2_e counts as zero; positive and finite.
    """

    rho: float = 1e-6
    variance_ratio: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must be > 0 and < 1, got {self.rho!r}")
        if not 0.0 < self.variance_ratio < math.inf:
            raise ValueError(f"variance_ratio must be > 0 and finite, got {self.variance_ratio!r}")


def classify(vp, tol=ClassifyTolerances()):
    """Label a fitted parameter vector (the ``classification`` of ``_labels``)."""
    return _labels(vp, tol)[0]


def _labels(vp, tol):
    """(classification, boundary_variance) of a fitted parameter vector.

    A vanished random-effect variance takes precedence over a correlation
    boundary: with either variance at zero the correlation is unidentified,
    so any rho value there is reported as ZERO_VARIANCE.  boundary_variance
    names the vanished variance ("sigma2_c", "sigma2_s" or "both"), or is
    None.  A sigma2_e <= 0, where the variance ratios are undefined, raises
    ValueError.
    """
    if vp.sigma2_e <= 0:
        raise ValueError("classify requires sigma2_e > 0")
    c_zero = vp.sigma2_c / vp.sigma2_e <= tol.variance_ratio
    s_zero = vp.sigma2_s / vp.sigma2_e <= tol.variance_ratio
    if c_zero or s_zero:
        return Classification.ZERO_VARIANCE, ("both" if c_zero and s_zero
                                              else "sigma2_c" if c_zero else "sigma2_s")
    if vp.rho <= -1.0 + tol.rho:
        return Classification.RHO_MINUS_ONE, None
    if vp.rho >= 1.0 - tol.rho:
        return Classification.RHO_PLUS_ONE, None
    return Classification.GOOD, None


# ---------------------------------------------------------------------------
# Fit results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    """Restricted-likelihood maximiser from either engine.

    beta holds the GLS fixed effects of ``fit_general``; ``fit_balanced``
    leaves it None.
    """

    params: VarianceParams
    classification: Classification
    log_rl: float
    converged: bool
    n_evals: int
    boundary_variance: str | None  # "sigma2_c", "sigma2_s", "both", or None
    beta: np.ndarray | None = None

    @property
    def rho_hat(self):
        """The correlation to report: NaN on a ZERO_VARIANCE fit.

        With a random-effect variance at zero the likelihood is flat in rho,
        so its value there is unidentified.
        """
        if self.classification is Classification.ZERO_VARIANCE:
            return math.nan
        return self.params.rho

    def to_json_dict(self):
        out = {} if self.beta is None else {"beta": [float(b) for b in self.beta]}
        out.update(
            sigma2_e=self.params.sigma2_e,
            sigma2_c=self.params.sigma2_c,
            sigma2_s=self.params.sigma2_s,
            rho=self.params.rho,
            classification=self.classification.value,
            log_rl=self.log_rl,
            converged=self.converged,
            n_evals=self.n_evals,
            boundary_variance=self.boundary_variance,
        )
        return out

    def write_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")


# ---------------------------------------------------------------------------
# Balanced engine
# ---------------------------------------------------------------------------


def fit_balanced(data, tol=ClassifyTolerances()):
    """Maximise the balanced restricted likelihood exactly.

    The maximiser over the closed parameter space is an eigenvalue truncation
    (Anderson, Anderson & Olkin 1986, Ann. Statist. 14:405; Amemiya 1985,
    Amer. Statist. 39:112).  With dfw = N(s-2), dfb = N-1,
    D = diag(sqrt(s), sqrt(q)) and eigenvalues l1 >= l2 of T = t_outer,
    sigma2_e pools rss with each eigenvalue below dfb * sigma2_e.  Pooling
    none gives the interior D Sigma D = T/dfb - sigma2_e I, pooling l2 gives
    rho = +/-1 with D Sigma D = (l1/dfb - sigma2_e) v1 v1', and pooling both
    gives zero variances.

    Args:
        data: ClusteredDataset or SuffStats.
        tol: ClassifyTolerances that label the maximiser.

    Returns:
        FitResult; converged is True and n_evals is 1 (one likelihood call).

    Raises:
        DegenerateDataError: if the data carry no residual variation
            (rss = 0).
    """
    ss = data if isinstance(data, SuffStats) else sufficient_stats(data)
    design = ss.design
    n, s, q = design.n_clusters, design.cluster_size, design.q
    dfw, dfb = n * (s - 2), n - 1
    rss = ss.rss
    if rss <= 0.0:
        raise DegenerateDataError("no within-cluster residual variation (rss = 0)")
    a, b, c = float(ss.t_outer[0, 0]), float(ss.t_outer[0, 1]), float(ss.t_outer[1, 1])
    half_gap = math.hypot(0.5 * (a - c), b)
    l1, l2 = 0.5 * (a + c) + half_gap, 0.5 * (a + c) - half_gap

    s2e = rss / dfw
    if l2 / dfb < s2e:
        s2e = (rss + l2) / (dfw + dfb)
        if l1 / dfb <= s2e:
            s2e = (rss + l1 + l2) / (n * s - 2)

    if l2 / dfb >= s2e:
        m_cc, m_ss = max(a / dfb - s2e, 0.0), max(c / dfb - s2e, 0.0)
        root = math.sqrt(m_cc * m_ss)
        rho = min(max(b / dfb / root, -1.0), 1.0) if root > 0.0 else 0.0
    elif l1 / dfb > s2e:
        # top eigenvector (cos t, sin t) of T; exactly mirrored under b -> -b
        w = l1 / dfb - s2e
        angle = 0.5 * math.atan2(2.0 * b, a - c)
        v0, v1 = math.cos(angle), math.sin(angle)
        m_cc, m_ss = w * v0 * v0, w * v1 * v1
        rho = math.copysign(1.0, v0 * v1) if v0 * v1 != 0.0 else 0.0
    else:
        m_cc = m_ss = rho = 0.0

    vp = VarianceParams(sigma2_e=s2e, sigma2_c=m_cc / s, sigma2_s=m_ss / q, rho=rho)
    label, zero = _labels(vp, tol)
    return FitResult(
        params=vp,
        classification=label,
        log_rl=log_restricted_likelihood(ss, vp),
        converged=True,
        n_evals=1,
        boundary_variance=zero,
    )


# ---------------------------------------------------------------------------
# General engine
# ---------------------------------------------------------------------------


_SHAPES = "cluster arrays must be (n,), (n, p), (n,) and sizes (k,)"
_FINITE = "cluster data must be finite"


class GeneralDataset:
    """Unbalanced random intercept/slope dataset and its per-cluster cross-products.

    The rows are held flat, as lme4 holds them: regressor values x (n,),
    fixed-effect rows X (n, p) and responses y (n,).  Cluster k owns the
    sizes[k] rows that follow those of clusters 0..k-1.

    The relative covariance is Sigma = LL' = [[a, b], [b, c]] with the
    Cholesky factor L = [[l11, 0], [l21, l22]], passed as l = (l11, l21, l22)
    to every method.  With H_k = [1, x], V_k / sigma2_e = I + H_k Sigma H_k' has
    inverse I - H_k S_k H_k' with S_k = Sigma (I + C_k Sigma)^-1 and
    C_k = H_k'H_k.  In closed form S_k = (Sigma + det(Sigma) adj(C_k)) / d_k
    with d_k = det(I + C_k Sigma), so S_k is exactly symmetric, and d_k and
    the numerators of (S00, 2 S01, S11) are linear in (1, a, 2b, c, det
    Sigma): one small product ``lin`` gives them for every cluster.

    With Z_k = H_k'[X_k, y_k], the augmented GLS matrix
    [[X'V^-1X, X'V^-1y], [., y'V^-1y]] is [X, y]'[X, y] - sum_k Z_k'S_k Z_k,
    and Z_k'S_k Z_k is linear in (S00, 2 S01, S11); ``W`` stacks those three
    products for every cluster, so one matrix-vector product forms the whole
    matrix.  Its Cholesky factor gives log det(X'V^-1X) from the first p
    pivots and the GLS residual sum of squares as the last pivot squared
    (a Schur complement).  Only y, z, W and base change with the response
    (``with_response``).  n_points counts the points at which ``_value`` or
    ``sigma_gradient`` was evaluated, each point of a stack included.
    """

    def __init__(self, x, X, y, sizes):
        x = np.asarray(x, dtype=float)
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        sizes = np.asarray(sizes, dtype=np.int64)
        if (x.ndim != 1 or y.shape != x.shape or X.ndim != 2 or X.shape[0] != x.shape[0]
                or sizes.ndim != 1):
            raise ValueError(_SHAPES)
        if not (np.isfinite(x).all() and np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError(_FINITE)
        if sizes.shape[0] < 2:
            raise ValueError("need at least two clusters")
        if sizes.min() < 1:
            raise ValueError("cluster must contain at least one observation")
        if sizes.sum() != x.shape[0]:
            raise ValueError("cluster sizes must sum to the number of rows")
        if x.shape[0] <= X.shape[1] + 2:
            raise ValueError("need more observations than fixed effects plus two")
        self.x, self.X, self.sizes, self.n_points = x, X, sizes, 0
        n, p = self.n_total, self.p = X.shape
        k = self.n_clusters = sizes.shape[0]
        self.starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        self.dof = n - p
        self.offset = 0.5 * self.dof * (1.0 - math.log(self.dof))

        c00 = sizes.astype(float)
        c01, c11 = np.add.reduceat(x, self.starts), np.add.reduceat(x * x, self.starts)
        self.c = np.stack([[c00, c01], [c01, c11]]).transpose(2, 0, 1)
        self.c_sum = self.c.sum(axis=0)
        self.csc = _sym_products(self.c[:, :, 0], self.c[:, :, 1])
        det = c00 * c11 - c01 * c01
        ok = det > 1e-12 * c00 * c11  # above the rounding of det, which is 0 for constant x
        self.line_design = ok, det[ok], n > k + np.count_nonzero(ok)  # see _cluster_lines
        lin = np.zeros((5, 4, k))  # rows (1, a, 2b, c, det Sigma), column blocks (d, S)
        lin[[0, 1, 2, 3], [0, 1, 2, 3]] = 1.0
        lin[1:4, 0] = c00, c01, c11
        lin[4] = det, c11, -2.0 * c01, c00
        self.lin = lin.reshape(5, 4 * k)

        vars(self).update(vars(self.with_response(y)))  # y, z, W and base
        xtx = self.base[:p, :p]
        if np.linalg.matrix_rank(xtx) < p:
            raise DataError("fixed-effect design is rank deficient")
        _, self.logdet_xtx = np.linalg.slogdet(xtx)

    @classmethod
    def from_rows(cls, rows, fixed_columns=()):
        """The dataset in rows parsed by ``model_system.parse_dataset_rows``.

        Fixed effects are [1, x] plus the named extra columns, in that order.
        """
        missing = [c for c in fixed_columns if c not in rows.extra]
        if missing:
            raise DataError(f"{rows.path}: fixed-effect columns not present: {missing}")
        X = np.column_stack([np.ones_like(rows.x), rows.x, *map(rows.column, fixed_columns)])
        try:
            return cls(x=rows.x, X=X, y=rows.y, sizes=np.diff(rows.bounds))
        except ValueError as exc:
            raise DataError(f"{rows.path}: {exc}") from exc

    @classmethod
    def from_balanced(cls, data):
        """View a balanced dataset as a general one (fixed effects [1, x])."""
        n, s = data.design.n_clusters, data.design.cluster_size
        x = np.tile(data.design.h, n)
        X = np.column_stack([np.ones_like(x), x])
        return cls(x=x, X=X, y=data.y.reshape(-1), sizes=np.full(n, s))

    def with_response(self, y):
        """A shallow copy of this dataset with response y and its own z, W and base."""
        y = np.asarray(y, dtype=float)
        if y.shape != self.x.shape:
            raise ValueError(_SHAPES)
        if not np.isfinite(y).all():
            raise ValueError(_FINITE)
        new, xy = copy.copy(self), np.column_stack([self.X, y])
        z0, z1 = (np.add.reduceat(a, self.starts) for a in (xy, self.x[:, None] * xy))
        new.y, new.z = y, np.stack([z0, z1], axis=1)  # z: (k, 2, p + 1)
        new.W, new.base = _sym_products(z0, z1), xy.T @ xy
        return new

    def _s(self, l):
        """d_k = det(I + C_k Sigma) and the weights (S00, 2 S01, S11), shape ([B,] 3, k).

        l is one point (l11, l21, l22), unpacked as floats, or the three
        columns of a stack of B points, each of shape (B,), as
        ``sigma_gradient`` passes them; ``_gls`` takes the weights of either.
        Products with the stored cross-products are stacks of row-vector products
        (``[..., None, :] @``), so a point rounds in a stack as it does alone.
        """
        l11, l21, l22 = l
        root_det = l11 * l22  # det Sigma = (l11 l22)^2; l11 ** 0.0 is 1 in l11's shape
        coef = np.array([l11 ** 0.0, l11 * l11, 2.0 * l11 * l21, l21 * l21 + l22 * l22,
                         root_det * root_det])
        out = (coef.T[..., None, :] @ self.lin).reshape(coef.shape[1:] + (4, self.n_clusters))
        return out[..., 0, :], out[..., 1:, :] / out[..., :1, :]

    def _gls_matrix(self, w):
        batch = w.shape[:-2]
        return self.base - (w.reshape(batch + (1, -1)) @ self.W).reshape(batch + self.base.shape)

    def _value(self, l):
        """Negative profiled log restricted likelihood at L, up to a constant.

        0.5 dof (log(rss/dof) + 1) + 0.5 sum_k log d_k + 0.5 log det X'V^-1X,
        or 1e30 where the profile is numerically unusable: some d_k <= 0, or
        an augmented GLS matrix that is not positive definite (singular
        X'V^-1X or no GLS residual).
        """
        self.n_points += 1
        det, w = self._s(l)
        if not det.min() > 0:
            return 1e30
        try:
            chol = np.linalg.cholesky(self._gls_matrix(w))
        except np.linalg.LinAlgError:
            return 1e30
        log_piv = np.log(chol.diagonal())
        return float(
            self.dof * log_piv[-1] + self.offset + 0.5 * np.log(det).sum() + log_piv[:-1].sum()
        )

    def _gls(self, w):
        """(X'V^-1X)^-1, the GLS fixed effects and the GLS rss at the weights w of ``_s``."""
        p = self.p
        m = self._gls_matrix(w)
        xvx_inv = np.linalg.inv(m[..., :p, :p])
        beta = (xvx_inv @ m[..., :p, p:])[..., 0]
        return xvx_inv, beta, m[..., p, p] - (m[..., :p, p] * beta).sum(axis=-1)

    def sigma_gradient(self, l):
        """The symmetric M with d value = tr(M dSigma) at Sigma = LL'.

        With A_k = I + C_k Sigma, G_k = H_k'X_k and r_k = H_k'(y_k - X_k beta),
        2 M is (Lindstrom & Bates 1988, JASA 83:1014)
            sum_k A_k^-1 C_k                                  (log det V)
            - sum_k A_k^-1 G_k (X'V^-1X)^-1 G_k' A_k^-T       (log det X'V^-1X)
            - dof / rss * sum_k (A_k^-1 r_k)(A_k^-1 r_k)'      (profiled rss)
        and A_k^-1 = I - C_k S_k, so no inverse is formed per cluster:
        sum_k C_k S_k C_k is one product with ``csc``, as the GLS matrix is
        with ``W``.  The gradient in l is the lower triangle of 2 M L.  A
        stack of points (B, 3) gives a stack of M, shape (B, 2, 2).
        """
        self.n_points += np.size(l) // 3
        p = self.p
        w = self._s(np.transpose(l))[1]
        batch = w.shape[:-2]
        xvx_inv, beta, rss = self._gls(w)
        s00, s01, s11 = w[..., 0, :, None], 0.5 * w[..., 1, :, None], w[..., 2, :, None]
        z0, z1 = self.z[:, 0], self.z[:, 1]
        sz0, sz1 = s00 * z0 + s01 * z1, s01 * z0 + s11 * z1
        c00, c01, c11 = self.c[:, 0, :1], self.c[:, 0, 1:], self.c[:, 1, 1:]
        # A_k^-1 Z_k, shape ([B,] 2, k, p + 1)
        az = np.stack([z0 - c00 * sz0 - c01 * sz1, z1 - c01 * sz0 - c11 * sz1], axis=-3)
        resid = np.concatenate([-beta, np.ones(batch + (1,))], axis=-1)
        ag, u = az[..., :p], (az @ resid[..., None, :, None])[..., 0]
        ag_flat = ag.reshape(batch + (2, -1))
        mat = 0.5 * (
            self.c_sum
            - (w.reshape(batch + (1, -1)) @ self.csc).reshape(batch + (2, 2))
            - (ag @ xvx_inv[..., None, :, :]).reshape(batch + (2, -1)) @ ag_flat.swapaxes(-1, -2)
            - (self.dof / rss)[..., None, None] * (u @ u.swapaxes(-1, -2))
        )
        return 0.5 * (mat + mat.swapaxes(-1, -2))


def _sym_products(a, b):
    """The flattened a a', (a b' + b a') / 2 and b b' of each row pair, shape (3k, d*d)."""
    return np.stack([
        a[:, :, None] * a[:, None, :],
        0.5 * (a[:, :, None] * b[:, None, :] + b[:, :, None] * a[:, None, :]),
        b[:, :, None] * b[:, None, :],
    ]).reshape(3 * len(a), -1)


def _chol(theta):
    """The Cholesky entries (l11, l21, l22) of theta = (lambda_c, lambda_s, rho)."""
    lc, ls, rho = theta
    return lc, rho * ls, ls * math.sqrt(max(1.0 - rho * rho, 0.0))


def _theta(l):
    """theta of the Cholesky entries l; rho is 0 where a lambda is 0 (unidentified)."""
    l11, l21, l22 = l
    lc, ls = abs(l11), math.hypot(l21, l22)
    return lc, ls, math.copysign(1.0, l11) * l21 / ls if lc > 0.0 and ls > 0.0 else 0.0


def fit_general(data, tol=ClassifyTolerances(), start=None):
    """Maximise the restricted likelihood of a ``GeneralDataset``.

    The search runs in the relative Cholesky factor L of Sigma_rel = LL', as
    lme4 does (Bates, Maechler, Bolker & Walker 2015, J. Stat. Softw. 67(1)):
    every L gives a positive semidefinite Sigma_rel, so the search needs no
    bounds and reaches rho = +/-1 and zero variances as ordinary points.
    A modified Newton search (``_newton``) runs from the moment start.  Its
    end point is tested with the optimality certificate of ``_certified``;
    only if the test fails does the same search run on the rank-1 facet
    l22 = 0 from the end point's (l11, l21), and the better of the two
    wins.  A lambda with lambda^2 <= 1e-10 is then set to 0 (``_snap``),
    and tol labels the result without moving it.

    start, a theta = (lambda_c, lambda_s, rho) such as the fit of nearby
    data, replaces the moment start of the first search.  Both starts are
    clipped into the same box (``_boxed``), so a start on rho = +/-1 or a
    zero variance begins inside the cone.  If the search from start ends
    uncertified, it is discarded and the fit runs as without start: moment
    start, facet search, ``_snap``.

    converged is the certificate at the returned point: the first test's
    result, on the M of the search's last step, when neither the facet nor
    ``_snap`` moved the point, else a new test.  n_evals is the number of
    points the dataset counted during the fit (the change in
    ``GeneralDataset.n_points``), those of a discarded search from start
    included.

    The reported log_rl uses the same orthonormal-contrast constant
    convention as the balanced engine, so the two agree exactly on balanced
    data viewed through ``GeneralDataset.from_balanced``.  Data with no
    residual variation raise DegenerateDataError (``_cluster_lines``), as
    ``fit_balanced``'s do, before any search.
    """
    lines = _cluster_lines(data)
    first_point, converged = data.n_points, False
    if start is not None:
        full, full_value, converged = _search(data, _boxed(start))
    if not converged:
        full, full_value, converged = _search(data, _general_moment_start(data, lines))
        if not full_value < 1e30:
            raise DegenerateDataError("restricted likelihood is unusable at the starting point")
    theta = tested = _theta(full)
    if not converged:
        facet, facet_value, _ = _newton(data, full[:2], data._value(full[:2] + (0.0,)))
        if facet_value <= full_value:
            theta = _theta(facet + (0.0,))
    theta = _snap(theta)
    if theta != tested:
        converged = _certified(data.sigma_gradient(_chol(theta)), theta)
    l = _chol(theta)
    value = data._value(l)
    if not value < 1e30:
        raise DegenerateDataError("restricted likelihood collapsed at the maximiser")
    _, beta, rss = data._gls(data._s(l)[1])
    s2e = float(rss) / data.dof
    lc, ls, rho = theta
    vp = VarianceParams(sigma2_e=s2e, sigma2_c=lc * lc * s2e, sigma2_s=ls * ls * s2e, rho=rho)
    label, zero = _labels(vp, tol)
    return FitResult(
        params=vp,
        classification=label,
        log_rl=float(-value + 0.5 * data.logdet_xtx),
        converged=converged,
        n_evals=data.n_points - first_point,
        boundary_variance=zero,
        beta=beta,
    )


_LAMBDA_MAX = 1e3  # cap on sigma_c/sigma_e and sigma_s/sigma_e
_CERT_TOL = 1e-6  # converged: the Sigma-space certificate to this tolerance
_NEWTON_STEPS = 50
_FD_STEP = 1e-6  # central-difference step, relative to the coordinate
_FD_FLOOR = 1e-3  # smallest coordinate scale of that step
_ROUND = 1e-13  # a change in value below this, relative, is rounding
_STEP_FLOOR = 1e-12  # a step below this in every Cholesky entry is no step


def _certified(m, theta):
    """The optimality certificate over positive semidefinite Sigma_rel.

    With m = M of d(-log_rl) = tr(M dSigma_rel) at theta, theta passes when
    M has no eigenvalue below -_CERT_TOL and no entry of M Sigma_rel exceeds
    _CERT_TOL in size.  That covers M = 0 at an interior fit, Ma = 0 with
    b'Mb >= 0 at a rank-1 fit Sigma_rel = w aa', and M positive
    semidefinite at the zero corner, where every theta-derivative vanishes.
    A theta held at the lambda cap (_LAMBDA_MAX) does not pass.
    """
    lc, ls, rho = theta
    sigma = np.array([[lc * lc, rho * lc * ls], [rho * lc * ls, ls * ls]])
    return bool(
        np.linalg.eigvalsh(m)[0] >= -_CERT_TOL
        and np.abs(m @ sigma).max() <= _CERT_TOL
        and max(lc, ls) < _LAMBDA_MAX
    )


def _boxed(theta):
    """theta clipped into the starting box lambda in [1e-3, 0.9 _LAMBDA_MAX], |rho| <= 0.9.

    On rho = +/-1 (l22 = 0) the gradient in l22, 2 m11 l22, is exactly 0,
    so a search started there could never leave that facet; at the zero
    corner L = 0 the whole gradient is 0.
    """
    lc, ls, rho = theta
    return (min(max(lc, 1e-3), 0.9 * _LAMBDA_MAX), min(max(ls, 1e-3), 0.9 * _LAMBDA_MAX),
            min(max(rho, -0.9), 0.9))


def _search(data, theta):
    """The full Newton search from theta and the certificate at its end.

    Returns (end point, its value, certified); where the value is unusable
    at theta, the search is skipped and theta's point is returned
    uncertified with value 1e30.
    """
    x = _chol(theta)
    value = data._value(x)
    if not value < 1e30:
        return x, 1e30, False
    end, value, m = _newton(data, x, value)
    return end, value, _certified(m, _theta(end))


def _snap(theta):
    """theta with each lambda of lambda^2 <= 1e-10 set to 0, and rho with it.

    The search approaches a zero-variance face only linearly, so it stops
    just off it; rho is unidentified there.  The rule is numerical and
    fixed: the classification tolerances label a fit and never move it.
    """
    lc, ls, rho = theta
    lc = lc if lc * lc > 1e-10 else 0.0
    ls = ls if ls * ls > 1e-10 else 0.0
    return (lc, ls, rho if lc > 0.0 and ls > 0.0 else 0.0)


def _capped(x):
    """x with lambda_c = |l11| and lambda_s = |(l21, l22)| held at _LAMBDA_MAX."""
    x[0] = min(max(x[0], -_LAMBDA_MAX), _LAMBDA_MAX)
    ls = math.hypot(*x[1:])
    if ls > _LAMBDA_MAX:
        x[1:] *= _LAMBDA_MAX / ls
    return x


def _newton(data, x, f):
    """Minimise ``value``, f at x, over the leading len(x) Cholesky entries, the rest at 0.

    Modified Newton (``_derivatives``, ``_newton_step``) with a backtracking
    line search, run to the gradient floor: it stops at a Newton step of at
    most _STEP_FLOOR, before its line search; at a step that lowers the
    value by no more than rounding (a flat step) and is below _STEP_FLOOR
    or does not lower the largest gradient component; when the line search
    finds no descent; or after _NEWTON_STEPS steps.  A flat step's end takes
    only the gradient; the Hessian before it predicts the next step, and the
    2n difference points run only if that step is above _STEP_FLOOR.
    Returns (x, value, M), M being ``sigma_gradient`` at x.
    """
    x = np.array(x, dtype=float)
    (g, m, hess), stale = _derivatives(data, x), False
    for _ in range(_NEWTON_STEPS):
        step = _newton_step(x, g, hess)
        if stale and step is not None:  # predicted with the Hessian before a flat step
            hess = _hessian(data, x)
            step = _newton_step(x, g, hess)
        if step is None:
            break
        slope, t = float(g @ step), 1.0
        while t >= 1e-10:
            trial = _capped(x + t * step)
            trial_value = data._value(tuple(trial) + (0.0,) * (3 - len(x)))
            if trial_value <= f + 1e-4 * t * slope or (
                    t == 1.0 and trial_value <= f + _ROUND * abs(f)):
                break
            t *= 0.5
        else:
            break
        flat = trial_value > f - _ROUND * abs(f)
        if flat and np.abs(trial - x).max() <= _STEP_FLOOR:
            break
        trial_g, trial_m, trial_hess = _derivatives(data, trial, hess if flat else None)
        if flat and np.abs(trial_g).max() >= np.abs(g).max():
            break
        x, f, g, m, hess, stale = trial, trial_value, trial_g, trial_m, trial_hess, flat
    return tuple(x.tolist()), f, m


def _derivatives(data, v, hess=None):
    """(gradient in the leading n = len(v) Cholesky entries, M, Hessian) at v.

    One batched ``_gradients`` call takes v and the 2n points v +/- h e_j
    of the Hessian's central difference, or v alone if hess is given.
    """
    n, h = len(v), _FD_STEP * np.maximum(np.abs(v), _FD_FLOOR)
    g, m = _gradients(data, [v] if hess is not None else [v, *(v + np.diag(h)), *(v - np.diag(h))])
    if hess is None:
        hess = (g[:, 1 : n + 1] - g[:, n + 1 :]) / (2.0 * h)
    return g[:, 0], m[0], hess


def _hessian(data, v):
    """The Hessian at v from its 2n difference points alone, as ``_derivatives`` takes it."""
    n, h = len(v), _FD_STEP * np.maximum(np.abs(v), _FD_FLOOR)
    g = _gradients(data, [*(v + np.diag(h)), *(v - np.diag(h))])[0]
    return (g[:, :n] - g[:, n:]) / (2.0 * h)


def _gradients(data, points):
    """(gradients in the leading n Cholesky entries, one column per point, M at
    each point) for points of length n, from one ``sigma_gradient`` call."""
    n = len(points[0])
    l = np.zeros((len(points), 3))
    l[:, :n] = points
    m = data.sigma_gradient(l)
    (m00, m01), (_, m11) = m.transpose(1, 2, 0)
    l11, l21, l22 = l.T
    return 2.0 * np.stack([m00 * l11 + m01 * l21, m01 * l11 + m11 * l21, m11 * l22])[:n], m


def _newton_step(x, g, hess):
    """The Newton step by hess with |eigenvalues|, so it descends also off a
    saddle; None if hess is 0 or the step moves no entry by > _STEP_FLOOR."""
    eig, vec = np.linalg.eigh(0.5 * (hess + hess.T))
    eig = np.abs(eig)
    if not eig.max() > 0.0:
        return None
    step = -vec @ ((vec.T @ g) / np.maximum(eig, 1e-8 * eig.max()))
    return step if np.abs(_capped(x + step) - x).max() > _STEP_FLOOR else None


def _cluster_lines(data):
    """(ok, a, b, rss): the least-squares lines a + b x of the clusters with spread
    in x (ok, from ``line_design``), and each cluster's rss about its line, or about
    its mean where x is constant.  Raises DegenerateDataError if some cluster has
    rows to spare yet the pooled rss is at or below its rounding floor n eps y'y (as
    in ``sufficient_stats``): every cluster then lies on its own line, and the
    restricted likelihood grows without bound as sigma2_e falls to 0.
    """
    (c00, c01), (_, c11) = data.c.transpose(1, 2, 0)
    (hy0, hy1), (ok, det, spare) = data.z[:, :, -1].T, data.line_design
    a, b = (c11 * hy0 - c01 * hy1)[ok] / det, (c00 * hy1 - c01 * hy0)[ok] / det
    yy = np.add.reduceat(data.y * data.y, data.starts)
    rss = yy - hy0 * hy0 / c00
    rss[ok] = yy[ok] - a * hy0[ok] - b * hy1[ok]
    if spare and rss.sum() <= data.n_total * math.ulp(1.0) * yy.sum():
        raise DegenerateDataError("no within-cluster residual variation: "
                                  "every cluster lies on its own line")
    return ok, a, b, rss


def _general_moment_start(data, lines):
    """Rough moment-based starting theta of the Newton search.

    sigma2_e is the pooled residual variance about the lines (``_cluster_lines``)
    of the clusters with spread in x and at least three rows (or the variance of
    y, if they leave none), and the spread and correlation of the lines' (a_k,
    b_k), less that noise, give lambda_c, lambda_s and rho.
    """
    ok, a, b, rss = lines
    c00 = data.c[ok, 0, 0]
    pooled = c00 >= 3
    rss, df = float(rss[ok][pooled].sum()), float((c00[pooled] - 2.0).sum())
    s2e0 = rss / df if df > 0 and rss > 0 else max(float(np.var(data.y)), 1e-8)
    if a.size < 3:
        return 0.5, 0.5, 0.0
    centred = np.stack([a, b])
    centred -= centred.mean(axis=1, keepdims=True)
    (saa, sab), (_, sbb) = (centred @ centred.T).tolist()
    excess = np.array([saa, sbb]) / (a.size - 1) - s2e0
    lam = np.where(excess > 0, np.sqrt(np.abs(excess) / s2e0), 0.3)
    rho0 = sab / math.sqrt(saa) / math.sqrt(sbb) if saa > 0 and sbb > 0 else 0.0
    return _boxed((*lam.tolist(), rho0))


def eblups(fit, data):
    """Empirical BLUPs of the per-cluster intercept/slope deviations.

    u_i = Sigma_hat H_i' V_i^{-1} (y_i - X_i beta_hat), evaluated from the
    per-cluster cross-products as u_i = S_i (H_i'y_i - G_i beta_hat) with
    S_i = Sigma_rel (I + C_i Sigma_rel)^{-1}.  beta_hat is the GLS estimate
    at the fit's Sigma_rel (``fit.beta`` for a general fit), so a balanced
    fit of data viewed through ``GeneralDataset.from_balanced`` works too.
    When Sigma_hat is singular the BLUPs lie in its column space by
    construction.  data is a ``GeneralDataset``.

    Returns:
        Array of shape (n_clusters, 2).
    """
    vp = fit.params
    (l11, _), (l21, l22) = vp.sigma_cholesky() / math.sqrt(vp.sigma2_e)
    w = data._s((l11, l21, l22))[1]
    r0, r1 = (data.z @ np.append(-data._gls(w)[1], 1.0)).T
    return np.column_stack([w[0] * r0 + 0.5 * w[1] * r1, 0.5 * w[1] * r0 + w[2] * r1])

