"""Restricted-likelihood evaluation and maximisation.

Two engines return the same ``FitResult`` (``VarianceParams``, label,
log_rl, and the GLS fixed effects ``beta`` from the general engine only):

* the balanced engine works from ``SuffStats``; it evaluates the restricted
  likelihood through a 2x2 matrix and maximises it exactly by eigenvalue
  truncation of that matrix, and

* the general engine handles unequal cluster sizes, arbitrary within-cluster
  regressor values and extra fixed effects, reducing each cluster to 2x2 and
  2xp cross-products once and reusing them at every objective call.

The general engine searches theta = (lambda_c, lambda_s, rho), the random-
effect standard deviations *relative to the error standard deviation* and
their correlation; the error variance then has a closed-form profile.  The
feasible region is a box, and candidate maximisers on every boundary facet
(rho = -1, rho = +1, lambda_c = 0, lambda_s = 0, both lambdas 0) are solved
separately so boundary solutions are exact rather than merely nearby.

With a random-effect variance at zero the correlation is unidentified, so
``FitResult.rho_hat`` reports it as NaN on a ZERO_VARIANCE fit.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._optimize import golden_section, nelder_mead
from .errors import DataError, DegenerateDataError
from .model_system import (
    ClusteredDataset,
    SuffStats,
    VarianceParams,
    parse_dataset_rows,
    sufficient_stats,
)

__all__ = [
    "Classification",
    "ClassifyTolerances",
    "FitOptions",
    "FitResult",
    "GeneralCluster",
    "GeneralDataset",
    "log_restricted_likelihood",
    "profile_sigma2_r",
    "profiled_log_rl",
    "profiled_rl_offset",
    "classify",
    "fit_balanced",
    "fit_general",
    "eblups",
    "log_rl_dense_oracle",
    "read_general_csv",
]


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


def _equal_variance_pieces(ss, r, rho):
    """Shared pieces of the equal-variance profile at variance ratio r."""
    if not r > 0:
        raise ValueError(f"variance ratio r must be positive, got {r}")
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
    design = ss.design
    s, q = design.cluster_size, design.q
    det = (s + r) * (q + r) - s * q * rho * rho
    t = ss.t_outer
    trace = ((q + r) * t[0, 0] - 2.0 * math.sqrt(s * q) * rho * t[0, 1] + (s + r) * t[1, 1]) / det
    return det, ss.rss / r + trace


def profile_sigma2_r(ss, r, rho):
    """Closed-form maximiser of the common random-effect variance.

    Under the constraint sigma2_c = sigma2_s = sigma2_r and
    sigma2_e = r * sigma2_r, the restricted likelihood is maximised over
    sigma2_r in closed form.  Strictly positive unless the data are
    degenerate (rss = 0 and t_outer = 0).
    """
    _, bracket = _equal_variance_pieces(ss, r, rho)
    return bracket / (ss.design.n_total - 2)


def profiled_log_rl(ss, r, rho):
    """Profiled log restricted likelihood over (r, rho), equal variances.

    Evaluated at the closed-form sigma2_r maximiser; differs from
    ``log_restricted_likelihood`` at that point by the additive constant
    ``profiled_rl_offset(ss.design)``, which does not depend on (r, rho).
    """
    design = ss.design
    n, s = design.n_clusters, design.cluster_size
    det, bracket = _equal_variance_pieces(ss, r, rho)
    if bracket <= 0:
        raise DegenerateDataError("data carry no residual variation; profile undefined")
    return (
        -0.5 * n * (s - 2) * math.log(r)
        - 0.5 * (n - 1) * math.log(det)
        - 0.5 * (design.n_total - 2) * math.log(bracket)
    )


def profiled_rl_offset(design):
    """Additive constant linking ``profiled_log_rl`` to the full likelihood.

    log_restricted_likelihood at the profiled point equals
    profiled_log_rl + profiled_rl_offset(design).
    """
    dof = design.n_total - 2
    return 0.5 * dof * (math.log(dof) - 1.0)


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
    """Thresholds for calling a maximiser a boundary estimate.

    rho: |rho_hat| >= 1 - rho counts as a correlation boundary.
    variance_ratio: a random-effect variance below
        variance_ratio * sigma2_e counts as zero.
    """

    rho: float = 1e-6
    variance_ratio: float = 1e-10


def classify(vp, tol=ClassifyTolerances()):
    """Label a fitted parameter vector.

    A vanished random-effect variance takes precedence over a correlation
    boundary: with either variance at zero the correlation is unidentified,
    so any rho value there is reported as ZERO_VARIANCE.
    """
    lc2 = vp.sigma2_c / vp.sigma2_e
    ls2 = vp.sigma2_s / vp.sigma2_e
    if min(lc2, ls2) <= tol.variance_ratio:
        return Classification.ZERO_VARIANCE
    if vp.rho <= -1.0 + tol.rho:
        return Classification.RHO_MINUS_ONE
    if vp.rho >= 1.0 - tol.rho:
        return Classification.RHO_PLUS_ONE
    return Classification.GOOD


# ---------------------------------------------------------------------------
# Fit options and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitOptions:
    """Controls for the restricted-likelihood maximisers.

    lambda_max bounds the search box of ``fit_general`` (bounded Nelder-Mead
    from five deterministic starts, a golden-section polish, then an exact
    solve on each boundary facet); ``fit_balanced`` is exact and ignores it.
    tolerances label the maximiser for both engines.  allow_degenerate lets
    ``fit_balanced`` fit data with rss = 0 by flooring sigma2_e at 1e-12.
    """

    lambda_max: float = 1e3  # search-box bound on sigma_c/sigma_e and sigma_s/sigma_e
    tolerances: ClassifyTolerances = field(default_factory=ClassifyTolerances)
    allow_degenerate: bool = False


_DEGENERATE_FLOOR = 1e-12  # sigma2_e floor under allow_degenerate


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

    @classmethod
    def from_json_dict(cls, d):
        return cls(
            params=VarianceParams(d["sigma2_e"], d["sigma2_c"], d["sigma2_s"], d["rho"]),
            classification=Classification(d["classification"]),
            log_rl=d["log_rl"],
            converged=d["converged"],
            n_evals=d["n_evals"],
            boundary_variance=d["boundary_variance"],
            beta=np.array(d["beta"], dtype=float) if "beta" in d else None,
        )

    @classmethod
    def read_json(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Optimisation driver of the general engine
# ---------------------------------------------------------------------------


def _multistart_maximize(neg, mom, opts):
    """Maximise -neg over the (lambda_c, lambda_s, rho) box.

    neg must be finite everywhere on the box.  Returns
    (theta, neg_value, converged, n_evals); boundary coordinates of the
    returned theta are exact when a facet candidate wins.
    """
    lam_max = opts.lambda_max
    bounds3 = [(0.0, lam_max), (0.0, lam_max), (-1.0, 1.0)]
    lc0, ls0, rho0 = mom
    total_evals = 0

    def lam_box(v):
        return max(v / 4.0, 0.0), min(4.0 * v + 0.05, lam_max)

    lc_lo, lc_hi = lam_box(lc0)
    ls_lo, ls_hi = lam_box(ls0)
    rho_lo, rho_hi = max(-0.95, rho0 - 0.6), min(0.95, rho0 + 0.6)
    # half-fraction of the start-box corners plus its centre
    starts = [
        (lc0, ls0, rho0),
        (lc_lo, ls_lo, rho_lo),
        (lc_hi, ls_hi, rho_lo),
        (lc_lo, ls_hi, rho_hi),
        (lc_hi, ls_lo, rho_hi),
    ]

    best_x, best_f, best_conv = None, math.inf, False
    for x0 in starts:
        x, f, conv, ev = nelder_mead(neg, x0, bounds3)
        total_evals += ev
        if f < best_f:
            best_x, best_f, best_conv = x, f, conv

    def polish(x, f, dims, bounds):
        nonlocal total_evals
        x = list(x)
        for _ in range(2):
            for k in dims:
                lo, hi = bounds[k]

                def along(v, _k=k):
                    xx = list(x)
                    xx[_k] = v
                    return neg(tuple(xx))

                xk, fk, ev = golden_section(along, lo, hi, xatol=1e-10)
                total_evals += ev
                if fk < f:
                    x[k], f = xk, fk
        return tuple(x), f

    best_x, best_f = polish(best_x, best_f, (0, 1, 2), bounds3)
    candidates = [(best_x, best_f, best_conv)]

    # correlation facets: rho pinned, 2-D search over the lambdas
    for rho_fix in (-1.0, 1.0):
        def neg2(lam, _r=rho_fix):
            return neg((lam[0], lam[1], _r))

        x2, f2, conv2, ev = nelder_mead(neg2, (best_x[0], best_x[1]), bounds3[:2])
        total_evals += ev
        x3, f3 = polish((x2[0], x2[1], rho_fix), f2, (0, 1), bounds3)
        candidates.append((x3, f3, conv2))

    # vanished-variance facets: rho is unidentified there, reported as 0
    def neg_ls(v):
        return neg((0.0, v, 0.0))

    xs, fs, ev = golden_section(neg_ls, 0.0, lam_max, xatol=1e-10)
    total_evals += ev
    candidates.append(((0.0, xs, 0.0), fs, True))

    def neg_lc(v):
        return neg((v, 0.0, 0.0))

    xc, fc, ev = golden_section(neg_lc, 0.0, lam_max, xatol=1e-10)
    total_evals += ev
    candidates.append(((xc, 0.0, 0.0), fc, True))

    f0 = neg((0.0, 0.0, 0.0))
    total_evals += 1
    candidates.append(((0.0, 0.0, 0.0), f0, True))

    theta, fval, conv = candidates[0]
    for cand_x, cand_f, cand_conv in candidates[1:]:
        if cand_f < fval:
            theta, fval, conv = cand_x, cand_f, cand_conv
    return theta, fval, conv, total_evals


def _boundary_variance_tag(lc2, ls2, tol):
    c_zero = lc2 <= tol.variance_ratio
    s_zero = ls2 <= tol.variance_ratio
    if c_zero and s_zero:
        return "both"
    if c_zero:
        return "sigma2_c"
    if s_zero:
        return "sigma2_s"
    return None


# ---------------------------------------------------------------------------
# Balanced engine
# ---------------------------------------------------------------------------


def fit_balanced(data, options=None):
    """Maximise the balanced restricted likelihood exactly.

    The maximiser over the closed parameter space is an eigenvalue truncation
    (Anderson, Anderson & Olkin 1986, Ann. Statist. 14:405; Amemiya 1985,
    Amer. Statist. 39:112).  With dfw = N(s-2), dfb = N-1,
    D = diag(sqrt(s), sqrt(q)) and eigenvalues l1 >= l2 of T = t_outer,
    sigma2_e pools rss with each eigenvalue below dfb * sigma2_e.  Pooling
    none gives the interior D Sigma D = T/dfb - sigma2_e I, pooling l2 gives
    rho = +/-1 with D Sigma D = (l1/dfb - sigma2_e) v1 v1', and pooling both
    gives zero variances.  The profile in log sigma2_e is concave, so the
    same truncation stays exact at a floored sigma2_e.

    Args:
        data: ClusteredDataset or SuffStats.
        options: FitOptions; only tolerances and allow_degenerate are read.

    Returns:
        FitResult; converged is True and n_evals is 1 (one likelihood call).

    Raises:
        DegenerateDataError: if the data carry no residual variation
            (rss = 0), unless options.allow_degenerate floors sigma2_e.
    """
    opts = options or FitOptions()
    ss = data if isinstance(data, SuffStats) else sufficient_stats(data)
    design = ss.design
    n, s, q = design.n_clusters, design.cluster_size, design.q
    dfw, dfb = n * (s - 2), n - 1
    rss = ss.rss
    if rss <= 0.0 and not opts.allow_degenerate:
        raise DegenerateDataError("no within-cluster residual variation (rss = 0)")
    a, b, c = float(ss.t_outer[0, 0]), float(ss.t_outer[0, 1]), float(ss.t_outer[1, 1])
    half_gap = math.hypot(0.5 * (a - c), b)
    l1, l2 = 0.5 * (a + c) + half_gap, 0.5 * (a + c) - half_gap

    s2e = rss / dfw
    if l2 / dfb < s2e:
        s2e = (rss + l2) / (dfw + dfb)
        if l1 / dfb <= s2e:
            s2e = (rss + l1 + l2) / (n * s - 2)
    if rss <= 0.0:
        s2e = max(s2e, _DEGENERATE_FLOOR)

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
    return FitResult(
        params=vp,
        classification=classify(vp, opts.tolerances),
        log_rl=log_restricted_likelihood(ss, vp),
        converged=True,
        n_evals=1,
        boundary_variance=_boundary_variance_tag(
            vp.sigma2_c / s2e, vp.sigma2_s / s2e, opts.tolerances
        ),
    )


# ---------------------------------------------------------------------------
# General engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneralCluster:
    """One cluster: regressor values, fixed-effect rows, responses."""

    x: np.ndarray  # (n_i,)
    X: np.ndarray  # (n_i, p)
    y: np.ndarray  # (n_i,)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or y.shape != x.shape or X.ndim != 2 or X.shape[0] != x.shape[0]:
            raise ValueError("cluster arrays must be (n,), (n, p), (n,)")
        if x.shape[0] < 1:
            raise ValueError("cluster must contain at least one observation")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("cluster data must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class GeneralDataset:
    """Unbalanced two-level dataset with random intercept and slope on x."""

    clusters: tuple

    def __post_init__(self):
        cl = tuple(self.clusters)
        if len(cl) < 2:
            raise ValueError("need at least two clusters")
        p = cl[0].X.shape[1]
        if any(c.X.shape[1] != p for c in cl):
            raise ValueError("all clusters must share the fixed-effect dimension")
        if sum(c.x.shape[0] for c in cl) <= p + 2:
            raise ValueError("need more observations than fixed effects plus two")
        object.__setattr__(self, "clusters", cl)

    @property
    def p(self):
        return self.clusters[0].X.shape[1]

    @property
    def n_total(self):
        return sum(c.x.shape[0] for c in self.clusters)

    @property
    def n_clusters(self):
        return len(self.clusters)

    @classmethod
    def from_balanced(cls, data):
        """View a balanced dataset as a general one (fixed effects [1, x])."""
        h = data.design.h
        X = np.column_stack([np.ones_like(h), h])
        return cls(
            clusters=tuple(
                GeneralCluster(x=h, X=X, y=data.y[i]) for i in range(data.design.n_clusters)
            )
        )


class _GeneralPieces:
    """Per-cluster cross-products reused at every objective evaluation."""

    def __init__(self, data):
        k = data.n_clusters
        p = data.p
        self.p = p
        self.n_total = data.n_total
        self.C = np.empty((k, 2, 2))
        self.G = np.empty((k, 2, p))
        self.hy = np.empty((k, 2))
        self.XtX = np.zeros((p, p))
        self.Xty = np.zeros(p)
        self.yty = 0.0
        for i, c in enumerate(data.clusters):
            H = np.column_stack([np.ones_like(c.x), c.x])
            self.C[i] = H.T @ H
            self.G[i] = H.T @ c.X
            self.hy[i] = H.T @ c.y
            self.XtX += c.X.T @ c.X
            self.Xty += c.X.T @ c.y
            self.yty += float(c.y @ c.y)
        if np.linalg.matrix_rank(self.XtX) < p:
            raise DataError("fixed-effect design is rank deficient")
        _, self.logdet_xtx = np.linalg.slogdet(self.XtX)

    def solve(self, theta):
        """GLS pieces at relative covariance theta = (lc, ls, rho).

        Returns (neg_profiled_loglik, beta, sigma2_e_hat, sigma_rel) or
        (big, None, None, None) when the profile is numerically unusable.
        """
        lc, ls, rho = theta
        sig = np.array([[lc * lc, rho * lc * ls], [rho * lc * ls, ls * ls]])
        A = np.eye(2)[None, :, :] + self.C @ sig
        det = A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0]
        if np.any(det <= 0):
            return 1e30, None, None, None
        inv = np.empty_like(A)
        inv[:, 0, 0] = A[:, 1, 1] / det
        inv[:, 1, 1] = A[:, 0, 0] / det
        inv[:, 0, 1] = -A[:, 0, 1] / det
        inv[:, 1, 0] = -A[:, 1, 0] / det
        S = sig[None, :, :] @ inv
        S = (S + np.swapaxes(S, 1, 2)) / 2.0

        xvx = self.XtX - np.einsum("kji,kjl,klm->im", self.G, S, self.G)
        xvy = self.Xty - np.einsum("kji,kjl,kl->i", self.G, S, self.hy)
        yvy = self.yty - float(np.einsum("kj,kjl,kl->", self.hy, S, self.hy))
        try:
            beta = np.linalg.solve(xvx, xvy)
        except np.linalg.LinAlgError:
            return 1e30, None, None, None
        sign, logdet_xvx = np.linalg.slogdet(xvx)
        if sign <= 0:
            return 1e30, None, None, None
        rss_gls = yvy - float(xvy @ beta)
        dof = self.n_total - self.p
        if rss_gls <= 0:
            return 1e30, None, None, None
        s2e = rss_gls / dof
        value = (
            0.5 * dof * (math.log(s2e) + 1.0) + 0.5 * float(np.log(det).sum()) + 0.5 * logdet_xvx
        )
        return value, beta, s2e, sig


def fit_general(data, options=None):
    """Maximise the restricted likelihood of an unbalanced dataset.

    The reported log_rl uses the same orthonormal-contrast constant
    convention as the balanced engine, so the two agree exactly on balanced
    data viewed through ``GeneralDataset.from_balanced``.
    """
    opts = options or FitOptions()
    pieces = _GeneralPieces(data)

    def neg(theta):
        return pieces.solve(theta)[0]

    mom = _general_moment_start(data, opts)
    if not math.isfinite(neg(mom)) or neg(mom) >= 1e30:
        raise DegenerateDataError("restricted likelihood is unusable at the starting point")

    theta, _, converged, n_evals = _multistart_maximize(neg, mom, opts)
    value, beta, s2e, _ = pieces.solve(theta)
    if beta is None:
        raise DegenerateDataError("restricted likelihood collapsed at the maximiser")
    lc, ls, rho = theta
    vp = VarianceParams(
        sigma2_e=s2e, sigma2_c=lc * lc * s2e, sigma2_s=ls * ls * s2e, rho=rho
    )
    label = classify(vp, opts.tolerances)
    return FitResult(
        params=vp,
        classification=label,
        log_rl=float(-value + 0.5 * pieces.logdet_xtx),
        converged=converged,
        n_evals=n_evals,
        boundary_variance=_boundary_variance_tag(lc * lc, ls * ls, opts.tolerances),
        beta=beta,
    )


def _general_moment_start(data, opts):
    """Rough moment-based starting point; the multistarts cover its misses."""
    rss_sum, df_sum = 0.0, 0
    coefs = []
    for c in data.clusters:
        n_i = c.x.shape[0]
        spread = float(np.var(c.x)) > 0
        if n_i >= 2 and spread:
            H = np.column_stack([np.ones_like(c.x), c.x])
            sol, res, _, _ = np.linalg.lstsq(H, c.y, rcond=None)
            coefs.append(sol)
            if n_i >= 3:
                fitted = H @ sol
                rss_sum += float(np.sum((c.y - fitted) ** 2))
                df_sum += n_i - 2
    if df_sum > 0 and rss_sum > 0:
        s2e0 = rss_sum / df_sum
    else:
        pooled = np.concatenate([c.y for c in data.clusters])
        s2e0 = max(float(np.var(pooled)), 1e-8)
    if len(coefs) >= 3:
        arr = np.array(coefs)
        va = max(float(np.var(arr[:, 0], ddof=1)) - s2e0, 0.0)
        vb = max(float(np.var(arr[:, 1], ddof=1)) - s2e0, 0.0)
        lc0 = math.sqrt(va / s2e0) if va > 0 else 0.3
        ls0 = math.sqrt(vb / s2e0) if vb > 0 else 0.3
        sa, sb = float(np.std(arr[:, 0])), float(np.std(arr[:, 1]))
        if sa > 0 and sb > 0:
            rho0 = float(np.corrcoef(arr[:, 0], arr[:, 1])[0, 1])
            rho0 = min(max(rho0, -0.9), 0.9)
        else:
            rho0 = 0.0
    else:
        lc0, ls0, rho0 = 0.5, 0.5, 0.0
    lc0 = min(max(lc0, 1e-3), 0.9 * opts.lambda_max)
    ls0 = min(max(ls0, 1e-3), 0.9 * opts.lambda_max)
    return lc0, ls0, rho0


def eblups(fit, data):
    """Empirical BLUPs of the per-cluster intercept/slope deviations.

    u_i = Sigma_hat H_i' V_i^{-1} (y_i - X_i beta_hat), evaluated through the
    relative-covariance identity u_i = Sigma_rel (I + C_i Sigma_rel)^{-1}
    H_i' r_i.  When Sigma_hat is singular the BLUPs lie in its column space
    by construction.

    Returns:
        Array of shape (n_clusters, 2).
    """
    vp = fit.params
    sig_rel = vp.sigma_matrix() / vp.sigma2_e
    out = np.empty((data.n_clusters, 2))
    for i, c in enumerate(data.clusters):
        H = np.column_stack([np.ones_like(c.x), c.x])
        r = c.y - c.X @ fit.beta
        A = np.eye(2) + (H.T @ H) @ sig_rel
        out[i] = sig_rel @ np.linalg.solve(A, H.T @ r)
    return out


# ---------------------------------------------------------------------------
# Dense oracle
# ---------------------------------------------------------------------------


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
    sigma = vp.sigma_matrix()
    blocks_v = []
    xs, ys = [], []
    for c in data.clusters:
        H = np.column_stack([np.ones_like(c.x), c.x])
        blocks_v.append(H @ sigma @ H.T + vp.sigma2_e * np.eye(len(c.x)))
        xs.append(c.X)
        ys.append(c.y)
    n = sum(b.shape[0] for b in blocks_v)
    V = np.zeros((n, n))
    at = 0
    for b in blocks_v:
        k = b.shape[0]
        V[at : at + k, at : at + k] = b
        at += k
    X = np.vstack(xs)
    y = np.concatenate(ys)

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


# ---------------------------------------------------------------------------
# General CSV ingestion
# ---------------------------------------------------------------------------


def read_general_csv(path, fixed_columns=()):
    """Read an unbalanced dataset from CSV rows (cluster, j, x, y, ...).

    Fixed effects are [1, x] plus any named extra columns, in that order.
    Cluster sizes may differ and x is unconstrained.
    """
    extra, clusters = parse_dataset_rows(path)
    missing = [c for c in fixed_columns if c not in extra]
    if missing:
        raise DataError(f"{path}: fixed-effect columns not present: {missing}")
    built = []
    for cid, rows in clusters.items():
        rows = sorted(rows, key=lambda r: r["j"])
        x = np.array([r["x"] for r in rows])
        y = np.array([r["y"] for r in rows])
        cols = [np.ones(len(rows)), x]
        cols += [np.array([r[c] for r in rows]) for c in fixed_columns]
        built.append(GeneralCluster(x=x, X=np.column_stack(cols), y=y))
    try:
        return GeneralDataset(clusters=tuple(built))
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
