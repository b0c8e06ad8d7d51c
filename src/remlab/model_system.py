"""Two-level random-intercept/random-slope model: designs, simulation, summaries.

Data are N clusters of s observations each.  Within cluster i,

    y_ij = beta0_i + beta1_i * x_j + e_ij,

where the pairs (beta0_i, beta1_i) are iid bivariate normal around the fixed
intercept/slope with covariance built from (sigma2_c, sigma2_s, rho), the
errors e_ij are iid N(0, sigma2_e), and the shared regressor x is an
antisymmetric grid on [-1, 1] (odd s, so the grid includes 0).

Because every cluster shares the regressor, the restricted likelihood depends
on the data only through a scalar residual sum of squares and a 2x2 matrix of
between-cluster contrast cross-products, held in a ``SuffStats``.  There are
two ways into one:

- ``sufficient_stats`` reduces a dataset (simulated, or read from a CSV) in
  O(N*s) without materialising any contrast basis;
- ``simulate_stats`` goes straight from a seed: it draws the same stream as
  ``simulate`` and reduces the draws without forming the responses, which is
  what each Monte Carlo replicate does.

``simulate`` stays for everything that needs the data themselves: the
``remlab simulate`` command (whose files ``remlab fit`` reads), the tests
that check the statistics against the data, and the benchmark's
verification, which recomputes every replicate's statistics from
``simulate``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "DesignSpec",
    "FixedEffects",
    "VarianceParams",
    "ClusteredDataset",
    "SuffStats",
    "build_h",
    "moment_q",
    "simulate",
    "simulate_stats",
    "sufficient_stats",
    "read_dataset_csv",
    "write_dataset_csv",
]

_SEED_MASK = (1 << 64) - 1


def build_h(s):
    """Return the shared regressor grid for an odd cluster size.

    The grid is (-1, -(m-1)/m, ..., 0, ..., (m-1)/m, 1) with m = (s-1)/2:
    antisymmetric, step 1/m, and exactly summing to zero so the intercept
    and slope columns of the within-cluster design are orthogonal.

    Args:
        s: Cluster size; odd integer >= 3.

    Returns:
        Array of length s.
    """
    _validate_cluster_size(s)
    m = (s - 1) // 2
    return np.array([k / m for k in range(-m, m + 1)])


def moment_q(s):
    """Return q = h'h, the squared length of the slope regressor.

    Closed form (2*m**2 + 3*m + 1) / (3*m) with m = (s-1)/2.
    """
    _validate_cluster_size(s)
    m = (s - 1) // 2
    return (2 * m * m + 3 * m + 1) / (3 * m)


def _validate_cluster_size(s):
    if not isinstance(s, (int, np.integer)):
        raise ValueError(f"cluster size must be an integer, got {s!r}")
    if s < 3 or s % 2 == 0:
        raise ValueError(f"cluster size must be odd and >= 3, got {s}")


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DesignSpec:
    """Balanced design: N clusters, each of odd size s with the shared grid."""

    n_clusters: int
    cluster_size: int

    def __post_init__(self):
        if not isinstance(self.n_clusters, (int, np.integer)) or self.n_clusters < 2:
            raise ValueError(f"n_clusters must be an integer >= 2, got {self.n_clusters!r}")
        _validate_cluster_size(self.cluster_size)

    @property
    def m(self):
        return (self.cluster_size - 1) // 2

    @property
    def q(self):
        return moment_q(self.cluster_size)

    @property
    def h(self):
        return build_h(self.cluster_size)

    @property
    def n_total(self):
        return self.n_clusters * self.cluster_size


@dataclass(frozen=True)
class FixedEffects:
    """Population intercept and slope."""

    b0: float = 0.0
    b1: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.b0) and math.isfinite(self.b1)):
            raise ValueError("fixed effects must be finite")


@dataclass(frozen=True)
class VarianceParams:
    """Variance components of the two-level model.

    sigma2_c and sigma2_s are the intercept and slope variances, rho their
    correlation (closed interval [-1, 1]; the endpoints are legitimate
    boundary values).  sigma2_e = 0 is accepted so degenerate noise-free
    data can be simulated; likelihood evaluation requires sigma2_e > 0.
    """

    sigma2_e: float
    sigma2_c: float
    sigma2_s: float
    rho: float

    def __post_init__(self):
        vals = (self.sigma2_e, self.sigma2_c, self.sigma2_s, self.rho)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"variance parameters must be finite, got {vals}")
        if self.sigma2_e < 0 or self.sigma2_c < 0 or self.sigma2_s < 0:
            raise ValueError(f"variances must be nonnegative, got {vals}")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")

    def sigma_matrix(self):
        """2x2 covariance of the random intercept/slope pair."""
        sc = math.sqrt(self.sigma2_c)
        ss = math.sqrt(self.sigma2_s)
        off = self.rho * sc * ss
        return np.array([[self.sigma2_c, off], [off, self.sigma2_s]])

    def sigma_cholesky(self):
        """Lower-triangular square root of ``sigma_matrix``.

        Uses [[sc, 0], [rho*ss, ss*sqrt(1-rho^2)]] so the second diagonal
        entry is exactly zero at rho = +/-1 and simulation draws stay exactly
        on the degenerate ray.
        """
        sc = math.sqrt(self.sigma2_c)
        ss = math.sqrt(self.sigma2_s)
        return np.array(
            [[sc, 0.0], [self.rho * ss, ss * math.sqrt(max(0.0, 1.0 - self.rho * self.rho))]]
        )


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusteredDataset:
    """Responses of a balanced two-level dataset, one row per cluster."""

    design: DesignSpec
    y: np.ndarray  # shape (N, s)

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        expected = (self.design.n_clusters, self.design.cluster_size)
        if y.shape != expected:
            raise ValueError(f"response matrix must have shape {expected}, got {y.shape}")
        if not np.all(np.isfinite(y)):
            raise ValueError("responses must be finite")
        object.__setattr__(self, "y", y)

    @property
    def x(self):
        return self.design.h


def _draw(design, seed):
    """Draw one replicate's standard normals from its own counter-based stream.

    The generator is Philox, so a given 64-bit seed yields the same draws on
    any platform and in any execution order.  The draw order is fixed: an
    N x 2 matrix z for the random effects, then the N x s error matrix.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed) & _SEED_MASK)))
    z = rng.standard_normal((design.n_clusters, 2))
    return z, rng.standard_normal((design.n_clusters, design.cluster_size))


def simulate(design, fixed, vp, seed):
    """Draw one balanced dataset from the model.

    Args:
        design: DesignSpec.
        fixed: FixedEffects.
        vp: VarianceParams (sigma2_e = 0 allowed; gives noise-free data).
        seed: integer seed; reduced modulo 2**64 (see ``_draw``).

    Returns:
        ClusteredDataset.
    """
    z, noise = _draw(design, seed)
    betas = np.array([fixed.b0, fixed.b1]) + z @ vp.sigma_cholesky().T
    y = betas[:, :1] + betas[:, 1:] * design.h[None, :] + noise * math.sqrt(vp.sigma2_e)
    return ClusteredDataset(design=design, y=y)


def simulate_stats(design, vp, seed):
    """``sufficient_stats(simulate(design, fixed, vp, seed))`` without the data.

    The statistics are invariant to the fixed effects (rss is within-cluster
    and t_outer is centred over clusters), so none are taken.  Draws the same
    stream as ``simulate`` and reduces it directly.  With P = noise @ [1, h]
    and 1'h = 0, cluster i's sums are 1'y_i = s*u0_i + se*P_i0 and
    h'y_i = q*u1_i + se*P_i1 for its random effects u_i, and its residuals
    around its own line are se times those of its noise row, so
    rss = sigma2_e * (noise'noise - sum_i P_i0^2/s - sum_i P_i1^2/q).  The
    result agrees with the data path to rounding, and rss is exactly 0.0
    when sigma2_e = 0.

    Returns:
        SuffStats.
    """
    z, noise = _draw(design, seed)
    s, q = design.cluster_size, design.q
    p = (noise @ np.column_stack([np.ones(s), design.h])).T.copy()
    sums = vp.sigma_cholesky() @ z.T * [[s], [q]]
    sums += math.sqrt(vp.sigma2_e) * p
    rss = vp.sigma2_e * float((noise * noise).sum() - (p[0] * p[0]).sum() / s - (p[1] * p[1]).sum() / q)
    return _stats(design, sums, rss)


# ---------------------------------------------------------------------------
# Sufficient statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuffStats:
    """Everything the restricted likelihood needs from a balanced dataset.

    rss is the pooled within-cluster residual sum of squares around each
    cluster's own intercept/slope fit.  t_outer is the 2x2 sum of outer
    products of the scaled between-cluster contrasts: with
    v_i = ((1'y_i)/sqrt(s), (h'y_i)/sqrt(q)), it equals
    sum_i v_i v_i' - N * vbar vbar'.
    """

    design: DesignSpec
    rss: float
    t_outer: np.ndarray  # shape (2, 2), symmetric PSD

    def __post_init__(self):
        t = np.asarray(self.t_outer, dtype=float)
        if t.shape != (2, 2):
            raise ValueError(f"t_outer must be 2x2, got shape {t.shape}")
        if not (np.all(np.isfinite(t)) and math.isfinite(self.rss)):
            raise ValueError("sufficient statistics must be finite")
        if self.rss < 0:
            raise ValueError(f"rss must be nonnegative, got {self.rss}")
        object.__setattr__(self, "t_outer", t)


def sufficient_stats(data):
    """Reduce a balanced dataset to its restricted-likelihood statistics.

    Per cluster, only 1'y_i, h'y_i and y_i'y_i enter:
    rss_i = y_i'y_i - (1'y_i)^2/s - (h'y_i)^2/q, and the contrast matrix is
    accumulated from the scaled projections v_i.  No residual-contrast basis
    is ever formed.
    """
    design = data.design
    y = data.y
    s = design.cluster_size
    q = design.q

    sum1 = y.sum(axis=1)
    sumh = y @ design.h
    rss = float((y * y).sum() - (sum1 * sum1).sum() / s - (sumh * sumh).sum() / q)
    return _stats(design, np.array([sum1, sumh]), rss)


def _stats(design, sums, rss):
    """SuffStats from the 2 x N per-cluster sums (1'y_i, h'y_i) and rss.

    t_outer is D^-1 C C' D^-1 with C the sums centred over clusters (one
    2 x N by N x 2 product) and D = diag(sqrt(s), sqrt(q)); rss is clipped
    at 0 against rounding.
    """
    sums = sums - sums.sum(axis=1, keepdims=True) / design.n_clusters
    c = sums @ sums.T
    s, q = design.cluster_size, design.q
    off = float(c[0, 1]) / math.sqrt(s * q)
    t = np.array([[float(c[0, 0]) / s, off], [off, float(c[1, 1]) / q]])
    return SuffStats(design=design, rss=max(rss, 0.0), t_outer=t)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

_HEADER = ["cluster", "j", "x", "y"]


def write_dataset_csv(data, path):
    """Write a dataset as rows (cluster, j, x, y), full float precision."""
    h = data.design.h
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HEADER)
        for i in range(data.design.n_clusters):
            for j in range(data.design.cluster_size):
                writer.writerow([i + 1, j + 1, repr(float(h[j])), repr(float(data.y[i, j]))])


def parse_dataset_rows(path):
    """Parse a dataset CSV into per-cluster row lists.

    Returns (fieldnames, clusters) where clusters is an ordered mapping from
    cluster id to its list of row dicts (values parsed to float except the
    cluster and j columns).  Raises DataError with the offending line number
    for malformed content.  Extra columns beyond (cluster, j, x, y) are
    carried through untouched so callers can bind them to fixed effects.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read dataset file {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file")
        missing = [c for c in _HEADER if c not in reader.fieldnames]
        if missing:
            raise DataError(f"{path}: missing required columns {missing}")
        extra = [c for c in reader.fieldnames if c not in _HEADER]
        clusters: dict[int, list[dict]] = {}
        for lineno, row in enumerate(reader, start=2):
            try:
                cid = int(row["cluster"])
                j = int(row["j"])
                parsed = {"j": j, "x": float(row["x"]), "y": float(row["y"])}
                for c in extra:
                    parsed[c] = float(row[c])
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: malformed row ({exc})") from exc
            if not all(math.isfinite(parsed[k]) for k in parsed if k != "j"):
                raise DataError(f"{path}:{lineno}: non-finite value")
            clusters.setdefault(cid, []).append(parsed)
        if not clusters:
            raise DataError(f"{path}: no data rows")
    return extra, clusters


def read_dataset_csv(path):
    """Read a balanced dataset written by ``write_dataset_csv``.

    Every cluster must have the same odd size s >= 3 and x values matching
    the shared grid to 1e-9; anything else raises DataError.
    """
    extra, clusters = parse_dataset_rows(path)
    sizes = {len(rows) for rows in clusters.values()}
    if len(sizes) != 1:
        raise DataError(f"{path}: clusters have unequal sizes {sorted(sizes)}")
    s = sizes.pop()
    if s < 3 or s % 2 == 0:
        raise DataError(f"{path}: cluster size must be odd and >= 3, got {s}")
    h = build_h(s)
    n = len(clusters)
    y = np.empty((n, s))
    for i, (cid, rows) in enumerate(clusters.items()):
        rows = sorted(rows, key=lambda r: r["j"])
        if [r["j"] for r in rows] != list(range(1, s + 1)):
            raise DataError(f"{path}: cluster {cid} must have j = 1..{s}")
        xs = np.array([r["x"] for r in rows])
        if np.max(np.abs(xs - h)) > 1e-9:
            raise DataError(f"{path}: cluster {cid} regressor differs from the shared grid")
        y[i] = [r["y"] for r in rows]
    return ClusteredDataset(design=DesignSpec(n_clusters=n, cluster_size=s), y=y)
