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
import enum
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError


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

    def sigma_cholesky(self):
        """Lower-triangular square root of the 2x2 covariance of the random
        intercept/slope pair.

        Uses [[sc, 0], [rho*ss, ss*sqrt(1-rho^2)]] so the second diagonal
        entry is exactly zero at rho = +/-1 and simulation draws stay exactly
        on the degenerate ray.
        """
        sc = math.sqrt(self.sigma2_c)
        ss = math.sqrt(self.sigma2_s)
        return np.array(
            [[sc, 0.0], [self.rho * ss, ss * math.sqrt(max(0.0, 1.0 - self.rho * self.rho))]]
        )


class VarianceMode(str, enum.Enum):
    """How the error/random-effect variance ratio r is realized.

    FIX_RANDOM_EFFECTS: sigma2_c = sigma2_s = 1 and sigma2_e = r.
    FIX_ERROR: sigma2_e = 1 and sigma2_c = sigma2_s = 1/r.

    Both modes generate data with the same ratio r; estimates differ only
    by an overall scale, so outcome percentages are comparable.
    """

    FIX_RANDOM_EFFECTS = "fix_random_effects"
    FIX_ERROR = "fix_error"


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
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

    @classmethod
    def from_rows(cls, rows):
        """The balanced dataset in a parsed CSV (see ``parse_dataset_rows``).

        At least two clusters must have the same odd size s >= 3 (the rule
        of ``DesignSpec``), j = 1..s, and x values matching the shared grid
        to 1e-9; anything else raises DataError, naming the first cluster,
        in file order, that fails j or x.
        """
        path = rows.path
        sizes = np.diff(rows.bounds)
        if sizes.min() != sizes.max():
            raise DataError(f"{path}: clusters have unequal sizes {sorted(set(sizes.tolist()))}")
        n, s = len(rows.ids), int(sizes[0])
        try:
            design = DesignSpec(n_clusters=n, cluster_size=s)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from exc
        h = design.h
        bad_j = (rows.j.reshape(n, s) != np.arange(1, s + 1)).any(axis=1)
        bad_x = np.abs(rows.x.reshape(n, s) - h).max(axis=1) > 1e-9
        bad = np.flatnonzero(bad_j | bad_x)
        if bad.size:
            k = bad[0]
            if bad_j[k]:
                raise DataError(f"{path}: cluster {rows.ids[k]} must have j = 1..{s}")
            raise DataError(f"{path}: cluster {rows.ids[k]} regressor differs from the shared grid")
        # a copy, so the dataset does not keep the parse buffer (x, extras) alive
        return cls(design=design, y=rows.y.reshape(n, s).copy())


def philox(seed):
    """The counter-based generator (Philox) of an integer seed, reduced modulo 2**64.

    A given seed yields the same draws on any platform and in any execution
    order; seed and seed + 2**64 (a negative seed included) yield the same.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed) % 2**64)))


def _draw(design, seed):
    """Draw one replicate's standard normals from its own stream (``philox``).

    The draw order is fixed: an N x 2 matrix z for the random effects, then
    the N x s error matrix.
    """
    rng = philox(seed)
    z = rng.standard_normal((design.n_clusters, 2))
    return z, rng.standard_normal((design.n_clusters, design.cluster_size))


def simulate(design, fixed, vp, seed):
    """Draw one balanced dataset from the model.

    Args:
        design: DesignSpec.
        fixed: FixedEffects.
        vp: VarianceParams (sigma2_e = 0 allowed; gives noise-free data).
        seed: integer seed; reduced modulo 2**64 (see ``philox``).

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


@dataclass(frozen=True, eq=False)
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

    rss is a difference of sums that each reach up to y'y, so a value below
    their worst-case rounding error, n_total * eps * y'y (Higham 2002,
    Accuracy and Stability of Numerical Algorithms, sec. 4.2), carries no
    information and is returned as exactly 0.0: noise-free data then give
    rss = 0 whatever the rounding.
    """
    design = data.design
    y = data.y
    s = design.cluster_size
    q = design.q

    sum1 = y.sum(axis=1)
    sumh = y @ design.h
    yy = float((y * y).sum())
    rss = yy - float((sum1 * sum1).sum()) / s - float((sumh * sumh).sum()) / q
    if rss <= design.n_total * np.finfo(float).eps * yy:
        rss = 0.0
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


def write_csv(path, header, rows):
    """Write a header row, then rows of Python scalars: every CSV the package
    writes.  csv writes a cell through ``str``, so a float is the shortest
    string that reads back to the same double and a ``str`` enum its value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_dataset_csv(data, path):
    """Write a dataset as rows (cluster, j, x, y), full float precision."""
    h = data.design.h.tolist()
    # one cluster's row at a time: whole columns as lists would hold every cell at once
    write_csv(path, _HEADER, ((i, j, x, y) for i, ys in enumerate(data.y, start=1)
                              for j, (x, y) in enumerate(zip(h, ys.tolist()), start=1)))


class DatasetRows:
    """A dataset CSV held as columns, each cluster's rows contiguous.

    Clusters keep the order in which they first appear in the file.  Cluster
    ``ids[k]`` owns rows ``bounds[k]:bounds[k + 1]`` of ``j`` and of every
    row of ``values`` (one per column name, x and y first), sorted by j; the
    sort is stable, so rows that share a j keep their file order.
    """

    def __init__(self, path, ids, sizes, j, names, values):
        self.path = path
        self.ids = ids  # cluster ids, ints in order of first appearance
        self.bounds = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.bounds[1:])
        self.j = j  # (n,) int64
        self.names = tuple(names)  # ("x", "y", *extra columns in header order)
        self.values = values  # (len(names), n) floats

    @property
    def x(self):
        return self.values[0]

    @property
    def y(self):
        return self.values[1]

    @property
    def extra(self):
        return self.names[2:]

    def column(self, name):
        return self.values[self.names.index(name)]


_I64 = np.iinfo(np.int64)
# The bytes a body may hold for the one-pass parse.  On these, numpy reads a
# field exactly as int() and float() do; it would not on others (it skips
# \x1c-\x1f as space, where float() rejects them), so they take the row loop.
_PLAIN = b"0123456789+-.eE, \t\n"


def parse_dataset_rows(path):
    """Parse a dataset CSV into columns grouped by cluster (a ``DatasetRows``).

    The required columns are cluster, j, x and y, in any order; further
    columns are carried through as floats so callers can bind them to fixed
    effects.

    A plainly formatted file (ASCII, unquoted, every row as long as the
    header, integer cluster and j, finite floats) is parsed in one numpy
    pass, grouped with ``np.unique`` and ``np.lexsort``.  numpy accepts a
    field there only where ``int()`` and ``float()`` read it to the same
    value.  Every other file, malformed ones included, goes to the csv row
    loop, which raises DataError with the offending line number.  The two
    paths return the same ``DatasetRows`` for any file both accept.
    """
    rows = _parse_plain(path)
    return rows if rows is not None else _parse_row_loop(path)


def _parse_plain(path):
    """The one-pass parse, or None to leave the file to the row loop."""
    try:
        with open(path) as fh:  # universal newlines end rows where csv does
            text = fh.read()
    except (OSError, ValueError):
        return None
    header, _, body = text.partition("\n")
    names = header.split(",")
    if (not text.isascii() or '"' in header or len(set(names)) != len(names)
            or not set(_HEADER) <= set(names) or not body.strip("\n")
            or body.encode("ascii").translate(None, _PLAIN)):
        return None
    field = {n: f"f{k}" for k, n in enumerate(names)}  # header names may not be valid
    try:
        table = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=1,
                           dtype=[(field[n], "i8" if n in ("cluster", "j") else "f8")
                                  for n in names])
    except ValueError:
        return None
    floats = ["x", "y", *(n for n in names if n not in _HEADER)]
    if not all(np.isfinite(table[field[n]]).all() for n in floats):
        return None
    j = table[field["j"]]
    uniq, first, inverse = np.unique(table[field["cluster"]], return_index=True,
                                     return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    pos = rank[inverse]
    perm = np.lexsort((j, pos))
    values = np.empty((len(floats), perm.size))
    for row, n in zip(values, floats):
        np.take(table[field[n]], perm, out=row)
    return DatasetRows(path, uniq[order].tolist(), np.bincount(pos), j[perm], floats, values)


def _parse_row_loop(path):
    """Row-by-row parse; the source of every malformed-row DataError."""
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
        floats = ["x", "y", *(c for c in reader.fieldnames if c not in _HEADER)]
        clusters: dict[int, list] = {}
        for row in reader:  # line_num counts the blank lines that reader skips
            try:
                cid = int(row["cluster"])
                j = int(row["j"])
                vals = [float(row[c]) for c in floats]
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}:{reader.line_num}: malformed row ({exc})") from exc
            if not all(map(math.isfinite, vals)):
                raise DataError(f"{path}:{reader.line_num}: non-finite value")
            clusters.setdefault(cid, []).append((j, vals))
        if not clusters:
            raise DataError(f"{path}: no data rows")
    flat = [r for rows in clusters.values() for r in sorted(rows, key=lambda r: r[0])]
    # a j outside int64 never equals 1..s; clamping keeps the order just made
    j = np.array([min(max(r[0], _I64.min), _I64.max) for r in flat], dtype=np.int64)
    values = np.array([r[1] for r in flat]).T.copy()
    return DatasetRows(path, list(clusters), [len(rows) for rows in clusters.values()], j,
                       floats, values)


def read_dataset_csv(path):
    """Read a balanced dataset written by ``write_dataset_csv``.

    One ``parse_dataset_rows`` pass, then ``ClusteredDataset.from_rows``:
    every cluster must have the same odd size s >= 3 and x values matching
    the shared grid to 1e-9; anything else raises DataError.
    """
    return ClusteredDataset.from_rows(parse_dataset_rows(path))
