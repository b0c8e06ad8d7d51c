"""Simulation experiments over the balanced random-regressions model.

This module encodes a catalog of named experiments (A through G), a large
factorial grid, and the analysis helpers used to summarize them: outcome
percentages per setting, an exact sign test comparing the two correlation
boundaries, a balanced-design ANOVA for the predictor sweep, least-squares
means, and interaction-plot aggregation.

Reproducibility model: every replicate's seed is derived from
(master_seed, setting id, replicate index) by hashing, so results are
independent of execution order and of the parallelism degree.  Summaries
are pure reductions over the sorted replicate records.
"""

from __future__ import annotations

import csv
import enum
import hashlib
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import EstimabilityError
from .model_system import DesignSpec, VarianceParams, simulate_stats
from .predictor import predictor_minus_one, predictor_plus_one
from .reml_core import Classification, FitOptions, fit_balanced


# ---------------------------------------------------------------------------
# Setting and record types
# ---------------------------------------------------------------------------

class VarianceMode(str, enum.Enum):
    """How the error/random-effect variance ratio r is realized.

    FIX_RANDOM_EFFECTS: sigma2_c = sigma2_s = 1 and sigma2_e = r.
    FIX_ERROR: sigma2_e = 1 and sigma2_c = sigma2_s = 1/r.

    Both modes generate data with the same ratio r; estimates differ only
    by an overall scale, so outcome percentages are comparable.
    """

    FIX_RANDOM_EFFECTS = "fix_random_effects"
    FIX_ERROR = "fix_error"


@dataclass(frozen=True)
class ExperimentSetting:
    """One simulation setting: a design, true parameters, and a rep count."""

    id: str
    experiment: str
    n_clusters: int
    cluster_size: int
    rho: float
    r: float
    reps: int
    variance_mode: VarianceMode = VarianceMode.FIX_RANDOM_EFFECTS

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if not (self.r > 0):
            raise ValueError("variance ratio r must be positive")

    @property
    def design(self) -> DesignSpec:
        return DesignSpec(self.n_clusters, self.cluster_size)

    @property
    def variance_params(self) -> VarianceParams:
        if self.variance_mode is VarianceMode.FIX_RANDOM_EFFECTS:
            return VarianceParams(self.r, 1.0, 1.0, self.rho)
        return VarianceParams(1.0, 1.0 / self.r, 1.0 / self.r, self.rho)


@dataclass(frozen=True)
class RepRecord:
    """Estimates and outcome for a single simulated replicate."""

    experiment: str
    setting: str
    rep: int
    seed: int
    sigma2_e: float
    sigma2_c: float
    sigma2_s: float
    rho_hat: float
    classification: Classification
    log_rl: float
    converged: bool


@dataclass(frozen=True)
class SettingSummary:
    """Outcome percentages for one setting plus its predictor values."""

    setting: ExperimentSetting
    pred_m1: float
    pred_p1: float
    pct_m1: float
    pct_p1: float
    pct_nan: float
    pct_bad: float
    mc_se_bad: float
    n_m1: int = field(default=0)
    n_p1: int = field(default=0)
    n_nan: int = field(default=0)


# ---------------------------------------------------------------------------
# Experiment catalog
# ---------------------------------------------------------------------------

# Experiments C and D change r by a factor 10**0.4 between settings; the
# exact grid values 10**0.8 and 10**1.2 (displayed as 6.3 and 15.8) are
# what the predictor columns were computed from, so the catalog carries
# the exact values.
_R_LOW = 10.0 ** 0.8
_R_HIGH = 10.0 ** 1.2


def experiment_catalog() -> list[ExperimentSetting]:
    """Return the full list of cataloged settings for experiments A-G."""
    out: list[ExperimentSetting] = []

    def add(exp: str, idx: int, n: int, s: int, rho: float, r: float,
            reps: int) -> None:
        out.append(ExperimentSetting(
            id=f"{exp}{idx}", experiment=exp, n_clusters=n, cluster_size=s,
            rho=rho, r=r, reps=reps))

    # A: rho = 0, increasing r.
    for i, r in enumerate((1e1, 1e2, 1e3, 1e4, 1e5), start=1):
        add("A", i, 500, 21, 0.0, r, 100)
    # B: as A but rho = 0.95.
    for i, r in enumerate((1e1, 1e2, 1e3, 1e4, 1e5), start=1):
        add("B", i, 500, 21, 0.95, r, 100)
    # C: base case, raise r, then counter with N, s, or rho.
    add("C", 1, 100, 9, -0.8, _R_LOW, 400)
    add("C", 2, 100, 9, -0.8, _R_HIGH, 400)
    add("C", 3, 500, 9, -0.8, _R_HIGH, 400)
    add("C", 4, 100, 25, -0.8, _R_HIGH, 400)
    add("C", 5, 100, 9, 0.0, _R_HIGH, 400)
    # D: base case, lower r, then counter with N, s, or rho.
    add("D", 1, 100, 9, -0.8, _R_HIGH, 600)
    add("D", 2, 100, 9, -0.8, _R_LOW, 600)
    add("D", 3, 21, 9, -0.8, _R_LOW, 600)
    add("D", 4, 100, 3, -0.8, _R_LOW, 600)
    add("D", 5, 100, 9, -0.96, _R_LOW, 600)
    # E: small N, large s.
    add("E", 1, 20, 25, -0.8, 6.0, 400)
    add("E", 2, 20, 25, -0.8, 15.0, 400)
    add("E", 3, 104, 25, -0.8, 15.0, 400)
    add("E", 4, 20, 63, -0.8, 15.0, 400)
    add("E", 5, 20, 25, 0.0, 15.0, 400)
    # F: large N, small s.
    add("F", 1, 1000, 3, -0.8, 9.0, 400)
    add("F", 2, 1000, 3, -0.8, 23.0, 400)
    add("F", 3, 5350, 3, -0.8, 23.0, 400)
    add("F", 4, 1000, 9, -0.8, 23.0, 400)
    add("F", 5, 1000, 3, 0.0, 23.0, 400)
    # G: one block of rho values per r.
    idx = 1
    for r in (53.0, 271.0, 3000.0, 1e5):
        for rho in (-0.95, -0.5, 0.0, 0.5, 0.95):
            add("G", idx, 500, 21, rho, r, 400)
            idx += 1
    return out


def factorial_grid(n_grid=None, s_grid=None, rho_grid=None,
                   log10_r_grid=None, reps: int = 40, scale: float | None = None,
                   variance_mode: VarianceMode = VarianceMode.FIX_RANDOM_EFFECTS,
                   ) -> list[ExperimentSetting]:
    """Build the full-factorial grid of settings.

    Default grids: N in 50..1050 by 100, s in 5..105 by 10, rho in
    -0.9..-0.1 by 0.1, log10(r) in 0..4 by 0.4.  `scale` subsamples each
    grid evenly (endpoints kept) to roughly `scale` times its length, for
    desk-scale runs.

    Setting ids encode the grid values, so a setting keeps the same
    replicate seeds no matter which subsample it appears in.
    """
    n_grid = list(n_grid) if n_grid is not None else list(range(50, 1051, 100))
    s_grid = list(s_grid) if s_grid is not None else list(range(5, 106, 10))
    rho_grid = (list(rho_grid) if rho_grid is not None
                else [-(9 - k) / 10 for k in range(9)])
    log10_r_grid = (list(log10_r_grid) if log10_r_grid is not None
                    else [2 * k / 5 for k in range(11)])

    if scale is not None:
        if not (0 < scale <= 1):
            raise ValueError("scale must be in (0, 1]")
        n_grid = _subsample(n_grid, scale)
        s_grid = _subsample(s_grid, scale)
        rho_grid = _subsample(rho_grid, scale)
        log10_r_grid = _subsample(log10_r_grid, scale)

    out = []
    for n in n_grid:
        for s in s_grid:
            for rho in rho_grid:
                for lr in log10_r_grid:
                    sid = f"f_N{n}_s{s}_rho{rho:+.2f}_logr{lr:.2f}"
                    out.append(ExperimentSetting(
                        id=sid, experiment="factorial", n_clusters=n,
                        cluster_size=s, rho=rho, r=10.0 ** lr, reps=reps,
                        variance_mode=variance_mode))
    return out


def _subsample(grid: list, scale: float) -> list:
    """Evenly subsample a grid to about scale * len(grid) points."""
    k = max(1, int(len(grid) * scale + 0.5))
    idx = np.round(np.linspace(0, len(grid) - 1, k)).astype(int)
    return [grid[i] for i in idx]


# ---------------------------------------------------------------------------
# Running settings
# ---------------------------------------------------------------------------

_SEED_BYTES = 8


def derive_seed(master_seed: int, setting_id: str, rep: int) -> int:
    """Derive a 64-bit replicate seed from the master seed by hashing.

    Hash-based derivation makes each replicate's stream independent of
    execution order, so results do not depend on the parallelism degree.
    """
    key = f"{int(master_seed)}:{setting_id}:{int(rep)}".encode()
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:_SEED_BYTES], "big")


def run_replicate(setting: ExperimentSetting, master_seed: int, rep: int,
                  options: FitOptions | None = None) -> RepRecord:
    """Draw one replicate's statistics, fit them, and record the outcome."""
    seed = derive_seed(master_seed, setting.id, rep)
    stats = simulate_stats(setting.design, setting.variance_params, seed)
    fit = fit_balanced(stats, options)
    p = fit.params
    return RepRecord(
        experiment=setting.experiment, setting=setting.id, rep=rep, seed=seed,
        sigma2_e=p.sigma2_e, sigma2_c=p.sigma2_c, sigma2_s=p.sigma2_s,
        rho_hat=fit.rho_hat, classification=fit.classification,
        log_rl=fit.log_rl, converged=fit.converged)


def _run_chunk(args) -> list[RepRecord]:
    setting, master_seed, rep_lo, rep_hi = args
    return [run_replicate(setting, master_seed, rep)
            for rep in range(rep_lo, rep_hi)]


def summarize(setting: ExperimentSetting,
              records: list[RepRecord]) -> SettingSummary:
    """Reduce replicate records for one setting to outcome percentages."""
    return _summaries([setting], [records])[0]


def _summaries(settings: list[ExperimentSetting],
               groups: list[list[RepRecord]]) -> list[SettingSummary]:
    """Summarize each setting's records; the predictor runs once on arrays."""
    for st, records in zip(settings, groups):
        if len(records) != st.reps:
            raise ValueError(
                f"expected {st.reps} records for {st.id}, "
                f"got {len(records)}")
    inputs = ([st.n_clusters for st in settings],
              [st.cluster_size for st in settings],
              [st.rho for st in settings], [st.r for st in settings])
    preds_m1 = predictor_minus_one(*inputs).tolist()
    preds_p1 = predictor_plus_one(*inputs).tolist()
    out = []
    for st, records, pred_m1, pred_p1 in zip(settings, groups, preds_m1,
                                             preds_p1):
        counts = Counter(r.classification for r in records)
        n_m1 = counts[Classification.RHO_MINUS_ONE]
        n_p1 = counts[Classification.RHO_PLUS_ONE]
        n_nan = counts[Classification.ZERO_VARIANCE]
        reps = st.reps
        # from the counts: the percentages' float sum can exceed 100
        p = (n_m1 + n_p1 + n_nan) / reps
        out.append(SettingSummary(
            setting=st, pred_m1=pred_m1, pred_p1=pred_p1,
            pct_m1=100.0 * n_m1 / reps, pct_p1=100.0 * n_p1 / reps,
            pct_nan=100.0 * n_nan / reps, pct_bad=100.0 * p,
            mc_se_bad=100.0 * math.sqrt(p * (1.0 - p) / reps),
            n_m1=n_m1, n_p1=n_p1, n_nan=n_nan))
    return out


def run_setting(setting: ExperimentSetting, master_seed: int,
                parallelism: int = 1,
                ) -> tuple[SettingSummary, list[RepRecord]]:
    """Run all replicates of one setting; see `run_settings` for many."""
    summaries, records = run_settings([setting], master_seed, parallelism)
    return summaries[0], records


def run_settings(settings: list[ExperimentSetting], master_seed: int,
                 parallelism: int = 1, chunk_size: int = 25,
                 ) -> tuple[list[SettingSummary], list[RepRecord]]:
    """Run many settings, optionally across processes.

    The output is deterministic for a given master seed: replicate seeds
    are derived per (setting, rep), and records are sorted by
    (setting order, rep) before aggregation, so any parallelism degree
    produces identical summaries and records.
    """
    ids = [st.id for st in settings]
    if len(set(ids)) != len(ids):
        raise ValueError("setting ids must be unique within a run")
    tasks = []
    for st in settings:
        for lo in range(0, st.reps, chunk_size):
            tasks.append((st, master_seed, lo, min(lo + chunk_size, st.reps)))

    if parallelism <= 1:
        chunks = [_run_chunk(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            chunks = list(pool.map(_run_chunk, tasks, chunksize=1))

    by_setting: dict[str, list[RepRecord]] = {st.id: [] for st in settings}
    for chunk in chunks:
        for rec in chunk:
            by_setting[rec.setting].append(rec)
    groups = [sorted(by_setting[st.id], key=lambda r: r.rep)
              for st in settings]
    records = [rec for recs in groups for rec in recs]
    return _summaries(settings, groups), records


def with_reps(settings: list[ExperimentSetting],
              reps: int) -> list[ExperimentSetting]:
    """Return the settings with the replicate count overridden."""
    return [replace(st, reps=reps) for st in settings]


# ---------------------------------------------------------------------------
# Tests on outcome counts
# ---------------------------------------------------------------------------

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


def two_proportion_pvalue(k1: int, n1: int, k2: int, n2: int) -> float:
    """Two-sided pooled z-test comparing two independent proportions."""
    if min(n1, n2) < 1 or not (0 <= k1 <= n1 and 0 <= k2 <= n2):
        raise ValueError("invalid counts")
    p_pool = (k1 + k2) / (n1 + n2)
    se = math.sqrt(p_pool * (1.0 - p_pool) * (1.0 / n1 + 1.0 / n2))
    if se == 0.0:
        return 1.0
    z = (k1 / n1 - k2 / n2) / se
    return math.erfc(abs(z) / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Balanced ANOVA with effects coding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnovaRow:
    """One term of an ANOVA decomposition."""

    term: str
    df: int
    ss: float
    ms: float


def _factor_levels(table: dict, factors: list[str]) -> dict:
    """Sorted observed levels of each factor column."""
    return {name: sorted(set(np.asarray(table[name]).tolist()))
            for name in factors}


def _effects_blocks(columns: dict, factors: list[str], levels: dict,
                    two_way: bool = True) -> list[tuple[str, np.ndarray]]:
    """Effects-coded design blocks: intercept, main effects, interactions.

    Level k of a factor (k < last) gets an indicator column with -1 on the
    last level, so each factor's coded columns sum to zero over a balanced
    design.  `levels` fixes the coding, so rows that are not the table's
    own (a prediction grid) are coded exactly as the table is.
    """
    m = len(columns[factors[0]])
    coded = {}
    for name in factors:
        vals = np.asarray(columns[name])
        lev = levels[name]
        cols = np.zeros((m, len(lev) - 1))
        for k, v in enumerate(lev[:-1]):
            cols[vals == v, k] = 1.0
        cols[vals == lev[-1], :] = -1.0
        coded[name] = cols

    blocks = [("intercept", np.ones((m, 1)))]
    blocks += [(name, coded[name]) for name in factors]
    if two_way:
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                a, b = coded[factors[i]], coded[factors[j]]
                inter = (a[:, :, None] * b[:, None, :]).reshape(m, -1)
                blocks.append((f"{factors[i]}:{factors[j]}", inter))
    return blocks


def anova_balanced(table: dict, factors: list[str], response: str,
                   two_way: bool = True) -> list[AnovaRow]:
    """Sequential ANOVA: main effects, two-way interactions, remainder.

    Fits a least-squares decomposition with effects coding, adding terms
    in blocks (intercept, then main effects in the order given, then all
    two-way interactions); each term's sum of squares is the drop in
    residual sum of squares when its block enters.  Whatever is left --
    higher-order interactions plus any replicate error -- is pooled into
    a single `remainder` row.

    Args:
        table: column dict; factor columns are treated as categorical.
        factors: names of the factor columns.
        response: name of the numeric response column.
        two_way: include the two-way interaction blocks.  Set False for
            sparse designs where not every pair of levels co-occurs; the
            main-effect rows are unchanged because they enter first.

    Returns:
        AnovaRow list: one row per main effect and two-way interaction,
        plus the pooled remainder.

    Raises:
        EstimabilityError: if a term's block is collinear with what came
            before it (empty cells), naming the offending term.
    """
    y = np.asarray(table[response], dtype=float)
    n = y.shape[0]
    blocks = _effects_blocks(table, factors, _factor_levels(table, factors),
                             two_way)

    rows: list[AnovaRow] = []
    x = np.empty((n, 0))
    rss_prev = float(y @ y)
    rank_prev = 0
    for term, cols in blocks:
        x = np.hstack([x, cols])
        beta, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
        if rank != rank_prev + cols.shape[1]:
            raise EstimabilityError(
                f"term '{term}' is not estimable (empty cells in the design)")
        resid = y - x @ beta
        rss = float(resid @ resid)
        df = cols.shape[1]
        if term != "intercept":
            rows.append(AnovaRow(term, df, rss_prev - rss,
                                 (rss_prev - rss) / df))
        rss_prev, rank_prev = rss, int(rank)
    df_rem = n - rank_prev
    if df_rem > 0:
        rows.append(AnovaRow("remainder", df_rem, rss_prev,
                             rss_prev / df_rem))
    return rows


def ls_means(table: dict, factors: list[str], response: str,
             factor: str) -> dict:
    """Least-squares means of one factor under the two-way-interaction model.

    Fits the same model as `anova_balanced` and averages its fitted values
    over a uniform grid of the other factors' observed levels, one average
    per level of `factor`.  On a perfectly balanced design these equal the
    raw level means.

    Returns:
        dict mapping each level of `factor` to its adjusted mean.
    """
    if factor not in factors:
        raise ValueError(f"{factor!r} is not among the factors")
    y = np.asarray(table[response], dtype=float)
    levels = _factor_levels(table, factors)

    def design(columns: dict) -> np.ndarray:
        return np.hstack([cols for _, cols in
                          _effects_blocks(columns, factors, levels)])

    x = design(table)
    beta, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank != x.shape[1]:
        raise EstimabilityError(
            "two-way interaction model is not estimable on this table")

    others = [name for name in factors if name != factor]
    grids = np.meshgrid(*[levels[name] for name in others], indexing="ij")
    flat = {name: g.ravel() for name, g in zip(others, grids)}
    n_grid = next(iter(flat.values())).shape[0] if others else 1

    out = {}
    for lev in levels[factor]:
        cols = dict(flat)
        cols[factor] = np.full(n_grid, lev, dtype=np.asarray(
            table[factor]).dtype)
        preds = design(cols) @ beta
        out[lev] = float(np.mean(preds))
    return out


def interaction_plot_data(summaries: list[SettingSummary],
                          by_factor: str) -> list[dict]:
    """Average outcome percentages per (log10 r, factor level).

    Args:
        summaries: setting summaries from a factorial run.
        by_factor: "n_clusters", "cluster_size", or "rho".

    Returns:
        Rows sorted by (log10_r, level), each with the four outcome
        percentages averaged over the remaining factors.
    """
    if by_factor not in ("n_clusters", "cluster_size", "rho"):
        raise ValueError(f"unknown factor {by_factor!r}")
    groups: dict = {}
    for sm in summaries:
        lr = round(math.log10(sm.setting.r), 10)
        key = (lr, getattr(sm.setting, by_factor))
        groups.setdefault(key, []).append(sm)
    rows = []
    for (lr, lev) in sorted(groups):
        sms = groups[(lr, lev)]
        rows.append({
            "log10_r": lr, "level": lev,
            "pct_bad": sum(s.pct_bad for s in sms) / len(sms),
            "pct_m1": sum(s.pct_m1 for s in sms) / len(sms),
            "pct_p1": sum(s.pct_p1 for s in sms) / len(sms),
            "pct_nan": sum(s.pct_nan for s in sms) / len(sms),
        })
    return rows


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

SUMMARY_HEADER = ["experiment", "setting", "N", "s", "rho", "r", "reps",
                  "pred_m1", "pred_p1", "pct_m1", "pct_p1", "pct_nan",
                  "pct_bad", "mc_se_bad"]
REPLICATE_HEADER = ["experiment", "setting", "rep", "seed", "sigma2_e",
                    "sigma2_c", "sigma2_s", "rho_hat", "classification",
                    "log_rl", "converged"]


def write_summary_csv(summaries: list[SettingSummary], path) -> None:
    """Write setting summaries with full float precision."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SUMMARY_HEADER)
        for sm in summaries:
            st = sm.setting
            w.writerow([st.experiment, st.id, st.n_clusters, st.cluster_size,
                        repr(float(st.rho)), repr(float(st.r)), st.reps,
                        repr(sm.pred_m1), repr(sm.pred_p1), repr(sm.pct_m1),
                        repr(sm.pct_p1), repr(sm.pct_nan), repr(sm.pct_bad),
                        repr(sm.mc_se_bad)])


def write_replicate_csv(records: list[RepRecord], path) -> None:
    """Write per-replicate estimates with full float precision."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(REPLICATE_HEADER)
        for r in records:
            w.writerow([r.experiment, r.setting, r.rep, r.seed,
                        repr(float(r.sigma2_e)), repr(float(r.sigma2_c)),
                        repr(float(r.sigma2_s)), repr(float(r.rho_hat)),
                        r.classification.value, repr(float(r.log_rl)),
                        int(r.converged)])


def write_interaction_csv(rows: list[dict], path) -> None:
    """Write interaction-plot rows (one per log10 r and factor level)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["log10_r", "level", "pct_bad", "pct_m1", "pct_p1",
                    "pct_nan"])
        for row in rows:
            w.writerow([repr(float(row["log10_r"])), row["level"],
                        repr(row["pct_bad"]), repr(row["pct_m1"]),
                        repr(row["pct_p1"]), repr(row["pct_nan"])])
