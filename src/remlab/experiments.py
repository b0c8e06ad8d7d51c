"""Simulation experiments over the balanced random-regressions model.

This module encodes a catalog of named experiments (A through G), a large
factorial grid, and the analysis helpers used to summarize them: outcome
percentages per setting, a balanced-design ANOVA for the predictor sweep,
least-squares means, and interaction-plot aggregation.

Reproducibility model: every replicate's seed is derived from
(master_seed, setting id, replicate index) by hashing, so results are
independent of execution order and of the parallelism degree, and
`run_settings` joins the records of its contiguous blocks of replicates in
order, so the partition into tasks never shows in the output.  Summaries
are pure reductions over the replicate records, in (setting, rep) order.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from operator import attrgetter, itemgetter

import numpy as np

from .errors import EstimabilityError
from .model_system import (DesignSpec, VarianceMode, VarianceParams, simulate_stats,
                           write_csv)
from .predictor import predictor_minus_one, predictor_plus_one
from .reml_core import Classification, fit_balanced


# ---------------------------------------------------------------------------
# Setting and record types
# ---------------------------------------------------------------------------

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
    n_m1: int
    n_p1: int
    n_nan: int


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


def factorial_grid(reps: int = 40, scale: float | None = None,
                   variance_mode: VarianceMode = VarianceMode.FIX_RANDOM_EFFECTS,
                   ) -> list[ExperimentSetting]:
    """Build the full-factorial grid of settings.

    The grids: N in 50..1050 by 100, s in 5..105 by 10, rho in -0.9..-0.1
    by 0.1, log10(r) in 0..4 by 0.4.  `scale` subsamples each grid evenly
    (endpoints kept) to roughly `scale` times its length, for desk-scale
    runs.

    Setting ids encode the grid values, so a setting keeps the same
    replicate seeds no matter which subsample it appears in.
    """
    grids = [list(range(50, 1051, 100)), list(range(5, 106, 10)),
             [-(9 - k) / 10 for k in range(9)], [2 * k / 5 for k in range(11)]]
    if scale is not None:
        if not (0 < scale <= 1):
            raise ValueError("scale must be in (0, 1]")
        grids = [_subsample(g, scale) for g in grids]
    return [ExperimentSetting(
                id=f"f_N{n}_s{s}_rho{rho:+.2f}_logr{lr:.2f}", experiment="factorial",
                n_clusters=n, cluster_size=s, rho=rho, r=10.0 ** lr, reps=reps,
                variance_mode=variance_mode)
            for n, s, rho, lr in itertools.product(*grids)]


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


def run_replicate(setting: ExperimentSetting, master_seed: int,
                  rep: int) -> RepRecord:
    """Draw one replicate's statistics, fit them, and record the outcome."""
    seed = derive_seed(master_seed, setting.id, rep)
    stats = simulate_stats(setting.design, setting.variance_params, seed)
    fit = fit_balanced(stats)
    p = fit.params
    return RepRecord(
        experiment=setting.experiment, setting=setting.id, rep=rep, seed=seed,
        sigma2_e=p.sigma2_e, sigma2_c=p.sigma2_c, sigma2_s=p.sigma2_s,
        rho_hat=fit.rho_hat, classification=fit.classification,
        log_rl=fit.log_rl)


def _run_chunk(block: list[tuple[ExperimentSetting, int]],
               master_seed: int) -> list[RepRecord]:
    """Run one block of (setting, rep) pairs, in order: one pool task."""
    return [run_replicate(st, master_seed, rep) for st, rep in block]


def _summaries(settings: list[ExperimentSetting],
               groups: list[list[RepRecord]]) -> list[SettingSummary]:
    """Summarize each setting's records, ``st.reps`` of them; the predictor
    runs once on arrays."""
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


# A replicate takes about a + b * N * s: the draws and the statistics grow
# with the data, the fit does not.  a / b was about 3,000 on a 2-core host
# (75 us and 0.023 us), so a replicate weighs N * s + _REP_OVERHEAD.
_REP_OVERHEAD = 3000
# pool tasks per worker: a few, so that a block costlier than estimated
# does not hold up the end of the run (1 to 8 read alike on mc_factorial)
_BLOCKS_PER_WORKER = 4


def _blocks(settings: list[ExperimentSetting],
            n_blocks: int) -> list[list[tuple[ExperimentSetting, int]]]:
    """Cut the (setting, rep) sequence, in order, into at most ``n_blocks``
    contiguous blocks of about equal estimated cost.

    A replicate goes to the block whose equal share of the total cost holds
    the midpoint of its own cost, so no block is empty and each differs from
    its share by less than one replicate; a setting may span several blocks.
    """
    weights = [st.n_clusters * st.cluster_size + _REP_OVERHEAD for st in settings]
    total = sum(w * st.reps for st, w in zip(settings, weights))
    keyed, done = [], 0
    for st, w in zip(settings, weights):
        for rep in range(st.reps):
            keyed.append(((2 * done + w) * n_blocks // (2 * total), (st, rep)))
            done += w
    return [[pair for _, pair in group]
            for _, group in itertools.groupby(keyed, key=itemgetter(0))]


def run_settings(settings: list[ExperimentSetting], master_seed: int,
                 parallelism: int = 1,
                 ) -> tuple[list[SettingSummary], list[RepRecord]]:
    """Run many settings, optionally across processes.

    The (setting, rep) sequence is cut, in order, into contiguous blocks of
    about equal estimated cost (``_blocks``): one when serial, else
    ``_BLOCKS_PER_WORKER`` per worker, so each worker gets a few tasks of
    similar length whatever the mix of design sizes.  A pool of at most one
    worker per block and per CPU runs them; with one block no pool opens.

    The output does not depend on the partition: replicate seeds are
    derived per (setting, rep), and the blocks' records are joined in block
    order, so the records come back in (setting, rep) order at any
    parallelism degree, and each setting's are the next ``st.reps`` of them.
    """
    ids = [st.id for st in settings]
    if len(set(ids)) != len(ids):
        raise ValueError("setting ids must be unique within a run")
    blocks = _blocks(settings, _BLOCKS_PER_WORKER * parallelism if parallelism > 1 else 1)
    if len(blocks) > 1:
        workers = min(parallelism, len(blocks), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_chunk, blocks, itertools.repeat(master_seed)))
    else:
        chunks = [_run_chunk(block, master_seed) for block in blocks]

    records = [rec for chunk in chunks for rec in chunk]
    rest = iter(records)
    groups = [list(itertools.islice(rest, st.reps)) for st in settings]
    return _summaries(settings, groups), records


def with_reps(settings: list[ExperimentSetting],
              reps: int) -> list[ExperimentSetting]:
    """Return the settings with the replicate count overridden."""
    return [replace(st, reps=reps) for st in settings]


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
    """Sorted observed levels of each factor column; EstimabilityError names
    a factor with fewer than two."""
    levels = {name: sorted(set(np.asarray(table[name]).tolist())) for name in factors}
    for name, lev in levels.items():
        if len(lev) < 2:
            raise EstimabilityError(f"factor {name!r} has fewer than two levels; "
                                    f"its effect is not estimable")
    return levels


def _effects_blocks(columns: dict, factors: list[str], levels: dict,
                    two_way: bool = True) -> list[tuple[str, np.ndarray]]:
    """Effects-coded design blocks: intercept, main effects, interactions.

    Level k of a factor (k < last) gets an indicator column with -1 on the
    last level, so each factor's coded columns sum to zero over a balanced
    design.
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
        EstimabilityError: if a factor has fewer than two levels, or a
            term's block is collinear with what came before it (empty
            cells), naming the factor or term.
    """
    y = np.asarray(table[response], dtype=float)
    n = y.shape[0]
    blocks = _effects_blocks(table, factors, _factor_levels(table, factors),
                             two_way)

    rows: list[AnovaRow] = []
    x = np.empty((n, 0))
    rss_prev = float((y * y).sum())
    rank_prev = 0
    for term, cols in blocks:
        x = np.hstack([x, cols])
        beta, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
        if rank != rank_prev + cols.shape[1]:
            raise EstimabilityError(
                f"term '{term}' is not estimable (empty cells in the design)")
        resid = y - x @ beta
        rss = float((resid * resid).sum())
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

    Fits the same model as `anova_balanced`.  The LS-mean of a level is the
    fitted value averaged over a uniform grid of the other factors' observed
    levels; under effects coding every coded column averages to zero over
    that grid, so the average is the intercept plus the level's coded main
    effect (Searle, Speed & Milliken 1980, Am. Statist. 34:216).  On a
    perfectly balanced design these equal the raw level means.

    Returns:
        dict mapping each level of `factor` to its adjusted mean.
    """
    if factor not in factors:
        raise ValueError(f"{factor!r} is not among the factors")
    y = np.asarray(table[response], dtype=float)
    levels = _factor_levels(table, factors)
    x = np.hstack([cols for _, cols in _effects_blocks(table, factors, levels)])
    beta, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank != x.shape[1]:
        raise EstimabilityError(
            "two-way interaction model is not estimable on this table")
    lo = 1 + sum(len(levels[name]) - 1 for name in factors[:factors.index(factor)])
    effects = beta[lo:lo + len(levels[factor]) - 1]
    return {lev: float(beta[0] + e)
            for lev, e in zip(levels[factor], [*effects, -effects.sum()])}


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
# the SettingSummary attribute under each SUMMARY_HEADER column
_SUMMARY_FIELDS = attrgetter(
    "setting.experiment", "setting.id", "setting.n_clusters", "setting.cluster_size",
    "setting.rho", "setting.r", "setting.reps", "pred_m1", "pred_p1", "pct_m1", "pct_p1",
    "pct_nan", "pct_bad", "mc_se_bad")
REPLICATE_HEADER = ["experiment", "setting", "rep", "seed", "sigma2_e",
                    "sigma2_c", "sigma2_s", "rho_hat", "classification",
                    "log_rl"]
_INTERACTION_HEADER = ["log10_r", "level", "pct_bad", "pct_m1", "pct_p1", "pct_nan"]


def write_summary_csv(summaries: list[SettingSummary], path) -> None:
    """Write setting summaries with full float precision."""
    write_csv(path, SUMMARY_HEADER, map(_SUMMARY_FIELDS, summaries))


def write_replicate_csv(records: list[RepRecord], path) -> None:
    """Write per-replicate estimates with full float precision."""
    write_csv(path, REPLICATE_HEADER, map(attrgetter(*REPLICATE_HEADER), records))


def write_interaction_csv(rows: list[dict], path) -> None:
    """Write interaction-plot rows (one per log10 r and factor level)."""
    write_csv(path, _INTERACTION_HEADER, map(itemgetter(*_INTERACTION_HEADER), rows))
