"""The closed-form REML maximiser against the optimiser and a dense grid.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "..", "src"), os.path.join(HERE, "..")]

from remlab import (FixedEffects, experiments, fit_balanced,  # noqa: E402
                    log_restricted_likelihood, simulate, sufficient_stats)
from oracle import closed_form_log_rl, closed_form_params  # noqa: E402

SEED = 20260825


def stats(setting, rep):
    seed = experiments.derive_seed(SEED, setting.id, rep)
    data = simulate(setting.design, FixedEffects(0.0, 0.0), setting.variance_params, seed)
    return sufficient_stats(data)


@pytest.mark.parametrize("setting", experiments.experiment_catalog(), ids=lambda st: st.id)
def test_never_below_the_optimiser_on_catalog_designs(setting):
    for rep in range(3):
        ss = stats(setting, rep)
        fit = fit_balanced(ss)
        assert closed_form_log_rl(ss) >= fit.log_rl - 1e-9


def profiled_log_rl(ss, lc, ls, rho):
    """log_rl with sigma2_e profiled out, vectorised over (lc, ls, rho) arrays.

    Same algebra as the balanced engine's objective: at
    s2e = (rss + trace)/(N s - 2) the likelihood is
    -(N s - 2)/2 * (log s2e + 1) - (N - 1)/2 * log det.
    """
    d = ss.design
    n, s, q = d.n_clusters, d.cluster_size, d.q
    dof = d.n_total - 2
    t = ss.t_outer
    fcc = s * lc * lc + 1.0
    fss = q * ls * ls + 1.0
    fcs = math.sqrt(s * q) * rho * lc * ls
    det = fcc * fss - fcs * fcs
    trace = (fss * t[0, 0] - 2.0 * fcs * t[0, 1] + fcc * t[1, 1]) / det
    s2e = (ss.rss + trace) / dof
    return -0.5 * dof * (np.log(s2e) + 1.0) - 0.5 * (n - 1) * np.log(det)


def grid_max(ss):
    """Dense grid maximum over (lambda_c, lambda_s, rho), refined once."""
    lam = np.concatenate([[0.0], np.logspace(-3, 2, 80)])
    rho = np.linspace(-1.0, 1.0, 81)
    axes = [lam, lam, rho]
    for _ in range(2):
        lc, ls, r = np.meshgrid(*axes, indexing="ij")
        vals = profiled_log_rl(ss, lc, ls, r)
        idx = np.unravel_index(np.argmax(vals), vals.shape)
        best = float(vals[idx])
        axes = [np.linspace(ax[max(i - 1, 0)], ax[min(i + 1, len(ax) - 1)], 61)
                for ax, i in zip(axes, idx)]
    return best


SMALL = [("D3", 0), ("D3", 1), ("D4", 0), ("D4", 1), ("E1", 0), ("E2", 0), ("E2", 1),
         ("C1", 0), ("C2", 2), ("A1", 0)]


def test_matches_a_dense_grid_maximum_on_small_designs():
    by_id = {st.id: st for st in experiments.experiment_catalog()}
    labels = set()
    for sid, rep in SMALL:
        ss = stats(by_id[sid], rep)
        best = closed_form_log_rl(ss)
        grid = grid_max(ss)
        assert best >= grid - 1e-9, (sid, rep)
        assert best - grid < 1e-4, (sid, rep, best - grid)
        p = closed_form_params(ss)
        labels.add("interior" if min(p.sigma2_c, p.sigma2_s) > 0 and abs(p.rho) < 1
                   else "boundary")
    # the cases cover both branches of the truncation
    assert labels == {"interior", "boundary"}


def test_params_reproduce_the_reported_maximum():
    ss = stats(experiments.experiment_catalog()[0], 0)
    assert closed_form_log_rl(ss) == log_restricted_likelihood(ss, closed_form_params(ss))
