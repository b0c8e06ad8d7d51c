"""Tests for the restricted-likelihood engine on balanced data."""

import itertools
import math

import numpy as np
import pytest

from remlab import (Classification, ClassifyTolerances, ClusteredDataset,
                    DegenerateDataError, DesignSpec, FitOptions, FitResult,
                    FixedEffects, SuffStats, VarianceParams, classify,
                    derive_seed, experiment_catalog, fit_balanced,
                    log_restricted_likelihood, log_rl_dense_oracle,
                    profile_sigma2_r, profiled_log_rl, profiled_rl_offset,
                    simulate, sufficient_stats)
from remlab._optimize import nelder_mead

RNG = np.random.default_rng(20260825)
MASTER = 20260825


def random_vp(rng):
    return VarianceParams(
        sigma2_e=float(rng.uniform(0.1, 5.0)),
        sigma2_c=float(rng.uniform(0.01, 5.0)),
        sigma2_s=float(rng.uniform(0.01, 5.0)),
        rho=float(rng.uniform(-0.95, 0.95)),
    )


# ---------------------------------------------------------------------------
# Likelihood evaluation against the dense oracle
# ---------------------------------------------------------------------------


class TestLogRestrictedLikelihood:
    def test_differences_match_dense_oracle(self):
        # the fast form and the brute-force contrast likelihood may differ
        # by a data-independent constant, so compare differences
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            s = int(rng.choice([3, 5, 7]))
            data = simulate(DesignSpec(n, s), FixedEffects(1.0, -0.5),
                            random_vp(rng), int(rng.integers(0, 2**31)))
            ss = sufficient_stats(data)
            vp1, vp2 = random_vp(rng), random_vp(rng)
            d_fast = (log_restricted_likelihood(ss, vp1)
                      - log_restricted_likelihood(ss, vp2))
            d_dense = (log_rl_dense_oracle(data, vp1)
                       - log_rl_dense_oracle(data, vp2))
            np.testing.assert_allclose(d_fast, d_dense, rtol=1e-9,
                                       atol=1e-9)

    def test_constant_offset_is_parameter_free(self):
        data = simulate(DesignSpec(4, 5), FixedEffects(1.0, -1.0),
                        VarianceParams(2.0, 1.0, 0.5, 0.3), 5)
        ss = sufficient_stats(data)
        rng = np.random.default_rng(3)
        offs = [log_restricted_likelihood(ss, vp)
                - log_rl_dense_oracle(data, vp)
                for vp in (random_vp(rng) for _ in range(5))]
        np.testing.assert_allclose(offs, offs[0], rtol=1e-10)

    def test_requires_positive_error_variance(self, medium_stats):
        with pytest.raises(ValueError):
            log_restricted_likelihood(
                medium_stats, VarianceParams(0.0, 1.0, 1.0, 0.0))

    def test_returns_python_float(self, medium_stats):
        out = log_restricted_likelihood(
            medium_stats, VarianceParams(1.0, 1.0, 1.0, 0.0))
        assert type(out) is float


# ---------------------------------------------------------------------------
# Equal-variance profile
# ---------------------------------------------------------------------------


class TestProfile:
    def test_profile_maximises_over_sigma2_r(self, medium_stats):
        r, rho = 4.0, -0.5
        s2r = profile_sigma2_r(medium_stats, r, rho)
        assert s2r > 0

        def value(v):
            return log_restricted_likelihood(
                medium_stats, VarianceParams(r * v, v, v, rho))

        best = value(s2r)
        for factor in (0.9, 0.99, 1.01, 1.1):
            assert value(s2r * factor) < best
        # stationarity of the closed form
        step = s2r * 1e-6
        grad = (value(s2r + step) - value(s2r - step)) / (2 * step)
        assert abs(grad) < 1e-6

    def test_profiled_identity_with_offset(self, medium_stats):
        design = medium_stats.design
        off = profiled_rl_offset(design)
        for r, rho in [(0.5, 0.0), (4.0, -0.5), (50.0, 0.9), (1.0, -1.0),
                       (10.0, 1.0)]:
            s2r = profile_sigma2_r(medium_stats, r, rho)
            full = log_restricted_likelihood(
                medium_stats, VarianceParams(r * s2r, s2r, s2r, rho))
            prof = profiled_log_rl(medium_stats, r, rho)
            np.testing.assert_allclose(prof + off, full, rtol=1e-12)

    def test_offset_closed_form(self):
        for n, s in [(2, 3), (500, 21)]:
            dof = n * s - 2
            assert profiled_rl_offset(DesignSpec(n, s)) == pytest.approx(
                0.5 * dof * (math.log(dof) - 1.0), rel=1e-15)

    def test_boundary_rho_is_finite(self, medium_stats):
        for rho in (-1.0, 1.0):
            assert math.isfinite(profiled_log_rl(medium_stats, 2.0, rho))

    def test_invalid_arguments(self, medium_stats):
        with pytest.raises(ValueError):
            profiled_log_rl(medium_stats, -1.0, 0.0)
        with pytest.raises(ValueError):
            profiled_log_rl(medium_stats, 1.0, 1.5)

    def test_degenerate_data_raises(self):
        ss = SuffStats(design=DesignSpec(5, 3), rss=0.0,
                       t_outer=np.zeros((2, 2)))
        with pytest.raises(DegenerateDataError):
            profiled_log_rl(ss, 1.0, 0.0)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


class TestClassify:
    def test_interior(self):
        assert classify(VarianceParams(1.0, 1.0, 1.0, 0.5)) \
            is Classification.GOOD

    def test_rho_boundaries(self):
        assert classify(VarianceParams(1.0, 1.0, 1.0, -1.0 + 1e-9)) \
            is Classification.RHO_MINUS_ONE
        assert classify(VarianceParams(1.0, 1.0, 1.0, 1.0 - 1e-9)) \
            is Classification.RHO_PLUS_ONE
        assert classify(VarianceParams(1.0, 1.0, 1.0, -1.0 + 1e-3)) \
            is Classification.GOOD

    def test_zero_variance_takes_precedence(self):
        # with a vanished variance the correlation is unidentified, so the
        # label must be ZERO_VARIANCE no matter where rho sits
        vp = VarianceParams(1.0, 1e-11, 1.0, -1.0)
        assert classify(vp) is Classification.ZERO_VARIANCE
        vp = VarianceParams(1.0, 1.0, 0.0, 1.0)
        assert classify(vp) is Classification.ZERO_VARIANCE

    def test_tolerance_override(self):
        vp = VarianceParams(1.0, 1.0, 1.0, 0.6)
        assert classify(vp, ClassifyTolerances(rho=0.5)) \
            is Classification.RHO_PLUS_ONE
        vp = VarianceParams(1.0, 1e-4, 1.0, 0.0)
        assert classify(vp, ClassifyTolerances(variance_ratio=1e-3)) \
            is Classification.ZERO_VARIANCE


# ---------------------------------------------------------------------------
# The balanced fit driver
# ---------------------------------------------------------------------------


class TestFitBalanced:
    def test_frozen_interior_fit(self, medium_dataset):
        fit = fit_balanced(medium_dataset)
        p = fit.params
        assert fit.classification is Classification.GOOD
        assert fit.converged and fit.n_evals > 0
        np.testing.assert_allclose(
            [p.sigma2_e, p.sigma2_c, p.sigma2_s, p.rho],
            [4.060293464870371, 0.9562668674183713, 1.065791507647947,
             -0.5022361170343179], rtol=1e-9)
        np.testing.assert_allclose(fit.log_rl, -2331.2772922486597,
                                   rtol=1e-12)

    def test_recovers_truth_at_scale(self):
        data = simulate(DesignSpec(2000, 21), FixedEffects(0.0, 0.0),
                        VarianceParams(1.0, 1.0, 1.0, -0.5), 5)
        fit = fit_balanced(data)
        assert fit.classification is Classification.GOOD
        p = fit.params
        for est, truth in [(p.sigma2_e, 1.0), (p.sigma2_c, 1.0),
                           (p.sigma2_s, 1.0), (p.rho, -0.5)]:
            assert abs(est - truth) < 0.1 * abs(truth)

    def test_maximiser_certificate(self, medium_dataset, medium_stats):
        # no random in-box perturbation of the maximiser may improve the
        # restricted likelihood beyond numerical slack
        fit = fit_balanced(medium_dataset)
        p = fit.params
        best = fit.log_rl
        rng = np.random.default_rng(99)
        for scale in (1e-4, 1e-2, 0.3):
            for _ in range(100):
                s2e = p.sigma2_e * math.exp(rng.normal() * scale)
                s2c = p.sigma2_c * math.exp(rng.normal() * scale)
                s2s = p.sigma2_s * math.exp(rng.normal() * scale)
                rho = min(max(p.rho + rng.normal() * scale, -1.0), 1.0)
                trial = log_restricted_likelihood(
                    medium_stats, VarianceParams(s2e, s2c, s2s, rho))
                assert trial <= best + 1e-8

    def test_classification_consistent_with_params(self, medium_dataset):
        opts = FitOptions()
        fit = fit_balanced(medium_dataset, opts)
        assert classify(fit.params, opts.tolerances) is fit.classification

    @pytest.mark.parametrize("seed,expected,tag", [
        (2, Classification.RHO_MINUS_ONE, None),
        (4, Classification.RHO_PLUS_ONE, None),
        (0, Classification.RHO_PLUS_ONE, None),
        (3, Classification.ZERO_VARIANCE, "both"),
    ])
    def test_boundary_outcomes(self, seed, expected, tag):
        data = simulate(DesignSpec(50, 9), FixedEffects(0.0, 0.0),
                        VarianceParams(1e5, 1.0, 1.0, 0.0), seed)
        fit = fit_balanced(data)
        assert fit.classification is expected
        assert fit.boundary_variance == tag
        if expected is Classification.RHO_MINUS_ONE:
            assert fit.params.rho <= -1.0 + 1e-6
        if expected is Classification.RHO_PLUS_ONE:
            assert fit.params.rho >= 1.0 - 1e-6

    def test_scale_equivariance(self):
        base = simulate(DesignSpec(120, 9), FixedEffects(0.0, 0.0),
                        VarianceParams(3.0, 1.0, 0.8, -0.4), 21)
        c = 3.7
        scaled = ClusteredDataset(design=base.design, y=base.y * c)
        p1 = fit_balanced(base).params
        p2 = fit_balanced(scaled).params
        np.testing.assert_allclose(
            [p2.sigma2_e, p2.sigma2_c, p2.sigma2_s],
            [c * c * p1.sigma2_e, c * c * p1.sigma2_c, c * c * p1.sigma2_s],
            rtol=1e-5)
        np.testing.assert_allclose(p2.rho, p1.rho, atol=1e-5)

    def test_degenerate_data(self):
        flat = simulate(DesignSpec(10, 5), FixedEffects(1.0, 2.0),
                        VarianceParams(0.0, 1.0, 1.0, 0.2), 3)
        with pytest.raises(DegenerateDataError):
            fit_balanced(flat)
        fit = fit_balanced(flat, FitOptions(allow_degenerate=True))
        assert fit.params.sigma2_e > 0

    def test_accepts_suffstats_directly(self, medium_dataset, medium_stats):
        a = fit_balanced(medium_dataset)
        b = fit_balanced(medium_stats)
        np.testing.assert_allclose(a.params.rho, b.params.rho, rtol=1e-12)
        np.testing.assert_allclose(a.log_rl, b.log_rl, rtol=1e-12)

    def test_tolerances_flow_through(self, medium_dataset):
        # rho_hat is about -0.5, so a huge rho tolerance reclassifies it
        opts = FitOptions(tolerances=ClassifyTolerances(rho=0.6))
        fit = fit_balanced(medium_dataset, opts)
        assert fit.classification is Classification.RHO_MINUS_ONE

    def test_json_round_trip(self, medium_dataset, tmp_path):
        fit = fit_balanced(medium_dataset)
        path = tmp_path / "fit.json"
        fit.write_json(path)
        back = FitResult.read_json(path)
        assert back.classification is fit.classification
        assert back.converged == fit.converged
        np.testing.assert_allclose(
            [back.params.sigma2_e, back.params.sigma2_c,
             back.params.sigma2_s, back.params.rho, back.log_rl],
            [fit.params.sigma2_e, fit.params.sigma2_c,
             fit.params.sigma2_s, fit.params.rho, fit.log_rl], rtol=0.0)


# ---------------------------------------------------------------------------
# Global optimality of the closed-form fit
# ---------------------------------------------------------------------------


def _replicate_data(setting, rep):
    """The dataset ``run_replicate`` fits for (setting, rep) at MASTER."""
    return simulate(setting.design, FixedEffects(0.0, 0.0),
                    setting.variance_params,
                    derive_seed(MASTER, setting.id, rep))


def _search_best_log_rl(ss):
    """Best log_rl found by a grid plus Nelder-Mead search.

    Searches theta = (lambda_c, lambda_s, rho), the random-effect standard
    deviations relative to sigma_e and their correlation, with sigma2_e at
    its closed-form profile for that theta.  The grid holds 0 and +/-1
    exactly, so every boundary facet is visited; the best three grid points
    are then refined by bounded Nelder-Mead, restarted from its own result
    until it stops improving.
    """
    design = ss.design
    d = np.diag([math.sqrt(design.cluster_size), math.sqrt(design.q)])

    def log_rl(theta):
        lc, ls, rho = theta
        off = rho * lc * ls
        f_rel = d @ np.array([[lc * lc, off], [off, ls * ls]]) @ d + np.eye(2)
        s2e = ((ss.rss + float(np.trace(np.linalg.solve(f_rel, ss.t_outer))))
               / (design.n_total - 2))
        return log_restricted_likelihood(
            ss, VarianceParams(s2e, lc * lc * s2e, ls * ls * s2e, rho))

    lams = [0.0] + [10.0 ** e for e in np.arange(-4.0, 2.01, 0.5)]
    grid = sorted(((log_rl(th), th) for th in itertools.product(
        lams, lams, (-1.0, -0.5, 0.0, 0.5, 1.0))), reverse=True)
    best = grid[0][0]
    for f, theta in grid[:3]:
        bounds = [(0.0, 3.0 * theta[0] + 1e-3), (0.0, 3.0 * theta[1] + 1e-3),
                  (-1.0, 1.0)]
        for _ in range(10):
            theta, neg, _, _ = nelder_mead(lambda th: -log_rl(th), theta,
                                           bounds, fatol=1e-12, xatol=1e-10)
            if -neg <= f:
                break
            f = -neg
        best = max(best, f)
    return best


class TestGlobalOptimality:
    def test_beats_independent_search_on_catalog(self):
        misses = []
        for st in experiment_catalog():
            ss = sufficient_stats(_replicate_data(st, 0))
            fit = fit_balanced(ss)
            found = _search_best_log_rl(ss)
            if fit.log_rl < found - 1e-9 * abs(found):
                misses.append((st.id, fit.log_rl, found))
        assert not misses

    def test_mirror_pairs_on_high_noise_settings(self):
        # reversing each cluster's responses mirrors x on the antisymmetric
        # grid, so the maximiser must come back mirrored: rho negated, the
        # +/-1 labels swapped and the same log_rl
        swap = {Classification.RHO_MINUS_ONE: Classification.RHO_PLUS_ONE,
                Classification.RHO_PLUS_ONE: Classification.RHO_MINUS_ONE}
        settings = [st for st in experiment_catalog()
                    if st.id in ("A3", "A4", "A5")]
        bad = []
        for st in settings:
            for rep in range(40):
                data = _replicate_data(st, rep)
                mirror = ClusteredDataset(design=data.design,
                                          y=data.y[:, ::-1])
                a, b = fit_balanced(data), fit_balanced(mirror)
                if (b.classification is not swap.get(a.classification,
                                                     a.classification)
                        or abs(a.params.rho + b.params.rho) > 1e-12
                        or abs(a.log_rl - b.log_rl) > 1e-12 * abs(a.log_rl)):
                    bad.append((st.id, rep, a.classification,
                                b.classification, a.log_rl - b.log_rl))
        assert not bad
