"""Tests for the balanced model system: grids, simulation, statistics, CSV."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remlab import (DataError, DesignSpec, FixedEffects, VarianceParams,
                    build_h, derive_seed, experiment_catalog, factorial_grid,
                    fit_balanced, moment_q, read_dataset_csv, simulate,
                    simulate_stats, sufficient_stats, write_dataset_csv)

MASTER = 20260825


# ---------------------------------------------------------------------------
# Regressor grid and its second moment
# ---------------------------------------------------------------------------


class TestBuildH:
    def test_small_grids_exact(self):
        np.testing.assert_array_equal(build_h(3), [-1.0, 0.0, 1.0])
        np.testing.assert_array_equal(
            build_h(9),
            [-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("s", [3, 5, 9, 21, 63, 105])
    def test_grid_properties(self, s):
        h = build_h(s)
        assert h.shape == (s,)
        np.testing.assert_allclose(h + h[::-1], 0.0, atol=0.0)
        assert abs(h.sum()) < 1e-12
        assert h[0] == -1.0 and h[-1] == 1.0
        assert np.all(np.diff(h) > 0)

    @pytest.mark.parametrize("s", [1, 2, 4, 10, 0, -3])
    def test_invalid_sizes(self, s):
        with pytest.raises(ValueError):
            build_h(s)


class TestMomentQ:
    def test_known_values_exact(self):
        assert moment_q(3) == 2.0
        assert moment_q(9) == 3.75
        assert moment_q(21) == 7.7
        assert moment_q(25) == 325.0 / 36.0
        assert moment_q(63) == 2016.0 / 93.0

    @pytest.mark.parametrize("s", list(range(3, 42, 2)))
    def test_matches_grid_second_moment(self, s):
        # q is exactly the sum of squares of the shared regressor grid
        np.testing.assert_allclose(moment_q(s), np.sum(build_h(s) ** 2),
                                   rtol=1e-13)

    def test_closed_form(self):
        for s in (3, 7, 11, 51):
            m = (s - 1) // 2
            assert moment_q(s) == (2 * m * m + 3 * m + 1) / (3.0 * m)


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------


class TestDesignSpec:
    def test_derived_quantities(self):
        d = DesignSpec(100, 9)
        assert d.m == 4
        assert d.q == 3.75
        assert d.n_total == 900
        np.testing.assert_array_equal(d.h, build_h(9))

    def test_validation(self):
        with pytest.raises(ValueError):
            DesignSpec(1, 9)
        with pytest.raises(ValueError):
            DesignSpec(10, 8)
        with pytest.raises(ValueError):
            DesignSpec(10, 1)


class TestVarianceParams:
    def test_sigma_matrix(self):
        vp = VarianceParams(2.0, 4.0, 9.0, -0.5)
        expect = np.array([[4.0, -3.0], [-3.0, 9.0]])
        np.testing.assert_allclose(vp.sigma_matrix(), expect, rtol=1e-15)

    @pytest.mark.parametrize("rho", [-1.0, -0.5, 0.0, 0.9, 1.0])
    def test_cholesky_reconstructs(self, rho):
        vp = VarianceParams(1.0, 2.0, 5.0, rho)
        chol = vp.sigma_cholesky()
        np.testing.assert_allclose(chol @ chol.T, vp.sigma_matrix(),
                                   atol=1e-12)
        assert chol[0, 1] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            VarianceParams(-1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            VarianceParams(1.0, -1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            VarianceParams(1.0, 1.0, 1.0, 1.5)
        # noise-free simulation is allowed
        VarianceParams(0.0, 1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------


class TestSimulate:
    def test_frozen_draw(self):
        # regression guard on the fixed draw order of the counter-based RNG
        data = simulate(DesignSpec(2, 3), FixedEffects(0.0, 0.0),
                        VarianceParams(1.0, 1.0, 1.0, 0.0), 1)
        expect = [[2.733595063104669, 0.3390048856783863, 0.2023224434611135],
                  [-0.7374828079860245, 0.8299510333461013,
                   0.9284946570743376]]
        np.testing.assert_allclose(data.y, expect, rtol=1e-12)

    def test_deterministic_and_seed_sensitive(self):
        d = DesignSpec(5, 5)
        fe, vp = FixedEffects(1.0, -2.0), VarianceParams(1.0, 2.0, 0.5, 0.3)
        a = simulate(d, fe, vp, 42)
        b = simulate(d, fe, vp, 42)
        c = simulate(d, fe, vp, 43)
        np.testing.assert_array_equal(a.y, b.y)
        assert np.any(a.y != c.y)

    def test_noise_free_is_exact_lines(self):
        d = DesignSpec(4, 7)
        data = simulate(d, FixedEffects(3.0, 0.0),
                        VarianceParams(0.0, 0.0, 0.0, 0.0), 9)
        np.testing.assert_allclose(data.y, 3.0, atol=0.0)

    def test_moments_match_model(self):
        # The scaled contrast matrix T/(N-1) estimates
        # F = diag(sqrt(s), sqrt(q)) Sigma diag(...) + sigma2_e I, and
        # rss/(N(s-2)) estimates sigma2_e; check both at 4 sigma.
        n, s = 20000, 5
        vp = VarianceParams(2.0, 3.0, 1.5, -0.4)
        data = simulate(DesignSpec(n, s), FixedEffects(5.0, -1.0), vp, 123)
        ss = sufficient_stats(data)
        q = moment_q(s)
        f = np.array([
            [s * vp.sigma2_c + vp.sigma2_e,
             math.sqrt(s * q) * vp.rho
             * math.sqrt(vp.sigma2_c * vp.sigma2_s)],
            [0.0, q * vp.sigma2_s + vp.sigma2_e]])
        f[1, 0] = f[0, 1]
        t_scaled = ss.t_outer / (n - 1)
        # each Wishart entry has sd of roughly f * sqrt(2/n)
        tol = 4.0 * math.sqrt(2.0 / n) * np.sqrt(
            np.outer(np.diag(f), np.diag(f)))
        assert np.all(np.abs(t_scaled - f) < tol)
        s2e_hat = ss.rss / (n * (s - 2))
        assert abs(s2e_hat - vp.sigma2_e) < 4.0 * vp.sigma2_e \
            * math.sqrt(2.0 / (n * (s - 2)))


class TestSimulateStats:
    @pytest.mark.parametrize("grid", [experiment_catalog(),
                                      factorial_grid(scale=0.3)],
                             ids=["catalog", "factorial"])
    def test_matches_data_path(self, grid):
        # the statistic draw reduces the same stream as the data path, so
        # the two agree to rounding and every fit is the same fit
        for st in grid:
            seed = derive_seed(MASTER, st.id, 0)
            got = simulate_stats(st.design, st.variance_params, seed)
            ref = sufficient_stats(simulate(st.design, FixedEffects(0.0, 0.0),
                                            st.variance_params, seed))
            assert got.design == ref.design
            np.testing.assert_allclose(got.rss, ref.rss, rtol=1e-12)
            assert (np.abs(got.t_outer - ref.t_outer).max()
                    <= 1e-12 * np.abs(ref.t_outer).max()), st.id
            fit, ref_fit = fit_balanced(got), fit_balanced(ref)
            assert fit.classification is ref_fit.classification, st.id
            np.testing.assert_allclose(fit.log_rl, ref_fit.log_rl,
                                       rtol=1e-12)

    def test_noise_free_rss_is_exactly_zero(self):
        ss = simulate_stats(DesignSpec(30, 5),
                            VarianceParams(0.0, 1.0, 1.0, 0.2), 1)
        assert ss.rss == 0.0
        assert np.all(np.linalg.eigvalsh(ss.t_outer) > 0)


# ---------------------------------------------------------------------------
# Sufficient statistics
# ---------------------------------------------------------------------------


class TestSufficientStats:
    def test_hand_oracle(self):
        # two clusters on s=3 worked out by hand:
        # rss = 1/6 + 3/2 and T = [[1/6, 2/sqrt(6)], [2/sqrt(6), 4]]
        d = DesignSpec(2, 3)
        y = np.array([[1.0, 2.0, 4.0], [3.0, 1.0, 2.0]])
        ss = sufficient_stats(type(simulate(
            d, FixedEffects(0, 0), VarianceParams(1, 1, 1, 0), 0))(
                design=d, y=y))
        np.testing.assert_allclose(ss.rss, 1.0 / 6.0 + 1.5, rtol=1e-13)
        expect_t = np.array([[1.0 / 6.0, 2.0 / math.sqrt(6.0)],
                             [2.0 / math.sqrt(6.0), 4.0]])
        np.testing.assert_allclose(ss.t_outer, expect_t, rtol=1e-12,
                                   atol=1e-14)

    def test_projection_identity(self, medium_dataset, medium_stats):
        # rss equals the sum of squared residuals from per-cluster OLS fits
        y = medium_dataset.y
        h = medium_dataset.design.h
        H = np.column_stack([np.ones_like(h), h])
        rss = 0.0
        for row in y:
            coef, _, _, _ = np.linalg.lstsq(H, row, rcond=None)
            rss += float(np.sum((row - H @ coef) ** 2))
        np.testing.assert_allclose(medium_stats.rss, rss, rtol=1e-10)

    def test_cluster_order_invariance(self, medium_dataset):
        d = medium_dataset.design
        flipped = type(medium_dataset)(design=d, y=medium_dataset.y[::-1])
        a = sufficient_stats(medium_dataset)
        b = sufficient_stats(flipped)
        np.testing.assert_allclose(a.rss, b.rss, rtol=1e-12)
        np.testing.assert_allclose(a.t_outer, b.t_outer, rtol=1e-12)

    def test_t_outer_psd(self, medium_stats):
        eigs = np.linalg.eigvalsh(medium_stats.t_outer)
        assert np.all(eigs > 0)

    def test_validation(self, medium_stats):
        with pytest.raises(ValueError):
            type(medium_stats)(design=medium_stats.design, rss=-1.0,
                               t_outer=np.eye(2))
        with pytest.raises(ValueError):
            type(medium_stats)(design=medium_stats.design, rss=1.0,
                               t_outer=np.eye(3))


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


class TestDatasetCsv:
    def test_round_trip_exact(self, medium_dataset, tmp_path):
        path = tmp_path / "ds.csv"
        write_dataset_csv(medium_dataset, path)
        back = read_dataset_csv(path)
        assert back.design == medium_dataset.design
        np.testing.assert_array_equal(back.y, medium_dataset.y)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            read_dataset_csv(tmp_path / "nope.csv")

    def test_missing_columns(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("cluster,j,z\n1,1,0.0\n")
        with pytest.raises(DataError, match="missing required columns"):
            read_dataset_csv(p)

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("cluster,j,x,y\n1,1,-1.0,1.0\n1,2,0.0,oops\n")
        with pytest.raises(DataError, match=r":3: malformed row"):
            read_dataset_csv(p)

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("cluster,j,x,y\n1,1,-1.0,nan\n")
        with pytest.raises(DataError, match=r":2: non-finite"):
            read_dataset_csv(p)

    def test_unequal_sizes_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("cluster,j,x,y\n"
                     "1,1,-1.0,1.0\n1,2,0.0,2.0\n1,3,1.0,3.0\n"
                     "2,1,-1.0,1.0\n")
        with pytest.raises(DataError, match="unequal sizes"):
            read_dataset_csv(p)

    def test_off_grid_regressor_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("cluster,j,x,y\n"
                     "1,1,-1.0,1.0\n1,2,0.5,2.0\n1,3,1.0,3.0\n"
                     "2,1,-1.0,1.0\n2,2,0.0,2.0\n2,3,1.0,3.0\n")
        with pytest.raises(DataError, match="differs from the shared grid"):
            read_dataset_csv(p)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 5), s=st.sampled_from([3, 5, 7]),
           seed=st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, n, s, seed, tmp_path_factory):
        data = simulate(DesignSpec(n, s), FixedEffects(0.5, -0.5),
                        VarianceParams(1.0, 0.5, 0.25, 0.6), seed)
        path = tmp_path_factory.mktemp("rt") / "ds.csv"
        write_dataset_csv(data, path)
        back = read_dataset_csv(path)
        np.testing.assert_array_equal(back.y, data.y)
