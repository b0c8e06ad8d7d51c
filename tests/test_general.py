"""Tests for the general (unbalanced) restricted-likelihood engine."""

import math

import numpy as np
import pytest

from remlab import (Classification, DataError, DesignSpec, FixedEffects,
                    GeneralCluster, GeneralDataset, VarianceParams, derive_seed,
                    eblups, experiment_catalog, fit_balanced, fit_general,
                    log_rl_dense_oracle, read_general_csv, simulate)
from remlab.reml_core import _GeneralPieces


def unbalanced_dataset(seed=13, n_clusters=40, sigma=None):
    """Simulate an unbalanced dataset with per-cluster sizes 1..6."""
    rng = np.random.default_rng(seed)
    vp = sigma or VarianceParams(2.0, 1.0, 0.5, -0.6)
    chol = vp.sigma_cholesky()
    clusters = []
    for _ in range(n_clusters):
        n_i = int(rng.integers(1, 7))
        x = np.sort(rng.uniform(-1.0, 1.0, size=n_i))
        u = chol @ rng.standard_normal(2)
        y = (1.5 + u[0]) + (0.5 + u[1]) * x \
            + math.sqrt(vp.sigma2_e) * rng.standard_normal(n_i)
        X = np.column_stack([np.ones_like(x), x])
        clusters.append(GeneralCluster(x=x, X=X, y=y))
    return GeneralDataset(clusters=tuple(clusters))


def with_extra_column(data, seed):
    """data with a third fixed effect, as ``--fixed-spec`` adds one."""
    rng = np.random.default_rng(seed)
    return GeneralDataset(clusters=tuple(
        GeneralCluster(x=c.x, X=np.column_stack([c.X, rng.normal(size=len(c.x))]),
                       y=c.y)
        for c in data.clusters))


def theta_of(vp):
    """(lambda_c, lambda_s, rho) of fitted variance parameters."""
    return (math.sqrt(vp.sigma2_c / vp.sigma2_e),
            math.sqrt(vp.sigma2_s / vp.sigma2_e), vp.rho)


def slope(fn, theta, j, h):
    """d fn / d theta_j by Richardson-extrapolated central differences."""
    def central(step):
        up, down = list(theta), list(theta)
        up[j] += step
        down[j] -= step
        return (fn(up) - fn(down)) / (2.0 * step)
    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def inward_slope(fn, theta, h=1e-5):
    """d fn / d rho at rho = +/-1, one-sided from inside the box."""
    s = theta[2]
    at = [fn((theta[0], theta[1], s - s * k * h)) for k in (0, 1, 2)]
    return s * (3.0 * at[0] - 4.0 * at[1] + at[2]) / (2.0 * h)


# near rho = +/-1, near lambda = 0, and in the interior
THETAS = [(0.5, 0.8, 0.999), (0.5, 0.8, -0.999), (1e-3, 0.6, 0.2),
          (0.9, 1e-3, -0.5), (0.7, 0.4, -0.3), (1.3, 0.2, 0.6)]


class TestObjective:
    @pytest.mark.parametrize("p", [2, 3])
    def test_gradient_matches_central_differences(self, p):
        data = unbalanced_dataset(seed=17)
        if p == 3:
            data = with_extra_column(data, 5)
        assert min(len(c.x) for c in data.clusters) == 1
        pieces = _GeneralPieces(data)
        rng = np.random.default_rng(3)
        thetas = THETAS + [(rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0),
                            rng.uniform(-0.95, 0.95)) for _ in range(4)]
        for theta in thetas:
            grad = pieces.gradient(theta)
            fd = np.array([slope(pieces.value, theta, j, 1e-4)
                           for j in range(3)])
            np.testing.assert_allclose(grad, fd, rtol=1e-6,
                                       atol=1e-6 * np.abs(fd).max())

    def test_value_matches_dense_oracle(self):
        data = with_extra_column(unbalanced_dataset(seed=17, n_clusters=12), 5)
        pieces = _GeneralPieces(data)
        for theta in THETAS:
            s2e = pieces.gls(theta)[2] / pieces.dof
            lc, ls, rho = theta
            vp = VarianceParams(s2e, lc * lc * s2e, ls * ls * s2e, rho)
            np.testing.assert_allclose(
                -pieces.value(theta) + 0.5 * pieces.logdet_xtx,
                log_rl_dense_oracle(data, vp) + 0.5 * pieces.logdet_xtx,
                rtol=1e-11)

    @pytest.mark.parametrize("seed", [5, 11, 31, 38, 39])
    def test_converged_reports_the_optimality_test(self, seed):
        # converged must say whether the returned theta passes the box
        # optimality test; on seeds 31, 38 and 39 the optimum is interior,
        # close to the rho = -1 facet
        data = unbalanced_dataset(seed=seed)
        fit = fit_general(data)
        pieces = _GeneralPieces(data)
        theta = theta_of(fit.params)
        violation = 0.0
        if min(theta[:2]) > 0.0 and abs(theta[2]) == 1.0:
            violation = max(0.0, theta[2] * inward_slope(pieces.value, theta))
        free = [j for j in (0, 1) if theta[j] > 0.0]
        if min(theta[:2]) > 0.0 and abs(theta[2]) < 1.0:
            free.append(2)
        for j in free:
            violation = max(violation,
                            abs(slope(pieces.value, theta, j, 1e-5)))
        if fit.converged:
            assert violation <= 1e-7
        else:
            assert violation >= 1e-5


class TestGeneralDataset:
    def test_from_balanced_preserves_everything(self, medium_dataset):
        g = GeneralDataset.from_balanced(medium_dataset)
        assert g.n_clusters == medium_dataset.design.n_clusters
        assert g.n_total == medium_dataset.design.n_total
        assert g.p == 2
        np.testing.assert_array_equal(g.clusters[0].x,
                                      medium_dataset.design.h)
        np.testing.assert_array_equal(g.clusters[3].y, medium_dataset.y[3])

    def test_validation(self):
        x = np.array([0.0, 1.0])
        X = np.column_stack([np.ones_like(x), x])
        c = GeneralCluster(x=x, X=X, y=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            GeneralDataset(clusters=(c,))
        with pytest.raises(ValueError):
            GeneralCluster(x=x, X=X, y=np.array([1.0]))
        with pytest.raises(ValueError):
            GeneralCluster(x=x, X=X, y=np.array([1.0, math.nan]))


class TestEngineAgreement:
    def test_matches_balanced_engine_on_balanced_data(self):
        data = simulate(DesignSpec(60, 9), FixedEffects(2.0, -1.0),
                        VarianceParams(2.0, 1.0, 0.7, -0.5), 29)
        fb = fit_balanced(data)
        fg = fit_general(GeneralDataset.from_balanced(data))
        assert fg.classification is fb.classification
        pb, pg = fb.params, fg.params
        np.testing.assert_allclose(
            [pg.sigma2_e, pg.sigma2_c, pg.sigma2_s, pg.rho],
            [pb.sigma2_e, pb.sigma2_c, pb.sigma2_s, pb.rho], rtol=1e-6,
            atol=1e-8)
        # identical additive constant: maximised values agree directly
        np.testing.assert_allclose(fg.log_rl, fb.log_rl, rtol=1e-10)

    def test_reaches_the_closed_form_maximum_on_the_catalog(self):
        # replicate 0 of every catalog setting, viewed as general data: the
        # general engine must reach the balanced engine's exact maximiser,
        # with its label and a holding certificate, also where that
        # maximiser sits on rho = +/-1 or at a zero variance
        misses = []
        for st in experiment_catalog():
            data = simulate(st.design, FixedEffects(0.0, 0.0),
                            st.variance_params,
                            derive_seed(20260825, st.id, 0))
            fb = fit_balanced(data)
            fg = fit_general(GeneralDataset.from_balanced(data))
            if (fg.log_rl < fb.log_rl - 1e-9 * abs(fb.log_rl)
                    or fg.classification is not fb.classification
                    or not fg.converged):
                misses.append((st.id, fb.log_rl - fg.log_rl,
                               fb.classification, fg.classification,
                               fg.converged))
        assert not misses

    def test_log_rl_constant_convention(self):
        # the engine reports oracle + 0.5 log det(X'X): the REML contrast
        # constant that makes it agree with the balanced engine's value
        data = unbalanced_dataset(seed=3, n_clusters=6)
        fit = fit_general(data)
        xtx = sum(c.X.T @ c.X for c in data.clusters)
        half_logdet = 0.5 * np.linalg.slogdet(xtx)[1]
        np.testing.assert_allclose(
            fit.log_rl, log_rl_dense_oracle(data, fit.params) + half_logdet,
            rtol=1e-10)

    def test_oracle_certifies_maximiser(self):
        data = unbalanced_dataset(seed=8, n_clusters=25)
        fit = fit_general(data)
        base = log_rl_dense_oracle(data, fit.params)
        p = fit.params
        rng = np.random.default_rng(4)
        for scale in (1e-3, 0.1):
            for _ in range(40):
                vp = VarianceParams(
                    p.sigma2_e * math.exp(rng.normal() * scale),
                    p.sigma2_c * math.exp(rng.normal() * scale),
                    p.sigma2_s * math.exp(rng.normal() * scale),
                    min(max(p.rho + rng.normal() * scale, -1.0), 1.0))
                assert log_rl_dense_oracle(data, vp) <= base + 1e-8

    def test_beta_matches_gls_normal_equations(self):
        data = unbalanced_dataset(seed=5)
        fit = fit_general(data)
        vp = fit.params
        sig = vp.sigma_matrix()
        xtvx = np.zeros((2, 2))
        xtvy = np.zeros(2)
        for c in data.clusters:
            H = np.column_stack([np.ones_like(c.x), c.x])
            V = H @ sig @ H.T + vp.sigma2_e * np.eye(len(c.x))
            Vi = np.linalg.inv(V)
            xtvx += c.X.T @ Vi @ c.X
            xtvy += c.X.T @ Vi @ c.y
        np.testing.assert_allclose(fit.beta, np.linalg.solve(xtvx, xtvy),
                                   rtol=1e-8)


class TestEblups:
    def test_mixed_model_equations(self):
        data = unbalanced_dataset(seed=11)
        fit = fit_general(data)
        u = eblups(fit, data)
        vp = fit.params
        sig = vp.sigma_matrix()
        for i, c in enumerate(data.clusters):
            H = np.column_stack([np.ones_like(c.x), c.x])
            V = H @ sig @ H.T + vp.sigma2_e * np.eye(len(c.x))
            expect = sig @ H.T @ np.linalg.solve(V, c.y - c.X @ fit.beta)
            np.testing.assert_allclose(u[i], expect, rtol=1e-8, atol=1e-10)

    def test_single_observation_cluster_is_finite(self):
        data = unbalanced_dataset(seed=2)
        sizes = [len(c.x) for c in data.clusters]
        assert 1 in sizes  # the generator produces singletons
        fit = fit_general(data)
        u = eblups(fit, data)
        assert np.all(np.isfinite(u))

    def test_shrinkage_toward_zero(self):
        # EBLUP deviations are smaller in spread than raw per-cluster
        # least-squares deviations on noisy data
        data = unbalanced_dataset(seed=23, n_clusters=60,
                                  sigma=VarianceParams(8.0, 0.5, 0.3, 0.0))
        fit = fit_general(data)
        u = eblups(fit, data)
        raw = []
        for c in data.clusters:
            if len(c.x) >= 3 and np.var(c.x) > 0:
                H = np.column_stack([np.ones_like(c.x), c.x])
                coef, _, _, _ = np.linalg.lstsq(H, c.y, rcond=None)
                raw.append(coef)
        raw = np.array(raw) - [np.mean([r[0] for r in raw]),
                               np.mean([r[1] for r in raw])]
        assert np.std(u[:, 0]) < np.std(raw[:, 0])
        assert np.std(u[:, 1]) < np.std(raw[:, 1])


class TestGeneralValidation:
    def test_rank_deficient_fixed_effects(self):
        rng = np.random.default_rng(1)
        clusters = []
        for _ in range(5):
            x = rng.uniform(-1, 1, size=4)
            X = np.column_stack([np.ones_like(x), x, 2.0 * x])  # collinear
            clusters.append(GeneralCluster(x=x, X=X, y=rng.normal(size=4)))
        with pytest.raises(DataError, match="rank deficient"):
            fit_general(GeneralDataset(clusters=tuple(clusters)))


class TestGeneralCsv:
    def test_read_balanced_file_as_general(self, medium_dataset, tmp_path):
        from remlab import write_dataset_csv
        path = tmp_path / "ds.csv"
        write_dataset_csv(medium_dataset, path)
        g = read_general_csv(path)
        assert g.n_total == medium_dataset.design.n_total
        fb = fit_balanced(medium_dataset)
        fg = fit_general(g)
        np.testing.assert_allclose(fg.params.rho, fb.params.rho, atol=1e-6)

    def test_extra_fixed_columns(self, tmp_path):
        path = tmp_path / "g.csv"
        rows = ["cluster,j,x,y,w"]
        rng = np.random.default_rng(0)
        for cid in range(1, 9):
            for j in range(1, 4):
                x = (j - 2) * 1.0
                w = float(rng.normal())
                y = 1.0 + 0.5 * x + 2.0 * w + 0.1 * float(rng.normal())
                rows.append(f"{cid},{j},{x},{y},{w}")
        path.write_text("\n".join(rows) + "\n")
        g = read_general_csv(path, fixed_columns=("w",))
        assert g.p == 3
        fit = fit_general(g)
        # the w coefficient is the third fixed effect
        assert abs(fit.beta[2] - 2.0) < 0.2
