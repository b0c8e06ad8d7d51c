"""Tests for the general (unbalanced) restricted-likelihood engine."""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from remlab import (Classification, ClassifyTolerances, DataError, DegenerateDataError,
                    DesignSpec, FixedEffects, GeneralDataset, VarianceParams, classify,
                    derive_seed, eblups, experiment_catalog, fit_balanced, fit_general,
                    simulate)
from remlab import reml_core
from remlab.invivo import default_phi_grid, make_surrogate
from remlab.model_system import parse_dataset_rows
from remlab.reml_core import _chol, _cluster_lines, _general_moment_start, _newton, _theta

from reference import inflated_datasets, log_rl_dense_oracle, sigma_matrix


def read_general_csv(path, fixed_columns=()):
    """The unbalanced dataset in a CSV file, as ``remlab fit`` reads it."""
    return GeneralDataset.from_rows(parse_dataset_rows(path), fixed_columns)


def unbalanced_dataset(seed=13, n_clusters=40, sigma=None):
    """Simulate an unbalanced dataset with per-cluster sizes 1..6."""
    rng = np.random.default_rng(seed)
    vp = sigma or VarianceParams(2.0, 1.0, 0.5, -0.6)
    chol = vp.sigma_cholesky()
    xs, ys = [], []
    for _ in range(n_clusters):
        n_i = int(rng.integers(1, 7))
        x = np.sort(rng.uniform(-1.0, 1.0, size=n_i))
        u = chol @ rng.standard_normal(2)
        xs.append(x)
        ys.append((1.5 + u[0]) + (0.5 + u[1]) * x
                  + math.sqrt(vp.sigma2_e) * rng.standard_normal(n_i))
    x = np.concatenate(xs)
    return GeneralDataset(x=x, X=np.column_stack([np.ones_like(x), x]),
                          y=np.concatenate(ys), sizes=[len(c) for c in xs])


def with_extra_column(data, seed):
    """data with a third fixed effect, as ``--fixed-spec`` adds one.

    The column is drawn cluster by cluster, in cluster order.
    """
    rng = np.random.default_rng(seed)
    extra = np.concatenate([rng.normal(size=n) for n in data.sizes])
    return GeneralDataset(x=data.x, X=np.column_stack([data.X, extra]),
                          y=data.y, sizes=data.sizes)


def clusters(data):
    """(x, X, y) of each cluster, in order."""
    cut = np.cumsum(data.sizes)[:-1]
    return list(zip(np.split(data.x, cut), np.split(data.X, cut),
                    np.split(data.y, cut)))


def value(pieces, theta):
    """The objective of ``pieces`` at theta = (lambda_c, lambda_s, rho)."""
    return pieces._value(_chol(theta))


def theta_gradient(pieces, theta):
    """Analytic gradient of ``value`` in theta, by the chain rule through
    Sigma = [[lc^2, rho lc ls], [., ls^2]] applied to ``sigma_gradient``."""
    lc, ls, rho = theta
    (m00, m01), (_, m11) = pieces.sigma_gradient(_chol(theta))
    return np.array([
        2.0 * (m00 * lc + m01 * rho * ls),
        2.0 * (m11 * ls + m01 * rho * lc),
        2.0 * m01 * lc * ls,
    ])


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
        assert data.sizes.min() == 1
        rng = np.random.default_rng(3)
        thetas = THETAS + [(rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0),
                            rng.uniform(-0.95, 0.95)) for _ in range(4)]
        for theta in thetas:
            grad = theta_gradient(data, theta)
            fd = np.array([slope(lambda t: value(data, t), theta, j, 1e-4)
                           for j in range(3)])
            np.testing.assert_allclose(grad, fd, rtol=1e-6,
                                       atol=1e-6 * np.abs(fd).max())

    def test_value_matches_dense_oracle(self):
        data = with_extra_column(unbalanced_dataset(seed=17, n_clusters=12), 5)
        for theta in THETAS:
            s2e = data._gls(data._s(_chol(theta))[1])[2] / data.dof
            lc, ls, rho = theta
            vp = VarianceParams(s2e, lc * lc * s2e, ls * ls * s2e, rho)
            np.testing.assert_allclose(
                -value(data, theta) + 0.5 * data.logdet_xtx,
                log_rl_dense_oracle(data, vp) + 0.5 * data.logdet_xtx,
                rtol=1e-11)

    @pytest.mark.parametrize("seed", [5, 11, 31, 38, 39])
    def test_converged_reports_the_optimality_test(self, seed):
        # converged must say whether the returned theta passes the box
        # optimality test; on seeds 31, 38 and 39 the optimum is interior,
        # close to the rho = -1 facet
        data = unbalanced_dataset(seed=seed)
        fit = fit_general(data)
        theta = theta_of(fit.params)

        def fn(t):
            return value(data, t)

        violation = 0.0
        if min(theta[:2]) > 0.0 and abs(theta[2]) == 1.0:
            violation = max(0.0, theta[2] * inward_slope(fn, theta))
        free = [j for j in (0, 1) if theta[j] > 0.0]
        if min(theta[:2]) > 0.0 and abs(theta[2]) < 1.0:
            free.append(2)
        for j in free:
            violation = max(violation,
                            abs(slope(fn, theta, j, 1e-5)))
        if fit.converged:
            assert violation <= 1e-7
        else:
            assert violation >= 1e-5


def cholesky_points(n, seed=8):
    """n Cholesky points (l11, l21, l22), either sign of l11: a third inside,
    a third within 1e-12..1e-3 of rho = +/-1 or on it, and a third with
    lambda_c or lambda_s within 1e-12..1e-3 of 0 or at it."""
    rng = np.random.default_rng(seed)
    lc, ls = rng.uniform(0.0, 2.0, (2, n))
    rho = rng.uniform(-1.0, 1.0, n)
    tiny = np.where(rng.random(n) < 0.25, 0.0, 10.0 ** rng.uniform(-12.0, -3.0, n))
    third = n // 3
    rho[third:2 * third] = np.sign(rho[third:2 * third]) * (1.0 - tiny[third:2 * third])
    lc[2 * third::2], ls[2 * third + 1::2] = tiny[2 * third::2], tiny[2 * third + 1::2]
    lc *= rng.choice([-1.0, 1.0], n)
    return np.column_stack([lc, rho * ls, ls * np.sqrt(1.0 - rho * rho)])


class TestBatchedGradient:
    @pytest.mark.parametrize("which", ["unbalanced", "extra_column", "surrogate"])
    def test_stack_matches_single_points(self, which):
        data = unbalanced_dataset(seed=17)
        if which == "extra_column":
            data = with_extra_column(data, 5)
        elif which == "surrogate":
            data = make_surrogate().to_general()
        l = cholesky_points(2000)
        stacked = data.sigma_gradient(l)
        assert stacked.shape == (2000, 2, 2)
        for point, m in zip(l, stacked):
            single = data.sigma_gradient(point)
            assert single.shape == (2, 2)
            assert np.abs(m - single).max() <= 1e-12 * np.abs(single).max()

    def test_n_evals_counts_every_point(self, monkeypatch):
        # a GOOD fit, a rho = +1 facet fit and a zero-corner fit: n_evals is
        # the number of points at which the objective or the gradient was
        # evaluated, every point of a stack counted
        sweep = [data for _, data in inflated_datasets(make_surrogate(), [1.0, 2.0, 3.0])]
        points = []
        value, gradient = GeneralDataset._value, GeneralDataset.sigma_gradient

        def counted_value(self, l):
            points.append(1)
            return value(self, l)

        def counted_gradient(self, l):
            points.append(np.size(l) // 3)
            return gradient(self, l)

        monkeypatch.setattr(GeneralDataset, "_value", counted_value)
        monkeypatch.setattr(GeneralDataset, "sigma_gradient", counted_gradient)
        fits = []
        for data in sweep:
            points.clear()
            fits.append(fit_general(data))
            assert fits[-1].n_evals == sum(points)
        assert [f.classification for f in fits] == [
            Classification.GOOD, Classification.RHO_PLUS_ONE,
            Classification.ZERO_VARIANCE]
        assert fits[2].params.sigma2_c == fits[2].params.sigma2_s == 0.0


def moment_start(data):
    return _general_moment_start(data, _cluster_lines(data))


def lstsq_moment_start(data):
    """The moment start computed cluster by cluster with ``lstsq``: the
    reference for ``_general_moment_start``."""
    rss_sum, df_sum, coefs = 0.0, 0, []
    for x, _, y in clusters(data):
        if len(x) >= 2 and np.var(x) > 0:
            H = np.column_stack([np.ones_like(x), x])
            coefs.append(np.linalg.lstsq(H, y, rcond=None)[0])
            if len(x) >= 3:
                rss_sum += float(np.sum((y - H @ coefs[-1]) ** 2))
                df_sum += len(x) - 2
    if df_sum > 0 and rss_sum > 0:
        s2e0 = rss_sum / df_sum
    else:
        s2e0 = max(float(np.var(data.y)), 1e-8)
    if len(coefs) < 3:
        return 0.5, 0.5, 0.0
    a, b = np.array(coefs).T
    lams = []
    for coef in (a, b):
        excess = float(np.var(coef, ddof=1)) - s2e0
        lams.append(math.sqrt(excess / s2e0) if excess > 0 else 0.3)
    rho = min(max(float(np.corrcoef(a, b)[0, 1]), -0.9), 0.9)
    return (*(min(max(lam, 1e-3), 900.0) for lam in lams), rho)


class TestMomentStart:
    @pytest.mark.parametrize("seed", range(0, 40, 3))
    def test_matches_the_cluster_loop(self, seed):
        # the normal equations lose about log10(y'y / rss) digits against
        # lstsq, far fewer than the 9 that this tolerance leaves
        data = unbalanced_dataset(seed=seed)
        np.testing.assert_allclose(moment_start(data), lstsq_moment_start(data),
                                   rtol=1e-9, atol=1e-12)

    def test_few_spread_clusters_fall_back(self):
        # singletons carry no slope: with two usable clusters the start is
        # the fixed fallback
        x = np.array([0.0, 1.0, 2.0, 0.0, 1.0, 2.0, 5.0, 6.0])
        data = GeneralDataset(x=x, X=np.column_stack([np.ones_like(x), x]),
                              y=np.array([1.0, 2.0, 4.0, 0.0, 1.0, 1.0, 3.0, 2.0]),
                              sizes=[3, 3, 1, 1])
        start = moment_start(data)
        assert start == lstsq_moment_start(data) == (0.5, 0.5, 0.0)


class TestGeneralDataset:
    def test_from_balanced_preserves_everything(self, medium_dataset):
        g = GeneralDataset.from_balanced(medium_dataset)
        assert g.n_clusters == medium_dataset.design.n_clusters
        assert g.n_total == medium_dataset.design.n_total
        assert g.p == 2
        np.testing.assert_array_equal(g.sizes, [medium_dataset.design.cluster_size]
                                      * medium_dataset.design.n_clusters)
        each = clusters(g)
        np.testing.assert_array_equal(each[0][0], medium_dataset.design.h)
        np.testing.assert_array_equal(each[3][2], medium_dataset.y[3])

    def test_validation(self):
        x = np.array([0.0, 1.0, 0.0, 1.0, 0.5])
        X = np.column_stack([np.ones_like(x), x])
        y = np.array([1.0, 2.0, 0.5, 1.5, 1.0])
        GeneralDataset(x=x, X=X, y=y, sizes=[2, 3])
        with pytest.raises(ValueError, match="at least two clusters"):
            GeneralDataset(x=x, X=X, y=y, sizes=[5])
        with pytest.raises(ValueError, match="must be"):
            GeneralDataset(x=x, X=X, y=y[:4], sizes=[2, 3])
        with pytest.raises(ValueError, match="finite"):
            GeneralDataset(x=x, X=X, y=np.append(y[:4], math.nan),
                           sizes=[2, 3])
        with pytest.raises(ValueError, match="at least one observation"):
            GeneralDataset(x=x, X=X, y=y, sizes=[2, 0, 3])
        with pytest.raises(ValueError, match="sum to the number of rows"):
            GeneralDataset(x=x, X=X, y=y, sizes=[2, 2])

    def test_with_response_shares_the_design_only(self):
        gen = unbalanced_dataset(seed=17)
        y2 = gen.y + np.random.default_rng(4).normal(size=gen.n_total)
        own = {name: getattr(gen, name) for name in ("y", "z", "W", "base")}
        values = {name: array.copy() for name, array in own.items()}
        gen2 = gen.with_response(y2)
        for name in ("x", "X", "starts", "c", "lin"):
            assert getattr(gen2, name) is getattr(gen, name)
        for name, array in own.items():
            assert getattr(gen, name) is array
            assert np.array_equal(array, values[name])
            assert getattr(gen2, name) is not array
        got = fit_general(gen2)
        want = fit_general(GeneralDataset(gen.x, gen.X, y2, gen.sizes))
        assert np.array_equal(got.beta, want.beta)
        assert replace(got, beta=None) == replace(want, beta=None)

    def test_with_response_rejects_a_non_finite_response(self):
        # as the constructor does, rather than failing at the first fit
        gen = unbalanced_dataset(seed=17)
        for bad in (math.nan, math.inf):
            y = gen.y.copy()
            y[3] = bad
            with pytest.raises(ValueError, match="^cluster data must be finite$"):
                gen.with_response(y)

    def test_with_response_rejects_a_response_of_another_shape(self):
        gen = unbalanced_dataset(seed=17)
        for y in (gen.y[:-1], gen.y[:, None], np.append(gen.y, 0.0)):
            with pytest.raises(ValueError, match=r"^cluster arrays must be \(n,\), \(n, p\), "
                                                 r"\(n,\) and sizes \(k,\)$"):
                gen.with_response(y)

    def test_refit_of_one_dataset_repeats_the_fit(self):
        # the point counter lives on the dataset, so a second fit of the
        # same object must count from where the first one stopped
        data = unbalanced_dataset(seed=17)
        first, second = fit_general(data), fit_general(data)
        assert np.array_equal(first.beta, second.beta)
        assert replace(first, beta=None) == replace(second, beta=None)
        assert data.n_points == first.n_evals + second.n_evals


class TestTolerancesOnlyLabel:
    TOL = ClassifyTolerances(rho=0.5, variance_ratio=1e-3)

    def test_general_fit_is_the_default_fit_relabelled(self):
        # the tolerances name where a boundary label starts; the fit, its
        # certificate and its cost are those of the default tolerances
        relabelled = 0
        for _, data in fit_corpus("unbalanced"):
            base, fit = fit_general(data), fit_general(data, self.TOL)
            label = classify(fit.params, self.TOL)
            assert fit.classification is label
            assert np.array_equal(fit.beta, base.beta)
            assert (fit.params, fit.log_rl, fit.converged, fit.n_evals) == (
                base.params, base.log_rl, base.converged, base.n_evals)
            relabelled += label is not base.classification
        assert relabelled > 0


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
        xtx = sum(X.T @ X for _, X, _ in clusters(data))
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
        sig = sigma_matrix(vp)
        xtvx = np.zeros((2, 2))
        xtvy = np.zeros(2)
        for x, X, y in clusters(data):
            H = np.column_stack([np.ones_like(x), x])
            V = H @ sig @ H.T + vp.sigma2_e * np.eye(len(x))
            Vi = np.linalg.inv(V)
            xtvx += X.T @ Vi @ X
            xtvy += X.T @ Vi @ y
        np.testing.assert_allclose(fit.beta, np.linalg.solve(xtvx, xtvy),
                                   rtol=1e-8)


SIGMAS = [None, VarianceParams(8.0, 0.5, 0.3, 0.0),
          VarianceParams(1.0, 2.0, 0.2, 0.8), VarianceParams(4.0, 0.2, 1.0, -0.9)]


def fit_corpus(which):
    """(name, dataset) pairs: replicate 0 of every catalog setting viewed as
    general data, ``unbalanced_dataset`` seeds 0-39 at four variance
    settings, or the 21 refits of the default surrogate sweep."""
    if which == "catalog":
        return [(st.id, GeneralDataset.from_balanced(simulate(
            st.design, FixedEffects(0.0, 0.0), st.variance_params,
            derive_seed(20260825, st.id, 0)))) for st in experiment_catalog()]
    if which == "unbalanced":
        return [((seed, j), unbalanced_dataset(seed=seed, sigma=sigma))
                for j, sigma in enumerate(SIGMAS) for seed in range(40)]
    return list(inflated_datasets(make_surrogate(), default_phi_grid()))


@pytest.fixture
def newton_runs(monkeypatch):
    """The (pieces, result) of every ``_newton`` run inside ``fit_general``."""
    runs = []

    def recorded(pieces, x, f):
        runs.append((pieces, _newton(pieces, x, f)))
        return runs[-1][1]

    monkeypatch.setattr(reml_core, "_newton", recorded)
    return runs


class TestFacetSearch:
    @pytest.mark.parametrize("which", ["catalog", "unbalanced", "sweep"])
    def test_skipped_facet_search_finds_nothing_better(self, which, newton_runs):
        # fit_general runs the rank-1 facet search only when the full
        # search ends uncertified; where it was skipped, running it must not
        # find a lower objective than the fit's
        misses, skipped = [], 0
        for name, data in fit_corpus(which):
            newton_runs.clear()
            fit = fit_general(data)
            if len(newton_runs) > 1:
                continue
            skipped += 1
            [(pieces, (full, _, _))] = newton_runs
            fit_value = 0.5 * pieces.logdet_xtx - fit.log_rl
            facet_value = _newton(pieces, full[:2], pieces._value(full[:2] + (0.0,)))[1]
            if facet_value < fit_value - 1e-12 * abs(fit_value):
                misses.append((name, fit_value - facet_value))
        assert skipped > 0 and not misses

    def test_facet_search_runs_only_after_an_uncertified_search(self, newton_runs):
        # the phi = 1 sweep fit is certified where the full search ends;
        # catalog G19's full search stops at the step cap uncertified
        [(phi, sweep_start), *_] = fit_corpus("sweep")
        [g19] = [data for name, data in fit_corpus("catalog") if name == "G19"]
        assert phi == 1.0
        newton_runs.clear()
        fit_general(sweep_start)
        assert len(newton_runs) == 1
        newton_runs.clear()
        fit = fit_general(g19)
        assert len(newton_runs) == 2 and fit.converged


class TestFlatStep:
    @pytest.mark.parametrize("which", ["catalog", "unbalanced", "sweep"])
    def test_full_batch_after_a_flat_step_changes_nothing(self, which, newton_runs,
                                                          monkeypatch):
        # after a flat step _newton takes the gradient at its end alone and
        # predicts the next step with the Hessian from before it; if it takes
        # that step, it adds only the 2n difference points (_hessian).  Taking
        # the full 2n + 1 batch, with a fresh Hessian, at every point instead
        # gives every search the same end point, value and certificate bit for
        # bit, at more points, and where a flat step's end took the gradient
        # alone the 2n-point Hessian equals the full batch's bit for bit
        def searches():
            out, points = [], 0
            for _, data in fit_corpus(which):
                newton_runs.clear()
                fit = fit_general(data)
                points += fit.n_evals
                ends = []
                for _, (x, f, m) in newton_runs:
                    theta = _theta(x + (0.0,) * (3 - len(x)))  # a facet search ends at (l11, l21)
                    ends.append((x, f, m.tolist(), reml_core._certified(m, theta)))
                out.append((replace(fit, beta=None, n_evals=0), fit.beta.tolist(), ends))
            return out, points

        short, short_points = searches()
        derivatives, same = reml_core._derivatives, []

        def full_batch(pieces, v, hess=None):
            batch = derivatives(pieces, v)
            if hess is not None:
                same.append(np.array_equal(reml_core._hessian(copy.copy(pieces), v), batch[2]))
            return batch

        monkeypatch.setattr(reml_core, "_derivatives", full_batch)
        full, full_points = searches()
        assert same and all(same)
        assert short == full
        assert short_points < full_points


class TestWarmStart:
    @pytest.mark.parametrize("start, boxed", [
        ((0.0, 0.5, 1.0), (1e-3, 0.5, 0.9)),
        ((0.0, 0.0, 0.0), (1e-3, 1e-3, 0.0)),
        ((5e3, 2.0, -1.0), (900.0, 2.0, -0.9))])
    def test_uncertified_warm_search_falls_back(self, start, boxed, newton_runs,
                                                monkeypatch):
        # a start on rho = +/-1, a zero variance or past the lambda cap is
        # clipped into the moment start's box; a warm search that ends
        # uncertified is discarded, and the fit is the cold fit, its points
        # counted too
        [(_, data)] = inflated_datasets(make_surrogate(), [2.0])
        cold = fit_general(data)
        certified, failed = reml_core._certified, []

        def fails_once(m, theta):
            passed = certified(m, theta)
            if not failed:
                failed.append(theta)
                return False
            return passed

        monkeypatch.setattr(reml_core, "_certified", fails_once)
        newton_runs.clear()
        fit = fit_general(data, start=start)
        warm_run = newton_runs[0][1]
        assert len(newton_runs) > 1 and failed == [_theta(warm_run[0])]
        pieces = GeneralDataset(data.x, data.X, data.y, data.sizes)
        start_value = pieces._value(_chol(boxed))
        replay = _newton(pieces, _chol(boxed), start_value)
        assert replay[:2] == warm_run[:2] and np.array_equal(replay[2], warm_run[2])
        # the discarded search's points, which the replay's pieces counted:
        # its start and its Newton points, whose last gradient is its
        # certificate
        assert np.array_equal(fit.beta, cold.beta)
        assert replace(fit, beta=None) == replace(
            cold, beta=None, n_evals=cold.n_evals + pieces.n_points)

    def test_certified_warm_search_is_the_fit(self, newton_runs):
        # started at the fit itself, the first full search ends certified,
        # so no other search runs, and it takes fewer points than the cold fit
        [(_, data)] = inflated_datasets(make_surrogate(), [2.0])
        cold = fit_general(data)
        p = cold.params
        newton_runs.clear()
        warm = fit_general(data, start=(math.sqrt(p.sigma2_c / p.sigma2_e),
                                        math.sqrt(p.sigma2_s / p.sigma2_e), p.rho))
        assert len(newton_runs) == 1
        assert warm.classification is cold.classification and warm.converged
        assert cold.log_rl - warm.log_rl <= 1e-12 * abs(cold.log_rl)
        assert warm.n_evals < cold.n_evals


class TestEblups:
    def test_mixed_model_equations(self):
        data = unbalanced_dataset(seed=11)
        fit = fit_general(data)
        u = eblups(fit, data)
        vp = fit.params
        sig = sigma_matrix(vp)
        for i, (x, X, y) in enumerate(clusters(data)):
            H = np.column_stack([np.ones_like(x), x])
            V = H @ sig @ H.T + vp.sigma2_e * np.eye(len(x))
            expect = sig @ H.T @ np.linalg.solve(V, y - X @ fit.beta)
            np.testing.assert_allclose(u[i], expect, rtol=1e-8, atol=1e-10)

    def test_balanced_fit_gives_the_general_fit_blups(self, medium_dataset):
        # a fit_balanced result carries no beta: eblups takes the GLS beta
        # at the fit's Sigma_rel, so both engines' fits give the same BLUPs
        g = GeneralDataset.from_balanced(medium_dataset)
        ub = eblups(fit_balanced(medium_dataset), g)
        ug = eblups(fit_general(g), g)
        np.testing.assert_allclose(ub, ug, rtol=1e-8,
                                   atol=1e-8 * np.abs(ug).max())

    def test_single_observation_cluster_is_finite(self):
        data = unbalanced_dataset(seed=2)
        assert 1 in data.sizes  # the generator produces singletons
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
        for x, _, y in clusters(data):
            if len(x) >= 3 and np.var(x) > 0:
                H = np.column_stack([np.ones_like(x), x])
                coef, _, _, _ = np.linalg.lstsq(H, y, rcond=None)
                raw.append(coef)
        raw = np.array(raw) - [np.mean([r[0] for r in raw]),
                               np.mean([r[1] for r in raw])]
        assert np.std(u[:, 0]) < np.std(raw[:, 0])
        assert np.std(u[:, 1]) < np.std(raw[:, 1])


class TestGeneralValidation:
    def test_rank_deficient_fixed_effects(self):
        rng = np.random.default_rng(1)
        xs, ys = [], []
        for _ in range(5):
            xs.append(rng.uniform(-1, 1, size=4))
            ys.append(rng.normal(size=4))
        x = np.concatenate(xs)
        X = np.column_stack([np.ones_like(x), x, 2.0 * x])  # collinear
        with pytest.raises(DataError, match="rank deficient"):
            fit_general(GeneralDataset(x=x, X=X, y=np.concatenate(ys),
                                       sizes=[4] * 5))


    @pytest.mark.parametrize("start", [None, (1.0, 1.0, 0.3)])
    def test_data_on_exact_lines_raise(self, start):
        # noise-free data: fit_balanced refuses them (rss = 0), and so must
        # the general engine, also from a start, where no moment start runs
        data = simulate(DesignSpec(20, 5), FixedEffects(3.0, -1.0),
                        VarianceParams(0.0, 1.0, 1.0, 0.3), 1)
        with pytest.raises(DegenerateDataError, match="rss = 0"):
            fit_balanced(data)
        with pytest.raises(DegenerateDataError, match="no within-cluster residual variation"):
            fit_general(GeneralDataset.from_balanced(data), start=start)

    def test_noise_in_a_cluster_with_constant_x_is_residual_variation(self):
        # only the cluster with one x value has noise; it measures sigma2_e,
        # so the likelihood is bounded and the fit runs
        gen = GeneralDataset.from_balanced(simulate(
            DesignSpec(20, 5), FixedEffects(3.0, -1.0), VarianceParams(0.0, 1.0, 1.0, 0.3), 1))
        x = np.append(gen.x, [0.3, 0.3, 0.3])
        fit = fit_general(GeneralDataset(
            x=x, X=np.column_stack([np.ones_like(x), x]), y=np.append(gen.y, [1.0, 2.0, 1.5]),
            sizes=[*gen.sizes, 3]))
        assert fit.converged and fit.params.sigma2_e > 1e-3


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
