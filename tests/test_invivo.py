"""Tests for the premium-survey ingestion, surrogate, and inflation sweep."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from remlab import (Classification, ClassifyTolerances, HmoDataset, VarianceParams, classify,
                    ingest_hmo, make_surrogate, phi_sweep, write_hmo_csv)
from remlab import invivo
from remlab.errors import DataError
from remlab.invivo import default_phi_grid, write_sweep_csv
from remlab.reml_core import GeneralDataset, _chol, fit_general

from reference import inflated_datasets


@pytest.fixture(scope="module")
def surrogate():
    return make_surrogate()


class TestSurrogate:
    def test_shape_profile(self, surrogate):
        sizes = surrogate.to_general().sizes
        assert len(sizes) == len(set(surrogate.state.tolist())) == 45
        assert surrogate.premium.shape == (341,)
        assert sizes.sum() == 341
        assert int(np.median(sizes)) == 5
        assert sizes.min() == 1 and sizes.max() == 31
        assert surrogate.source == "surrogate"

    def test_six_new_england_states(self, surrogate):
        flags = {lab: surrogate.new_england[surrogate.state == lab][0]
                 for lab in set(surrogate.state.tolist())}
        assert sum(1 for v in flags.values() if v == 1) == 6

    def test_deterministic(self):
        a, b = make_surrogate(), make_surrogate()
        np.testing.assert_array_equal(a.premium, b.premium)
        np.testing.assert_array_equal(a.families, b.families)
        c = make_surrogate(seed=7)
        assert not np.array_equal(a.premium, c.premium)

    def test_csv_round_trip(self, surrogate, tmp_path):
        path = tmp_path / "prem.csv"
        write_hmo_csv(surrogate, path)
        back = ingest_hmo(path, source="surrogate")
        np.testing.assert_array_equal(back.state, surrogate.state)
        np.testing.assert_array_equal(back.premium, surrogate.premium)
        np.testing.assert_array_equal(back.families, surrogate.families)
        np.testing.assert_array_equal(back.exp_per_admission,
                                      surrogate.exp_per_admission)
        np.testing.assert_array_equal(back.new_england,
                                      surrogate.new_england)
        assert back.source == "surrogate"


class TestStandardizedDesign:
    def test_plan_regressor_standardized_over_plans(self, surrogate):
        z, _, _ = surrogate.standardized_design()
        np.testing.assert_allclose(z.mean(), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(ddof=0), 1.0, rtol=1e-12)

    def test_state_covariates_standardized_over_states(self, surrogate):
        _, e, ne = surrogate.standardized_design()
        _, first = np.unique(surrogate.state, return_index=True)
        for col in (e, ne):
            assert col.shape == (341,)
            vals = col[np.sort(first)]  # one value per state
            for lab, v in zip(surrogate.state[np.sort(first)], vals):
                assert np.all(col[surrogate.state == lab] == v)
            assert vals.shape == (45,)
            np.testing.assert_allclose(vals.mean(), 0.0, atol=1e-12)
            np.testing.assert_allclose(vals.std(ddof=0), 1.0, rtol=1e-12)

    def test_constant_state_covariate_rejected(self):
        data = HmoDataset(
            state=np.array(["a", "a", "b", "b"]),
            premium=np.array([1.0, 2.0, 3.0, 4.0]),
            families=np.array([10, 20, 30, 40]),
            exp_per_admission=np.array([5.0, 5.0, 5.0, 5.0]),
            new_england=np.array([1, 1, -1, -1]))
        with pytest.raises(DataError, match="constant"):
            data.standardized_design()


    def test_constant_families_rejected(self):
        data = HmoDataset(
            state=np.array(["a", "a", "b", "b"]),
            premium=np.array([1.0, 2.0, 3.0, 4.0]),
            families=np.array([30, 30, 30, 30]),
            exp_per_admission=np.array([5.0, 5.0, 6.0, 6.0]),
            new_england=np.array([1, 1, -1, -1]))
        with pytest.raises(DataError, match="families enrolled is the same"):
            data.standardized_design()

    def test_equal_values_are_constant_whatever_their_rounding(self):
        # the std of 45 equal expenses is not exactly 0 in floating point
        k = 45
        e = np.full(k, 4000.1)
        assert e.std(ddof=0) != 0.0
        data = HmoDataset(
            state=np.repeat(np.arange(k), 2), premium=np.arange(2.0 * k),
            families=np.arange(10, 10 + 2 * k), exp_per_admission=np.repeat(e, 2),
            new_england=np.repeat(np.where(np.arange(k) < 6, 1, -1), 2))
        with pytest.raises(DataError, match="state-level covariate is constant"):
            data.standardized_design()


class TestValidation:
    def _columns(self):
        return dict(
            state=np.array(["a", "a", "b", "b"]),
            premium=np.array([1.0, 2.0, 3.0, 4.0]),
            families=np.array([10, 20, 30, 40]),
            exp_per_admission=np.array([5.0, 5.0, 6.0, 6.0]),
            new_england=np.array([1, 1, -1, -1]))

    def test_valid_baseline(self):
        HmoDataset(**self._columns())

    def test_bad_family_count(self):
        cols = self._columns()
        cols["families"] = np.array([0, 20, 30, 40])
        with pytest.raises(DataError, match="families"):
            HmoDataset(**cols)

    def test_bad_indicator_coding(self):
        cols = self._columns()
        cols["new_england"] = np.array([1, 1, 0, 0])
        with pytest.raises(DataError, match="new_england"):
            HmoDataset(**cols)

    def test_state_level_column_varies_within_state(self):
        cols = self._columns()
        cols["exp_per_admission"] = np.array([5.0, 5.5, 6.0, 6.0])
        with pytest.raises(DataError, match="varies within"):
            HmoDataset(**cols)

    def test_names_the_first_varying_state_in_file_order(self):
        # 'z' varies before 'a' in the file though it sorts after it, and
        # new_england varies in the earlier state 'm': exp_per_admission is
        # checked first
        cols = dict(
            state=np.array(["m", "m", "z", "z", "a", "a"]),
            premium=np.arange(1.0, 7.0),
            families=np.full(6, 10),
            exp_per_admission=np.array([5.0, 5.0, 6.0, 6.5, 7.0, 7.5]),
            new_england=np.array([1, -1, 1, 1, -1, -1]))
        with pytest.raises(DataError) as err:
            HmoDataset(**cols)
        assert str(err.value) == ("state-level column 'exp_per_admission' "
                                  "varies within state 'z'")
        cols["exp_per_admission"] = np.array([5.0, 5.0, 6.0, 6.0, 7.0, 7.0])
        with pytest.raises(DataError) as err:
            HmoDataset(**cols)
        assert str(err.value) == ("state-level column 'new_england' "
                                  "varies within state 'm'")

    def test_length_mismatch(self):
        cols = self._columns()
        cols["families"] = np.array([10, 20, 30])
        with pytest.raises(DataError, match="wrong length"):
            HmoDataset(**cols)


class TestIngest:
    HEADER = "state,premium,families,exp_per_admission,new_england\n"

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("state,premium\n")
        with pytest.raises(DataError, match="header"):
            ingest_hmo(path)

    def test_field_count_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(self.HEADER + "a,1.0,10,5.0,1\n" + "a,1.0,10\n")
        with pytest.raises(DataError, match="line 3"):
            ingest_hmo(path)

    def test_bad_number_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(self.HEADER + "a,one,10,5.0,1\n")
        with pytest.raises(DataError, match="line 2"):
            ingest_hmo(path)

    def test_line_number_counts_file_lines_not_records(self, tmp_path):
        # the second record's quoted state spans lines 3-4, so the third is on line 5
        path = tmp_path / "bad.csv"
        path.write_text(self.HEADER + "a,1.0,10,5.0,1\n" + '"b\nc",1.0,10,5.0,1\n'
                        + "d,x,10,5.0,1\n")
        with pytest.raises(DataError, match="^line 5: could not convert"):
            ingest_hmo(path)

    @pytest.mark.parametrize("row", ["a,nan,10,5.0,1", "a,inf,10,5.0,1",
                                     "a,1.0,10,-inf,1", "a,1.0,10,NaN,1"])
    def test_non_finite_value_with_line_number(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(self.HEADER + "a,1.0,10,5.0,1\n" + row + "\n")
        with pytest.raises(DataError, match="line 3: non-finite value"):
            ingest_hmo(path)


class TestFit:
    def test_matches_general_engine(self, surrogate):
        # to_general is the state-by-state build of X = [1, z, e, ne]
        z, e, ne = surrogate.standardized_design()
        _, first = np.unique(surrogate.state, return_index=True)
        blocks = [np.flatnonzero(surrogate.state == surrogate.state[i])
                  for i in np.sort(first)]
        rows = np.concatenate(blocks)
        by_hand = GeneralDataset(
            x=z[rows], X=np.column_stack([np.ones(len(z)), z, e, ne])[rows],
            y=surrogate.premium[rows], sizes=[len(b) for b in blocks])
        gen = surrogate.to_general()
        for name in ("x", "X", "y", "sizes"):
            np.testing.assert_array_equal(getattr(gen, name), getattr(by_hand, name))
        direct, via = fit_general(by_hand), fit_general(gen)
        np.testing.assert_allclose(via.beta, direct.beta, rtol=0.0)
        assert via.log_rl == direct.log_rl
        assert via.classification is direct.classification

    def test_frozen_baseline_fit(self, surrogate):
        # the exact maximiser, from a 60-digit Newton solve on the same data
        fit = fit_general(surrogate.to_general())
        assert fit.classification is Classification.GOOD
        np.testing.assert_allclose(
            fit.beta, [180.66329686984187, -2.6364144244971690,
                       5.8420356511486042, 15.584522819967132], rtol=1e-8)
        p = fit.params
        np.testing.assert_allclose(p.sigma2_e, 481.53474231349727, rtol=1e-8)
        np.testing.assert_allclose(p.sigma2_c, 112.60096886668750, rtol=1e-8)
        np.testing.assert_allclose(p.sigma2_s, 46.849668077426787, rtol=1e-8)
        np.testing.assert_allclose(p.rho, 0.052887448749396334, rtol=1e-6)
        np.testing.assert_allclose(fit.log_rl, -1237.9891705796423,
                                   rtol=1e-12)

    def test_cluster_order_does_not_move_the_fit(self, surrogate):
        gen = surrogate.to_general()
        order = np.random.default_rng(0).permutation(gen.n_clusters)
        cut = np.cumsum(gen.sizes)[:-1]
        blocks = np.split(np.arange(gen.n_total), cut)
        rows = np.concatenate([blocks[i] for i in order])
        a = fit_general(gen)
        b = fit_general(GeneralDataset(x=gen.x[rows], X=gen.X[rows],
                                       y=gen.y[rows], sizes=gen.sizes[order]))
        np.testing.assert_allclose(
            [b.params.sigma2_e, b.params.sigma2_c, b.params.sigma2_s,
             b.params.rho, b.log_rl, *b.beta],
            [a.params.sigma2_e, a.params.sigma2_c, a.params.sigma2_s,
             a.params.rho, a.log_rl, *a.beta], rtol=1e-9)


    def test_interleaved_plan_rows_group_by_state(self, surrogate):
        # plans in random file order, so that states interleave: to_general
        # must still gather each state's plans into one cluster
        perm = np.random.default_rng(1).permutation(len(surrogate.premium))
        shuffled = HmoDataset(
            state=surrogate.state[perm], premium=surrogate.premium[perm],
            families=surrogate.families[perm],
            exp_per_admission=surrogate.exp_per_admission[perm],
            new_england=surrogate.new_england[perm], source="surrogate")
        runs = 1 + int(np.sum(shuffled.state[1:] != shuffled.state[:-1]))
        _, first, counts = np.unique(shuffled.state, return_index=True,
                                     return_counts=True)
        assert runs > len(first)
        np.testing.assert_array_equal(shuffled.to_general().sizes,
                                      counts[np.argsort(first)])
        a, b = (fit_general(d.to_general()) for d in (surrogate, shuffled))
        assert b.classification is a.classification
        np.testing.assert_allclose(
            [b.params.sigma2_e, b.params.sigma2_c, b.params.sigma2_s,
             b.params.rho, b.log_rl, *b.beta],
            [a.params.sigma2_e, a.params.sigma2_c, a.params.sigma2_s,
             a.params.rho, a.log_rl, *a.beta], rtol=1e-9)


class TestPhiSweep:
    def test_facet_fit_solves_its_gradient(self, surrogate):
        # phi = 2 lands on rho = +1: the fit solves the gradient in both
        # lambdas there, and -log_rl falls toward rho = +1
        [(_, data)] = inflated_datasets(surrogate, [2.0])
        fit = fit_general(data)
        assert fit.classification is Classification.RHO_PLUS_ONE
        assert fit.converged
        p = fit.params
        lc, ls = math.sqrt(p.sigma2_c / p.sigma2_e), math.sqrt(p.sigma2_s / p.sigma2_e)
        # the theta-gradient by the chain rule through
        # Sigma = [[lc^2, rho lc ls], [., ls^2]], at rho = +1
        (m00, m01), (_, m11) = data.sigma_gradient(_chol((lc, ls, p.rho)))
        grad = 2.0 * np.array([m00 * lc + m01 * p.rho * ls,
                               m11 * ls + m01 * p.rho * lc, m01 * lc * ls])
        assert max(abs(grad[0]), abs(grad[1])) <= 1e-8
        assert grad[2] < 0.0

    def test_default_grid(self):
        grid = default_phi_grid()
        assert grid[0] == 1.0 and grid[-1] == 3.0
        assert len(grid) == 21
        np.testing.assert_allclose(np.diff(grid), 0.1, rtol=1e-12)
        assert len(default_phi_grid(1.0, 3.0, 2e-4)) == 10_001  # the cap

    def test_three_point_sweep(self, surrogate):
        # phi = 1 reproduces the data, phi = 2 pins the correlation at +1,
        # phi = 2.8 collapses a variance to zero (frozen behavior)
        rows = phi_sweep(surrogate, phis=[1.0, 2.0, 2.8])
        base = fit_general(surrogate.to_general())

        r1 = rows[0]
        assert r1.classification is Classification.GOOD
        np.testing.assert_allclose(r1.rho_hat, base.params.rho, rtol=1e-6)
        np.testing.assert_allclose(r1.sigma2_e, base.params.sigma2_e,
                                   rtol=1e-6)
        assert r1.sigma2_e_over_phi2 == r1.sigma2_e

        r2 = rows[1]
        assert r2.classification is Classification.RHO_PLUS_ONE
        assert r2.rho_hat == 1.0
        np.testing.assert_allclose(r2.sigma2_e_over_phi2,
                                   r2.sigma2_e / 4.0, rtol=1e-15)

        r3 = rows[2]
        assert r3.classification is Classification.ZERO_VARIANCE
        assert math.isnan(r3.rho_hat)

        # inflating residuals by phi scales the error variance by phi^2
        # almost exactly; the random-effect structure absorbs the rest
        for r in rows[1:]:
            ratio = r.sigma2_e_over_phi2 / r1.sigma2_e
            assert abs(ratio - 1.0) < 0.03

    def test_exact_labels_around_the_zero_variance_crossing(self, surrogate):
        # the exact maximiser stays on rho = +1 up to phi ~ 2.626; each fit
        # carries its certificate
        phis = [2.4, 2.5, 2.6, 2.7]
        fits = [fit_general(data)
                for _, data in inflated_datasets(surrogate, phis)]
        assert [f.classification for f in fits] == [
            Classification.RHO_PLUS_ONE] * 3 + [Classification.ZERO_VARIANCE]
        assert all(f.converged for f in fits)

    def test_tolerances_relabel_the_sweep_and_keep_its_estimates(self, surrogate):
        # a tolerance that moved a fit would also move the warm start of the
        # refits after it
        tol = ClassifyTolerances(rho=0.5, variance_ratio=1e-3)
        base, rows = phi_sweep(surrogate), phi_sweep(surrogate, tol=tol)
        assert len(rows) == 21
        for b, r in zip(base, rows):
            assert (r.sigma2_e, r.sigma2_c, r.sigma2_s) == (b.sigma2_e, b.sigma2_c, b.sigma2_s)
            rho = 0.0 if math.isnan(b.rho_hat) else b.rho_hat
            assert r.classification is classify(
                VarianceParams(r.sigma2_e, r.sigma2_c, r.sigma2_s, rho), tol)

    @pytest.mark.parametrize("start, end, step", [
        (1.0, math.inf, 0.1), (1.0, math.nan, 0.1), (math.nan, 3.0, 0.1),
        (-math.inf, 3.0, 0.1), (1.0, 3.0, math.inf), (1.0, 3.0, math.nan),
        (3.0, 1.0, 0.1), (1.0, 3.0, 0.0), (1.0, 3.0, 1.99e-4),
        (1.0, 3.0, 1e-6), (1.0, 3.0, 1e-12), (1.0, 3.0, 1e-320)])
    def test_bad_grid_rejected(self, start, end, step):
        with pytest.raises(ValueError, match="bad phi range"):
            default_phi_grid(start, end, step)

    def test_phi_below_one_rejected(self, surrogate, monkeypatch):
        # every phi is checked before the baseline fit runs
        def no_fit(*args, **kwargs):
            raise AssertionError("fit before the phi check")

        monkeypatch.setattr(invivo, "fit_general", no_fit)
        for phis in ([0.5], [1.0, 2.0, 0.5], [math.nan], [1.0, math.inf]):
            with pytest.raises(ValueError, match="phi must be finite and >= 1"):
                phi_sweep(surrogate, phis)

    def test_csv_output(self, surrogate, tmp_path):
        rows = phi_sweep(surrogate, phis=[1.0])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path, source="surrogate")
        with open(path, newline="") as fh:
            got = list(csv.reader(fh))
        assert got[0] == ["phi", "rho_hat", "sigma2_e",
                          "sigma2_e_over_phi2", "sigma2_c", "sigma2_s",
                          "classification", "source"]
        assert len(got) == 2
        assert got[1][-1] == "surrogate"
        assert got[1][6] == "GOOD"
        assert float(got[1][0]) == 1.0


def sweep_fits(monkeypatch, data, phis):
    """The sweep's rows, every fit it made and each fit's start, the
    baseline fit first."""
    fits, starts = [], []

    def recorded(*args, **kwargs):
        fits.append(fit_general(*args, **kwargs))
        starts.append(kwargs.get("start"))
        return fits[-1]

    with monkeypatch.context() as patch:
        patch.setattr(invivo, "fit_general", recorded)
        rows = phi_sweep(data, phis)
    return rows, fits, starts


class TestWarmStartedSweep:
    @pytest.mark.parametrize("seed", [None, *range(10)])
    def test_same_fits_as_cold_starts(self, seed, monkeypatch):
        # phi_sweep starts each refit from the fits before it; on the same
        # data, a fit from the moment start finds the same maximiser: the
        # default sweep, and surrogate seeds 0-9 on a wider, coarser grid
        if seed is None:
            data, phis = make_surrogate(), default_phi_grid()
        else:
            data, phis = make_surrogate(seed), default_phi_grid(1.0, 4.0, 0.3)
        rows, fits, _ = sweep_fits(monkeypatch, data, phis)
        warm = fits[1:]
        cold = [fit_general(d) for _, d in inflated_datasets(data, phis)]
        assert len(warm) == len(cold) == len(rows) == len(phis)
        assert [f.classification for f in warm] == [f.classification for f in cold]
        assert [f.converged for f in warm] == [f.converged for f in cold]
        for row, w, c in zip(rows, warm, cold):
            assert c.log_rl - w.log_rl <= 1e-12 * abs(c.log_rl)
            p, q = w.params, c.params
            np.testing.assert_allclose(
                [p.sigma2_e, p.sigma2_c, p.sigma2_s, p.rho],
                [q.sigma2_e, q.sigma2_c, q.sigma2_s, q.rho], rtol=1e-9, atol=0.0)
            assert (row.sigma2_e, row.sigma2_c, row.sigma2_s) == (
                p.sigma2_e, p.sigma2_c, p.sigma2_s)
        assert sum(f.n_evals for f in warm) < sum(f.n_evals for f in cold)

    @pytest.mark.parametrize("seed", [None, 0])
    def test_shared_pieces_give_the_public_fits(self, seed, monkeypatch):
        # phi_sweep builds the design's pieces once and hands each refit
        # only its response; fit_general on each inflated dataset from the
        # same start gives the same FitResult, n_evals included
        if seed is None:
            data, phis = make_surrogate(), default_phi_grid()
        else:
            data, phis = make_surrogate(seed), default_phi_grid(1.0, 4.0, 0.1)
        _, fits, starts = sweep_fits(monkeypatch, data, phis)
        replay = [fit_general(data.to_general())] + [
            fit_general(d, start=start)
            for (_, d), start in zip(inflated_datasets(data, phis), starts[1:])]
        assert starts[0] is None and len(replay) == len(fits) == len(phis) + 1
        for got, want in zip(fits, replay):
            assert np.array_equal(got.beta, want.beta)
            assert replace(got, beta=None) == replace(want, beta=None)
        if seed is None:
            assert sum(f.n_evals for f in fits[1:]) <= 700
