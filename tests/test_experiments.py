"""Tests for the experiment catalog, runner, and analysis helpers."""

import math

import numpy as np
import pytest

from remlab import (AnovaRow, Classification, ExperimentSetting, RepRecord,
                    VarianceMode, anova_balanced, derive_seed,
                    experiment_catalog, factorial_grid, interaction_plot_data,
                    ls_means, predictor_minus_one, predictor_plus_one,
                    run_replicate, run_setting, run_settings,
                    sign_test_plus_vs_minus, summarize, two_proportion_pvalue,
                    with_reps)
from remlab.errors import EstimabilityError
from remlab.experiments import (SettingSummary, _summaries,
                                write_replicate_csv, write_summary_csv)

MASTER = 20260825


class TestCatalog:
    def test_size_and_ids(self):
        cat = experiment_catalog()
        assert len(cat) == 50
        ids = [st.id for st in cat]
        assert len(set(ids)) == 50
        expect = ([f"A{i}" for i in range(1, 6)]
                  + [f"B{i}" for i in range(1, 6)]
                  + [f"C{i}" for i in range(1, 6)]
                  + [f"D{i}" for i in range(1, 6)]
                  + [f"E{i}" for i in range(1, 6)]
                  + [f"F{i}" for i in range(1, 6)]
                  + [f"G{i}" for i in range(1, 21)])
        assert ids == expect

    def test_replicate_counts(self):
        for st in experiment_catalog():
            if st.experiment in ("A", "B"):
                assert st.reps == 100
            elif st.experiment == "D":
                assert st.reps == 600
            else:
                assert st.reps == 400

    def test_ratio_grid_values_exact(self):
        # the C/D ratio levels sit on the log10 grid, not at the rounded
        # display values 6.3 and 15.8
        cat = {st.id: st for st in experiment_catalog()}
        assert cat["C1"].r == 10.0 ** 0.8
        assert cat["C2"].r == 10.0 ** 1.2
        assert cat["D1"].r == 10.0 ** 1.2
        assert cat["D2"].r == 10.0 ** 0.8

    def test_selected_settings(self):
        cat = {st.id: st for st in experiment_catalog()}
        a1 = cat["A1"]
        assert (a1.n_clusters, a1.cluster_size, a1.rho, a1.r) \
            == (500, 21, 0.0, 10.0)
        assert cat["B3"].rho == 0.95
        assert cat["F3"].n_clusters == 5350
        g = [st for st in experiment_catalog() if st.experiment == "G"]
        assert sorted({st.r for st in g}) == [53.0, 271.0, 3000.0, 1e5]
        assert [st.rho for st in g[:5]] == [-0.95, -0.5, 0.0, 0.5, 0.95]

    def test_variance_mode_semantics(self):
        st = ExperimentSetting("x", "X", 100, 9, -0.5, 25.0, 10)
        vp = st.variance_params
        assert (vp.sigma2_e, vp.sigma2_c, vp.sigma2_s) == (25.0, 1.0, 1.0)
        st2 = ExperimentSetting("x", "X", 100, 9, -0.5, 25.0, 10,
                                variance_mode=VarianceMode.FIX_ERROR)
        vp2 = st2.variance_params
        assert (vp2.sigma2_e, vp2.sigma2_c, vp2.sigma2_s) == (1.0, 0.04, 0.04)
        # same ratio sigma2_e / sigma2_c either way
        assert vp.sigma2_e / vp.sigma2_c == vp2.sigma2_e / vp2.sigma2_c

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSetting("x", "X", 100, 9, 0.0, 10.0, 0)
        with pytest.raises(ValueError):
            ExperimentSetting("x", "X", 100, 9, 0.0, -1.0, 10)

    def test_with_reps(self):
        cut = with_reps(experiment_catalog()[:3], 7)
        assert all(st.reps == 7 for st in cut)
        assert [st.id for st in cut] == ["A1", "A2", "A3"]


class TestDeriveSeed:
    def test_frozen_values(self):
        assert derive_seed(MASTER, "A1", 0) == 10175005726451598581
        assert derive_seed(MASTER, "A1", 1) == 907010828827266229

    def test_sensitivity_and_uniqueness(self):
        seeds = {derive_seed(MASTER, sid, rep)
                 for sid in ("A1", "A2", "B1", "f_N50_s5")
                 for rep in range(200)}
        assert len(seeds) == 4 * 200
        assert derive_seed(MASTER + 1, "A1", 0) != derive_seed(MASTER, "A1", 0)


class TestRunReplicate:
    def test_frozen_record(self):
        a1 = experiment_catalog()[0]
        rec = run_replicate(a1, MASTER, 0)
        assert rec.setting == "A1" and rec.rep == 0
        assert rec.seed == 10175005726451598581
        assert rec.classification is Classification.GOOD
        assert rec.converged
        np.testing.assert_allclose(rec.sigma2_e, 10.023769726295017,
                                   rtol=1e-9)
        np.testing.assert_allclose(rec.sigma2_c, 0.8761020031833916,
                                   rtol=1e-9)
        np.testing.assert_allclose(rec.sigma2_s, 0.7853254816187234,
                                   rtol=1e-9)
        np.testing.assert_allclose(rec.rho_hat, 0.10444308146710408,
                                   rtol=1e-9)
        np.testing.assert_allclose(rec.log_rl, -17724.87125441863,
                                   rtol=1e-12)
        assert type(rec.log_rl) is float

    def test_rho_nan_when_variance_hits_zero(self):
        # very noisy small design: scan replicates until one collapses
        st = ExperimentSetting("zv", "Z", 50, 9, 0.0, 1e5, 30)
        found = False
        for rep in range(st.reps):
            rec = run_replicate(st, 123, rep)
            if rec.classification is Classification.ZERO_VARIANCE:
                assert math.isnan(rec.rho_hat)
                found = True
                break
        assert found, "no zero-variance replicate in 30 tries at r=1e5"


class TestSummaries:
    @staticmethod
    def _fake_record(setting_id, rep, cls):
        return RepRecord("T", setting_id, rep, rep, 1.0, 1.0, 1.0,
                         math.nan if cls is Classification.ZERO_VARIANCE
                         else 0.0, cls, -1.0, True)

    def test_hand_counts(self):
        st = ExperimentSetting("t1", "T", 100, 9, -0.5, 10.0, 8)
        kinds = [Classification.RHO_MINUS_ONE, Classification.RHO_MINUS_ONE,
                 Classification.RHO_PLUS_ONE, Classification.ZERO_VARIANCE,
                 Classification.GOOD, Classification.GOOD,
                 Classification.GOOD, Classification.GOOD]
        recs = [self._fake_record("t1", i, c) for i, c in enumerate(kinds)]
        sm = summarize(st, recs)
        assert (sm.n_m1, sm.n_p1, sm.n_nan) == (2, 1, 1)
        assert (sm.pct_m1, sm.pct_p1, sm.pct_nan) == (25.0, 12.5, 12.5)
        assert sm.pct_bad == 50.0
        np.testing.assert_allclose(
            sm.mc_se_bad, 100.0 * math.sqrt(0.5 * 0.5 / 8), rtol=1e-15)
        np.testing.assert_allclose(
            sm.pred_m1, predictor_minus_one(100, 9, -0.5, 10.0), rtol=1e-15)
        np.testing.assert_allclose(
            sm.pred_p1, predictor_plus_one(100, 9, -0.5, 10.0), rtol=1e-15)

    def test_pct_bad_is_sum_of_parts(self):
        st = ExperimentSetting("t2", "T", 100, 9, -0.5, 10.0, 3)
        recs = [self._fake_record("t2", i, Classification.GOOD)
                for i in range(3)]
        sm = summarize(st, recs)
        assert sm.pct_bad == sm.pct_m1 + sm.pct_p1 + sm.pct_nan == 0.0
        assert sm.mc_se_bad == 0.0

    def test_all_boundary_fits_give_exactly_100(self):
        # 1/4/1 of 6: the float sum of the three percentages is
        # 100.00000000000001, which made the standard error's sqrt raise
        st = ExperimentSetting("t4", "T", 100, 9, -0.5, 10.0, 6)
        kinds = ([Classification.RHO_MINUS_ONE]
                 + [Classification.RHO_PLUS_ONE] * 4
                 + [Classification.ZERO_VARIANCE])
        recs = [self._fake_record("t4", i, c) for i, c in enumerate(kinds)]
        sm = summarize(st, recs)
        assert (sm.n_m1, sm.n_p1, sm.n_nan) == (1, 4, 1)
        assert sm.pct_bad == 100.0
        assert sm.mc_se_bad == 0.0

    def test_record_count_checked(self):
        st = ExperimentSetting("t3", "T", 100, 9, -0.5, 10.0, 5)
        with pytest.raises(ValueError, match="expected 5"):
            summarize(st, [])

    def test_catalog_predictors_equal_scalar_calls(self):
        # one array call for all settings gives the scalar values exactly
        summaries, _ = run_settings(with_reps(experiment_catalog(), 1),
                                    MASTER)
        assert len(summaries) == 50
        for sm in summaries:
            st = sm.setting
            args = (st.n_clusters, st.cluster_size, st.rho, st.r)
            assert sm.pred_m1 == predictor_minus_one(*args), st.id
            assert sm.pred_p1 == predictor_plus_one(*args), st.id
            assert type(sm.pred_m1) is float and type(sm.pred_p1) is float

    def test_factorial_predictors_equal_scalar_calls(self):
        grid = with_reps(factorial_grid(), 1)
        groups = [[self._fake_record(st.id, 0, Classification.GOOD)]
                  for st in grid]
        for sm in _summaries(grid, groups):
            st = sm.setting
            args = (st.n_clusters, st.cluster_size, st.rho, st.r)
            assert sm.pred_m1 == predictor_minus_one(*args), st.id
            assert sm.pred_p1 == predictor_plus_one(*args), st.id


class TestRunSettings:
    def _small_settings(self):
        return [ExperimentSetting("p1", "P", 20, 5, -0.5, 10.0, 12),
                ExperimentSetting("p2", "P", 20, 5, 0.0, 100.0, 12)]

    def test_parallelism_invariance(self, tmp_path):
        settings = self._small_settings()
        sums1, recs1 = run_settings(settings, 77, parallelism=1, chunk_size=5)
        sums2, recs2 = run_settings(settings, 77, parallelism=2, chunk_size=5)
        assert len(recs1) == len(recs2)
        for a, b in zip(recs1, recs2):
            # rho_hat is NaN on zero-variance fits, so compare via repr
            assert repr(a) == repr(b)
        for a, b in zip(sums1, sums2):
            assert a == b
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_replicate_csv(recs1, f1)
        write_replicate_csv(recs2, f2)
        assert f1.read_bytes() == f2.read_bytes()
        s1, s2 = tmp_path / "sa.csv", tmp_path / "sb.csv"
        write_summary_csv(sums1, s1)
        write_summary_csv(sums2, s2)
        assert s1.read_bytes() == s2.read_bytes()

    def test_records_sorted_and_complete(self):
        settings = self._small_settings()
        _, recs = run_settings(settings, 77, chunk_size=5)
        assert [r.setting for r in recs] == ["p1"] * 12 + ["p2"] * 12
        assert [r.rep for r in recs[:12]] == list(range(12))
        # seeds match the derivation rule
        for r in recs:
            assert r.seed == derive_seed(77, r.setting, r.rep)

    def test_duplicate_ids_rejected(self):
        st = ExperimentSetting("dup", "P", 20, 5, 0.0, 10.0, 2)
        with pytest.raises(ValueError, match="unique"):
            run_settings([st, st], 1)

    def test_run_setting_single(self):
        st = ExperimentSetting("solo", "P", 20, 5, 0.0, 10.0, 4)
        sm, recs = run_setting(st, 9)
        assert sm.setting is st
        assert len(recs) == 4

    def test_csv_floats_use_plain_repr(self, tmp_path):
        st = ExperimentSetting("solo", "P", 20, 5, 0.0, 10.0, 2)
        _, recs = run_setting(st, 9)
        path = tmp_path / "r.csv"
        write_replicate_csv(recs, path)
        text = path.read_text()
        assert "np.float64" not in text
        assert "nan" in text or "rho_hat" in text  # header at minimum


class TestSignTest:
    def test_frozen_values(self):
        np.testing.assert_allclose(sign_test_plus_vs_minus(35, 15),
                                   0.006600447966810918, rtol=1e-15)
        np.testing.assert_allclose(sign_test_plus_vs_minus(98, 55),
                                   0.0006366069157043575, rtol=1e-15)
        assert sign_test_plus_vs_minus(0, 5) == 0.0625
        assert sign_test_plus_vs_minus(10, 10) == 1.0

    def test_symmetry(self):
        assert sign_test_plus_vs_minus(35, 15) \
            == sign_test_plus_vs_minus(15, 35)

    def test_capped_at_one(self):
        assert sign_test_plus_vs_minus(11, 10) <= 1.0

    def test_errors(self):
        with pytest.raises(ValueError):
            sign_test_plus_vs_minus(-1, 5)
        with pytest.raises(ValueError):
            sign_test_plus_vs_minus(0, 0)


class TestTwoProportion:
    def test_frozen_value(self):
        np.testing.assert_allclose(
            two_proportion_pvalue(30, 100, 10, 100),
            0.0004069520174449609, rtol=1e-15)

    def test_equal_proportions(self):
        assert two_proportion_pvalue(10, 100, 10, 100) == 1.0
        assert two_proportion_pvalue(0, 50, 0, 70) == 1.0

    def test_errors(self):
        with pytest.raises(ValueError):
            two_proportion_pvalue(5, 0, 1, 10)
        with pytest.raises(ValueError):
            two_proportion_pvalue(11, 10, 1, 10)


class TestAnova:
    def test_one_way_hand_oracle(self):
        table = {"a": np.array([0, 0, 1, 1]),
                 "y": np.array([1.0, 1.0, -1.0, -1.0])}
        rows = anova_balanced(table, ["a"], "y")
        by = {r.term: r for r in rows}
        assert by["a"].df == 1
        np.testing.assert_allclose(by["a"].ss, 4.0, rtol=1e-12)
        np.testing.assert_allclose(by["a"].ms, 4.0, rtol=1e-12)
        assert by["remainder"].df == 2
        np.testing.assert_allclose(by["remainder"].ss, 0.0, atol=1e-24)

    def test_two_way_orthogonal_attribution(self):
        # y = 2*A + 3*B + 1*A*B with effects codes A, B = +/-1; on the
        # balanced 2x2 with 2 replicates the blocks are orthogonal so each
        # sum of squares is just the squared norm of its contribution
        a = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        b = np.array([0, 0, 1, 1, 0, 0, 1, 1])
        ca = np.where(a == 0, 1.0, -1.0)
        cb = np.where(b == 0, 1.0, -1.0)
        y = 2.0 * ca + 3.0 * cb + 1.0 * ca * cb
        rows = anova_balanced({"a": a, "b": b, "y": y}, ["a", "b"], "y")
        by = {r.term: r for r in rows}
        np.testing.assert_allclose(by["a"].ss, 8 * 4.0, rtol=1e-12)
        np.testing.assert_allclose(by["b"].ss, 8 * 9.0, rtol=1e-12)
        np.testing.assert_allclose(by["a:b"].ss, 8 * 1.0, rtol=1e-12)
        np.testing.assert_allclose(by["remainder"].ss, 0.0, atol=1e-20)
        assert by["remainder"].df == 4

    def test_constant_response(self):
        table = {"a": np.array([0, 0, 1, 1]),
                 "y": np.array([5.0, 5.0, 5.0, 5.0])}
        rows = anova_balanced(table, ["a"], "y")
        for r in rows:
            np.testing.assert_allclose(r.ss, 0.0, atol=1e-20)

    def test_confounded_factor_not_estimable(self):
        table = {"a": np.array([0, 0, 1, 1]), "b": np.array([0, 0, 1, 1]),
                 "y": np.array([1.0, 2.0, 3.0, 4.0])}
        with pytest.raises(EstimabilityError, match="'b'"):
            anova_balanced(table, ["a", "b"], "y")

    def test_two_way_flag(self):
        # cyclic fraction of a 3x3: both mains estimable, interaction not
        a = np.array([0, 1, 2, 0, 1, 2])
        b = np.array([0, 1, 2, 1, 2, 0]) * 10
        y = np.array([1.0, 2.0, 3.0, 5.0, 8.0, 13.0])
        table = {"a": a, "b": b, "y": y}
        with pytest.raises(EstimabilityError):
            anova_balanced(table, ["a", "b"], "y")
        rows = anova_balanced(table, ["a", "b"], "y", two_way=False)
        terms = [r.term for r in rows]
        assert terms == ["a", "b", "remainder"]
        by = {r.term: r for r in rows}
        assert by["a"].df == 2 and by["b"].df == 2
        assert all(r.ss >= -1e-12 for r in rows)
        # sequential sums of squares add up to the total about the mean
        total = float(np.sum((y - y.mean()) ** 2))
        np.testing.assert_allclose(sum(r.ss for r in rows), total,
                                   rtol=1e-12)

    def test_mains_unchanged_by_two_way_flag(self):
        rng = np.random.default_rng(5)
        a = np.repeat([0, 1, 2], 6)
        b = np.tile(np.repeat([0, 1], 3), 3)
        y = rng.normal(size=18)
        full = {r.term: r for r in anova_balanced(
            {"a": a, "b": b, "y": y}, ["a", "b"], "y")}
        mains = {r.term: r for r in anova_balanced(
            {"a": a, "b": b, "y": y}, ["a", "b"], "y", two_way=False)}
        for term in ("a", "b"):
            np.testing.assert_allclose(mains[term].ss, full[term].ss,
                                       rtol=1e-12)


class TestLsMeans:
    def test_equals_raw_means_on_balanced_design(self):
        rng = np.random.default_rng(3)
        a = np.repeat([0, 1, 2], 8)
        b = np.tile(np.repeat([10, 20], 4), 3)
        y = rng.normal(size=24) + 0.5 * a + 0.1 * b
        table = {"a": a, "b": b, "y": y}
        means = ls_means(table, ["a", "b"], "y", "a")
        for lev in (0, 1, 2):
            np.testing.assert_allclose(means[lev], y[a == lev].mean(),
                                       rtol=1e-10)

    def test_unknown_factor(self):
        table = {"a": np.array([0, 1]), "y": np.array([1.0, 2.0])}
        with pytest.raises(ValueError, match="not among"):
            ls_means(table, ["a"], "y", "c")

    def test_sparse_design_not_estimable(self):
        a = np.array([0, 1, 2])
        b = np.array([0, 1, 2])
        y = np.array([1.0, 2.0, 3.0])
        with pytest.raises(EstimabilityError):
            ls_means({"a": a, "b": b, "y": y}, ["a", "b"], "y", "a")


class TestInteractionPlotData:
    @staticmethod
    def _summary(n, s, rho, r, pct_bad):
        st = ExperimentSetting(f"s{n}_{s}_{rho}_{r}", "factorial", n, s,
                               rho, r, 10)
        return SettingSummary(st, 1.0, 1.0, pct_bad, 0.0, 0.0, pct_bad, 0.0)

    def test_averages_over_other_factors(self):
        sms = [self._summary(50, 5, -0.5, 10.0, 10.0),
               self._summary(50, 25, -0.5, 10.0, 30.0),
               self._summary(150, 5, -0.5, 10.0, 40.0),
               self._summary(50, 5, -0.5, 100.0, 60.0)]
        rows = interaction_plot_data(sms, "n_clusters")
        assert [(r["log10_r"], r["level"]) for r in rows] \
            == [(1.0, 50), (1.0, 150), (2.0, 50)]
        np.testing.assert_allclose(rows[0]["pct_bad"], 20.0, rtol=1e-15)
        np.testing.assert_allclose(rows[1]["pct_bad"], 40.0, rtol=1e-15)
        np.testing.assert_allclose(rows[2]["pct_bad"], 60.0, rtol=1e-15)

    def test_unknown_factor(self):
        with pytest.raises(ValueError, match="unknown factor"):
            interaction_plot_data([], "r")


class TestFactorialGrid:
    def test_default_size(self):
        grid = factorial_grid()
        assert len(grid) == 11 * 11 * 9 * 11
        assert len({st.id for st in grid}) == len(grid)

    def test_half_scale_axes_frozen(self):
        grid = factorial_grid(scale=0.5)
        assert len(grid) == 6 * 6 * 5 * 6
        ns = sorted({st.n_clusters for st in grid})
        ss = sorted({st.cluster_size for st in grid})
        rhos = sorted({st.rho for st in grid})
        lrs = sorted({round(math.log10(st.r), 10) for st in grid})
        assert ns == [50, 250, 450, 650, 850, 1050]
        assert ss == [5, 25, 45, 65, 85, 105]
        np.testing.assert_allclose(rhos, [-0.9, -0.7, -0.5, -0.3, -0.1],
                                   atol=1e-12)
        np.testing.assert_allclose(lrs, [0.0, 0.8, 1.6, 2.4, 3.2, 4.0],
                                   atol=1e-12)

    def test_ids_stable_across_subsampling(self):
        # a setting keeps its replicate seeds whichever subsample it is in
        full_ids = {st.id for st in factorial_grid()}
        half_ids = {st.id for st in factorial_grid(scale=0.5)}
        assert half_ids <= full_ids

    def test_options_propagate(self):
        grid = factorial_grid(n_grid=[50], s_grid=[5], rho_grid=[-0.5],
                              log10_r_grid=[1.0], reps=3,
                              variance_mode=VarianceMode.FIX_ERROR)
        assert len(grid) == 1
        assert grid[0].reps == 3
        assert grid[0].variance_mode is VarianceMode.FIX_ERROR
        assert grid[0].r == 10.0

    def test_scale_validated(self):
        with pytest.raises(ValueError):
            factorial_grid(scale=0.0)
        with pytest.raises(ValueError):
            factorial_grid(scale=1.5)


class TestAnovaRowType:
    def test_fields(self):
        row = AnovaRow("a", 2, 6.0, 3.0)
        assert (row.term, row.df, row.ss, row.ms) == ("a", 2, 6.0, 3.0)
