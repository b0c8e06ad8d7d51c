"""Tests for the closed-form boundary-risk predictors and the design sweep."""

import csv
import itertools
import math
import sys
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remlab import (log10_predictor_minus_one, log10_predictor_plus_one,
                    predictor_minus_one, predictor_plus_one, predictor_sweep)
from remlab.predictor import DEFAULT_SWEEP_GRIDS, write_sweep_csv
from reference import _exact_inward_slope


class TestReferenceValues:
    def test_frozen_spot_values(self):
        # independent recomputations of these five settings, frozen
        np.testing.assert_allclose(
            predictor_minus_one(500, 21, 0.0, 10.0), 360.14213234210104,
            rtol=1e-12)
        np.testing.assert_allclose(
            predictor_minus_one(100, 9, -0.8, 6.3), 8.252110893175017,
            rtol=1e-12)
        np.testing.assert_allclose(
            predictor_minus_one(20, 25, -0.8, 6.0), 9.884844201460387,
            rtol=1e-12)
        np.testing.assert_allclose(
            predictor_minus_one(500, 21, -0.5, 53.0), 9.962245329249605,
            rtol=1e-12)
        np.testing.assert_allclose(
            predictor_plus_one(500, 21, -0.5, 53.0), 29.78119818931201,
            rtol=1e-12)
        np.testing.assert_allclose(
            predictor_plus_one(100, 9, -0.8, 6.3), 67.64069195121758,
            rtol=1e-12)

    def test_uncorrected_variant(self):
        # the variant without the "-1" in the leading denominator gives
        # visibly different values at small r; both frozen
        np.testing.assert_allclose(
            predictor_minus_one(500, 21, 0.0, 10.0, as_printed=True),
            254.00948645232933, rtol=1e-12)
        np.testing.assert_allclose(
            predictor_minus_one(500, 21, 0.0, 53.0, as_printed=True),
            19.17325745279064, rtol=1e-12)

    def test_vanishes_at_extreme_r(self):
        assert predictor_minus_one(500, 21, 0.0, 1e9) < 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            predictor_minus_one(1, 21, 0.0, 10.0)
        with pytest.raises(ValueError):
            predictor_minus_one(500, 4, 0.0, 10.0)
        with pytest.raises(ValueError):
            predictor_minus_one(500, 21, 1.0, 10.0)
        with pytest.raises(ValueError):
            predictor_minus_one(500, 21, 0.0, -1.0)
        with pytest.raises(ValueError):
            predictor_minus_one(500, 21, 0.0, math.inf)


class TestProperties:
    def test_positivity_random_scan(self):
        rng = np.random.default_rng(20260825)
        n = rng.integers(2, 2001, size=20000)
        s = 2 * rng.integers(1, 101, size=20000) + 1
        rho = rng.uniform(-1.0, 1.0, size=20000) * 0.999999
        r = 10.0 ** rng.uniform(-6.0, 6.0, size=20000)
        vals = predictor_minus_one(n, s, rho, r)
        assert np.all(vals > 0.0)

    def test_monotone_decreasing_in_r(self):
        r = np.logspace(-4, 5, 200)
        vals = predictor_minus_one(300, 11, -0.4, r)
        assert np.all(np.diff(vals) < 0)

    def test_monotone_increasing_in_n_and_s(self):
        n = np.arange(2, 1000)
        vals = predictor_minus_one(n, 9, -0.5, 20.0)
        assert np.all(np.diff(vals) > 0)
        s = np.arange(3, 301, 2)
        vals = predictor_minus_one(100, s, -0.5, 20.0)
        assert np.all(np.diff(vals) > 0)

    def test_vanishes_as_rho_to_minus_one(self):
        rho = -1.0 + np.logspace(0, -12, 100)
        vals = predictor_minus_one(100, 9, rho, 10.0)
        assert np.all(np.diff(vals) < 0)  # decreasing toward the limit
        assert vals[-1] < 1e-9

    def test_mirror_identity_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 500))
            s = int(2 * rng.integers(1, 50) + 1)
            rho = float(rng.uniform(-0.99, 0.99))
            r = float(10.0 ** rng.uniform(-3, 3))
            assert predictor_plus_one(n, s, rho, r) \
                == predictor_minus_one(n, s, -rho, r)

    def test_equal_at_rho_zero(self):
        assert predictor_plus_one(77, 13, 0.0, 3.0) \
            == predictor_minus_one(77, 13, 0.0, 3.0)

    @given(st.integers(2, 1000), st.integers(1, 60),
           st.floats(-0.99, 0.99), st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_log10_consistent_with_direct(self, n, m, rho, log_r):
        s = 2 * m + 1
        r = 10.0 ** log_r
        direct = predictor_minus_one(n, s, rho, r)
        via_log = log10_predictor_minus_one(n, s, rho, r)
        np.testing.assert_allclose(via_log, math.log10(direct), atol=1e-10)

    def test_log10_stable_past_overflow(self):
        # direct evaluation underflows long before r = 1e300
        val = log10_predictor_minus_one(500, 21, 0.0, 1e300)
        assert math.isfinite(val)
        assert val < -590
        val_p = log10_predictor_plus_one(500, 21, -0.5, 1e300)
        assert math.isfinite(val_p)

    def test_direct_score_past_overflow_is_zero_without_warning(self):
        # (1 + r/s)(1 + r/q) - 1 exceeds float range: the score is its limit 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for as_printed in (False, True):
                assert predictor_minus_one(500, 21, -0.8, 1e300, as_printed) == 0.0
                assert predictor_plus_one(500, 21, -0.8, 1e300, as_printed) == 0.0
                assert log10_predictor_minus_one(500, 21, -0.8, 1e300, as_printed) \
                    == -595.7921594388062

    def test_matches_the_exact_slope_over_the_whole_float_range(self):
        # from the least subnormal r to the greatest float, with no warning;
        # the direct score is held to the slope where that is a normal
        # float, and must be inf above the float range and 0 below it
        def exact_log10(x):
            k = len(str(x.numerator)) - len(str(x.denominator))
            return k + math.log10(x / Fraction(10) ** k)

        rs = (5e-324, 1e-310, 1e-300, 1e-20, 1e-3, 1.0, 53.0, 1e5, 1e20,
              1e154, 1e160, 1e300, 1.7e308)
        scores = {-1: (log10_predictor_minus_one, predictor_minus_one),
                  1: (log10_predictor_plus_one, predictor_plus_one)}
        checked = Counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for (n, s, rho), r, boundary in itertools.product(
                    ((500, 21, 0.0), (2, 3, -0.95), (1000, 105, 0.9)), rs, (-1, 1)):
                log10_score, score = scores[boundary]
                exact = _exact_inward_slope(n, s, rho, r, boundary)
                where = f"N={n} s={s} rho={rho} r={r!r} boundary={boundary}"
                assert abs(log10_score(n, s, rho, r) - exact_log10(exact)) <= 1e-12, where
                got = score(n, s, rho, r)
                if exact > sys.float_info.max:
                    assert got == math.inf, where
                    checked["inf"] += 1
                elif exact < Fraction(math.ulp(0.0)) / 2:
                    assert got == 0.0, where
                    checked["zero"] += 1
                elif exact >= sys.float_info.min:
                    assert abs(got - float(exact)) <= 1e-12 * float(exact), where
                    checked["normal"] += 1
        assert len(checked) == 3, checked

    def test_sample_size_counters_noise_ratio(self):
        # raising r by 10^0.4 and N by ~5 (or s by ~3) roughly restores
        # the score on the small-sample reference settings
        settings_nsrr = [(100, 9, -0.8, 6.3), (100, 9, -0.8, 15.8),
                         (500, 9, -0.8, 15.8), (100, 9, 0.0, 15.8),
                         (21, 9, -0.8, 6.3), (100, 3, -0.8, 6.3),
                         (100, 9, -0.96, 6.3)]
        bump = 10.0 ** 0.4
        for n, s, rho, r in settings_nsrr:
            base = predictor_minus_one(n, s, rho, r)
            via_n = predictor_minus_one(5 * n, s, rho, r * bump)
            assert base / 1.3 <= via_n <= base * 1.3
            via_s = predictor_minus_one(n, 3 * s, rho, r * bump)
            assert base / 1.3 <= via_s <= base * 1.3


class TestPredictorSweep:
    def test_default_grids(self):
        assert DEFAULT_SWEEP_GRIDS["n_clusters"] == tuple(range(50, 1051, 100))
        assert DEFAULT_SWEEP_GRIDS["cluster_size"] == tuple(range(5, 106, 10))
        assert DEFAULT_SWEEP_GRIDS["rho"] == tuple(
            round(-0.9 + 0.1 * k, 10) for k in range(9))
        assert DEFAULT_SWEEP_GRIDS["log10_r"] == tuple(
            round(-2.0 + 0.4 * k, 10) for k in range(11))

    def test_deterministic_and_shaped(self):
        a = predictor_sweep(42, n_draws=100)
        b = predictor_sweep(42, n_draws=100)
        assert a.keys() == b.keys()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])
        assert len(a["draw"]) == 100
        assert a["draw"][0] == 1
        # every drawn level comes from its grid
        for key in ("n_clusters", "cluster_size", "rho", "log10_r"):
            assert set(a[key]) <= set(DEFAULT_SWEEP_GRIDS[key])

    def test_rows_match_the_closed_form(self):
        t = predictor_sweep(7, n_draws=50)
        for i in range(50):
            expect = log10_predictor_minus_one(
                t["n_clusters"][i], t["cluster_size"][i], t["rho"][i],
                10.0 ** t["log10_r"][i])
            np.testing.assert_allclose(t["log10_pred_m1"][i], expect,
                                       rtol=1e-12)
            mirror = log10_predictor_plus_one(
                t["n_clusters"][i], t["cluster_size"][i], t["rho"][i],
                10.0 ** t["log10_r"][i])
            np.testing.assert_allclose(t["log10_pred_p1"][i], mirror,
                                       rtol=1e-12)

    def test_seed_is_reduced_modulo_2_to_the_64(self):
        # one stream per seed, as simulate and make_surrogate draw it
        a, b = predictor_sweep(-5, n_draws=50), predictor_sweep(2 ** 64 - 5, n_draws=50)
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])

    def test_marginals_roughly_uniform(self):
        t = predictor_sweep(20260825, n_draws=1000)
        for key, grid in DEFAULT_SWEEP_GRIDS.items():
            counts = np.array([sum(1 for v in t[key] if v == lev)
                               for lev in grid])
            expect = 1000.0 / len(grid)
            sd = math.sqrt(1000.0 * (1.0 / len(grid))
                           * (1.0 - 1.0 / len(grid)))
            assert np.all(np.abs(counts - expect) < 4.0 * sd)

    def test_csv_output(self, tmp_path):
        t = predictor_sweep(3, n_draws=10)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(t, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["draw", "n_clusters", "cluster_size", "rho",
                           "log10_r", "log10_pred_m1", "log10_pred_p1"]
        assert len(rows) == 11
        assert float(rows[1][5]) == t["log10_pred_m1"][0]
