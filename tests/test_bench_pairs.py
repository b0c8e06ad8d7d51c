"""Tests for the summary arithmetic of tools/bench_pairs.py."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_higher_is_better_gain():
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0]
    change = [130.0, 128.0, 131.0, 97.0, 129.0, 130.0, 132.0, 127.0, 130.0, 100.0]
    s = bench_pairs.summarize(parent, change, "higher", 0.25)
    # pair 3 loses (97 < 101), pair 9 ties (100 = 100) and counts for neither
    assert (s["pairs"], s["wins"], s["losses"]) == (10, 8, 1)
    assert s["parent"] == (99.25, 100.0, 100.75)
    assert s["change"][1] == 129.5 and s["gap"] == 29.5
    assert s["parent_iqr"] == 1.5
    assert not s["gain_shown"]  # 8 of 10 wins is below nine tenths
    # with pair 9 won, 9 of 10 wins and a gap beyond the spread show a gain
    s = bench_pairs.summarize(parent, change[:9] + [131.0], "higher", 0.25)
    assert s["wins"] == 9 and s["gain_shown"]
    assert s["worse"] < 0 and s["within_bound"]


def test_lower_is_better_and_the_bound():
    parent = [10.0, 11.0, 12.0]
    change = [12.0, 13.0, 14.0]
    s = bench_pairs.summarize(parent, change, "lower", 0.25)
    assert (s["wins"], s["losses"]) == (0, 3)
    assert s["gap"] == -2.0 and not s["gain_shown"]
    assert s["worse"] == pytest.approx(2.0 / 11.0) and s["within_bound"]
    s = bench_pairs.summarize(parent, [14.0, 14.0, 14.0], "lower", 0.25)
    assert s["worse"] == pytest.approx(3.0 / 11.0) and not s["within_bound"]


def test_gap_must_exceed_the_parent_spread():
    # every pair won, but by less than the parent's own quartile spread
    parent = [100.0, 110.0, 120.0, 130.0]
    change = [p + 1.0 for p in parent]
    s = bench_pairs.summarize(parent, change, "higher", 0.25)
    assert s["wins"] == 4 and s["gap"] == 1.0 and s["parent_iqr"] == 15.0
    assert not s["gain_shown"]
