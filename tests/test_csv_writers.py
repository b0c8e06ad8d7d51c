"""The CSV writers' contract: every float reads back bit for bit, every
label by its value, and the record headers are the records' fields."""

import csv
import dataclasses
import math
import struct

import numpy as np
import pytest

from remlab import (Classification, ClusteredDataset, DesignSpec, ExperimentSetting,
                    HmoDataset, InvivoRow, RepRecord, write_dataset_csv, write_hmo_csv)
from remlab import invivo, predictor
from remlab.experiments import (REPLICATE_HEADER, SettingSummary, write_interaction_csv,
                                write_replicate_csv, write_summary_csv)

# a NaN, a signed zero, the smallest subnormal, a float whose repr is in
# exponent form, one that no short decimal reaches, and a numpy scalar
NAN, NEG_ZERO, TINY, BIG, SUM = math.nan, -0.0, 5e-324, 1e16, 0.1 + 0.2
NP = np.float64(2.0) / 3.0


def summary_case(path):
    st = ExperimentSetting("A1", "A", 500, 21, rho=NEG_ZERO, r=TINY, reps=3)
    values = [NAN, NEG_ZERO, TINY, BIG, SUM, NP, BIG]
    write_summary_csv([SettingSummary(st, *values, 0, 0, 0)], path)
    return [["A", "A1", 500, 21, NEG_ZERO, TINY, 3, *values]]


def replicate_case(path):
    rec = RepRecord("A", "A1", 7, 2**64 - 1, NP, NEG_ZERO, TINY, NAN,
                    Classification.RHO_PLUS_ONE, SUM)
    write_replicate_csv([rec], path)
    return [[getattr(rec, f.name) for f in dataclasses.fields(rec)]]


def interaction_case(path):
    row = {"log10_r": BIG, "level": 5, "pct_bad": NAN, "pct_m1": NEG_ZERO,
           "pct_p1": TINY, "pct_nan": NP}
    write_interaction_csv([row], path)
    return [list(row.values())]


def dataset_case(path):
    y = [[NEG_ZERO, TINY, BIG], [SUM, NP, -1e-300]]
    write_dataset_csv(ClusteredDataset(DesignSpec(2, 3), y), path)
    return [[i + 1, j + 1, x, y[i][j]] for i in range(2) for j, x in enumerate((-1.0, 0.0, 1.0))]


def hmo_case(path):
    columns = (["a", "a", "b"], [NAN, NEG_ZERO, TINY], [1, 20, 300], [BIG, BIG, SUM], [1, 1, -1])
    write_hmo_csv(HmoDataset(*map(np.array, columns)), path)
    return [list(row) for row in zip(*columns)]


def predictor_sweep_case(path):
    row = [1, 50, 5, NEG_ZERO, TINY, NAN, SUM]
    table = dict(zip(["draw", "n_clusters", "cluster_size", "rho", "log10_r",
                      "log10_pred_m1", "log10_pred_p1"], map(np.array, ([v] for v in row))))
    predictor.write_sweep_csv(table, path)
    return [row]


def invivo_sweep_case(path):
    row = InvivoRow(BIG, NAN, NEG_ZERO, TINY, SUM, NP, Classification.ZERO_VARIANCE)
    invivo.write_sweep_csv([row], path, "surrogate")
    return [[*dataclasses.astuple(row), "surrogate"]]


CASES = [summary_case, replicate_case, interaction_case, dataset_case, hmo_case,
         predictor_sweep_case, invivo_sweep_case]


def bits(v):
    return struct.pack("<d", v)


@pytest.mark.parametrize("case", CASES, ids=[c.__name__ for c in CASES])
def test_values_read_back_exactly(case, tmp_path):
    path = tmp_path / "out.csv"
    expected = case(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        assert len(row) == len(want)
        for cell, value in zip(row, want):
            if isinstance(value, Classification):
                assert Classification(cell) is value
            elif isinstance(value, float):  # np.float64 included
                assert bits(float(cell)) == bits(value), (cell, value)
            else:
                assert cell == str(value)


def test_record_headers_are_the_record_fields():
    assert REPLICATE_HEADER == [f.name for f in dataclasses.fields(RepRecord)]
    assert invivo.SWEEP_HEADER == [f.name for f in dataclasses.fields(InvivoRow)] + ["source"]
