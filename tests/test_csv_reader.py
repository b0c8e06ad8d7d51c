"""The dataset CSV reader: the one-pass numpy parse against the csv row loop.

``parse_dataset_rows`` parses a plainly formatted file in one numpy pass and
hands everything else to a csv row loop.  Every case below pins what
``read_dataset_csv`` and ``GeneralDataset.from_rows`` returned when the row
loop was the only reader (a dataset, or the exact error with its line
number), and checks that whenever the numpy pass accepts a file it builds
exactly what the row loop builds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remlab.errors import DataError
from remlab.model_system import (_parse_plain, _parse_row_loop, parse_dataset_rows,
                                 read_dataset_csv)
from remlab.reml_core import GeneralDataset

HEADER = "cluster,j,x,y"
ROWS = ("1,1,-1.0,0.5", "1,2,0.0,1.5", "1,3,1.0,2.5",
        "2,1,-1.0,3.0", "2,2,0.0,4.0", "2,3,1.0,5.5")


def csv_text(*rows, header=HEADER, end="\n"):
    return "".join(line + end for line in (header, *rows))


def edited(**rows):
    """ROWS with row k replaced by ``rows[f"r{k}"]``."""
    return [rows.get(f"r{k}", row) for k, row in enumerate(ROWS)]


def renamed(cluster_2):
    """ROWS with cluster id 2 written as ``cluster_2``."""
    return [cluster_2 + r[1:] if r.startswith("2,") else r for r in ROWS]


CASES = {
    "plain": csv_text(*ROWS),
    "no_final_newline": csv_text(*ROWS)[:-1],
    "columns_reordered": csv_text(*(",".join(r.split(",")[::-1]) for r in ROWS),
                                  header="y,x,j,cluster"),
    "crlf": csv_text(*ROWS, end="\r\n"),
    "lone_cr": csv_text(*ROWS, end="\r"),
    "blank_lines": csv_text(*ROWS[:3], "", *ROWS[3:], "", ""),
    "blank_first_line": "\n" + csv_text(*ROWS),
    "whitespace_line": csv_text(*ROWS[:3], "   ", *ROWS[3:]),
    "malformed_after_blank_line": csv_text(ROWS[0], "", "1,2,0.0,abc"),
    "non_finite_after_blank_line_lone_cr": csv_text(ROWS[0], "", "1,2,0.0,nan", end="\r"),
    "bom": "\ufeff" + csv_text(*ROWS),
    "quoted_fields": csv_text('"1",1,-1.0,"0.5"', *ROWS[1:]),
    "quoted_header": csv_text(*ROWS, header='"cluster","j","x","y"'),
    "quoted_comma_in_extra": csv_text(*(r + ",7" for r in ROWS), header=HEADER + ',"w,v"'),
    "id_underscore": csv_text(*renamed("1_0")),
    "id_plus": csv_text(*edited(r0="+1,1,-1.0,0.5")),
    "id_float": csv_text(*edited(r0="1.0,1,-1.0,0.5")),
    "id_exponent": csv_text(*edited(r0="1e0,1,-1.0,0.5")),
    "id_leading_space": csv_text(*edited(r0=" 1,1,-1.0,0.5")),
    "id_beyond_int64": csv_text(*renamed("99999999999999999999")),
    "id_int64_min": csv_text(*renamed("-9223372036854775808")),
    "j_beyond_int64": csv_text(*edited(r5="2,99999999999999999999,1.0,5.5")),
    "tab_padding": csv_text(*edited(r0="1,1,-1.0,\t0.5\t")),
    "unit_separator": csv_text(*edited(r0="1,1,-1.0,0.5\x1c")),
    "nul_byte": csv_text(*edited(r0="1,1,-1.0,0.5\x00")),
    "non_ascii_digit": csv_text(*edited(r0="1,1,-1.0,\u0660.5")),
    "y_underscore": csv_text(*edited(r5="2,3,1.0,5_5")),
    "y_nan": csv_text(*edited(r4="2,2,0.0,nan")),
    "x_inf": csv_text(*edited(r5="2,3,inf,5.5")),
    "y_overflows_to_inf": csv_text(*edited(r4="2,2,0.0,1e400")),
    "y_underflows_to_zero": csv_text(*edited(r4="2,2,0.0,1e-400")),
    "y_long_mantissa": csv_text(*edited(
        r4="2,2,0.0,0.1000000000000000055511151231257827021181583404541015625")),
    "short_row": csv_text(*edited(r4="2,2,0.0")),
    "extra_trailing_fields": csv_text(*(r + ",9,9" for r in ROWS)),
    "trailing_comma": csv_text(*(r + "," for r in ROWS)),
    "empty_field": csv_text(*edited(r4="2,,0.0,4.0")),
    "shuffled": csv_text(*(ROWS[k] for k in (5, 1, 3, 2, 4, 0))),
    "interleaved": csv_text(*(ROWS[k] for k in (0, 3, 1, 4, 2, 5))),
    "extra_column": csv_text(*(r + ",0.25" for r in ROWS), header=HEADER + ",w"),
    "duplicate_column": csv_text(*(r + ",9.0" for r in ROWS), header=HEADER + ",y"),
    "empty_file": "",
    "header_only": csv_text(),
    "missing_column": csv_text("1,1,0.5", header="cluster,j,y"),
    "unequal_sizes": csv_text(*ROWS, "3,1,-1.0,1.0"),
    "even_size": csv_text("1,1,-1.0,0.5", "1,2,1.0,1.5", "2,1,-1.0,3.0", "2,2,1.0,4.0"),
    "duplicate_j": csv_text(*edited(r5="2,2,1.0,5.5")),
    "off_grid": csv_text(*edited(r4="2,2,0.5,4.0")),
    "off_grid_by_1e-6": csv_text(*edited(r4="2,2,1e-06,4.0")),
    "on_grid_within_1e-9": csv_text(*edited(r4="2,2,1e-10,4.0")),
    "one_cluster": csv_text(*ROWS[:3]),
}

# What the row loop returned for each case.  A balanced result is the
# response matrix, a general one the (x, y) of each cluster in order, and a
# failure the exception type with its message ({path} stands for the file).
GRID = [-1.0, 0.0, 1.0]
Y = [[0.5, 1.5, 2.5], [3.0, 4.0, 5.5]]
GENERAL = [(GRID, Y[0]), (GRID, Y[1])]


def malformed(line, detail):
    return ("DataError", f"{{path}}:{line}: malformed row ({detail})")


def fails(message, kind="DataError"):
    return (kind, message.replace("PATH", "{path}"))


def non_finite(line):
    return fails(f"PATH:{line}: non-finite value")


NOT_INT = "invalid literal for int() with base 10: "
NOT_FLOAT = "could not convert string to float: "
EXPECTED = {
    "plain": (Y, GENERAL),
    "no_final_newline": (Y, GENERAL),
    "columns_reordered": (Y, GENERAL),
    "crlf": (Y, GENERAL),
    "lone_cr": (Y, GENERAL),
    "blank_lines": (Y, GENERAL),
    "blank_first_line": (fails("PATH: missing required columns ['cluster', 'j', 'x', 'y']"),) * 2,
    "whitespace_line": (malformed(5, NOT_INT + "'   '"),) * 2,
    "malformed_after_blank_line": (malformed(4, NOT_FLOAT + "'abc'"),) * 2,
    "non_finite_after_blank_line_lone_cr": (non_finite(4),) * 2,
    "bom": (fails("PATH: missing required columns ['cluster']"),) * 2,
    "quoted_fields": (Y, GENERAL),
    "quoted_header": (Y, GENERAL),
    "quoted_comma_in_extra": (Y, GENERAL),
    "id_underscore": (Y, GENERAL),
    "id_plus": (Y, GENERAL),
    "id_float": (malformed(2, NOT_INT + "'1.0'"),) * 2,
    "id_exponent": (malformed(2, NOT_INT + "'1e0'"),) * 2,
    "id_leading_space": (Y, GENERAL),
    "id_beyond_int64": (Y, GENERAL),
    "id_int64_min": (Y, GENERAL),
    "j_beyond_int64": (fails("PATH: cluster 2 must have j = 1..3"), GENERAL),
    "tab_padding": (Y, GENERAL),
    "unit_separator": (malformed(2, NOT_FLOAT + "'0.5\\x1c'"),) * 2,
    "nul_byte": (malformed(2, NOT_FLOAT + "'0.5\\x00'"),) * 2,
    "non_ascii_digit": (Y, GENERAL),
    "y_underscore": ([Y[0], [3.0, 4.0, 55.0]], [GENERAL[0], (GRID, [3.0, 4.0, 55.0])]),
    "y_nan": (non_finite(6),) * 2,
    "x_inf": (non_finite(7),) * 2,
    "y_overflows_to_inf": (non_finite(6),) * 2,
    "y_underflows_to_zero": ([Y[0], [3.0, 0.0, 5.5]], [GENERAL[0], (GRID, [3.0, 0.0, 5.5])]),
    "y_long_mantissa": ([Y[0], [3.0, 0.1, 5.5]], [GENERAL[0], (GRID, [3.0, 0.1, 5.5])]),
    "short_row": (malformed(6, "float() argument must be a string or a real number, "
                               "not 'NoneType'"),) * 2,
    "extra_trailing_fields": (Y, GENERAL),
    "trailing_comma": (Y, GENERAL),
    "empty_field": (malformed(6, NOT_INT + "''"),) * 2,
    "shuffled": (Y[::-1], GENERAL[::-1]),
    "interleaved": (Y, GENERAL),
    "extra_column": (Y, GENERAL),
    "duplicate_column": ([[9.0] * 3] * 2, [(GRID, [9.0] * 3)] * 2),
    "empty_file": (fails("PATH: empty file"),) * 2,
    "header_only": (fails("PATH: no data rows"),) * 2,
    "missing_column": (fails("PATH: missing required columns ['x']"),) * 2,
    "unequal_sizes": (fails("PATH: clusters have unequal sizes [1, 3]"),
                      GENERAL + [([-1.0], [1.0])]),
    "even_size": (fails("PATH: cluster size must be odd and >= 3, got 2"),
                  fails("PATH: need more observations than fixed effects plus two")),
    "duplicate_j": (fails("PATH: cluster 2 must have j = 1..3"), GENERAL),
    "off_grid": (fails("PATH: cluster 2 regressor differs from the shared grid"),
                 [GENERAL[0], ([-1.0, 0.5, 1.0], Y[1])]),
    "off_grid_by_1e-6": (fails("PATH: cluster 2 regressor differs from the shared grid"),
                         [GENERAL[0], ([-1.0, 1e-06, 1.0], Y[1])]),
    "on_grid_within_1e-9": (Y, [GENERAL[0], ([-1.0, 1e-10, 1.0], Y[1])]),
    "one_cluster": (fails("n_clusters must be an integer >= 2, got 1", "ValueError"),
                    fails("PATH: need at least two clusters")),
}

# the cases the numpy pass takes; it hands every other one to the row loop
ONE_PASS = {
    "plain", "no_final_newline", "columns_reordered", "crlf", "lone_cr", "blank_lines",
    "id_plus", "id_leading_space", "id_int64_min", "tab_padding", "y_underflows_to_zero",
    "y_long_mantissa", "shuffled", "interleaved", "extra_column", "unequal_sizes",
    "even_size", "duplicate_j", "off_grid", "off_grid_by_1e-6", "on_grid_within_1e-9",
    "one_cluster",
}


def write_case(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(CASES[name].encode("utf-8"))
    return path


def read_general_csv(path):
    """The unbalanced dataset in a CSV file, as ``remlab fit`` reads it."""
    return GeneralDataset.from_rows(parse_dataset_rows(path))


def outcome(read, path):
    try:
        result = read(path)
    except (DataError, ValueError) as exc:
        return (type(exc).__name__, str(exc).replace(str(path), "{path}"))
    if hasattr(result, "design"):
        return result.y.tolist()
    cut = np.cumsum(result.sizes)[:-1]
    return [(x.tolist(), y.tolist())
            for x, y in zip(np.split(result.x, cut), np.split(result.y, cut))]


def assert_same_rows(a, b):
    assert (a.ids, a.names) == (b.ids, b.names)
    for field in ("bounds", "j", "values"):
        got, want = getattr(a, field), getattr(b, field)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


def test_the_table_covers_every_case():
    assert set(EXPECTED) == set(CASES) and ONE_PASS <= set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_readers_match_the_row_loop_results(name, tmp_path):
    path = write_case(tmp_path, name)
    balanced, general = EXPECTED[name]
    assert outcome(read_dataset_csv, path) == balanced
    assert outcome(read_general_csv, path) == general


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_pass_parse_equals_the_row_loop(name, tmp_path):
    path = write_case(tmp_path, name)
    rows = _parse_plain(path)
    assert (rows is not None) == (name in ONE_PASS)
    if rows is not None:
        assert_same_rows(rows, _parse_row_loop(path))
        assert_same_rows(rows, parse_dataset_rows(path))


def test_extra_columns_are_carried_as_floats(tmp_path):
    rows = parse_dataset_rows(write_case(tmp_path, "extra_column"))
    assert rows.extra == ("w",)
    np.testing.assert_array_equal(rows.column("w"), np.full(6, 0.25))


_FORMATS = (repr, "{:.17g}".format, "{:+.6e}".format, "{:.3f}".format)


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(1, 4), min_size=2, max_size=5),
       ids=st.lists(st.integers(-2**63, 2**63 - 1), min_size=5, max_size=5, unique=True),
       values=st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                       min_size=3, max_size=3),
       fmt=st.sampled_from(range(len(_FORMATS))), seed=st.integers(0, 2**32 - 1))
def test_one_pass_parse_equals_the_row_loop_on_random_files(sizes, ids, values, fmt, seed,
                                                            tmp_path_factory):
    rng = np.random.default_rng(seed)
    lines = []
    for k, size in enumerate(sizes):
        for j in rng.permutation(size) + 1:
            x, y, w = (_FORMATS[fmt](v * rng.uniform(-1, 1)) for v in values)
            lines.append(f"{ids[k]},{j},{x},{y},{w}")
    order = rng.permutation(len(lines))
    path = tmp_path_factory.mktemp("csv") / "random.csv"
    path.write_text(csv_text(*(lines[k] for k in order), header="cluster,j,x,y,w"))
    rows = _parse_plain(path)
    assert rows is not None
    assert_same_rows(rows, _parse_row_loop(path))


@settings(max_examples=200, deadline=None)
@given(token=st.text(alphabet="0123456789+-.eE \t", max_size=6),
       column=st.sampled_from(range(4)))
def test_one_pass_parse_reads_any_field_as_int_and_float_do(token, column, tmp_path_factory):
    fields = ROWS[0].split(",")
    fields[column] = token
    path = tmp_path_factory.mktemp("csv") / "token.csv"
    path.write_text(csv_text(",".join(fields), *ROWS[1:]))
    rows = _parse_plain(path)
    if rows is not None:
        assert_same_rows(rows, _parse_row_loop(path))
