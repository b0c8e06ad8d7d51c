"""``remlab fit`` as its own process: what it imports and what it writes.

``python -m remlab.cli`` is how the command runs outside the test suite, so
these tests start a fresh interpreter and compare it with an in-process
``main`` call, byte for byte.
"""

import json
import os
import subprocess
import sys

import pytest

import remlab
from remlab import DesignSpec, FixedEffects, VarianceParams, simulate, write_dataset_csv
from remlab.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(remlab.__file__)))
# a fit never needs the experiment pool, the in-vivo study or the predictors
NOT_IMPORTED_BY_FIT = ("remlab.experiments", "remlab.invivo", "remlab.predictor",
                       "concurrent.futures")


def python(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def in_process(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_simulated(path, n=60, s=5, sigma2_e=2.0, drop_last=0):
    data = simulate(DesignSpec(n, s), FixedEffects(1.0, 0.5),
                    VarianceParams(sigma2_e, 1.0, 0.5, 0.3), 7)
    write_dataset_csv(data, path)
    if drop_last:
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-drop_last]))
    return path


def test_fit_imports_only_what_it_uses(tmp_path):
    data = write_simulated(tmp_path / "d.csv")
    script = ("import json, sys\n"
              "from remlab.cli import main\n"
              f"code = main(['fit', '--data', {str(data)!r}, '--out', {str(tmp_path / 'o.json')!r}])\n"
              "print(json.dumps([code, sorted(sys.modules)]))\n")
    code, out, err = python("-c", script)
    assert code == 0, err
    fit_code, modules = json.loads(out.splitlines()[-1])
    assert fit_code == 0
    assert [m for m in NOT_IMPORTED_BY_FIT if m in modules] == []


@pytest.mark.parametrize("drop_last", [0, 2], ids=["balanced", "general"])
def test_module_entry_point_matches_main(capsys, tmp_path, drop_last):
    data = write_simulated(tmp_path / "d.csv", drop_last=drop_last)
    out = tmp_path / "fit.json"
    argv = ("fit", "--data", str(data), "--out", str(out))
    expected = in_process(capsys, *argv)
    expected_json = out.read_bytes()
    out.unlink()
    assert python("-m", "remlab.cli", *argv) == expected
    assert out.read_bytes() == expected_json
    engine = "general" if drop_last else "balanced"
    assert expected[0] == 0 and f"engine         = {engine}\n" in expected[1]


# Malformed inputs: (file text or None for a missing file, exit status,
# stderr with {path} for the data file).
MALFORMED = {
    "missing_file": (None, 2, "data error: cannot read dataset file {path}: "
                              "[Errno 2] No such file or directory: '{path}'\n"),
    "missing_column": ("cluster,x,y\n1,0.0,not_a_number\n", 2,
                       "data error: {path}: missing required columns ['j']\n"),
    "bom": ("\ufeffcluster,j,x,y\n1,1,-1.0,0.5\n", 2,
            "data error: {path}: missing required columns ['cluster']\n"),
    "float_id": ("cluster,j,x,y\n1.0,1,-1.0,0.5\n", 2,
                 "data error: {path}:2: malformed row "
                 "(invalid literal for int() with base 10: '1.0')\n"),
    "non_finite": ("cluster,j,x,y\n1,1,-1.0,0.5\n1,2,0.0,nan\n", 2,
                   "data error: {path}:3: non-finite value\n"),
    "even_size": ("cluster,j,x,y\n1,1,-1.0,0.5\n1,2,1.0,1.5\n2,1,-1.0,3.0\n2,2,1.0,4.0\n", 2,
                  "data error: {path}: need more observations than fixed effects plus two\n"),
    "one_cluster": ("cluster,j,x,y\n1,1,-1.0,0.5\n1,2,0.0,1.5\n1,3,1.0,2.5\n", 2,
                    "data error: {path}: need at least two clusters\n"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_file_through_the_entry_point(capsys, tmp_path, name):
    text, status, stderr = MALFORMED[name]
    data = tmp_path / "d.csv"
    if text is not None:
        data.write_bytes(text.encode("utf-8"))
    out = tmp_path / "fit.json"
    argv = ("fit", "--data", str(data), "--out", str(out))
    expected = (status, "", stderr.replace("{path}", str(data)))
    assert in_process(capsys, *argv) == expected
    assert python("-m", "remlab.cli", *argv) == expected
    assert not out.exists()


def test_no_residual_variation_through_the_entry_point(capsys, tmp_path):
    data = write_simulated(tmp_path / "d.csv", n=30, sigma2_e=0.0)
    argv = ("fit", "--data", str(data), "--out", str(tmp_path / "fit.json"))
    expected = (2, "", "data error: no within-cluster residual variation (rss = 0)\n")
    assert in_process(capsys, *argv) == expected
    assert python("-m", "remlab.cli", *argv) == expected
