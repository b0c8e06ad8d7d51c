"""Print a digest of what a fixed list of ``remlab`` commands outputs.

    python3 tools/output_digest.py > digest.txt

Runs each command through ``remlab.cli.main``, using the ``src/`` of the
checkout it lives in, inside a fresh temporary directory, so every path a
command sees or prints is relative.  For each command it prints one line
with the exit code and the sha256 of its stdout, then one line per file the
command wrote or changed, with that file's sha256.  The commands cover every
subcommand and every writer of a CSV (``simulate``, two experiments, the
factorial with its interaction files, the predictor sweep, the in-vivo sweep
on the surrogate and on a premium file, and ``write_hmo_csv`` of three
surrogates), ``predictor`` in both forms and at an r whose predictor
underflows and one whose predictor overflows, ``fit`` on a balanced and on
a general file, also under tolerances that relabel the fit, an experiment in the fix_error variance mode, an experiment
and an in-vivo sweep whose flags come from a ``--config`` file, ``anova``
with LS-means, and the malformed ``anova`` and ``--fixed-spec`` inputs that
must exit 2 or 1.

Run it on two checkouts and ``diff`` the outputs: an empty diff means every
command exits the same way, prints the same bytes and writes the same files.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from remlab import cli, invivo  # noqa: E402

SIMULATE = ["simulate", "--N", "30", "--s", "7", "--sigma2-e", "2", "--sigma2-c", "1",
            "--sigma2-s", "0.5", "--rho", "0.3", "--seed", "11", "--out", "sim.csv"]
ANOVA = ["anova", "--response", "y", "--factors", "a,b"]
PREDICTOR = ["predictor", "--N", "500", "--s", "21", "--rho", "-0.8", "--r", "10"]

COMMANDS = [
    SIMULATE,
    PREDICTOR,
    [*PREDICTOR, "--as-printed"],
    [*PREDICTOR, "--r", "1e300"],
    [*PREDICTOR, "--r", "1e-310"],
    ["fit", "--data", "sim.csv", "--out", "fit_balanced.json"],
    ["fit", "--data", "general.csv", "--out", "fit_general.json"],
    ["fit", "--data", "general.csv", "--out", "fit_w.json", "--fixed-spec", "spec_list.json"],
    ["fit", "--data", "general.csv", "--out", "fit_str.json", "--fixed-spec", "spec_str.json"],
    ["fit", "--data", "general.csv", "--out", "fit_general_rho_tol.json", "--rho-tol", "0.9"],
    ["fit", "--data", "general.csv", "--out", "fit_general_var_tol.json", "--var-ratio-tol", "10"],
    ["fit", "--data", "sim.csv", "--out", "fit_balanced_var_tol.json", "--var-ratio-tol", "10"],
    ["experiment", "A", "--reps", "4", "--out-dir", "exp_a"],
    ["experiment", "C", "--reps", "30", "--parallelism", "2", "--out-dir", "exp_c"],
    ["experiment", "factorial", "--scale", "0.3", "--reps", "2", "--out-dir", "factorial"],
    ["experiment", "predictor-sweep", "--out-dir", "sweep"],
    ["experiment", "A", "--reps", "3", "--variance-mode", "fix_error", "--out-dir", "exp_a_fix_error"],
    ["experiment", "A", "--config", "experiment.cfg"],
    ["invivo", "--surrogate", "--out-dir", "invivo"],
    ["invivo", "--surrogate", "--config", "invivo.cfg"],
    ["invivo", "--data", "hmo_0.csv", "--out", "invivo_hmo_0.csv"],
    ["anova", "--table", "factorial/experiment_factorial_summary.csv", "--response", "pct_bad",
     "--factors", "N,s,rho", "--ls-means", "s"],
    [*ANOVA, "--table", "one_level.csv"],
    [*ANOVA, "--table", "no_rows.csv"],
    [*ANOVA, "--table", "nan_response.csv"],
    [*ANOVA, "--table", "short_row.csv"],
    ["anova", "--table", "factorial/experiment_factorial_summary.csv", "--response", "pct_bad",
     "--factors", "N,s,rho", "--ls-means", "pct_bad"],
]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_inputs():
    """The input files that no command writes: a general dataset, two
    fixed-effects specs, three premium files, the anova tables and two
    config files."""
    with open("sim.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    # every fourth row dropped makes the clusters unequal; w is a third fixed column
    general = [rows[0] + ["w"]] + [row + [str((7 * k) % 11 / 11)]
                                   for k, row in enumerate(rows[1:]) if k % 4 != 1]
    with open("general.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(general)
    for name, columns in (("spec_list.json", ["w"]), ("spec_str.json", "w")):
        with open(name, "w") as fh:
            json.dump({"columns": columns}, fh)
    for seed in (0, 1, 390):
        invivo.write_hmo_csv(invivo.make_surrogate(seed), f"hmo_{seed}.csv")
    tables = {"one_level.csv": "a,b,y\n1,1,2\n1,2,3\n1,1,4\n1,2,6\n",
              "no_rows.csv": "a,b,y\n",
              "nan_response.csv": "a,b,y\n1,1,2\n1,2,nan\n2,1,4\n2,2,6\n",
              "short_row.csv": "a,b,y\n1,1,2\n1,2\n2,1,4\n2,2,6\n"}
    configs = {"experiment.cfg": "# a config file\nreps=3\nseed=7\nout-dir=exp_a_config\n",
               "invivo.cfg": "phi-end=1.5\nout-dir=invivo_config\n"}
    for name, text in {**tables, **configs}.items():
        with open(name, "w") as fh:
            fh.write(text)


def changed_files(seen):
    """(path, sha256) of each file under the working directory that is new
    or changed since the last call, in path order; updates seen."""
    out = []
    for top, dirs, files in os.walk("."):
        dirs.sort()
        for name in sorted(files):
            path = os.path.relpath(os.path.join(top, name))
            with open(path, "rb") as fh:
                digest = sha(fh.read())
            if seen.get(path) != digest:
                seen[path] = digest
                out.append((path, digest))
    return out


def main():
    seen = {}
    with tempfile.TemporaryDirectory(prefix="output-digest-") as work:
        os.chdir(work)
        for argv in COMMANDS:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            print(f"run {' '.join(argv)} exit={code} stdout={sha(stdout.getvalue().encode())}")
            for path, digest in changed_files(seen):
                print(f"  file {path} {digest}")
            if argv is SIMULATE:
                write_inputs()
                print("inputs (from sim.csv and write_hmo_csv)")
                for path, digest in changed_files(seen):
                    print(f"  file {path} {digest}")
        os.chdir(ROOT)


if __name__ == "__main__":
    main()
