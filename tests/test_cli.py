"""End-to-end tests for the command-line interface."""

import csv
import json

import pytest

from remlab.cli import main
from remlab.invivo import make_surrogate, write_hmo_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_PREDICTOR = ["predictor", "--N", "10", "--s", "9", "--rho", "0", "--r", "1"]
_SIMULATE = ["simulate", "--N", "10", "--s", "5", "--sigma2-e", "1", "--sigma2-c", "1",
             "--sigma2-s", "1", "--rho", "0.3", "--seed", "3", "--out", "{tmp}/d.csv"]
_EXPERIMENT = ["experiment", "A", "--reps", "1", "--out-dir", "{tmp}"]
_ANOVA = ["anova", "--table", "{tmp}/t.csv"]
_CONFIG = ["experiment", "A", "--out-dir", "{tmp}", "--config", "{tmp}/run.cfg"]
_SWEEP = ["experiment", "predictor-sweep", "--reps", "5", "--out-dir", "{tmp}"]
_TABLE = "a,b,y\n1,1,2\n1,2,3\n2,1,4\n2,2,6\n"


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "predictor", "--N", "10", "--s", "9",
                             "--rho", "0", "--r", "1", "--bogus")
        assert code == 1

    def test_even_cluster_size(self, capsys):
        code, _, err = run_cli(capsys, "predictor", "--N", "10", "--s", "4",
                               "--rho", "0", "--r", "1")
        assert code == 1
        assert "odd" in err

    def test_missing_data_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "fit", "--data",
                             str(tmp_path / "nope.csv"),
                             "--out", str(tmp_path / "o.json"))
        assert code == 2

    @pytest.mark.parametrize("command, out", [
        *((c, out) for c in ("fit", "simulate", "invivo") for out in ("{tmp}/missing/o", "{tmp}")),
        ("fit", ""), ("simulate", "")])  # an empty invivo --out selects the default path
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, monkeypatch,
                                           command, out):
        # --out is checked before any work: a path in a missing directory,
        # a directory or an empty path exits 1 without fitting
        data = tmp_path / "d.csv"
        assert main(["simulate", "--N", "10", "--s", "5", "--sigma2-e", "1",
                     "--sigma2-c", "1", "--sigma2-s", "1", "--rho", "0.3",
                     "--seed", "3", "--out", str(data)]) == 0
        capsys.readouterr()
        out = out.format(tmp=tmp_path)
        argv = {"fit": ["--data", str(data)],
                "simulate": ["--N", "10", "--s", "5", "--sigma2-e", "1", "--sigma2-c", "1",
                             "--sigma2-s", "1", "--rho", "0.3", "--seed", "3"],
                "invivo": ["--surrogate", "--out-dir", str(tmp_path)]}[command]

        def no_work(*args, **kwargs):
            raise AssertionError("work before the --out check")

        for name in ("fit_balanced", "fit_general", "simulate"):
            monkeypatch.setattr(f"remlab.cli.{name}", no_work)
        monkeypatch.setattr("remlab.invivo.phi_sweep", no_work)
        code, _, err = run_cli(capsys, command, *argv, "--out", out)
        assert code == 1
        assert "usage error: cannot write --out" in err

    @pytest.mark.parametrize("make_blocker", [False, True])
    def test_unmakeable_out_dir_is_usage_error(self, capsys, tmp_path, make_blocker):
        # an empty --out-dir, or one below a regular file, exits 1
        blocker = tmp_path / "file"
        blocker.write_text("")
        out_dir = str(blocker / "sub") if make_blocker else ""
        for argv in (["invivo", "--surrogate"], ["experiment", "A", "--reps", "1"]):
            code, _, err = run_cli(capsys, *argv, "--out-dir", out_dir)
            assert code == 1
            assert "usage error: cannot create --out-dir" in err

    @pytest.mark.parametrize("argv, files, code, fragment", [
        ([*_PREDICTOR, "--N", "1"], {}, 1, "usage error: --N must be >= 2"),
        ([*_PREDICTOR, "--r", "0"], {}, 1, "usage error: --r must be positive"),
        ([*_SIMULATE, "--s", "4"], {}, 1, "usage error: --s must be odd and >= 3"),
        ([*_EXPERIMENT, "--parallelism", "0"], {}, 1, "usage error: --parallelism must be >= 1"),
        ([*_EXPERIMENT, "--reps", "0"], {}, 1, "usage error: --reps must be >= 1"),
        ([*_ANOVA, "--response", "y", "--factors", ","], {"t.csv": _TABLE}, 1,
         "usage error: --factors must name at least one column"),
        ([*_ANOVA, "--response", "z", "--factors", "a,b"], {"t.csv": _TABLE}, 2,
         "data error: table lacks columns: z"),
        (["fit", "--data", "{tmp}/d.csv", "--out", "{tmp}/o.json", "--fixed-spec", "{tmp}/s.json"],
         {"s.json": "columns: [w]\n"}, 2, "data error: bad fixed-effects spec"),
        (["fit", "--data", "{tmp}/g.csv", "--out", "{tmp}/o.json", "--fixed-spec", "{tmp}/s.json"],
         {"g.csv": "cluster,j,x,y\n1,1,0,1\n1,2,1,2\n2,1,0,1\n2,2,1,3\n",
          "s.json": '{"columns": ["w"]}'},
         2, "data error: {tmp}/g.csv: fixed-effect columns not present: ['w']"),
        (_CONFIG, {}, 2, "data error: cannot read config file"),
        (_CONFIG, {"run.cfg": "# reps\nreps 2\n"}, 2,
         "data error: config line 2: expected KEY=VALUE"),
        (_CONFIG, {"run.cfg": "reps=x\n"}, 2, "config"),
        (_CONFIG, {"run.cfg": "variance-mode=bogus\n"}, 2,
         "data error: config file: argument --variance-mode: invalid choice: 'bogus'"),
        # a flag the chosen experiment does not read, on the command line or
        # in the config file, is rejected like --reps 0 is
        ([*_EXPERIMENT, "--scale", "0.5"], {}, 1,
         "usage error: --scale applies only to the factorial experiment"),
        (_CONFIG, {"run.cfg": "scale=0.5\n"}, 1,
         "usage error: --scale applies only to the factorial experiment"),
        ([*_SWEEP, "--variance-mode", "fix_error"], {}, 1,
         "usage error: --variance-mode does not apply to predictor-sweep"),
        ([*_SWEEP, "--config", "{tmp}/run.cfg"], {"run.cfg": "variance-mode=fix_random_effects\n"},
         1, "usage error: --variance-mode does not apply to predictor-sweep"),
        ([*_SWEEP, "--parallelism", "2"], {}, 1,
         "usage error: --parallelism does not apply to predictor-sweep"),
    ], ids=["predictor-N", "predictor-r", "simulate-s", "parallelism", "reps", "anova-factors",
            "anova-response", "fixed-spec-not-json", "fixed-spec-column-missing",
            "config-unreadable", "config-no-equals", "config-reps", "config-variance-mode",
            "scale-outside-factorial", "config-scale-outside-factorial",
            "sweep-variance-mode", "config-sweep-variance-mode", "sweep-parallelism"])
    def test_error_exits_before_any_output(self, capsys, tmp_path, argv, files, code, fragment):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        got, stdout, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert (got, stdout) == (code, "")
        assert fragment.format(tmp=tmp_path) in err
        assert not (tmp_path / "o.json").exists()
        assert not (tmp_path / "d.csv").exists()
        assert not (tmp_path / "experiment_A_summary.csv").exists()
        assert not (tmp_path / "predictor_sweep.csv").exists()

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "predictor" in out and "experiment" in out

    def test_subcommand_help_lists_flags(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--help")
        assert code == 0
        for flag in ("--seed", "--parallelism", "--out-dir", "--reps",
                     "--scale", "--variance-mode", "--config"):
            assert flag in out

    def test_experiment_rejects_fit_tolerances(self, capsys):
        # experiments fit with the default tolerances, so the flags that
        # would change them are not accepted there
        code, _, err = run_cli(capsys, "experiment", "A", "--reps", "1",
                               "--rho-tol", "0.9")
        assert code == 1
        assert "--rho-tol" in err

    @pytest.mark.parametrize("argv, flag", [
        (("fit", "--seed", "1"), "--seed"),
        (("fit", "--parallelism", "2"), "--parallelism"),
        (("fit", "--out-dir", "out"), "--out-dir"),
        (("invivo", "--surrogate", "--seed", "7"), "--seed"),
        (("invivo", "--surrogate", "--parallelism", "2"), "--parallelism"),
    ])
    def test_command_rejects_flags_it_does_not_read(self, capsys, tmp_path,
                                                    argv, flag):
        # fit runs no seeded or parallel work and writes only --out;
        # invivo's surrogate has a fixed seed and its sweep is serial
        if argv[0] == "fit":
            argv += ("--data", str(tmp_path / "d.csv"),
                     "--out", str(tmp_path / "o.json"))
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert flag in err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("command, key", [
        ("fit", "seed"), ("fit", "parallelism"), ("fit", "out-dir"),
        ("invivo", "seed"), ("invivo", "parallelism")])
    def test_config_key_of_a_flag_the_command_lacks(self, capsys, tmp_path,
                                                    command, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=5\n")
        argv = {"fit": ("--data", str(tmp_path / "d.csv"),
                        "--out", str(tmp_path / "o.json")),
                "invivo": ("--surrogate",)}[command]
        code, _, err = run_cli(capsys, command, *argv, "--config", str(cfg))
        assert code == 2
        assert f"unknown key {key!r}" in err


class TestPredictorCommand:
    def test_reference_output(self, capsys):
        code, out, _ = run_cli(capsys, "predictor", "--N", "500", "--s",
                               "21", "--rho", "0", "--r", "10")
        assert code == 0
        assert "360.142" in out
        assert "2.55647" in out  # log10 of the -1 score

    def test_as_printed_variant(self, capsys):
        code, out, _ = run_cli(capsys, "predictor", "--N", "500", "--s",
                               "21", "--rho", "0", "--r", "10",
                               "--as-printed")
        assert code == 0
        assert "254.009" in out

    def test_rho_bounds(self, capsys):
        code, _, _ = run_cli(capsys, "predictor", "--N", "500", "--s", "21",
                             "--rho", "1.0", "--r", "10")
        assert code == 1


class TestSimulateAndFit:
    def test_round_trip(self, capsys, tmp_path):
        data = tmp_path / "d.csv"
        out = tmp_path / "fit.json"
        code, _, _ = run_cli(capsys, "simulate", "--N", "150", "--s", "9",
                             "--b0", "2", "--b1", "1",
                             "--sigma2-e", "4", "--sigma2-c", "1",
                             "--sigma2-s", "1", "--rho", "-0.5",
                             "--seed", "11", "--out", str(data))
        assert code == 0
        assert data.exists()

        code, stdout, _ = run_cli(capsys, "fit", "--data", str(data),
                                  "--out", str(out))
        assert code == 0
        assert "engine         = balanced" in stdout
        assert "classification = GOOD" in stdout
        payload = json.loads(out.read_text())
        assert payload["classification"] == "GOOD"
        assert 2.0 < payload["sigma2_e"] < 7.0
        assert -0.9 < payload["rho"] < 0.0

    def test_fit_general_fallback(self, capsys, tmp_path):
        # an unbalanced file is rejected by the balanced reader and should
        # flow to the general engine
        data = tmp_path / "d.csv"
        out = tmp_path / "fit.json"
        run_cli(capsys, "simulate", "--N", "60", "--s", "5",
                "--sigma2-e", "2", "--sigma2-c", "1", "--sigma2-s", "1",
                "--rho", "0.3", "--seed", "3", "--out", str(data))
        lines = data.read_text().splitlines()
        data.write_text("\n".join(lines[:-2]) + "\n")  # drop 2 rows
        code, stdout, _ = run_cli(capsys, "fit", "--data", str(data),
                                  "--out", str(out))
        assert code == 0
        assert "engine         = general" in stdout
        payload = json.loads(out.read_text())
        assert "beta" in payload

    def test_balanced_file_without_residual_variation(self, capsys, tmp_path):
        # balanced but rss = 0: the balanced engine's refusal is the answer,
        # not a fall-through to the general engine
        data = tmp_path / "d.csv"
        out = tmp_path / "fit.json"
        run_cli(capsys, "simulate", "--N", "30", "--s", "5",
                "--sigma2-e", "0", "--sigma2-c", "1", "--sigma2-s", "1",
                "--rho", "0.2", "--seed", "1", "--out", str(data))
        code, stdout, err = run_cli(capsys, "fit", "--data", str(data),
                                    "--out", str(out))
        assert code == 2
        assert "rss = 0" in err
        assert "engine" not in stdout
        assert not out.exists()

    def test_unbalanced_file_on_exact_lines_is_data_error(self, capsys, tmp_path):
        # every cluster (5 rows, the last 3) lies exactly on its own line:
        # the general engine refuses the data as the balanced one does
        data = tmp_path / "d.csv"
        out = tmp_path / "fit.json"
        run_cli(capsys, "simulate", "--N", "30", "--s", "5",
                "--sigma2-e", "0", "--sigma2-c", "1", "--sigma2-s", "1",
                "--rho", "0.2", "--seed", "1", "--out", str(data))
        lines = data.read_text().splitlines()
        data.write_text("\n".join(lines[:-2]) + "\n")
        code, stdout, err = run_cli(capsys, "fit", "--data", str(data),
                                    "--out", str(out))
        assert code == 2
        assert "data error: no within-cluster residual variation" in err
        assert "engine" not in stdout
        assert not out.exists()

    @pytest.mark.parametrize("flags, label", [
        ((), "GOOD"), (("--rho-tol", "0.9"), "RHO_PLUS_ONE"),
        (("--var-ratio-tol", "10"), "ZERO_VARIANCE"),
        (("--rho-tol", "0.9", "--var-ratio-tol", "10"), "ZERO_VARIANCE")])
    def test_tolerance_flags_relabel_the_fit(self, capsys, tmp_path, flags, label):
        # rho_hat = 0.559, sigma2_c / sigma2_e = 0.60, sigma2_s / sigma2_e = 0.56
        data = tmp_path / "d.csv"
        out = tmp_path / "fit.json"
        run_cli(capsys, "simulate", "--N", "30", "--s", "5",
                "--sigma2-e", "2", "--sigma2-c", "1", "--sigma2-s", "1",
                "--rho", "0.5", "--seed", "4", "--out", str(data))
        code, stdout, _ = run_cli(capsys, "fit", "--data", str(data),
                                  "--out", str(out), *flags)
        assert code == 0
        assert f"classification = {label}" in stdout
        assert json.loads(out.read_text())["classification"] == label

    @pytest.mark.parametrize("flag", ["--rho-tol", "--var-ratio-tol"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_non_positive_tolerance_is_usage_error(self, capsys, tmp_path, flag, value):
        code, _, err = run_cli(capsys, "fit", "--data", str(tmp_path / "d.csv"),
                               "--out", str(tmp_path / "o.json"), flag, value)
        assert code == 1
        assert f"usage error: {flag} must be > 0" in err

    @pytest.mark.parametrize("flag, value, rule", [
        ("--rho-tol", "1", "must be > 0 and < 1, got 1.0"),
        ("--rho-tol", "inf", "must be > 0 and < 1, got inf"),
        ("--var-ratio-tol", "inf", "must be > 0 and finite, got inf")])
    def test_out_of_range_tolerance_is_usage_error(self, capsys, tmp_path, flag, value, rule):
        code, stdout, err = run_cli(capsys, "fit", "--data", str(tmp_path / "d.csv"),
                                    "--out", str(tmp_path / "o.json"), flag, value)
        assert code == 1 and stdout == ""
        assert f"usage error: {flag} {rule}" in err

    @staticmethod
    def _data_with_z(capsys, tmp_path):
        """A balanced dataset CSV with one extra column, z."""
        data = tmp_path / "d.csv"
        run_cli(capsys, "simulate", "--N", "40", "--s", "5",
                "--sigma2-e", "2", "--sigma2-c", "1", "--sigma2-s", "1",
                "--rho", "0.3", "--seed", "3", "--out", str(data))
        with open(data, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[0].append("z")
        for k, row in enumerate(rows[1:]):
            row.append(repr(((7 * k) % 11) / 11.0))
        with open(data, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return data

    def test_fixed_spec_selects_general_engine(self, capsys, tmp_path):
        data = self._data_with_z(capsys, tmp_path)
        out = tmp_path / "fit.json"
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"columns": ["z"]}))
        code, stdout, _ = run_cli(capsys, "fit", "--data", str(data),
                                  "--out", str(out), "--fixed-spec",
                                  str(spec))
        assert code == 0
        assert "engine         = general" in stdout
        assert len(json.loads(out.read_text())["beta"]) == 3

    @pytest.mark.parametrize("columns", ["z", {"z": 1}])
    def test_fixed_spec_columns_must_be_a_list_of_strings(self, capsys, tmp_path, columns):
        # a string or an object iterates to column names, which must not pass
        data = self._data_with_z(capsys, tmp_path)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"columns": columns}))
        code, stdout, err = run_cli(capsys, "fit", "--data", str(data),
                                    "--out", str(tmp_path / "fit.json"),
                                    "--fixed-spec", str(spec))
        assert code == 2
        assert "bad fixed-effects spec" in err
        assert stdout == ""

    def test_malformed_data_is_data_error(self, capsys, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("cluster,x,y\n1,0.0,not_a_number\n")
        code, _, err = run_cli(capsys, "fit", "--data", str(data),
                               "--out", str(tmp_path / "o.json"))
        assert code == 2


class TestExperimentCommand:
    def test_small_named_run(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "experiment", "A", "--reps", "2",
                               "--seed", "5", "--out-dir", str(tmp_path))
        assert code == 0
        assert "A1" in out and "A5" in out
        summary = tmp_path / "experiment_A_summary.csv"
        reps = tmp_path / "experiment_A_replicates.csv"
        assert summary.exists() and reps.exists()
        with open(summary, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert rows[0]["setting"] == "A1"
        assert rows[0]["reps"] == "2"
        with open(reps, newline="") as fh:
            text = fh.read()
        assert "np.float64" not in text

    def test_predictor_sweep_run(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "experiment", "predictor-sweep",
                               "--reps", "20", "--seed", "5",
                               "--out-dir", str(tmp_path))
        assert code == 0
        sweep = tmp_path / "predictor_sweep.csv"
        assert sweep.exists()
        with open(sweep, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 21

    def test_predictor_sweep_takes_a_negative_seed(self, capsys, tmp_path):
        # the seed is reduced modulo 2**64, as simulate's and experiment A's are
        sweeps = []
        for seed in ("-5", str(2 ** 64 - 5)):
            out_dir = tmp_path / seed
            code, _, err = run_cli(capsys, "experiment", "predictor-sweep",
                                   "--reps", "20", "--seed", seed,
                                   "--out-dir", str(out_dir))
            assert (code, err) == (0, "")
            sweeps.append((out_dir / "predictor_sweep.csv").read_bytes())
        assert sweeps[0] == sweeps[1]

    def test_fix_error_variance_mode(self, capsys, tmp_path):
        # A1 has r = 10: fix_error draws sigma2_e = 1 and random-effect
        # variances 1/10, fix_random_effects sigma2_e = 10 and variances 1
        estimates = {}
        for mode in ("fix_error", "fix_random_effects"):
            out_dir = tmp_path / mode
            code, _, _ = run_cli(capsys, "experiment", "A", "--reps", "3",
                                 "--variance-mode", mode, "--out-dir", str(out_dir))
            assert code == 0
            with open(out_dir / "experiment_A_replicates.csv", newline="") as fh:
                estimates[mode] = [float(row["sigma2_e"]) for row in csv.DictReader(fh)
                                   if row["setting"] == "A1"]
        assert len(estimates["fix_error"]) == 3
        for s2e in estimates["fix_error"]:
            assert 0.9 < s2e < 1.1
        for s2e in estimates["fix_random_effects"]:
            assert 9.0 < s2e < 11.0

    def test_tiny_factorial_run(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "experiment", "factorial",
                               "--scale", "0.04", "--reps", "2",
                               "--seed", "5", "--out-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "experiment_factorial_summary.csv").exists()
        for name in ("interaction_n_clusters.csv",
                     "interaction_cluster_size.csv",
                     "interaction_rho.csv"):
            assert (tmp_path / name).exists()

    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# defaults\nseed=5\nreps=2\n"
                       f"out-dir={tmp_path}\n")
        code, _, _ = run_cli(capsys, "experiment", "A",
                             "--config", str(cfg))
        assert code == 0
        ref = tmp_path / "ref"
        ref.mkdir()
        code, _, _ = run_cli(capsys, "experiment", "A", "--reps", "2",
                             "--seed", "5", "--out-dir", str(ref))
        assert code == 0
        a = (tmp_path / "experiment_A_summary.csv").read_bytes()
        b = (ref / "experiment_A_summary.csv").read_bytes()
        assert a == b

    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("reps=9\n")
        code, _, _ = run_cli(capsys, "experiment", "A", "--reps", "2",
                             "--seed", "5", "--out-dir", str(tmp_path),
                             "--config", str(cfg))
        assert code == 0
        with open(tmp_path / "experiment_A_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["reps"] == "2"

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("repz=9\n")
        code, _, _ = run_cli(capsys, "experiment", "A", "--reps", "2",
                             "--config", str(cfg))
        assert code == 2


class TestInvivoCommand:
    def test_surrogate_single_phi(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "invivo", "--surrogate",
                               "--phi-start", "1.0", "--phi-end", "1.0",
                               "--out-dir", str(tmp_path))
        assert code == 0
        assert "source: surrogate" in out
        assert "GOOD" in out
        sweep = tmp_path / "invivo_sweep.csv"
        assert sweep.exists()
        with open(sweep, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["classification"] == "GOOD"
        assert abs(float(rows[0]["rho_hat"]) - 0.0529) < 1e-3

    def test_data_and_surrogate_mutually_exclusive(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "invivo")
        assert code == 1
        code, _, _ = run_cli(capsys, "invivo", "--surrogate",
                             "--data", str(tmp_path / "x.csv"))
        assert code == 1

    def test_config_sets_phi_range(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("phi-end=1.2\n")
        sweep = tmp_path / "invivo_sweep.csv"
        for argv, n_rows in (((), 3), (("--phi-end", "1.0"), 1)):
            code, _, _ = run_cli(capsys, "invivo", "--surrogate",
                                 "--out-dir", str(tmp_path),
                                 "--config", str(cfg), *argv)
            assert code == 0
            with open(sweep, newline="") as fh:
                assert len(list(csv.DictReader(fh))) == n_rows

    @pytest.mark.parametrize("end", ["inf", "nan"])
    def test_non_finite_phi_end_is_usage_error(self, capsys, tmp_path, end):
        code, _, err = run_cli(capsys, "invivo", "--surrogate",
                               "--phi-end", end, "--out-dir", str(tmp_path))
        assert code == 1
        assert "usage error: bad phi range" in err

    @pytest.mark.parametrize("flags", [(), ("--surrogate", "--phi-end", "0.5")])
    def test_usage_error_creates_no_out_dir(self, capsys, tmp_path, flags):
        out_dir = tmp_path / "new"
        code, _, err = run_cli(capsys, "invivo", *flags, "--out-dir", str(out_dir))
        assert code == 1
        assert err.startswith("usage error: ")
        assert not out_dir.exists()

    def test_config_rejects_switch(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("surrogate=1\n")
        code, _, err = run_cli(capsys, "invivo", "--surrogate",
                               "--out-dir", str(tmp_path),
                               "--config", str(cfg))
        assert code == 2
        assert "surrogate" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_premium_is_data_error(self, capsys, tmp_path, value):
        path = tmp_path / "hmo.csv"
        write_hmo_csv(make_surrogate(), path)
        lines = path.read_text().splitlines()
        fields = lines[5].split(",")
        fields[1] = value
        lines[5] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "invivo", "--data", str(path),
                               "--out-dir", str(tmp_path))
        assert code == 2
        assert "data error: line 6: non-finite value" in err
        assert not (tmp_path / "invivo_sweep.csv").exists()

    def test_constant_families_is_data_error(self, capsys, tmp_path):
        # log10(families) with no spread cannot be standardized
        path = tmp_path / "hmo.csv"
        write_hmo_csv(make_surrogate(), path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            row[2] = "500"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        code, _, err = run_cli(capsys, "invivo", "--data", str(path),
                               "--out-dir", str(tmp_path))
        assert code == 2
        assert err == ("data error: families enrolled is the same on every plan; "
                       "its coefficient is not estimable\n")
        assert not (tmp_path / "invivo_sweep.csv").exists()

    def test_missing_premium_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "invivo", "--data",
                             str(tmp_path / "nope.csv"))
        assert code == 2


class TestAnovaCommand:
    def test_mean_squares_table(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        with open(table, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["a", "y"])
            for a, y in ((0, 1.0), (0, 1.0), (1, -1.0), (1, -1.0)):
                w.writerow([a, y])
        code, out, _ = run_cli(capsys, "anova", "--table", str(table),
                               "--response", "y", "--factors", "a")
        assert code == 0
        assert "remainder" in out
        line = next(l for l in out.splitlines() if l.startswith("a "))
        assert "4" in line

    def test_ls_means_section(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        with open(table, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["a", "b", "y"])
            for a in (0, 1):
                for b in (0, 1):
                    w.writerow([a, b, float(a + 2 * b)])
        code, out, _ = run_cli(capsys, "anova", "--table", str(table),
                               "--response", "y", "--factors", "a,b",
                               "--ls-means", "a")
        assert code == 0
        assert "LS-means for a" in out

    @pytest.mark.parametrize("text, message", [
        ("a,b,y\n1,1,2\n1,2,3\n1,1,4\n1,2,6\n", "factor 'a' has fewer than two levels"),
        ("a,b,y\n", "no data rows"),
        ("a,b,y\n1,1,2\n1,2,nan\n2,1,4\n2,2,6\n", "'y' has a non-finite value"),
        ("a,b,y\n1,1,2\n1,2\n2,1,4\n2,2,6\n", "a row has fewer fields than the header"),
    ], ids=["one_level_factor", "no_rows", "nan_response", "short_row"])
    def test_unusable_table_is_data_error(self, capsys, tmp_path, text, message):
        table = tmp_path / "t.csv"
        table.write_text(text)
        code, out, err = run_cli(capsys, "anova", "--table", str(table),
                                 "--response", "y", "--factors", "a,b")
        assert code == 2
        assert message in err
        assert out == ""

    def test_ls_means_of_a_non_factor_prints_nothing(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("a,b,y\n0,0,1\n0,1,2\n1,0,3\n1,1,5\n")
        code, out, err = run_cli(capsys, "anova", "--table", str(table),
                                 "--response", "y", "--factors", "a,b",
                                 "--ls-means", "y")
        assert code == 1
        assert "--ls-means must name one of the factors" in err
        assert out == ""

    def test_missing_table(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "anova", "--table",
                             str(tmp_path / "none.csv"),
                             "--response", "y", "--factors", "a")
        assert code == 2
