"""End-to-end tests for the command-line interface."""

import csv
import json

from remlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "predictor" in out and "experiment" in out

    def test_subcommand_help_lists_flags(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--help")
        assert code == 0
        for flag in ("--seed", "--parallelism", "--out-dir", "--reps",
                     "--scale", "--variance-mode", "--config", "--rho-tol",
                     "--var-ratio-tol", "--lambda-max"):
            assert flag in out


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
        assert "allow_degenerate" not in err  # no flag sets it
        assert "engine" not in stdout
        assert not out.exists()

    def test_fixed_spec_selects_general_engine(self, capsys, tmp_path):
        data = tmp_path / "d.csv"
        out = tmp_path / "fit.json"
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
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"columns": ["z"]}))
        code, stdout, _ = run_cli(capsys, "fit", "--data", str(data),
                                  "--out", str(out), "--fixed-spec",
                                  str(spec))
        assert code == 0
        assert "engine         = general" in stdout
        assert len(json.loads(out.read_text())["beta"]) == 3

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

    def test_config_rejects_switch(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("surrogate=1\n")
        code, _, err = run_cli(capsys, "invivo", "--surrogate",
                               "--out-dir", str(tmp_path),
                               "--config", str(cfg))
        assert code == 2
        assert "surrogate" in err

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

    def test_missing_table(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "anova", "--table",
                             str(tmp_path / "none.csv"),
                             "--response", "y", "--factors", "a")
        assert code == 2
