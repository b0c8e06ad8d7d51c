"""Command-line interface.

Subcommands: `predictor` (closed-form boundary predictors), `simulate`
(write a synthetic balanced dataset), `fit` (REML fit of a dataset CSV,
balanced auto-detected), `experiment` (cataloged experiments A-G, the
factorial grid, or the predictor sweep), `invivo` (residual-inflation
sweep), and `anova` (mean squares and LS-means for a results table).

Exit codes: 0 success, 1 usage error, 2 data error (malformed or
degenerate input), 3 infrastructure failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from dataclasses import dataclass

from .errors import DataError
from .model_system import (DesignSpec, FixedEffects, VarianceParams,
                           read_dataset_csv, simulate, write_dataset_csv)
from .predictor import (log10_predictor_minus_one, log10_predictor_plus_one,
                        predictor_minus_one, predictor_plus_one,
                        predictor_sweep, write_sweep_csv)
from .reml_core import (ClassifyTolerances, FitOptions, fit_balanced,
                        fit_general, read_general_csv)
from . import experiments as _ex
from . import invivo as _iv


class UsageError(Exception):
    """Bad command-line arguments; exits with code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Common knobs for commands that run fits."""

    master_seed: int = 20260825
    parallelism: int = 1
    out_dir: str = "."
    reps: int | None = None
    rho_tol: float | None = None
    var_ratio_tol: float | None = None
    lambda_max: float | None = None

    def validate(self) -> None:
        if self.parallelism < 1:
            raise UsageError("--parallelism must be >= 1")
        if self.reps is not None and self.reps < 1:
            raise UsageError("--reps must be >= 1")
        for name in ("rho_tol", "var_ratio_tol", "lambda_max"):
            v = getattr(self, name)
            if v is not None and not (v > 0):
                raise UsageError(f"--{name.replace('_', '-')} must be > 0")

    def fit_options(self) -> FitOptions | None:
        if (self.rho_tol is None and self.var_ratio_tol is None
                and self.lambda_max is None):
            return None
        tol = ClassifyTolerances(
            rho=self.rho_tol if self.rho_tol is not None else 1e-6,
            variance_ratio=(self.var_ratio_tol
                            if self.var_ratio_tol is not None else 1e-10))
        kwargs = {"tolerances": tol}
        if self.lambda_max is not None:
            kwargs["lambda_max"] = self.lambda_max
        return FitOptions(**kwargs)


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    for dest in ("master_seed", "parallelism", "out_dir", "reps", "rho_tol",
                 "var_ratio_tol", "lambda_max"):
        v = getattr(args, dest, None)
        if v is not None:
            setattr(cfg, dest, v)
    cfg.validate()
    return cfg


def _apply_config_file(args) -> None:
    """Fill unset args from a KEY=VALUE config file; flags win."""
    path = getattr(args, "config", None)
    if path is None:
        return
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataError(f"cannot read config file: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"config line {lineno}: expected KEY=VALUE")
        key, _, val = line.partition("=")
        dest = key.strip().replace("-", "_")
        # config keys use flag spellings; --seed stores to master_seed
        dest = {"seed": "master_seed"}.get(dest, dest)
        if not hasattr(args, dest):
            raise DataError(f"config line {lineno}: unknown key {key.strip()!r}")
        if getattr(args, dest) is None:
            cast = {"master_seed": int, "parallelism": int, "reps": int,
                    "scale": float, "rho_tol": float, "var_ratio_tol": float,
                    "lambda_max": float}.get(dest, str)
            try:
                setattr(args, dest, cast(val.strip()))
            except ValueError as exc:
                raise DataError(f"config line {lineno}: {exc}") from exc


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", dest="master_seed", type=int, default=None,
                   help="master seed (default 20260825)")
    p.add_argument("--parallelism", type=int, default=None,
                   help="worker processes (default 1)")
    p.add_argument("--out-dir", default=None, help="output directory")
    p.add_argument("--rho-tol", type=float, default=None,
                   help="boundary classification tolerance on rho")
    p.add_argument("--var-ratio-tol", type=float, default=None,
                   help="zero-variance threshold on sigma2_x/sigma2_e")
    p.add_argument("--lambda-max", type=float, default=None,
                   help="general-engine search bound on sigma_x/sigma_e")
    p.add_argument("--config", default=None,
                   help="KEY=VALUE config file; flags win over file values")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_predictor(args) -> int:
    n, s = args.N, args.s
    if s % 2 == 0 or s < 3:
        raise UsageError("--s must be odd and >= 3")
    if n < 2:
        raise UsageError("--N must be >= 2")
    if not (-1.0 < args.rho < 1.0):
        raise UsageError("--rho must be strictly inside (-1, 1)")
    if not (args.r > 0):
        raise UsageError("--r must be positive")
    m1 = predictor_minus_one(n, s, args.rho, args.r,
                             as_printed=args.as_printed)
    p1 = predictor_plus_one(n, s, args.rho, args.r,
                            as_printed=args.as_printed)
    l1 = log10_predictor_minus_one(n, s, args.rho, args.r,
                                   as_printed=args.as_printed)
    l2 = log10_predictor_plus_one(n, s, args.rho, args.r,
                                  as_printed=args.as_printed)
    form = "as-printed" if args.as_printed else "corrected"
    print(f"form       = {form}")
    print(f"pred_m1    = {m1:.6g}")
    print(f"pred_p1    = {p1:.6g}")
    print(f"log10_m1   = {l1:.6g}")
    print(f"log10_p1   = {l2:.6g}")
    return 0


def _cmd_simulate(args) -> int:
    if args.s % 2 == 0 or args.s < 3:
        raise UsageError("--s must be odd and >= 3")
    design = DesignSpec(args.N, args.s)
    vp = VarianceParams(args.sigma2_e, args.sigma2_c, args.sigma2_s, args.rho)
    data = simulate(design, FixedEffects(args.b0, args.b1), vp, args.seed)
    write_dataset_csv(data, args.out)
    print(f"wrote {design.n_clusters * design.cluster_size} rows to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    cfg = _config_from_args(args)
    options = cfg.fit_options()
    fixed_columns: tuple = ()
    if args.fixed_spec is not None:
        try:
            with open(args.fixed_spec) as fh:
                spec = json.load(fh)
            fixed_columns = tuple(spec["columns"])
        except (OSError, KeyError, ValueError, TypeError) as exc:
            raise DataError(f"bad fixed-effects spec: {exc}") from exc
    try:
        data = read_dataset_csv(args.data)
        fit = fit_balanced(data, options)
        engine = "balanced"
    except DataError:
        gen = read_general_csv(args.data, fixed_columns=fixed_columns)
        fit = fit_general(gen, options)
        engine = "general"
    fit.write_json(args.out)
    p = fit.params
    print(f"engine         = {engine}")
    print(f"classification = {fit.classification.value}")
    print(f"sigma2_e       = {p.sigma2_e:.6g}")
    print(f"sigma2_c       = {p.sigma2_c:.6g}")
    print(f"sigma2_s       = {p.sigma2_s:.6g}")
    print(f"rho            = {p.rho:.6g}")
    print(f"log_rl         = {fit.log_rl:.6g}")
    print(f"wrote {args.out}")
    return 0


_EXPERIMENT_NAMES = ("A", "B", "C", "D", "E", "F", "G",
                     "factorial", "predictor-sweep")


def _cmd_experiment(args) -> int:
    cfg = _config_from_args(args)
    os.makedirs(cfg.out_dir, exist_ok=True)
    name = args.name

    if name == "predictor-sweep":
        n_draws = cfg.reps if cfg.reps is not None else 1000
        table = predictor_sweep(cfg.master_seed, n_draws=n_draws)
        out = os.path.join(cfg.out_dir, "predictor_sweep.csv")
        write_sweep_csv(table, out)
        print(f"wrote {len(table['draw'])} draws to {out}")
        return 0

    if name == "factorial":
        settings = _ex.factorial_grid(scale=args.scale,
                                      reps=cfg.reps if cfg.reps else 40,
                                      variance_mode=_variance_mode(args))
    else:
        settings = [st for st in _ex.experiment_catalog()
                    if st.experiment == name]
        if args.variance_mode is not None:
            mode = _variance_mode(args)
            settings = [dataclasses.replace(st, variance_mode=mode)
                        for st in settings]
        if cfg.reps is not None:
            settings = _ex.with_reps(settings, cfg.reps)

    summaries, records = _ex.run_settings(settings, cfg.master_seed,
                                          cfg.parallelism)
    tag = name
    sum_path = os.path.join(cfg.out_dir, f"experiment_{tag}_summary.csv")
    rep_path = os.path.join(cfg.out_dir, f"experiment_{tag}_replicates.csv")
    _ex.write_summary_csv(summaries, sum_path)
    _ex.write_replicate_csv(records, rep_path)

    if name == "factorial":
        for factor in ("n_clusters", "cluster_size", "rho"):
            rows = _ex.interaction_plot_data(summaries, factor)
            path = os.path.join(cfg.out_dir, f"interaction_{factor}.csv")
            _ex.write_interaction_csv(rows, path)
        print(f"{len(settings)} settings -> {sum_path}")
    else:
        print(f"{'setting':8s} {'N':>5s} {'s':>4s} {'rho':>6s} {'r':>10s} "
              f"{'pred_m1':>9s} {'pred_p1':>9s} {'%-1':>6s} {'%+1':>6s} "
              f"{'%NaN':>6s} {'%bad':>6s}")
        for sm in summaries:
            st = sm.setting
            print(f"{st.id:8s} {st.n_clusters:5d} {st.cluster_size:4d} "
                  f"{st.rho:6.2f} {st.r:10.4g} {sm.pred_m1:9.3g} "
                  f"{sm.pred_p1:9.3g} {sm.pct_m1:6.2f} {sm.pct_p1:6.2f} "
                  f"{sm.pct_nan:6.2f} {sm.pct_bad:6.2f}")
        print(f"wrote {sum_path} and {rep_path}")
    return 0


def _variance_mode(args) -> _ex.VarianceMode:
    raw = args.variance_mode or "fix_random_effects"
    try:
        return _ex.VarianceMode(raw)
    except ValueError:
        raise UsageError(
            f"--variance-mode must be one of "
            f"{[m.value for m in _ex.VarianceMode]}") from None


def _cmd_invivo(args) -> int:
    cfg = _config_from_args(args)
    os.makedirs(cfg.out_dir, exist_ok=True)
    if (args.data is None) == (not args.surrogate):
        raise UsageError("exactly one of --data or --surrogate is required")
    if args.data is not None:
        data = _iv.ingest_hmo(args.data)
    else:
        data = _iv.make_surrogate()
    if args.phi_end < args.phi_start or args.phi_step <= 0:
        raise UsageError("bad phi range")
    n_steps = int(round((args.phi_end - args.phi_start) / args.phi_step))
    phis = [round(args.phi_start + k * args.phi_step, 10)
            for k in range(n_steps + 1)]
    phis = [p for p in phis if p <= args.phi_end + 1e-12]
    rows = _iv.phi_sweep(data, phis, cfg.fit_options())
    out = args.out or os.path.join(cfg.out_dir, "invivo_sweep.csv")
    _iv.write_sweep_csv(rows, out, data.source)
    print(f"source: {data.source}")
    print(f"{'phi':>5s} {'rho_hat':>8s} {'s2_e':>9s} {'s2_e/phi2':>9s} "
          f"{'s2_c':>9s} {'s2_s':>10s}  classification")
    for r in rows:
        print(f"{r.phi:5.2f} {r.rho_hat:8.3f} {r.sigma2_e:9.1f} "
              f"{r.sigma2_e_over_phi2:9.1f} {r.sigma2_c:9.2f} "
              f"{r.sigma2_s:10.4g}  {r.classification.value}")
    print(f"wrote {out}")
    return 0


def _cmd_anova(args) -> int:
    factors = [f.strip() for f in args.factors.split(",") if f.strip()]
    if not factors:
        raise UsageError("--factors must name at least one column")
    table: dict[str, list] = {}
    try:
        fh = open(args.table, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {args.table}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError("empty table")
        missing = [c for c in factors + [args.response]
                   if c not in reader.fieldnames]
        if missing:
            raise DataError(f"table lacks columns: {', '.join(missing)}")
        for col in reader.fieldnames:
            table[col] = []
        for row in reader:
            for col in reader.fieldnames:
                table[col].append(row[col])
    for col in factors + [args.response]:
        try:
            table[col] = [float(v) for v in table[col]]
        except ValueError:
            if col == args.response:
                raise DataError(f"response column {args.response!r} "
                                f"is not numeric") from None

    rows = _ex.anova_balanced(table, factors, args.response)
    print(f"{'term':24s} {'df':>5s} {'SS':>14s} {'MS':>14s}")
    for r in rows:
        print(f"{r.term:24s} {r.df:5d} {r.ss:14.6g} {r.ms:14.6g}")
    if args.ls_means is not None:
        if args.ls_means not in factors:
            raise UsageError("--ls-means must name one of the factors")
        means = _ex.ls_means(table, factors, args.response, args.ls_means)
        print(f"\nLS-means for {args.ls_means}:")
        for lev, mean in means.items():
            print(f"  {lev!r:>12}: {mean:.6g}")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly and entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="remlab",
                     description="REML boundary-estimate laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predictor", parents=[], help="closed-form predictors")
    p.add_argument("--N", type=int, required=True, help="number of clusters")
    p.add_argument("--s", type=int, required=True, help="cluster size (odd)")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--r", type=float, required=True,
                   help="error/random-effect variance ratio")
    p.add_argument("--as-printed", action="store_true",
                   help="evaluate the uncorrected closed form")
    p.set_defaults(func=_cmd_predictor)

    p = sub.add_parser("simulate", help="write a balanced dataset CSV")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--b0", type=float, default=0.0)
    p.add_argument("--b1", type=float, default=0.0)
    p.add_argument("--sigma2-e", type=float, required=True)
    p.add_argument("--sigma2-c", type=float, required=True)
    p.add_argument("--sigma2-s", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="REML fit of a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="FitResult JSON path")
    p.add_argument("--fixed-spec", default=None,
                   help='JSON {"columns": [...]} of extra fixed-effect columns')
    _add_common(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("experiment", help="run a cataloged experiment")
    p.add_argument("name", choices=_EXPERIMENT_NAMES)
    p.add_argument("--reps", type=int, default=None, metavar="REPS",
                   help="override replicates per setting (draw count for "
                        "predictor-sweep)")
    p.add_argument("--scale", type=float, default=None,
                   help="factorial grid subsampling factor")
    p.add_argument("--variance-mode", default=None,
                   choices=[m.value for m in _ex.VarianceMode])
    _add_common(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("invivo", help="residual-inflation sweep")
    p.add_argument("--data", default=None, help="premium CSV path")
    p.add_argument("--surrogate", action="store_true",
                   help="use the built-in synthetic dataset")
    p.add_argument("--phi-start", type=float, default=1.0)
    p.add_argument("--phi-end", type=float, default=2.5)
    p.add_argument("--phi-step", type=float, default=0.1)
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_invivo)

    p = sub.add_parser("anova", help="mean squares for a results table")
    p.add_argument("--table", required=True, help="input CSV")
    p.add_argument("--response", required=True)
    p.add_argument("--factors", required=True,
                   help="comma-separated factor columns")
    p.add_argument("--ls-means", default=None,
                   help="also print LS-means for this factor")
    p.set_defaults(func=_cmd_anova)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config_file(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ValueError) as exc:
        # ValueError here means a module rejected a validated quantity
        # (e.g. an out-of-range parameter constructed from user input).
        kind = "data error" if isinstance(exc, DataError) else "invalid value"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, DataError) else 1
    except SystemExit as exc:  # argparse --help
        code = exc.code if exc.code is not None else 0
        return int(code) if isinstance(code, int) else 0
    except KeyboardInterrupt:
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
