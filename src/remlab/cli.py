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
import math
import os
import sys

from .errors import DataError
from .model_system import (ClusteredDataset, DesignSpec, FixedEffects,
                           VarianceMode, VarianceParams, parse_dataset_rows,
                           simulate, write_dataset_csv)
from .reml_core import (ClassifyTolerances, GeneralDataset, fit_balanced,
                        fit_general)

# predictor, experiments and invivo are imported by the subcommands that use
# them: a `fit` process then never loads the experiment pool.


class UsageError(Exception):
    """Bad command-line arguments; exits with code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Shared flags and the config file
# ---------------------------------------------------------------------------

def _config_flags(path) -> list[str]:
    """The ``--key=value`` tokens of a KEY=VALUE config file.

    A key is spelled as the flag on the command line, without its leading
    dashes.  ``main`` parses the tokens ahead of the command line's own
    arguments, so argparse checks each key and value as it checks the flag,
    and a flag on the command line wins.
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataError(f"cannot read config file: {exc}") from exc
    tokens = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"config line {lineno}: expected KEY=VALUE")
        key, _, val = line.partition("=")
        tokens.append(f"--{key.strip()}={val.strip()}")
    return tokens


def _checked(convert, ok, rule):
    """An argparse type: ``convert(text)``, refused unless ``ok`` holds of it.

    rule says what ok asks, e.g. "must be >= 1"; argparse puts the flag in
    front of the message.
    """
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse's "invalid int value: 'x'"
    return parse


def _tolerance(field):
    """An argparse type for one ClassifyTolerances field; ClassifyTolerances
    checks its range."""
    def parse(text):
        value = float(text)
        try:
            ClassifyTolerances(**{field: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    parse.__name__ = "float"
    return parse


def _out_path(path: str) -> str:
    """--out's type: the path, once it names a file in a writable directory."""
    if not path or os.path.isdir(path) or not os.access(os.path.dirname(path) or ".", os.W_OK):
        raise argparse.ArgumentTypeError(f"cannot write {path!r}: not a file in a writable directory")
    return path


_AT_LEAST_ONE = _checked(int, lambda v: v >= 1, "must be >= 1")
_N_CLUSTERS = _checked(int, lambda v: v >= 2, "must be >= 2")
_CLUSTER_SIZE = _checked(int, lambda v: v >= 3 and v % 2 == 1, "must be odd and >= 3")
_COLUMNS = _checked(lambda text: [f.strip() for f in text.split(",") if f.strip()], bool,
                   "must name at least one column")

_SHARED_FLAGS = {
    "--seed": dict(dest="master_seed", type=int, default=20260825,
                   help="master seed (default %(default)s)"),
    "--parallelism": dict(type=_AT_LEAST_ONE, default=1,
                          help="worker processes (default %(default)s)"),
    "--out-dir": dict(default=".", help="output directory (default %(default)s)"),
    "--rho-tol": dict(type=_tolerance("rho"), default=ClassifyTolerances.rho,
                      help="boundary classification tolerance on rho "
                           "(default %(default)s)"),
    "--var-ratio-tol": dict(type=_tolerance("variance_ratio"),
                            default=ClassifyTolerances.variance_ratio,
                            help="zero-variance threshold on sigma2_x/sigma2_e "
                                 "(default %(default)s)"),
}


def _add_shared(p: argparse.ArgumentParser, *flags: str) -> None:
    """The named flags of _SHARED_FLAGS, then --config."""
    for flag in flags:
        p.add_argument(flag, **_SHARED_FLAGS[flag])
    p.add_argument("--config", default=None,
                   help="KEY=VALUE config file; flags win over file values")


def _out_dir(args) -> str:
    """The output directory, created if missing."""
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create --out-dir {args.out_dir!r}: {exc.strerror}") from None
    return args.out_dir


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_predictor(args) -> int:
    from .predictor import (log10_predictor_minus_one, log10_predictor_plus_one,
                            predictor_minus_one, predictor_plus_one)

    n, s = args.N, args.s
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
    design = DesignSpec(args.N, args.s)
    vp = VarianceParams(args.sigma2_e, args.sigma2_c, args.sigma2_s, args.rho)
    data = simulate(design, FixedEffects(args.b0, args.b1), vp, args.seed)
    write_dataset_csv(data, args.out)
    print(f"wrote {design.n_clusters * design.cluster_size} rows to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    fixed_columns = ()
    if args.fixed_spec is not None:
        try:
            with open(args.fixed_spec) as fh:
                fixed_columns = json.load(fh)["columns"]
        except (OSError, KeyError, ValueError, TypeError) as exc:
            raise DataError(f"bad fixed-effects spec: {exc}") from exc
        if not (isinstance(fixed_columns, list)
                and all(isinstance(c, str) for c in fixed_columns)):
            raise DataError("bad fixed-effects spec: columns must be a JSON list of strings")
    rows = parse_dataset_rows(args.data)
    tol = ClassifyTolerances(args.rho_tol, args.var_ratio_tol)
    data = None
    if not fixed_columns:
        try:
            data = ClusteredDataset.from_rows(rows)
        except DataError:
            pass  # not balanced; the general engine takes the same rows
    if data is not None:
        fit, engine = fit_balanced(data, tol), "balanced"
    else:
        fit, engine = fit_general(GeneralDataset.from_rows(rows, fixed_columns), tol), "general"
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
    from . import experiments as _ex
    from .predictor import predictor_sweep, write_sweep_csv

    seed, reps, name = args.master_seed, args.reps, args.name
    if args.scale is not None and name != "factorial":
        raise UsageError("--scale applies only to the factorial experiment")
    if args.variance_mode is not None and name == "predictor-sweep":
        raise UsageError("--variance-mode does not apply to predictor-sweep")
    if args.parallelism != 1 and name == "predictor-sweep":
        raise UsageError("--parallelism does not apply to predictor-sweep")

    if name == "predictor-sweep":
        out = os.path.join(_out_dir(args), "predictor_sweep.csv")
        table = predictor_sweep(seed, n_draws=reps if reps is not None else 1000)
        write_sweep_csv(table, out)
        print(f"wrote {len(table['draw'])} draws to {out}")
        return 0

    mode = VarianceMode(args.variance_mode or VarianceMode.FIX_RANDOM_EFFECTS)
    if name == "factorial":
        settings = _ex.factorial_grid(scale=args.scale, variance_mode=mode)
    else:
        settings = [dataclasses.replace(st, variance_mode=mode)
                    for st in _ex.experiment_catalog() if st.experiment == name]
    if reps is not None:
        settings = _ex.with_reps(settings, reps)
    out_dir = _out_dir(args)

    summaries, records = _ex.run_settings(settings, seed, args.parallelism)
    sum_path = os.path.join(out_dir, f"experiment_{name}_summary.csv")
    rep_path = os.path.join(out_dir, f"experiment_{name}_replicates.csv")
    _ex.write_summary_csv(summaries, sum_path)
    _ex.write_replicate_csv(records, rep_path)

    if name == "factorial":
        for factor in ("n_clusters", "cluster_size", "rho"):
            rows = _ex.interaction_plot_data(summaries, factor)
            path = os.path.join(out_dir, f"interaction_{factor}.csv")
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


def _cmd_invivo(args) -> int:
    from . import invivo as _iv

    if (args.data is None) == (not args.surrogate):
        raise UsageError("exactly one of --data or --surrogate is required")
    grid = {name: v for name, v in (("start", args.phi_start),
                                    ("end", args.phi_end),
                                    ("step", args.phi_step))
            if v is not None}
    try:
        phis = _iv.default_phi_grid(**grid)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    data = _iv.ingest_hmo(args.data) if args.data is not None else _iv.make_surrogate()
    rows = _iv.phi_sweep(data, phis, ClassifyTolerances(args.rho_tol, args.var_ratio_tol))
    out = args.out or os.path.join(_out_dir(args), "invivo_sweep.csv")
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
    from . import experiments as _ex

    factors = args.factors
    if args.ls_means is not None and args.ls_means not in factors:
        raise UsageError("--ls-means must name one of the factors")
    try:
        with open(args.table, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {args.table}: {exc}") from exc
    if not rows:
        raise DataError(f"{args.table}: no data rows")
    missing = [c for c in factors + [args.response] if c not in rows[0]]
    if missing:
        raise DataError(f"table lacks columns: {', '.join(missing)}")
    table = {}
    for col in factors + [args.response]:
        table[col] = [row[col] for row in rows]
        if None in table[col]:
            raise DataError(f"{args.table}: a row has fewer fields than the header")
        try:
            table[col] = [float(v) for v in table[col]]
        except ValueError:
            if col == args.response:
                raise DataError(f"response column {args.response!r} "
                                f"is not numeric") from None
    if not all(map(math.isfinite, table[args.response])):
        raise DataError(f"response column {args.response!r} has a non-finite value")

    rows = _ex.anova_balanced(table, factors, args.response)
    print(f"{'term':24s} {'df':>5s} {'SS':>14s} {'MS':>14s}")
    for r in rows:
        print(f"{r.term:24s} {r.df:5d} {r.ss:14.6g} {r.ms:14.6g}")
    if args.ls_means is not None:
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
    p.add_argument("--N", type=_N_CLUSTERS, required=True, help="number of clusters")
    p.add_argument("--s", type=_CLUSTER_SIZE, required=True, help="cluster size (odd)")
    p.add_argument("--rho", type=_checked(float, lambda v: -1 < v < 1,
                                          "must lie strictly inside (-1, 1)"),
                   required=True)
    p.add_argument("--r", type=_checked(float, lambda v: 0 < v < math.inf,
                                        "must be positive and finite"),
                   required=True, help="error/random-effect variance ratio")
    p.add_argument("--as-printed", action="store_true",
                   help="evaluate the uncorrected closed form")
    p.set_defaults(func=_cmd_predictor)

    p = sub.add_parser("simulate", help="write a balanced dataset CSV")
    p.add_argument("--N", type=_N_CLUSTERS, required=True)
    p.add_argument("--s", type=_CLUSTER_SIZE, required=True)
    p.add_argument("--b0", type=float, default=0.0)
    p.add_argument("--b1", type=float, default=0.0)
    p.add_argument("--sigma2-e", type=float, required=True)
    p.add_argument("--sigma2-c", type=float, required=True)
    p.add_argument("--sigma2-s", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=_out_path, required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="REML fit of a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--out", type=_out_path, required=True, help="FitResult JSON path")
    p.add_argument("--fixed-spec", default=None,
                   help='JSON {"columns": [...]} of extra fixed-effect '
                        'columns; naming any selects the general engine')
    _add_shared(p, "--rho-tol", "--var-ratio-tol")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("experiment", help="run a cataloged experiment")
    p.add_argument("name", choices=_EXPERIMENT_NAMES)
    p.add_argument("--reps", type=_AT_LEAST_ONE, default=None, metavar="REPS",
                   help="override replicates per setting (draw count for "
                        "predictor-sweep)")
    p.add_argument("--scale", type=float, default=None,
                   help="factorial grid subsampling factor")
    p.add_argument("--variance-mode", default=None,
                   choices=[m.value for m in VarianceMode],
                   help=f"how r is realised (default {VarianceMode.FIX_RANDOM_EFFECTS.value})")
    _add_shared(p, "--seed", "--parallelism", "--out-dir")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("invivo", help="residual-inflation sweep")
    p.add_argument("--data", default=None, help="premium CSV path")
    p.add_argument("--surrogate", action="store_true",
                   help="use the built-in synthetic dataset")
    p.add_argument("--phi-start", type=float, default=None,
                   help="first inflation factor (default: the standard "
                        "grid's, see remlab.invivo.default_phi_grid)")
    p.add_argument("--phi-end", type=float, default=None,
                   help="last inflation factor (default: the standard grid's)")
    p.add_argument("--phi-step", type=float, default=None,
                   help="inflation factor step (default: the standard grid's)")
    p.add_argument("--out", type=_out_path, help="sweep CSV (default: in --out-dir)")
    _add_shared(p, "--out-dir", "--rho-tol", "--var-ratio-tol")
    p.set_defaults(func=_cmd_invivo)

    p = sub.add_parser("anova", help="mean squares for a results table")
    p.add_argument("--table", required=True, help="input CSV")
    p.add_argument("--response", required=True)
    p.add_argument("--factors", type=_COLUMNS, required=True,
                   help="comma-separated factor columns")
    p.add_argument("--ls-means", default=None,
                   help="also print LS-means for this factor")
    p.set_defaults(func=_cmd_anova)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None) is not None:
            # the top-level parser takes no options: argv[0] is the command
            argv = sys.argv[1:] if argv is None else list(argv)
            try:
                args = parser.parse_args([argv[0], *_config_flags(args.config), *argv[1:]])
            except UsageError as exc:
                raise DataError(f"config file: {exc}") from None
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
