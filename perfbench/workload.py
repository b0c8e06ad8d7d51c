"""One benchmark workload in one fresh interpreter.

Started by run.py, once per set-up probe and once per measured run:

    python3 perfbench/workload.py --workload NAME --seed N --seconds T
        --mode probe|run [--trace] --work DIR --out FILE

``probe`` imports remlab, builds the workload's inputs and does one untimed
warm-up op, then exits; run.py times the whole process as one set-up sample.
``run`` does the same set-up, then a closed loop with one client for at
least ``--seconds`` (and at least two requests), then an untimed
verification pass, and writes its measurements to ``--out`` as JSON.  With
``--trace`` the loop runs with timing wrappers installed on the package's
module attributes and the per-layer metrics are computed from the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
from remlab import experiments, invivo, model_system, reml_core  # noqa: E402
from remlab import (Classification, FixedEffects, VarianceParams, classify,  # noqa: E402
                    log_restricted_likelihood, sufficient_stats)

from calibrate import REFERENCES, scale  # noqa: E402
from oracle import closed_form_log_rl  # noqa: E402
from tracing import Tracer, union_length  # noqa: E402

FACTORIAL_SCALE = 0.3
FACTORIAL_WORKERS = 2
# The CLI input: one dataset from the high-noise 500 x 21 catalog setting,
# where the optimiser's boundary misses occur.
CLI_SETTING = "A3"
CLI_LAYER_REPEATS = 10
SETUP_REPEATS = 5  # trace-mode repeats of the surrogate set-up steps
CENSUS = "census"  # request label of the spans the census records
CENSUS_REPEATS = 3

SUBOPTIMAL_GAP = 1e-6  # log-units below the closed-form maximum
ORACLE_SLACK = 1e-9  # a fit may not beat the closed-form maximum by more
LOG_RL_RTOL = 1e-8


def request_seed(seed: int, k: int) -> int:
    """Master seed of request k; request 0 uses the benchmark seed itself."""
    if k == 0:
        return seed
    digest = hashlib.sha256(f"{seed}:request:{k}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def cli_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def canonical(rec) -> str:
    """One text line per output record, floats at full precision."""
    return "|".join(repr(v.value if isinstance(v, Classification) else v)
                    for v in rec.__dict__.values())


def digest_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Set-up and one request per workload
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    workers = 1
    min_requests = 2  # every run repeats a request, so repeats can be compared
    reference = "interpreter"  # host-speed reference for its timings; see calibrate.py

    def __init__(self, seed: int, work: str, trace: bool):
        self.seed, self.work, self.trace = seed, work, trace
        self.setup_ms: dict = {}

    def warm_up(self) -> None:
        raise NotImplementedError

    def request(self, k: int) -> tuple[int, object]:
        """Run request k; return (ops completed, outputs to verify)."""
        raise NotImplementedError

    def expected_ops(self) -> int:
        raise NotImplementedError


class MonteCarlo(Workload):
    """run_settings over every setting, then the CSV reports.

    A request runs ``reps`` replicates of every setting, so that a run holds
    many requests of the same design mix.  Request k uses master seed
    request_seed(seed, k); requests 0 .. min_requests-1 always run and are
    the fixed record set behind the digest and the exact counts.
    """

    reps = 1

    def __init__(self, seed, work, trace):
        super().__init__(seed, work, trace)
        self.settings = self.build_settings()
        self.by_id = {st.id: st for st in self.settings}

    def warm_up(self):
        experiments.run_replicate(self.settings[0], self.seed, 0)

    def expected_ops(self):
        return sum(st.reps for st in self.settings)

    def request(self, k):
        rseed = request_seed(self.seed, k)
        summaries, records = experiments.run_settings(
            self.settings, rseed, parallelism=self.workers)
        experiments.write_summary_csv(summaries, os.path.join(self.work, "summary.csv"))
        experiments.write_replicate_csv(records, os.path.join(self.work, "replicates.csv"))
        self.report(summaries)
        return len(records), (k, rseed, records)

    def report(self, summaries):
        pass


class McCatalog(MonteCarlo):
    name = "mc_catalog"
    reps = 1
    min_requests = 6

    def build_settings(self):
        return experiments.with_reps(experiments.experiment_catalog(), self.reps)


class McFactorial(MonteCarlo):
    name = "mc_factorial"
    workers = FACTORIAL_WORKERS
    reps = 2
    min_requests = 3

    def build_settings(self):
        return experiments.with_reps(
            experiments.factorial_grid(scale=FACTORIAL_SCALE), self.reps)

    def report(self, summaries):
        for factor in ("n_clusters", "cluster_size", "rho"):
            rows = experiments.interaction_plot_data(summaries, factor)
            experiments.write_interaction_csv(
                rows, os.path.join(self.work, f"interaction_{factor}.csv"))


class InvivoSweep(Workload):
    """phi_sweep on the surrogate premium data; op = one phi refit.

    A sweep takes seconds, so a run holds at least four of them.
    """

    name = "invivo_sweep"
    min_requests = 4

    def __init__(self, seed, work, trace):
        super().__init__(seed, work, trace)
        repeats = SETUP_REPEATS if trace else 1
        walls = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            self.data = invivo.make_surrogate()
            walls.append(time.perf_counter() - t0)
        self.setup_ms["make_surrogate"] = 1e3 * statistics.median(walls)
        walls = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            self.general = self.data.to_general()
            walls.append(time.perf_counter() - t0)
        self.setup_ms["to_general"] = 1e3 * statistics.median(walls)
        self.phis = invivo.default_phi_grid()

    def warm_up(self):
        invivo.fit_general(self.general)

    def expected_ops(self):
        return len(self.phis)

    def request(self, k):
        rows = invivo.phi_sweep(self.data)
        invivo.write_sweep_csv(rows, os.path.join(self.work, "sweep.csv"), self.data.source)
        return len(rows), rows


class CliFit(Workload):
    """One ``remlab.cli fit`` process per op on one balanced CSV.

    An op is mostly interpreter start-up and imports, so it is timed against
    the process reference.
    """

    name = "cli_fit"
    reference = "process"

    def __init__(self, seed, work, trace):
        super().__init__(seed, work, trace)
        st = next(s for s in experiments.experiment_catalog() if s.id == CLI_SETTING)
        data = model_system.simulate(st.design, FixedEffects(0.0, 0.0), st.variance_params, seed)
        self.csv = os.path.join(work, "cli_data.csv")
        self.json = os.path.join(work, "cli_fit.json")
        model_system.write_dataset_csv(data, self.csv)
        self.cmd = [sys.executable, "-m", "remlab.cli", "fit", "--data", self.csv,
                    "--out", self.json]
        self.env = cli_env()

    def warm_up(self):
        self.run_cli()

    def expected_ops(self):
        return 1

    def run_cli(self):
        proc = subprocess.run(self.cmd, env=self.env, cwd=ROOT, capture_output=True,
                              timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")

    def request(self, k):
        self.run_cli()
        with open(self.json, "rb") as fh:
            return 1, fh.read()


CLASSES = {cls.name: cls for cls in (McCatalog, McFactorial, InvivoSweep, CliFit)}


# ---------------------------------------------------------------------------
# Verification (untimed)
# ---------------------------------------------------------------------------

class Checks:
    """Hard output checks plus the exact counts taken on the fixed record set."""

    def __init__(self):
        self.failures: list[str] = []
        self.n = 0
        self.counts = {c.value: 0 for c in Classification}
        self.suboptimal = 0
        self.max_gap = 0.0
        self.digest = ""

    def check(self, ok: bool, message: str) -> bool:
        self.n += 1
        if not ok:
            self.failures.append(message)
        return ok

    def balanced_fit(self, label, ss, vp_fields, log_rl, classification, rho_nan,
                     counted: bool) -> None:
        """Checks shared by every balanced fit; scores it against the oracle."""
        s2e, s2c, s2s, rho = vp_fields
        zero = classification is Classification.ZERO_VARIANCE
        if rho_nan is not None and not self.check(
                zero == rho_nan, f"{label}: rho_hat NaN must mark exactly ZERO_VARIANCE"):
            return
        try:
            vp = VarianceParams(s2e, s2c, s2s, 0.0 if rho_nan else rho)
        except ValueError as exc:
            self.check(False, f"{label}: invalid parameters ({exc})")
            return
        self.check(classify(vp) is classification,
                   f"{label}: classification {classification.value} != classify(params)")
        ll = log_restricted_likelihood(ss, vp)
        self.check(abs(ll - log_rl) <= LOG_RL_RTOL * abs(log_rl),
                   f"{label}: log_rl {log_rl!r} != likelihood at params {ll!r}")
        best = closed_form_log_rl(ss)
        self.check(log_rl - best <= ORACLE_SLACK,
                   f"{label}: fit beats the closed-form maximum by {log_rl - best:.3g}")
        if counted:
            self.counts[classification.value] += 1
            gap = best - log_rl
            if gap > SUBOPTIMAL_GAP:
                self.suboptimal += 1
                self.max_gap = max(self.max_gap, gap)


def verify_mc(wl: MonteCarlo, outputs, checks: Checks) -> None:
    fixed = []
    for k, rseed, records in outputs:
        counted = k < wl.min_requests
        for rec in records:
            st = wl.by_id[rec.setting]
            label = f"{rec.setting} rep {rec.rep} seed {rseed}"
            checks.check(rec.seed == experiments.derive_seed(rseed, st.id, rec.rep),
                         f"{label}: replicate seed is not derive_seed(...)")
            data = model_system.simulate(st.design, FixedEffects(0.0, 0.0),
                                         st.variance_params, rec.seed)
            checks.balanced_fit(label, sufficient_stats(data),
                                (rec.sigma2_e, rec.sigma2_c, rec.sigma2_s, rec.rho_hat),
                                rec.log_rl, rec.classification, math.isnan(rec.rho_hat),
                                counted)
        if counted:
            fixed += records
    checks.check(len(fixed) == wl.min_requests * wl.expected_ops(),
                 "the fixed requests did not all complete")
    checks.digest = digest_lines(canonical(r) for r in fixed)

    # Repeat rep 0 of every setting serially at the master seed: the records
    # must be identical to those of request 0, whatever its parallelism.
    _, again = experiments.run_settings(experiments.with_reps(wl.settings, 1), wl.seed)
    first = [canonical(r) for r in outputs[0][2] if r.rep == 0]
    checks.check(outputs[0][0] == 0 and first == [canonical(r) for r in again],
                 "records differ when request 0 is repeated serially")

    last_records = outputs[-1][2]
    with open(os.path.join(wl.work, "replicates.csv")) as fh:
        checks.check(sum(1 for _ in fh) == len(last_records) + 1,
                     "replicate CSV row count differs from the records")
    with open(os.path.join(wl.work, "summary.csv")) as fh:
        checks.check(sum(1 for _ in fh) == len(wl.settings) + 1,
                     "summary CSV row count differs from the settings")


def verify_invivo(wl: InvivoSweep, outputs, checks: Checks) -> None:
    sweeps = [[canonical(r) for r in rows] for rows in outputs]
    checks.digest = digest_lines(sweeps[0])
    for k, lines in enumerate(sweeps[1:], start=1):
        checks.check(lines == sweeps[0], f"sweep {k} differs from sweep 0")
    rows = outputs[0]
    checks.check([r.phi for r in rows] == [float(p) for p in wl.phis],
                 "sweep rows do not follow the phi grid")
    for r in rows:
        zero = r.classification is Classification.ZERO_VARIANCE
        label = f"phi {r.phi}"
        if not checks.check(zero == math.isnan(r.rho_hat),
                            f"{label}: rho_hat NaN must mark exactly the ZERO_VARIANCE rows"):
            continue
        vp = VarianceParams(r.sigma2_e, r.sigma2_c, r.sigma2_s, 0.0 if zero else r.rho_hat)
        checks.check(classify(vp) is r.classification,
                     f"{label}: classification != classify(params)")
        checks.counts[r.classification.value] += 1


def verify_cli(wl: CliFit, outputs, checks: Checks) -> None:
    checks.digest = hashlib.sha256(outputs[0]).hexdigest()
    for k, out in enumerate(outputs[1:], start=1):
        checks.check(out == outputs[0], f"process {k} wrote different JSON")
    got = json.loads(outputs[0])
    data = model_system.read_dataset_csv(wl.csv)
    ref = reml_core.fit_balanced(data).to_json_dict()
    checks.check(got == ref, "CLI JSON differs from an in-process fit_balanced")
    checks.balanced_fit("cli fit", sufficient_stats(data),
                        (got["sigma2_e"], got["sigma2_c"], got["sigma2_s"], got["rho"]),
                        got["log_rl"], Classification(got["classification"]), None, True)


VERIFY = {"mc_catalog": verify_mc, "mc_factorial": verify_mc,
          "invivo_sweep": verify_invivo, "cli_fit": verify_cli}


# ---------------------------------------------------------------------------
# Tracing: wrapped attributes and per-layer metrics
# ---------------------------------------------------------------------------

def n_evals(result):
    return result.n_evals


TRACE_POINTS = [
    (experiments, "run_settings", "experiments.run_settings", None),
    # the pool's unit of work; private, but the only name a task passes through
    (experiments, "_run_chunk", "experiments.task", None),
    (experiments, "run_replicate", "experiments.run_replicate", None),
    (experiments, "derive_seed", "experiments.derive_seed", None),
    (experiments, "simulate", "model_system.simulate", None),
    (experiments, "fit_balanced", "reml_core.fit_balanced", n_evals),
    (experiments, "write_summary_csv", "experiments.write_csv", None),
    (experiments, "write_replicate_csv", "experiments.write_csv", None),
    (experiments, "write_interaction_csv", "experiments.write_csv", None),
    (reml_core, "sufficient_stats", "model_system.sufficient_stats", None),
    (reml_core, "fit_balanced", "reml_core.fit_balanced", n_evals),
    (reml_core.FitResult, "write_json", "cli.write_json", None),
    (model_system, "read_dataset_csv", "model_system.read_dataset_csv", None),
    (invivo, "phi_sweep", "invivo.phi_sweep", None),
    (invivo, "fit_general", "reml_core.fit_general", n_evals),
    (invivo, "eblups", "reml_core.eblups", None),
]


def install(tracer: Tracer) -> None:
    for owner, attr, name, info in TRACE_POINTS:
        if hasattr(owner, attr):
            tracer.wrap(owner, attr, name, info)


def pct(values, p: float) -> float:
    """Nearest-rank percentile; 0.0 when the layer made no calls."""
    if not values:
        return 0.0
    vals = sorted(values)
    return vals[max(0, math.ceil(p / 100.0 * len(vals)) - 1)]


def per_layer(spans, wl: Workload, checks: Checks, startup_s) -> dict:
    by: dict = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)
    for name, group in by.items():  # the loop's own spans win over the census
        own = [s for s in group if s.request != CENSUS]
        by[name] = own or group

    def durs(name, attr="dur"):
        return [getattr(s, attr) for s in by.get(name, [])]

    def evals_per_fit(name):
        first = [s.info for s in by.get(name, []) if s.request in (0, CENSUS)]
        return sum(first) / len(first) if first else 0.0

    def us_per_eval(name):
        fits = by.get(name, [])
        evals = sum(s.info for s in fits)
        return 1e6 * sum(s.self_time for s in fits) / evals if evals else 0.0

    settings_calls = by.get("experiments.run_settings", [])
    settings_wall = sum(s.dur for s in settings_calls)
    outside = 0.0
    for rs in settings_calls:
        inner = [(s.t0, s.t1) for s in by.get("experiments.run_replicate", [])
                 if s.t0 >= rs.t0 and s.t1 <= rs.t1]
        outside += rs.dur - union_length(inner)
    tasks = by.get("experiments.task", [])

    refits = []
    for sweep in by.get("invivo.phi_sweep", []):
        fits = sorted((s for s in by.get("reml_core.fit_general", [])
                       if s.pid == sweep.pid and s.parent == sweep.idx), key=lambda s: s.t0)
        refits += [s.dur for s in fits[1:]]  # the first is the baseline fit

    return {
        "model_system.simulate_us": 1e6 * pct(durs("model_system.simulate"), 50),
        "model_system.sufficient_stats_us": 1e6 * pct(durs("model_system.sufficient_stats"), 50),
        "model_system.read_dataset_csv_ms": 1e3 * pct(durs("model_system.read_dataset_csv"), 50),
        "reml_core.fit_balanced_us_p50": 1e6 * pct(durs("reml_core.fit_balanced", "self_time"), 50),
        "reml_core.fit_balanced_us_p99": 1e6 * pct(durs("reml_core.fit_balanced", "self_time"), 99),
        "reml_core.fit_general_ms": 1e3 * pct(durs("reml_core.fit_general", "self_time"), 50),
        "reml_core.eblups_ms": 1e3 * pct(durs("reml_core.eblups"), 50),
        **{f"reml_core.count.{k}": v for k, v in checks.counts.items()},
        "suboptimal_fits": checks.suboptimal,
        "optimize.evals_per_fit_balanced": evals_per_fit("reml_core.fit_balanced"),
        "optimize.evals_per_fit_general": evals_per_fit("reml_core.fit_general"),
        "optimize.us_per_eval_balanced": us_per_eval("reml_core.fit_balanced"),
        "optimize.us_per_eval_general": us_per_eval("reml_core.fit_general"),
        "experiments.run_replicate_us_p50": 1e6 * pct(durs("experiments.run_replicate"), 50),
        "experiments.run_replicate_us_p99": 1e6 * pct(durs("experiments.run_replicate"), 99),
        "experiments.derive_seed_us": 1e6 * pct(durs("experiments.derive_seed"), 50),
        "experiments.self_share": outside / settings_wall if settings_wall else 0.0,
        "experiments.write_csv_ms": (1e3 * sum(durs("experiments.write_csv")) / len(settings_calls)
                                     if settings_calls else 0.0),
        "experiments.pool_efficiency": (sum(s.dur for s in tasks) / (wl.workers * settings_wall)
                                        if settings_wall else 0.0),
        "experiments.tasks": len(tasks) / len(settings_calls) if settings_calls else 0.0,
        "invivo.refit_ms": 1e3 * pct(refits, 50),
        "invivo.self_ms": 1e3 * pct(durs("invivo.phi_sweep", "self_time"), 50),
        "invivo.make_surrogate_ms": wl.setup_ms.get("make_surrogate", 0.0),
        "invivo.to_general_ms": wl.setup_ms.get("to_general", 0.0),
        "cli.startup_ms": 1e3 * pct(startup_s, 50),
        "cli.write_json_ms": 1e3 * pct(durs("cli.write_json"), 50),
    }


def cli_layers(wl: CliFit, tracer: Tracer, repeats: int, census: bool = False) -> list[float]:
    """In-process calls of the CLI's layers, then import-only processes."""
    out = os.path.join(wl.work, "cli_layers.json")
    for i in range(repeats):
        tracer.request = CENSUS if census else i
        data = model_system.read_dataset_csv(wl.csv)
        reml_core.fit_balanced(data).write_json(out)
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import remlab.cli"], env=wl.env, cwd=ROOT,
                       check=True, timeout=60)
        walls.append(time.perf_counter() - t0)
    return walls


def census(wl: Workload, tracer: Tracer) -> list[float]:
    """Time the layers the loop never reached, on small fixed inputs.

    Every per-layer metric is then a measured value on every workload; a
    value that comes from here describes the layer, not the workload.
    """
    reached = {s.name for s in tracer.collect()}
    tracer.request = CENSUS
    if "experiments.run_settings" not in reached:
        settings = experiments.with_reps(experiments.experiment_catalog()[:1], 5)
        summaries, records = experiments.run_settings(settings, wl.seed)
        experiments.write_summary_csv(summaries, os.path.join(wl.work, "census_summary.csv"))
        experiments.write_replicate_csv(records, os.path.join(wl.work, "census_replicates.csv"))
    if "invivo.phi_sweep" not in reached:
        sweep = InvivoSweep(wl.seed, wl.work, trace=True)
        wl.setup_ms.update(sweep.setup_ms)
        invivo.phi_sweep(sweep.data, phis=[1.0, 2.0])
    if "model_system.read_dataset_csv" not in reached:
        return cli_layers(CliFit(wl.seed, wl.work, trace=True), tracer, CENSUS_REPEATS,
                          census=True)
    return []


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def run(wl: Workload, seconds: float, tracer: Tracer | None) -> dict:
    """Closed loop with one client; each request is timed between two passes
    of the workload's host-speed reference (see calibrate.py)."""
    reference, nominal = REFERENCES[wl.reference]
    outputs, requests, op_ms, errors = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    ref = reference()
    k = 0
    while k < wl.min_requests or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.request = k
        t0 = time.perf_counter()
        try:
            ops, out = wl.request(k)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            ops, out = 0, None
            failed += wl.expected_ops()
            errors.append(f"request {k}: {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        ref_after = reference()
        scaled = scale(wall, ref, ref_after, nominal)
        attempted += ops if out is not None else wl.expected_ops()
        if out is not None:
            outputs.append(out)
            op_ms.append(1e3 * scaled / ops)
        requests.append({"request": k, "seed": request_seed(wl.seed, k), "ops": ops,
                         "wall_s": wall, "ref_s": [ref, ref_after], "scaled_s": scaled})
        ref = ref_after
        k += 1
    done = sum(r["ops"] for r in requests)
    return {"outputs": outputs, "requests": requests, "op_ms": op_ms, "errors": errors,
            "attempted": attempted, "failed": failed,
            "elapsed_s": time.perf_counter() - start,
            "ops_per_s": done / sum(r["scaled_s"] for r in requests),
            "raw_ops_per_s": done / sum(r["wall_s"] for r in requests)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(CLASSES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("probe", "run"), required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--work", required=True)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    wl = CLASSES[args.workload](args.seed, args.work, args.trace)
    wl.warm_up()
    if args.mode == "probe":
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer(args.work)
        install(tracer)
    try:
        result = run(wl, args.seconds, tracer)
        startup = []
        if tracer is not None:
            if isinstance(wl, CliFit):
                startup = cli_layers(wl, tracer, CLI_LAYER_REPEATS)
            startup += census(wl, tracer)
    finally:
        if tracer is not None:
            tracer.remove()

    checks = Checks()
    for err in result["errors"]:
        checks.check(False, err)
    if result["outputs"]:
        VERIFY[wl.name](wl, result.pop("outputs"), checks)
    else:
        checks.check(False, "no request completed")
        result.pop("outputs")

    ru_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ru_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update({
        "numpy": np.__version__,
        "checks_run": checks.n,
        "checks_failed": checks.failures[:20],
        "n_checks_failed": len(checks.failures),
        "digest": checks.digest,
        "counts": checks.counts,
        "suboptimal_fits": checks.suboptimal,
        "max_suboptimal_gap": checks.max_gap,
        "peak_rss_mb": (ru_self + ru_children) / 1024.0,
    })
    if tracer is not None:
        spans = tracer.collect()
        result["per_layer"] = per_layer(spans, wl, checks, startup)
        result["census_layers"] = sorted({s.name for s in spans if s.request == CENSUS}
                                         - {s.name for s in spans if s.request != CENSUS})
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
