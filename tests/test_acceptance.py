"""End-to-end validation of the whole pipeline at a fixed master seed.

Each test here covers one acceptance criterion for the package: frozen
display-precision reference values for the boundary-rate score,
mathematical properties of the score and the restricted likelihood,
stationarity of fitted optima, Monte Carlo outcome rates for the
catalogued experiments, the desk-scale factorial map, score-sweep ANOVA
effect sizes, the residual-inflation transition on the bundled
surrogate data set, and byte-level reproducibility under parallel
execution.

Every test accumulates clause violations in a list and fails with the
complete list, so a red run names each offending clause at once.  All
Monte Carlo work is keyed to ``MASTER_SEED`` and is bit-reproducible;
the slowest, criterion 8, takes under a minute on two cores.
"""

import itertools
import math
import os
import time
from fractions import Fraction

import numpy as np

from remlab import (Classification, DesignSpec, FixedEffects, GeneralDataset,
                    VarianceParams, anova_balanced, experiment_catalog,
                    factorial_grid, fit_balanced, fit_general,
                    interaction_plot_data, log_restricted_likelihood,
                    log_rl_dense_oracle, ls_means, make_surrogate, phi_sweep,
                    predictor_minus_one, predictor_plus_one, predictor_sweep,
                    sign_test_plus_vs_minus, simulate, sufficient_stats,
                    with_reps)
from remlab.experiments import run_settings, write_replicate_csv, \
    write_summary_csv

MASTER_SEED = 20260825
PARALLELISM = min(8, os.cpu_count() or 1)

# ---------------------------------------------------------------------------
# reference values at display precision
# ---------------------------------------------------------------------------

_R08 = 10.0 ** 0.8
_R12 = 10.0 ** 1.2

# (label, n_clusters, cluster_size, rho, r, shown_minus_one, shown_plus_one);
# a None entry means that column is not part of the reference set.  The A3-A5
# strings are the 2-digit roundings of the exact slope from
# ``_exact_inward_slope`` (0.07845946801, 8.045762209e-4, 8.066515146e-6).
# A5 and G18 have identical inputs; G18's "8.0e-6" also lies within one
# display unit of 8.0666e-6 and is kept as recorded.
_REFERENCE_TABLE = [
    ("A1", 500, 21, 0.0, 1e1, "3.6e+2", None),
    ("A2", 500, 21, 0.0, 1e2, "6.4e+0", None),
    ("A3", 500, 21, 0.0, 1e3, "7.8e-2", None),
    ("A4", 500, 21, 0.0, 1e4, "8.0e-4", None),
    ("A5", 500, 21, 0.0, 1e5, "8.1e-6", None),
    ("C1", 100, 9, -0.8, _R08, "8.2", "67"),
    ("C2", 100, 9, -0.8, _R12, "1.7", "15"),
    ("C3", 500, 9, -0.8, _R12, "8.4", "74"),
    ("C4", 100, 25, -0.8, _R12, "8.7", "76"),
    ("C5", 100, 9, 0.0, _R12, "8.2", "8.2"),
    ("D1", 100, 9, -0.80, _R12, "1.66", "14.60"),
    ("D2", 100, 9, -0.80, _R08, "8.23", "67.47"),
    ("D3", 21, 9, -0.80, _R08, "1.67", "13.69"),
    ("D4", 100, 3, -0.80, _R08, "1.83", "15.14"),
    ("D5", 100, 9, -0.96, _R08, "1.66", "72.82"),
    ("E1", 20, 25, -0.8, 6.0, "9.88", "79.92"),
    ("E2", 20, 25, -0.8, 15.0, "1.85", "16.02"),
    ("E3", 104, 25, -0.8, 15.0, "10.00", "86.64"),
    ("E4", 20, 63, -0.8, 15.0, "9.66", "83.30"),
    ("E5", 20, 25, 0.0, 15.0, "9.06", "9.06"),
    ("F1", 1000, 3, -0.8, 9.0, "10.05", "86.15"),
    ("F2", 1000, 3, -0.8, 23.0, "1.88", "16.77"),
    ("F3", 5350, 3, -0.8, 23.0, "10.08", "89.81"),
    ("F4", 1000, 9, -0.8, 23.0, "8.78", "77.92"),
    ("F5", 1000, 3, 0.0, 23.0, "9.36", "9.36"),
    ("G1", 500, 21, -0.95, 53.0, "1.00", "38.65"),
    ("G2", 500, 21, -0.50, 53.0, "9.96", "29.78"),
    ("G3", 500, 21, 0.00, 53.0, "19.89", "19.89"),
    ("G4", 500, 21, 0.50, 53.0, "29.78", "9.96"),
    ("G5", 500, 21, 0.95, 53.0, "38.65", "1.00"),
    ("G6", 500, 21, -0.95, 271.0, "0.05", "1.94"),
    ("G7", 500, 21, -0.50, 271.0, "0.50", "1.50"),
    ("G8", 500, 21, 0.00, 271.0, "1.00", "1.00"),
    ("G9", 500, 21, 0.50, 271.0, "1.50", "0.50"),
    ("G10", 500, 21, 0.95, 271.0, "1.94", "0.05"),
    ("G11", 500, 21, -0.95, 3000.0, "4.4e-4", "1.7e-2"),
    ("G12", 500, 21, -0.50, 3000.0, "4.4e-3", "1.3e-2"),
    ("G13", 500, 21, 0.00, 3000.0, "8.9e-3", "8.9e-3"),
    ("G14", 500, 21, 0.50, 3000.0, "1.3e-2", "4.4e-3"),
    ("G15", 500, 21, 0.95, 3000.0, "1.7e-2", "4.4e-4"),
    ("G16", 500, 21, -0.95, 1e5, "4.0e-7", "1.6e-5"),
    ("G17", 500, 21, -0.50, 1e5, "4.0e-6", "1.2e-5"),
    ("G18", 500, 21, 0.00, 1e5, "8.0e-6", "8.0e-6"),
    ("G19", 500, 21, 0.50, 1e5, "1.2e-5", "4.0e-6"),
    ("G20", 500, 21, 0.95, 1e5, "1.6e-5", "4.0e-7"),
]

# plus-one score at rho = 0.95; held to a looser factor bound because the
# recorded values are internally inconsistent with the minus-one column.
_HIGH_RHO_PLUS_ONE = ["1.5e+1", "2.6e-1", "3.1e-3", "3.2e-5", "3.2e-7"]

_SWEEP_FACTORS = ["log10_r", "cluster_size", "n_clusters", "rho"]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _verdict(number, name, violations):
    status = "PASS" if not violations else "FAIL"
    print(f"[criterion {number:2d}] {status}: {name}", flush=True)
    assert not violations, (
        f"criterion {number} ({name}): {len(violations)} clause "
        "violation(s):\n" + "\n".join(violations))


def _display_unit(shown):
    """Size of one unit in the last displayed digit of ``shown``."""
    text = shown.lower()
    if "e" in text:
        mantissa, exponent = text.split("e")
        decimals = len(mantissa.split(".")[1]) if "." in mantissa else 0
        return 10.0 ** (int(exponent) - decimals)
    decimals = len(text.split(".")[1]) if "." in text else 0
    return 10.0 ** (-decimals)


def _exact_inward_slope(n, s, rho, r, boundary):
    """Inward slope of ``profiled_log_rl`` at expected statistics, exactly.

    With x the profile's correlation argument, evaluates
    d/dx [-(N-1)/2 log det - (Ns-2)/2 log bracket] (the other term of the
    profile does not involve x) at x = ``boundary``, with the sufficient
    statistics at their expectations under sigma2_r = 1:
    E rss = N(s-2) r and E t_outer = (N-1)(D Sigma D + r I), where
    D = diag(sqrt s, sqrt q) and Sigma = [[1, rho], [rho, 1]] for the true
    rho.  The sqrt(s q) factors cancel, so the slope is rational in the
    inputs and ``Fraction`` arithmetic computes it without rounding.
    Inward means d/dx at -1 and -d/dx at +1; q is summed from the
    regressor grid.
    """
    n, s, rho, r, b = (Fraction(v) for v in (n, s, rho, r, boundary))
    m = int(s - 1) // 2
    q = sum(Fraction(k, m) ** 2 for k in range(-m, m + 1))
    t_cc = (n - 1) * (s + r)
    t_ss = (n - 1) * (q + r)
    root_sq_t_cs = (n - 1) * s * q * rho  # sqrt(s q) * E t_cs
    det = (s + r) * (q + r) - s * q * b * b
    d_det = -2 * s * q * b
    quad = (q + r) * t_cc - 2 * b * root_sq_t_cs + (s + r) * t_ss
    d_quad = -2 * root_sq_t_cs
    bracket = n * (s - 2) + quad / det  # E rss / r + quad / det
    d_bracket = (d_quad * det - quad * d_det) / (det * det)
    slope = -(n - 1) / 2 * d_det / det - (n * s - 2) / 2 * d_bracket / bracket
    return -b * slope


def _settings_for(experiment):
    return [st for st in experiment_catalog() if st.experiment == experiment]


def _pct_se(pct, reps):
    p = pct / 100.0
    return 100.0 * math.sqrt(p * (1.0 - p) / reps)


def _wiggle(y):
    """Total variation of ``y`` in excess of its net change.

    Zero for any monotone sequence; positive when the curve changes
    direction, so larger values mean a less regular curve.
    """
    y = np.asarray(y, dtype=float)
    return float(np.sum(np.abs(np.diff(y))) - abs(y[-1] - y[0]))


# ---------------------------------------------------------------------------
# criterion 1: score reference table at display precision (< 1 s)
# ---------------------------------------------------------------------------

def test_reference_score_table_reproduction():
    """Every reference cell to +/- 1 unit in the last displayed digit.

    The minus-one column is computed directly, the plus-one column via
    the sign-flip mirror rule; the five high-rho plus-one cells are held
    to a factor of 1.35.  Every computed cell, those five included, must
    also equal the exact inward boundary slope from
    ``_exact_inward_slope`` to 1e-12 relative, so the closed form is
    checked against its definition and not only against recorded
    strings.
    """
    violations = []
    cells = []  # (cell name, computed score, exact slope)
    for label, n, s, rho, r, shown_m1, shown_p1 in _REFERENCE_TABLE:
        for column, shown, func, boundary in (
                ("minus-one", shown_m1, predictor_minus_one, -1),
                ("plus-one", shown_p1, predictor_plus_one, 1)):
            if shown is None:
                continue
            got = float(func(n, s, rho, r))
            cells.append((f"{label} {column}", got,
                          _exact_inward_slope(n, s, rho, r, boundary)))
            tolerance = _display_unit(shown) * (1.0 + 1e-9)
            if abs(got - float(shown)) > tolerance:
                units = abs(got - float(shown)) / _display_unit(shown)
                violations.append(
                    f"{label} {column}: computed {got:.6g}, recorded "
                    f"{shown} (off by {units:.2f} last-digit units)")
    for k, shown in enumerate(_HIGH_RHO_PLUS_ONE, start=1):
        got = float(predictor_plus_one(500, 21, 0.95, 10.0 ** k))
        cells.append((f"high-rho plus-one at r=1e{k}", got,
                      _exact_inward_slope(500, 21, 0.95, 10.0 ** k, 1)))
        factor = max(got / float(shown), float(shown) / got)
        if factor > 1.35:
            violations.append(
                f"high-rho plus-one at r=1e{k}: computed {got:.4g}, "
                f"recorded {shown} (factor {factor:.3f} > 1.35)")
    for name, got, exact in cells:
        rel = abs(got - float(exact)) / abs(float(exact))
        if not rel <= 1e-12:
            violations.append(
                f"{name}: computed {got!r}, exact slope {float(exact)!r} "
                f"(rel {rel:.2e} > 1e-12)")
    _verdict(1, "reference score table reproduction", violations)


# ---------------------------------------------------------------------------
# criterion 2: score properties on a random scan (< 1 min)
# ---------------------------------------------------------------------------

def test_score_properties_random_scan():
    """Positivity, monotonicity, and limits over 1e5 random designs."""
    rng = np.random.default_rng(MASTER_SEED)
    size = 100_000
    n = rng.integers(2, 2001, size=size).astype(float)
    s = (2 * rng.integers(1, 101, size=size) + 1).astype(float)
    rho = rng.uniform(-1.0, 1.0, size=size) * 0.999999
    r = 10.0 ** rng.uniform(-6.0, 6.0, size=size)

    violations = []
    base = predictor_minus_one(n, s, rho, r)
    if not np.all(base > 0.0):
        violations.append(
            f"positivity: {np.sum(base <= 0.0)} non-positive values")
    more_noise = predictor_minus_one(n, s, rho, r * 10.0)
    if not np.all(more_noise < base):
        violations.append(
            f"monotone in r: {np.sum(more_noise >= base)} points did not "
            "decrease when r grew tenfold")
    more_clusters = predictor_minus_one(n + 50.0, s, rho, r)
    if not np.all(more_clusters > base):
        violations.append(
            f"monotone in N: {np.sum(more_clusters <= base)} points did "
            "not increase with 50 extra clusters")
    bigger_clusters = predictor_minus_one(n, s + 2.0, rho, r)
    if not np.all(bigger_clusters > base):
        violations.append(
            f"monotone in s: {np.sum(bigger_clusters <= base)} points did "
            "not increase with 2 extra members per cluster")

    # limit as rho -> -1: values shrink with the gap and end tiny relative
    # to the same design evaluated further from the corner.
    near = predictor_minus_one(n, s, np.full(size, -1.0 + 1e-12), r)
    far = predictor_minus_one(n, s, np.full(size, -1.0 + 1e-4), r)
    if not np.all(near < far):
        violations.append(
            f"rho -> -1: {np.sum(near >= far)} points did not shrink as "
            "rho moved from -1+1e-4 to -1+1e-12")
    worst = float(np.max(near / np.maximum(1.0, far)))
    if worst > 1e-5:
        violations.append(
            f"rho -> -1: residual ratio {worst:.3e} exceeds 1e-5")

    # limit as r -> infinity
    tail = predictor_minus_one(n, s, rho, np.full(size, 1e15))
    if not np.all(tail < 1e-12):
        violations.append(
            f"r -> inf: max score {np.max(tail):.3e} at r=1e15 "
            "exceeds 1e-12")
    _verdict(2, "score property scan", violations)


# ---------------------------------------------------------------------------
# criterion 3: likelihood oracle equivalence (< 1 min)
# ---------------------------------------------------------------------------

def test_likelihood_matches_dense_oracle():
    """Fast suffstat likelihood vs a dense matrix oracle, both engines.

    Log restricted-likelihood differences between random parameter
    pairs must match the dense oracle to 1e-8 relative on 50 small
    instances, and the balanced and general fitting engines must agree
    to 1e-6 on their estimates.
    """
    rng = np.random.default_rng(MASTER_SEED)
    violations = []

    def random_params():
        return VarianceParams(float(10.0 ** rng.uniform(-1.0, 1.0)),
                              float(10.0 ** rng.uniform(-1.0, 1.0)),
                              float(10.0 ** rng.uniform(-1.0, 1.0)),
                              float(rng.uniform(-0.95, 0.95)))

    for k in range(50):
        n = int(rng.integers(2, 7))
        s = int(rng.choice([3, 5, 7]))
        truth = random_params()
        data = simulate(DesignSpec(n, s), FixedEffects(0.0, 0.0), truth,
                        int(rng.integers(2 ** 31)))
        ss = sufficient_stats(data)
        vp_a, vp_b = random_params(), random_params()
        d_fast = (log_restricted_likelihood(ss, vp_b)
                  - log_restricted_likelihood(ss, vp_a))
        d_dense = (log_rl_dense_oracle(data, vp_b)
                   - log_rl_dense_oracle(data, vp_a))
        rel = abs(d_fast - d_dense) / max(1.0, abs(d_dense))
        if rel > 1e-8:
            violations.append(
                f"instance {k} (N={n}, s={s}): delta log RL {d_fast:.10g} "
                f"vs oracle {d_dense:.10g} (rel {rel:.2e} > 1e-8)")

    rng2 = np.random.default_rng(MASTER_SEED + 3)
    for k in range(5):
        vp = VarianceParams(2.0, 1.0, 1.0, float(rng2.uniform(-0.5, 0.5)))
        data = simulate(DesignSpec(40, 7), FixedEffects(1.0, -0.5), vp,
                        int(rng2.integers(2 ** 31)))
        fb = fit_balanced(data)
        fg = fit_general(GeneralDataset.from_balanced(data))
        if fb.classification is not fg.classification:
            violations.append(
                f"engine disagreement {k}: {fb.classification.name} vs "
                f"{fg.classification.name}")
            continue
        pairs = (("sigma2_e", fb.params.sigma2_e, fg.params.sigma2_e),
                 ("sigma2_c", fb.params.sigma2_c, fg.params.sigma2_c),
                 ("sigma2_s", fb.params.sigma2_s, fg.params.sigma2_s),
                 ("rho", fb.params.rho, fg.params.rho))
        for name, a, b in pairs:
            rel = abs(a - b) / max(1.0, abs(b))
            if rel > 1e-6:
                violations.append(
                    f"engine disagreement {k} on {name}: balanced {a!r} "
                    f"vs general {b!r} (rel {rel:.2e} > 1e-6)")
    _verdict(3, "likelihood oracle equivalence", violations)


# ---------------------------------------------------------------------------
# criterion 4: stationarity and local-maximum certificates (< 1 min)
# ---------------------------------------------------------------------------

def test_stationarity_and_local_max_certificates():
    """Fitted optima are stationary (interior) and locally maximal (all).

    At interior maximizers the central finite-difference gradient in
    (log sigma2_e, log sigma2_c, log sigma2_s, atanh rho) must satisfy
    |g| < 1e-4; at every fit, 60 random perturbations at three scales
    must never improve the restricted likelihood by more than 1e-8.
    """
    rng = np.random.default_rng(MASTER_SEED)
    violations = []
    n_interior = 0
    for k in range(100):
        n = int(rng.integers(20, 81))
        s = int(rng.choice([5, 7, 9]))
        truth = VarianceParams(float(10.0 ** rng.uniform(-0.5, 1.5)),
                               float(10.0 ** rng.uniform(-0.5, 0.5)),
                               float(10.0 ** rng.uniform(-0.5, 0.5)),
                               float(rng.uniform(-0.9, 0.9)))
        data = simulate(DesignSpec(n, s), FixedEffects(0.0, 0.0), truth,
                        int(rng.integers(2 ** 31)))
        ss = sufficient_stats(data)
        fit = fit_balanced(data)
        p = fit.params

        theta = np.array([math.log(p.sigma2_e),
                          math.log(max(p.sigma2_c, 1e-300)),
                          math.log(max(p.sigma2_s, 1e-300)),
                          p.rho])

        def lrl_at(th):
            rho = min(1.0, max(-1.0, th[3]))
            return log_restricted_likelihood(
                ss, VarianceParams(math.exp(th[0]), math.exp(th[1]),
                                   math.exp(th[2]), rho))

        if fit.classification is Classification.GOOD:
            n_interior += 1
            grad = np.zeros(4)
            h = 1e-5
            for i in range(3):
                up, down = theta.copy(), theta.copy()
                up[i] += h
                down[i] -= h
                grad[i] = (lrl_at(up) - lrl_at(down)) / (2.0 * h)
            z0 = math.atanh(p.rho)

            def lrl_rho(z):
                th = theta.copy()
                th[3] = math.tanh(z)
                return lrl_at(th)

            grad[3] = (lrl_rho(z0 + h) - lrl_rho(z0 - h)) / (2.0 * h)
            gmax = float(np.max(np.abs(grad)))
            if gmax >= 1e-4:
                violations.append(
                    f"fit {k} (N={n}, s={s}): interior gradient "
                    f"|g|={gmax:.3e} >= 1e-4")

        for scale in (1e-4, 1e-2, 0.3):
            for _ in range(20):
                trial = theta + rng.normal(size=4) * scale
                trial[3] = min(1.0, max(-1.0, trial[3]))
                if lrl_at(trial) > fit.log_rl + 1e-8:
                    violations.append(
                        f"fit {k} (N={n}, s={s}): perturbation at scale "
                        f"{scale:g} beat the fitted optimum")
    if n_interior == 0:
        violations.append("no interior maximizers among the 100 fits")
    _verdict(4, "stationarity and local-maximum certificates", violations)


# ---------------------------------------------------------------------------
# criterion 5: high-noise outcome rates and sign symmetry (~1 s)
# ---------------------------------------------------------------------------

def test_high_noise_outcome_rates_and_sign_symmetry():
    """Experiment A at 400 replicates per setting.

    pct_bad per setting must land within +/-10 points of the recorded
    (0, 19, 84, 88, 83), and the exact two-sided sign test of +1 against
    -1 counts pooled over the three noisiest settings must not reject
    symmetry at alpha = 0.01.  At rho = 0 the simulated data have the
    same law under x -> -x, and the restricted likelihood is unchanged
    under (rho, t_cs) -> (-rho, -t_cs), so the global maximiser is
    mirror-equivariant and P(rho_hat = +1) = P(rho_hat = -1).
    """
    settings = with_reps(_settings_for("A"), 400)
    summaries, _ = run_settings(settings, MASTER_SEED,
                                parallelism=PARALLELISM)
    violations = []
    targets = (0.0, 19.0, 84.0, 88.0, 83.0)
    for summary, target in zip(summaries, targets):
        if abs(summary.pct_bad - target) > 10.0:
            violations.append(
                f"{summary.setting.id}: pct_bad {summary.pct_bad:.2f} "
                f"outside {target} +/- 10")
    n_plus = sum(sm.n_p1 for sm in summaries[2:])
    n_minus = sum(sm.n_m1 for sm in summaries[2:])
    p_value = sign_test_plus_vs_minus(n_plus, n_minus)
    if p_value < 0.01:
        violations.append(
            f"pooled sign test over the three noisiest settings rejects "
            f"+1/-1 symmetry: p={p_value:.4f} (n+={n_plus}, "
            f"n-={n_minus}); required p >= 0.01")
    _verdict(5, "high-noise outcome rates and sign symmetry", violations)


# ---------------------------------------------------------------------------
# criterion 6: design changes counter noise changes (~5 s)
# ---------------------------------------------------------------------------

def test_sample_size_counters_noise_in_simulation():
    """Experiments C-F: settings 3-4 restore setting 1's bad rate.

    Within each experiment, setting 2 moves the boundary rate by at
    least 10 points in the predicted direction, and settings 3 and 4
    (which change N or s to counter the noise change) must come back
    to within +/-8 points of setting 1.
    """
    direction = {"C": 1.0, "D": -1.0, "E": 1.0, "F": 1.0}
    violations = []
    for experiment in ("C", "D", "E", "F"):
        settings = _settings_for(experiment)
        summaries, _ = run_settings(settings, MASTER_SEED,
                                    parallelism=PARALLELISM)
        bad = [sm.pct_bad for sm in summaries]
        moved = (bad[1] - bad[0]) * direction[experiment]
        if moved < 10.0:
            violations.append(
                f"{experiment}: setting 2 moved pct_bad by "
                f"{bad[1] - bad[0]:+.1f} (needed >= 10 points in the "
                "predicted direction)")
        for idx in (2, 3):
            if abs(bad[idx] - bad[0]) > 8.0:
                violations.append(
                    f"{experiment}: setting {idx + 1} pct_bad "
                    f"{bad[idx]:.1f} not within 8 points of setting 1 "
                    f"({bad[0]:.1f})")
    _verdict(6, "sample size counters noise", violations)


# ---------------------------------------------------------------------------
# criterion 7: correlation grid outcome pattern (~5 s)
# ---------------------------------------------------------------------------

def test_correlation_grid_outcome_pattern():
    """Experiment G: signed boundary rates track the true correlation.

    At r=53 pct_m1 decreases and pct_p1 increases across the rho grid
    (monotone up to 2 combined MC standard errors, strict end to end);
    at r=1e5 pct_bad stays in [75, 95] with no detectable rho trend
    (weighted least-squares slope, |z| < 2.576).
    """
    settings = _settings_for("G")
    summaries, _ = run_settings(settings, MASTER_SEED,
                                parallelism=PARALLELISM)
    violations = []
    reps = settings[0].reps
    low, high = summaries[:5], summaries[15:]

    m1 = [sm.pct_m1 for sm in low]
    p1 = [sm.pct_p1 for sm in low]
    for i in range(4):
        slack_m1 = 2.0 * math.hypot(_pct_se(m1[i], reps),
                                    _pct_se(m1[i + 1], reps))
        if m1[i + 1] - m1[i] > slack_m1:
            violations.append(
                f"r=53: pct_m1 rose {m1[i]:.2f} -> {m1[i + 1]:.2f} "
                f"(beyond 2 MC-SE = {slack_m1:.2f})")
        slack_p1 = 2.0 * math.hypot(_pct_se(p1[i], reps),
                                    _pct_se(p1[i + 1], reps))
        if p1[i] - p1[i + 1] > slack_p1:
            violations.append(
                f"r=53: pct_p1 fell {p1[i]:.2f} -> {p1[i + 1]:.2f} "
                f"(beyond 2 MC-SE = {slack_p1:.2f})")
    if not m1[0] > m1[-1]:
        violations.append(f"r=53: pct_m1 not lower at rho=+0.95 "
                          f"({m1[-1]:.2f}) than at -0.95 ({m1[0]:.2f})")
    if not p1[-1] > p1[0]:
        violations.append(f"r=53: pct_p1 not higher at rho=+0.95 "
                          f"({p1[-1]:.2f}) than at -0.95 ({p1[0]:.2f})")

    bad = [sm.pct_bad for sm in high]
    for sm in high:
        if not 75.0 <= sm.pct_bad <= 95.0:
            violations.append(
                f"r=1e5: {sm.setting.id} pct_bad {sm.pct_bad:.2f} "
                "outside [75, 95]")
    rho_grid = np.array([sm.setting.rho for sm in high])
    proportions = np.array(bad) / 100.0
    variances = np.maximum(proportions * (1.0 - proportions) / reps, 1e-12)
    weights = 1.0 / variances
    x_bar = np.sum(weights * rho_grid) / np.sum(weights)
    s_xx = np.sum(weights * (rho_grid - x_bar) ** 2)
    slope = np.sum(weights * (rho_grid - x_bar) * proportions) / s_xx
    z_stat = slope / math.sqrt(1.0 / s_xx)
    if not abs(z_stat) < 2.576:
        violations.append(
            f"r=1e5: weighted trend in pct_bad over rho has "
            f"|z|={abs(z_stat):.2f} >= 2.576")
    _verdict(7, "correlation grid outcome pattern", violations)


# ---------------------------------------------------------------------------
# criterion 8: desk-scale factorial map (< 1 min)
# ---------------------------------------------------------------------------

def test_desk_scale_factorial_map():
    """Half-scale factorial at 40 replicates, summarised per factor.

    Averaged over the other factors, pct_bad must stay below 5% at
    log10 r = 0 and inside [70, 95] at log10 r = 4 for every N level,
    and on the cluster-size curves the NaN outcome must be the least
    regular of the three outcomes (largest total variation in excess
    of net change, summed over noise levels).
    """
    started = time.perf_counter()
    grid = factorial_grid(scale=0.5)
    summaries, _ = run_settings(grid, MASTER_SEED, parallelism=PARALLELISM)
    elapsed = time.perf_counter() - started
    violations = []
    if elapsed > 1800.0:
        violations.append(f"runtime {elapsed:.0f} s exceeded 1800 s")

    by_clusters = interaction_plot_data(summaries, "n_clusters")
    for row in by_clusters:
        if math.isclose(row["log10_r"], 0.0) and not row["pct_bad"] < 5.0:
            violations.append(
                f"log10_r=0, N={row['level']}: pct_bad "
                f"{row['pct_bad']:.2f} not below 5")
        if math.isclose(row["log10_r"], 4.0) \
                and not 70.0 <= row["pct_bad"] <= 95.0:
            violations.append(
                f"log10_r=4, N={row['level']}: pct_bad "
                f"{row['pct_bad']:.2f} outside [70, 95]")

    by_size = interaction_plot_data(summaries, "cluster_size")
    noise_levels = sorted({row["log10_r"] for row in by_size})
    wiggle = {}
    for key in ("pct_m1", "pct_p1", "pct_nan"):
        total = 0.0
        for lr in noise_levels:
            curve = [row[key] for row in by_size if row["log10_r"] == lr]
            total += _wiggle(curve)
        wiggle[key] = total
    if not (wiggle["pct_nan"] > wiggle["pct_m1"]
            and wiggle["pct_nan"] > wiggle["pct_p1"]):
        violations.append(
            "NaN outcome is not the least regular cluster-size curve: "
            f"excess variation nan={wiggle['pct_nan']:.3f}, "
            f"m1={wiggle['pct_m1']:.3f}, p1={wiggle['pct_p1']:.3f}")
    _verdict(8, "desk-scale factorial map", violations)


# ---------------------------------------------------------------------------
# criterion 9: sweep ANOVA effect sizes (< 1 min)
# ---------------------------------------------------------------------------

def test_sweep_anova_effect_sizes():
    """Random score sweep: factor importance and LS-mean increments.

    Main-effect mean squares for log10 pct_m1-score must come out in
    the order r > s > N > rho, each within a factor 1.5 of the recorded
    (172.5, 23.0, 5.3, 2.0); least-squares mean increments on a larger
    sweep must match 0.48 (N: 50 -> 150) and 0.54 (s: 55 -> 105)
    within +/-0.08.
    """
    violations = []
    table = predictor_sweep(MASTER_SEED, n_draws=400)
    rows = anova_balanced(table, _SWEEP_FACTORS, "log10_pred_m1",
                          two_way=False)
    mean_squares = {row.term: row.ms for row in rows}
    targets = {"log10_r": 172.5, "cluster_size": 23.0,
               "n_clusters": 5.3, "rho": 2.0}
    for term, target in targets.items():
        got = mean_squares[term]
        factor = max(got / target, target / got)
        if factor > 1.5:
            violations.append(
                f"mean square for {term}: {got:.2f} vs recorded {target} "
                f"(factor {factor:.2f} > 1.5)")
    ordered = [mean_squares[t] for t in _SWEEP_FACTORS]
    if not all(a > b for a, b in zip(ordered, ordered[1:])):
        violations.append(
            "mean squares not ordered r > s > N > rho: "
            + ", ".join(f"{t}={mean_squares[t]:.2f}"
                        for t in _SWEEP_FACTORS))

    big = predictor_sweep(MASTER_SEED, n_draws=1000)

    def level_mean(means, wanted):
        return means[[k for k in means if k == wanted][0]]

    by_n = ls_means(big, _SWEEP_FACTORS, "log10_pred_m1", "n_clusters")
    step_n = level_mean(by_n, 150) - level_mean(by_n, 50)
    if abs(step_n - 0.48) > 0.08:
        violations.append(
            f"LS-mean increment N 50 -> 150: {step_n:.4f} not within "
            "0.48 +/- 0.08")
    by_s = ls_means(big, _SWEEP_FACTORS, "log10_pred_m1", "cluster_size")
    step_s = level_mean(by_s, 105) - level_mean(by_s, 55)
    if abs(step_s - 0.54) > 0.08:
        violations.append(
            f"LS-mean increment s 55 -> 105: {step_s:.4f} not within "
            "0.54 +/- 0.08")
    _verdict(9, "sweep ANOVA effect sizes", violations)


# ---------------------------------------------------------------------------
# criterion 10: residual inflation transition (~1 min)
# ---------------------------------------------------------------------------

def test_residual_inflation_transition():
    """Inflating residuals drives the fit through the boundary stages.

    The canonical premium ledger is not distributed with the package,
    so this runs on the bundled synthetic surrogate and checks the
    qualitative transition sequence as the property-based substitute
    for fixed reference estimates: an interior optimum at phi=1 with a
    small positive correlation, then correlation pinned at +1, then a
    zero intercept variance, with sigma2_e / phi^2 stable throughout.
    """
    rows = phi_sweep(make_surrogate())
    violations = []
    base = rows[0]
    if base.phi != 1.0:
        violations.append(f"first sweep point is phi={base.phi}, not 1.0")
    if base.classification is not Classification.GOOD:
        violations.append(
            f"phi=1 fit is {base.classification.name}, not interior")
    if not 0.0 < base.rho_hat < 0.2:
        violations.append(
            f"phi=1 correlation {base.rho_hat:.4f} not a small positive "
            "value in (0, 0.2)")

    names = [row.classification.name for row in rows]
    stages = [name for name, _ in itertools.groupby(names)]
    if stages != ["GOOD", "RHO_PLUS_ONE", "ZERO_VARIANCE"]:
        violations.append(
            "classifications do not form one GOOD -> RHO_PLUS_ONE -> "
            f"ZERO_VARIANCE sequence: {names}")

    good = [row for row in rows
            if row.classification is Classification.GOOD]
    if good:
        rhos = [row.rho_hat for row in good]
        if not rhos[-1] > rhos[0]:
            violations.append(
                f"correlation did not rise over the interior stage "
                f"({rhos[0]:.4f} -> {rhos[-1]:.4f})")
        if any(b - a < -1e-6 for a, b in zip(rhos, rhos[1:])):
            violations.append(
                f"correlation not nondecreasing over the interior stage: "
                f"{[round(v, 4) for v in rhos]}")
    for row in rows:
        if row.classification is Classification.RHO_PLUS_ONE \
                and row.rho_hat != 1.0:
            violations.append(
                f"phi={row.phi:.1f}: RHO_PLUS_ONE with rho_hat "
                f"{row.rho_hat!r} != 1.0")
        if row.classification is Classification.ZERO_VARIANCE:
            if not math.isnan(row.rho_hat):
                violations.append(
                    f"phi={row.phi:.1f}: ZERO_VARIANCE with non-NaN "
                    f"rho_hat {row.rho_hat!r}")
            if row.sigma2_c != 0.0:
                violations.append(
                    f"phi={row.phi:.1f}: ZERO_VARIANCE with intercept "
                    f"variance {row.sigma2_c!r} != 0")
        drift = abs(row.sigma2_e_over_phi2 / base.sigma2_e - 1.0)
        if drift >= 0.03:
            violations.append(
                f"phi={row.phi:.1f}: sigma2_e/phi^2 drifted {drift:.3f} "
                "(>= 3%) from the phi=1 error variance")
    _verdict(10, "residual inflation transition", violations)


# ---------------------------------------------------------------------------
# criterion 11: parallel rerun is byte-identical (~1 min)
# ---------------------------------------------------------------------------

def test_parallel_rerun_byte_identical(tmp_path):
    """Same seed, parallelism 1 vs 8: identical CSV artifacts."""
    settings = with_reps(_settings_for("A"), 40)
    sums_serial, recs_serial = run_settings(settings, MASTER_SEED,
                                            parallelism=1)
    sums_pool, recs_pool = run_settings(settings, MASTER_SEED,
                                        parallelism=8)
    write_summary_csv(sums_serial, tmp_path / "summary_serial.csv")
    write_summary_csv(sums_pool, tmp_path / "summary_pool.csv")
    write_replicate_csv(recs_serial, tmp_path / "replicates_serial.csv")
    write_replicate_csv(recs_pool, tmp_path / "replicates_pool.csv")

    violations = []
    summary_serial = (tmp_path / "summary_serial.csv").read_bytes()
    summary_pool = (tmp_path / "summary_pool.csv").read_bytes()
    if summary_serial != summary_pool:
        violations.append("summary CSVs differ between parallelism 1 and 8")
    reps_serial = (tmp_path / "replicates_serial.csv").read_bytes()
    reps_pool = (tmp_path / "replicates_pool.csv").read_bytes()
    if reps_serial != reps_pool:
        violations.append(
            "replicate CSVs differ between parallelism 1 and 8")
    _verdict(11, "parallel rerun byte-identical", violations)
