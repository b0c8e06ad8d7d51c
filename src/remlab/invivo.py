"""Residual-inflation experiment on a clustered premium dataset.

Fits a random-intercept/random-slope model to health-plan premium data
(one cluster per state, one plan-level regressor, two state-level fixed
covariates), then rebuilds the response as fitted values plus residuals
inflated by a factor phi >= 1 and refits across a grid of phi.  Growing
phi raises the error variance while holding everything else fixed, so the
sweep shows directly how a shrinking signal-to-noise ratio drives the
variance estimates to the boundary.

When the real survey file is not available, `make_surrogate` builds a
synthetic dataset with the same shape (45 states, 341 plans, cluster
sizes from 1 to 31 with median 5) and generating parameters taken from a
published fit to the real data; sweep output is labeled with its source
so surrogate results are never mistaken for real ones.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import DataError
from .model_system import VarianceParams, philox, write_csv
from .reml_core import (Classification, ClassifyTolerances, FitResult,
                        GeneralDataset, eblups, fit_general)


# ---------------------------------------------------------------------------
# Dataset
# ---------------------------------------------------------------------------

_HMO_HEADER = ["state", "premium", "families", "exp_per_admission",
               "new_england"]


@dataclass(frozen=True, eq=False)
class HmoDataset:
    """Plan-level premium records grouped by state.

    Attributes:
        state: state label per plan, shape (n,).
        premium: response per plan (currency units), shape (n,).
        families: families enrolled per plan (count, >= 1), shape (n,).
        exp_per_admission: state-level average expenses per admission,
            repeated on each of the state's plans, shape (n,).
        new_england: state-level indicator coded +1/-1, repeated per plan.
        source: provenance label, e.g. "canonical" or "surrogate".

    Construction numbers each plan's state in order of first appearance
    (``_plan_state``) and keeps each state's first plan (``_first_plan``).
    """

    state: np.ndarray
    premium: np.ndarray
    families: np.ndarray
    exp_per_admission: np.ndarray
    new_england: np.ndarray
    source: str = "canonical"

    def __post_init__(self) -> None:
        n = self.premium.shape[0]
        for name in ("state", "families", "exp_per_admission",
                     "new_england"):
            if getattr(self, name).shape != (n,):
                raise DataError(f"column {name!r} has wrong length")
        if n == 0:
            raise DataError("dataset is empty")
        if np.any(self.families < 1):
            raise DataError("families enrolled must be >= 1")
        if not np.all(np.isin(self.new_england, (-1, 1))):
            raise DataError("new_england must be coded +1/-1")
        _, first, inverse = np.unique(self.state, return_index=True, return_inverse=True)
        order = np.argsort(first)  # the argsort of a permutation is its inverse
        object.__setattr__(self, "_plan_state", np.argsort(order)[inverse])
        object.__setattr__(self, "_first_plan", first[order])
        first_row = self._first_plan[self._plan_state]
        for name in ("exp_per_admission", "new_england"):
            col = getattr(self, name)
            bad = self._plan_state[col != col[first_row]]
            if bad.size:
                lab = self.state[self._first_plan[bad.min()]].item()
                raise DataError(
                    f"state-level column {name!r} varies within "
                    f"state {lab!r}")

    def standardized_design(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Standardize the regressors as the model requires (``_standardize``)."""
        return _standardize(self.families, self.exp_per_admission[self._first_plan],
                            self.new_england[self._first_plan], self._plan_state)

    def to_general(self) -> GeneralDataset:
        """Build the general-engine dataset: X = [1, z, expenses, NE].

        One cluster per state, states in order of first appearance and
        plans in file order within each state.
        """
        z, e, ne = self.standardized_design()
        rows = np.argsort(self._plan_state, kind="stable")
        xmat = np.column_stack([np.ones_like(z), z, e, ne])
        return GeneralDataset(x=z[rows], X=xmat[rows],
                              y=self.premium[rows].astype(float),
                              sizes=np.bincount(self._plan_state))


def _standardize(families, e_state, ne_state, plan_state):
    """The standardized regressors (z, e, ne) of each plan, each of shape (n,).

    log10(families), one value per plan, is centered and scaled over plans;
    the state covariates e_state and ne_state, one value per state, are
    centered and scaled over states (each state counted once) and given to
    each plan through its state index plan_state.

    Raises:
        DataError: if a regressor is constant, so that its coefficient is
            not estimable.
    """
    logf = np.log10(families.astype(float))
    e_state = e_state.astype(float)
    ne_state = ne_state.astype(float)
    # max == min, not std == 0: the std of equal values is often a rounding residue
    if np.ptp(logf) == 0:
        raise DataError("families enrolled is the same on every plan; "
                        "its coefficient is not estimable")
    if np.ptp(e_state) == 0 or np.ptp(ne_state) == 0:
        raise DataError("a state-level covariate is constant; "
                        "its coefficient is not estimable")
    z, e, ne = ((v - v.mean()) / v.std(ddof=0) for v in (logf, e_state, ne_state))
    return z, e[plan_state], ne[plan_state]


def ingest_hmo(path, source: str = "canonical") -> HmoDataset:
    """Read a premium CSV with columns state,premium,families,exp_per_admission,new_england."""
    state, premium, families, expense, ne = [], [], [], [], []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _HMO_HEADER:
            raise DataError(
                f"expected header {','.join(_HMO_HEADER)}, got {header}")
        for row in reader:  # line_num is the file line a record ends on
            lineno = reader.line_num
            if not row:
                continue
            if len(row) != len(_HMO_HEADER):
                raise DataError(f"line {lineno}: wrong field count")
            try:
                state.append(row[0])
                premium.append(float(row[1]))
                families.append(int(row[2]))
                expense.append(float(row[3]))
                ne.append(int(row[4]))
            except ValueError as exc:
                raise DataError(f"line {lineno}: {exc}") from exc
            if not (math.isfinite(premium[-1]) and math.isfinite(expense[-1])):
                raise DataError(f"line {lineno}: non-finite value")
    return HmoDataset(
        state=np.array(state), premium=np.array(premium),
        families=np.array(families), exp_per_admission=np.array(expense),
        new_england=np.array(ne), source=source)


def write_hmo_csv(data: HmoDataset, path) -> None:
    """Write a dataset in the format `ingest_hmo` reads."""
    write_csv(path, _HMO_HEADER, zip(data.state.tolist(), data.premium.tolist(),
                                     data.families.astype(int).tolist(),
                                     data.exp_per_admission.tolist(),
                                     data.new_england.astype(int).tolist()))


# ---------------------------------------------------------------------------
# Surrogate dataset
# ---------------------------------------------------------------------------

# Cluster-size profile: 45 states, 341 plans, sizes 1..31 with median 5 --
# the shape of the real survey.
_SURROGATE_SIZES = (
    1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5,
    5, 5, 6, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 13, 14, 15,
    19, 22, 26, 31)

# Generating parameters: the point estimates from a fit to the real
# survey (fixed effects b0, b1, b_expenses, b_ne; then error variance,
# intercept variance, slope variance, correlation).
_SURROGATE_BETA = (180.0, -2.21, 4.78, 16.1)
_SURROGATE_VARIANCE = (487.0, 97.7, 5.39, 0.115)

# Chosen so that the default surrogate reproduces the real survey's
# behavior under the inflation sweep: an interior fit with small positive
# rho-hat at phi = 1, a run of rho-hat = +1 fits at middling phi, and a
# collapse to zero variance estimates by the end of the default grid.
_DEFAULT_SURROGATE_SEED = 390


def make_surrogate(seed: int = _DEFAULT_SURROGATE_SEED) -> HmoDataset:
    """Build a synthetic premium dataset shaped like the real survey.

    Cluster sizes follow a fixed 45-state profile (341 plans, sizes 1 to
    31, median 5).  Plan counts of families enrolled, state expense
    levels, and the six New England states are drawn from `seed`; the
    response is then simulated from the random-regressions model with
    generating parameters equal to a published fit of the real data.

    The default seed is part of the package's reproducibility contract:
    the resulting dataset shows the same qualitative behavior as the real
    one under the residual-inflation sweep.
    """
    rng = philox(seed)
    sizes = np.array(_SURROGATE_SIZES)
    k = sizes.shape[0]
    labels = [f"S{i+1:02d}" for i in range(k)]

    log10_fam = np.clip(rng.normal(3.6, 0.7, size=int(sizes.sum())),
                        2.0, 5.5)
    families = np.round(10.0 ** log10_fam).astype(int)
    expenses_state = np.round(rng.normal(4000.0, 600.0, size=k), 2)
    ne_states = rng.choice(k, size=6, replace=False)
    ne_state = np.full(k, -1, dtype=int)
    ne_state[ne_states] = 1

    # Standardize exactly as the fit will, then simulate the response.
    plan_state = np.repeat(np.arange(k), sizes)
    z, e, ne = _standardize(families, expenses_state, ne_state, plan_state)
    b0, b1, b_e, b_ne = _SURROGATE_BETA
    vp = VarianceParams(*_SURROGATE_VARIANCE)
    u = (rng.standard_normal((k, 2)) @ vp.sigma_cholesky().T)[plan_state]
    eps = rng.standard_normal(z.shape[0]) * math.sqrt(vp.sigma2_e)
    y = b0 + b1 * z + b_e * e + b_ne * ne + u[:, 0] + u[:, 1] * z + eps
    return HmoDataset(
        state=np.repeat(np.array(labels), sizes), premium=y, families=families,
        exp_per_admission=np.repeat(expenses_state, sizes),
        new_england=np.repeat(ne_state, sizes), source="surrogate")


# ---------------------------------------------------------------------------
# Fit and residual-inflation sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvivoRow:
    """One row of the inflation sweep: estimates at a single phi."""

    phi: float
    rho_hat: float
    sigma2_e: float
    sigma2_e_over_phi2: float
    sigma2_c: float
    sigma2_s: float
    classification: Classification


_MAX_PHI_POINTS = 10_001  # at about 2 ms a refit, a sweep of 20 s


def default_phi_grid(start: float = 1.0, end: float = 3.0,
                     step: float = 0.1) -> list[float]:
    """The sweep grid start, start + step, ..., end.

    The standard grid, 1.0 to 3.0 in steps of 0.1, reaches past both
    crossings on the surrogate: GOOD -> RHO_PLUS_ONE at phi ~ 1.899 and
    RHO_PLUS_ONE -> ZERO_VARIANCE at phi ~ 2.626.  A range of more than
    10,001 points is refused before any point is built.
    """
    if (not all(map(math.isfinite, (start, end, step))) or end < start or step <= 0
            or not (end - start) / step < _MAX_PHI_POINTS - 0.5):
        raise ValueError("bad phi range")
    n_steps = int(round((end - start) / step))
    phis = [round(start + k * step, 10) for k in range(n_steps + 1)]
    return [p for p in phis if p <= end + 1e-12]


def _fit_theta(fit: FitResult) -> tuple[float, float, float]:
    """(lambda_c, lambda_s, rho) of a fit: the start that `fit_general` takes."""
    p = fit.params
    return math.sqrt(p.sigma2_c / p.sigma2_e), math.sqrt(p.sigma2_s / p.sigma2_e), p.rho


def phi_sweep(data: HmoDataset, phis=None,
              tol: ClassifyTolerances = ClassifyTolerances()) -> list[InvivoRow]:
    """Refit the model with residuals inflated by each phi in the grid.

    The baseline fit's fitted values include the cluster-level random
    effects (shrunken predictions), so the refitted response is
    fit + phi * residual; phi = 1 reproduces the original data exactly.

    The sweep is a continuation in phi: the baseline fit counts as the fit
    at phi = 1, and each refit starts (`fit_general`'s start) at the secant
    prediction through the last two fits, theta_1 + (phi - phi_1) /
    (phi_1 - phi_0) (theta_1 - theta_0), or at the last fit's theta where
    phi_0 = phi_1.  A start only decides where the search begins: a search
    from it that ends uncertified is replaced by the fit from the moment
    start.

    Returns:
        One InvivoRow per phi, in grid order.

    Raises:
        ValueError: before the baseline fit, if any phi is not finite or is
            below 1.
    """
    phis = default_phi_grid() if phis is None else [float(phi) for phi in phis]
    if not all(math.isfinite(phi) and phi >= 1.0 for phi in phis):
        raise ValueError("phi must be finite and >= 1")
    gen = data.to_general()  # the baseline fit, its EBLUPs and every refit share its design
    base = fit_general(gen, tol)
    u = np.repeat(eblups(base, gen), gen.sizes, axis=0)
    fitted = gen.X @ base.beta + u[:, 0] + u[:, 1] * gen.x
    residual = gen.y - fitted
    phi0, theta0 = phi1, theta1 = 1.0, _fit_theta(base)
    rows: list[InvivoRow] = []
    for phi in phis:
        ratio = (phi - phi1) / (phi1 - phi0) if phi1 != phi0 else 0.0
        fit = fit_general(gen.with_response(fitted + phi * residual), tol, start=tuple(
            b + ratio * (b - a) for a, b in zip(theta0, theta1)))
        (phi0, theta0), (phi1, theta1) = (phi1, theta1), (phi, _fit_theta(fit))
        p = fit.params
        rows.append(InvivoRow(
            phi=phi, rho_hat=fit.rho_hat, sigma2_e=p.sigma2_e,
            sigma2_e_over_phi2=p.sigma2_e / phi ** 2,
            sigma2_c=p.sigma2_c, sigma2_s=p.sigma2_s,
            classification=fit.classification))
    return rows


SWEEP_HEADER = ["phi", "rho_hat", "sigma2_e", "sigma2_e_over_phi2",
                "sigma2_c", "sigma2_s", "classification", "source"]


def write_sweep_csv(rows: list[InvivoRow], path, source: str) -> None:
    """Write sweep rows; the trailing column records the data source."""
    fields = attrgetter(*SWEEP_HEADER[:-1])
    write_csv(path, SWEEP_HEADER, ((*fields(r), source) for r in rows))
